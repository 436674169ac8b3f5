import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from contest_eq import (ALWAYS_SUBMIT, NoConvergence, NoRoot, Normal,
                        NoExclusion, ProfileComponent, RejectionExclusion,
                        SignalExclusion, SubmissionProfile, TypeMix, ban_mass,
                        best_response, equilibrium_curves,
                        evaluate_success, normal_model, solve,
                        solve_benchmark, solve_exclusion, solve_multi_period,
                        solve_signal_cutoff, solve_typed,
                        steady_state_profile, truncated_profile, win_mass)
from contest_eq import core, distributions, equilibria

import oracles
from reference import (EXCLUSION_V400_ROOT, V30_Q0, V50_Q0, V50_Q1,
                       V50_ALPHA1, V50_SC_INF_ROOT, V20_BAN_ROOTS, TWO_TYPE_AH,
                       TWO_TYPE_AL, TWO_TYPE_QH, TWO_TYPE_QL)

INF = math.inf

EVERY_POLICY = {"free_entry": NoExclusion(), "t1": RejectionExclusion(1),
                "t5": RejectionExclusion(5), "t50": RejectionExclusion(50),
                "signal_0": SignalExclusion(0.0),
                "signal_inf": SignalExclusion(INF)}
# each policy's public pooled solver
PUBLIC_SOLVER = {"free_entry": solve_benchmark, "t1": solve_exclusion,
                 "t5": lambda p: solve_multi_period(p, 5),
                 "t50": lambda p: solve_multi_period(p, 50),
                 "signal_0": lambda p: solve_signal_cutoff(p, 0.0),
                 "signal_inf": lambda p: solve_signal_cutoff(p, INF)}


@pytest.mark.parametrize("name", EVERY_POLICY)
def test_solve_picks_the_typed_or_the_pooled_solver(name, model_v50,
                                                    two_type_params):
    # a type block solves the typed steady state, and a model without one
    # the regime's public pooled solve, every outcome field equal
    policy = EVERY_POLICY[name]
    typed = solve(two_type_params, policy)
    assert typed == solve_typed(two_type_params, policy)
    assert len(typed.cutoffs) == 2
    pooled = solve(model_v50, policy)
    assert pooled == PUBLIC_SOLVER[name](model_v50)


# ---------------------------------------------------------------------------
# free-entry benchmark


def test_benchmark_reproduces_reference_root(model_v30):
    out = solve_benchmark(model_v30)
    assert abs(out.cutoff - V30_Q0) < 1e-6
    assert out.cutoff < model_v30.first_best_cutoff
    assert out.residual < 1e-8
    assert len(out.all_roots) == 1
    # marginal quality is indifferent: win probability equals C/(C+V)
    ev = evaluate_success(truncated_profile(model_v30.quality, out.cutoff),
                          model_v30)
    assert abs(float(ev.win_prob(out.cutoff)) - 1.0 / 31.0) < 1e-8


def test_noise_mean_moves_the_threshold_not_the_cutoff(model_v50,
                                                      v50_benchmark):
    # review noise centred far from zero shifts every clearing threshold by
    # its mean and leaves the entry cutoff where it was
    import dataclasses
    p = dataclasses.replace(model_v50, noise=Normal(50.0, 5.0))
    out = solve_benchmark(p)
    assert abs(out.cutoff - v50_benchmark.cutoff) < 1e-8
    assert abs(out.sbar - v50_benchmark.sbar - 50.0) < 1e-8
    profile = truncated_profile(p.quality, out.cutoff)
    assert abs(evaluate_success(profile, p).sbar - out.sbar) < 1e-8


def test_benchmark_root_with_narrow_noise_meets_dense_oracle():
    # a box draw whose noise sd is 0.0125 quality sd: the clearing
    # integrand turns over a sliver of the quality range
    mu, var_q, var_s = -0.26474165059032695, 0.7620727561122185, \
        0.00011984934800739934
    p = normal_model(mu, var_q, var_s, reject_cost=0.8936363977979189,
                     win_value=381.2861666793989, budget=0.9429420351455405,
                     discount=0.850386653653679)
    out = solve_benchmark(p)
    sbar = oracles.clearing_sbar(mu, var_q, var_s, p.budget,
                                 cutoff=out.cutoff)
    win = 1.0 - oracles.norm_cdf(sbar - out.cutoff, 0.0, math.sqrt(var_s))
    assert abs(win - p.loss_share) < 1e-8


def test_benchmark_huge_prize_pushes_cutoff_down(model_v30):
    import dataclasses
    p = dataclasses.replace(model_v30, win_value=1e8)
    out = solve_benchmark(p)
    assert out.cutoff < p.quality.quantile(0.001)
    assert out.residual < 1e-8


def test_benchmark_constructed_prize_recovers_cutoff(model_v30):
    # pick the prize that makes a point just under the first-best cutoff
    # indifferent; the solver must return that point
    p = model_v30
    target = p.first_best_cutoff - 0.01
    ev = evaluate_success(truncated_profile(p.quality, target), p)
    w = float(ev.win_prob(target))
    import dataclasses
    constructed = dataclasses.replace(p, win_value=p.reject_cost * (1 - w) / w)
    out = solve_benchmark(constructed)
    assert abs(out.cutoff - target) < 1e-6


def test_benchmark_map_is_increasing(model_v30):
    p = model_v30
    grid = np.linspace(p.quality.quantile(1e-4),
                       p.first_best_cutoff - 1e-6, 500)
    lhs, _ = equilibrium_curves(p, NoExclusion(), grid)
    assert np.all(np.diff(lhs) > 0.0)


def test_benchmark_welfare_formula(model_v30):
    p = model_v30
    out = solve_benchmark(p)
    k, v, c = p.budget, p.win_value, p.reject_cost
    expected = k * v - (1.0 - p.quality.cdf(out.cutoff) - k) * c
    assert abs(out.welfare - expected) < 1e-10


# ---------------------------------------------------------------------------
# one-period rejection bans


def test_exclusion_reproduces_reference_root(v50_exclusion, v50_benchmark):
    assert abs(v50_exclusion.cutoff - V50_Q1) < 1e-6
    assert abs(v50_benchmark.cutoff - V50_Q0) < 1e-6
    assert v50_exclusion.cutoff > v50_benchmark.cutoff
    assert v50_exclusion.residual < 1e-8
    assert v50_exclusion.hypothesis_met  # V/C = 50 >= (1-k)/(2k) = 4.5
    assert abs(v50_exclusion.eligibility[0] - V50_ALPHA1) < 1e-8


def test_exclusion_eligibility_identity(model_v50, v50_exclusion):
    p, out = model_v50, v50_exclusion
    expected = (1.0 + p.budget) / (2.0 - p.quality.cdf(out.cutoff))
    assert abs(out.eligibility[0] - expected) < 1e-10
    assert abs(out.submission_volume
               - out.eligibility[0] * (1.0 - p.quality.cdf(out.cutoff))) < 1e-10


def test_exclusion_lowers_volume_and_raises_welfare(v50_benchmark,
                                                    v50_exclusion):
    assert v50_exclusion.submission_volume < v50_benchmark.submission_volume
    assert v50_exclusion.welfare > v50_benchmark.welfare


def test_exclusion_unique_under_large_prize_conditions():
    # V/C = 400 >= 1/(k(1-delta)) = 333 with normal quality: a single root,
    # rising left side and falling right side of the defining equation
    p = normal_model(0.0, 2.0, 5.0, reject_cost=1.0, win_value=400.0,
                     budget=0.1, discount=0.97)
    out = solve_exclusion(p)
    assert len(out.all_roots) == 1
    assert abs(out.cutoff - EXCLUSION_V400_ROOT) < 1e-6
    grid = np.linspace(p.quality.quantile(1e-4),
                       p.first_best_cutoff - 1e-6, 400)
    lhs, rhs = equilibrium_curves(p, RejectionExclusion(1), grid)
    assert np.all(np.diff(lhs) > 0.0)
    assert np.all(np.diff(rhs) < 0.0)


def test_exclusion_residual_recheck(model_v50, v50_exclusion):
    p, out = model_v50, v50_exclusion
    profile = steady_state_profile(p, out.cutoff, RejectionExclusion(1))
    ev = evaluate_success(profile, p)
    F = p.quality.cdf(out.cutoff)
    k, c, v, d = p.budget, p.reject_cost, p.win_value, p.discount
    rhs = ((1 + k) * c + k * d * (2 - F) * v) / \
        ((1 + k) * c + (1 + k) * (1 + d - d * F) * v)
    assert abs(float(ev.win_prob(out.cutoff)) - rhs) < 1e-8


def test_exclusion_below_existence_bound_is_flagged():
    # V/C below (1-k)/(2k): the scan still runs, the flag records it
    p = normal_model(0.0, 1.0, 2.0, reject_cost=1.0, win_value=2.0,
                     budget=0.1, discount=0.9)
    out = solve_exclusion(p)
    assert not out.hypothesis_met
    assert out.residual < 1e-8


# ---------------------------------------------------------------------------
# multi-period bans


def test_multi_period_t1_equals_exclusion(model_v50, v50_exclusion):
    out = solve_multi_period(model_v50, 1)
    assert len(out.all_roots) == len(v50_exclusion.all_roots)
    for a, b in zip(out.all_roots, v50_exclusion.all_roots):
        assert abs(a - b) < 1e-9


def test_multi_period_ordering_matches_reference(model_v20):
    roots = {t: solve_multi_period(model_v20, t).cutoff for t in (1, 5, 50)}
    assert roots[50] < roots[1] < roots[5]
    for t, q in roots.items():
        assert abs(q - V20_BAN_ROOTS[t]) < 1e-6


def test_long_bans_drive_eligibility_to_budget(model_v20):
    out = solve_multi_period(model_v20, 500)
    assert abs(out.cutoff - V20_BAN_ROOTS[500]) < 1e-6
    assert abs(out.eligibility[0] - model_v20.budget) < 0.02
    expected = (1 + 500 * 0.1) / (1 + 500 *
                                  (1 - model_v20.quality.cdf(out.cutoff)))
    assert abs(out.eligibility[0] - expected) < 1e-10


def test_very_long_bans_meet_residual_contract(model_v20):
    # eligibility near the budget flattens the clearing mass; the residual
    # must still meet the 1e-8 contract
    out = solve_multi_period(model_v20, 5000)
    assert out.residual < 1e-8


@pytest.mark.parametrize("periods", [1000, 5000])
def test_scalar_clearing_matches_solver_threshold(model_v20, periods):
    # the scalar clearing solve bisects to bracket collapse like the
    # vectorized residual, so both give the same threshold at a root where
    # the clearing slope is small
    policy = RejectionExclusion(periods)
    out = solve_multi_period(model_v20, periods)
    profile = steady_state_profile(model_v20, out.cutoff, policy)
    assert abs(evaluate_success(profile, model_v20).sbar
               - out.sbar) < 1e-10


def test_root_bisection_stops_after_its_step_count():
    # near 1e6 one float spacing (1.2e-10) exceeds the tolerance, so the
    # bracket never gets narrower than tol; the step count must end the
    # bisection, and a step residual is never exactly zero
    calls = []

    def step(qs):
        calls.append(qs)
        return np.where(qs < 1e6 + 0.3, -1.0, 1.0)

    root = distributions._bisect_root(step, 1e6, 1e6 + 1.0, -1.0, tol=1e-12)
    assert len(calls) <= math.ceil(math.log2(1.0 / 1e-12))
    assert abs(root - (1e6 + 0.3)) < 1e-9


@settings(max_examples=200, deadline=None)
@given(st.floats(-1e6, 1e6), st.floats(1e-12, 1e3), st.floats(0.0, 1.0),
       st.floats(-15.0, 1.0), st.sampled_from(["step", "smooth"]),
       st.sampled_from([1.0, -1.0]))
# near 1e6 one float spacing exceeds the tolerance: midpoints repeat
@example(1e6, 1.0, 0.3, -12.0, "step", 1.0)
def test_tree_bisection_takes_the_single_steps(lo, width, at, log_tol, kind,
                                               sign):
    # the tree walk evaluates the same midpoints in batches: it must return
    # the float that single steps return, in ceil(steps / levels) calls
    hi = lo + width
    root = lo + at * width
    tol = width * 10.0 ** log_tol
    levels = distributions.TREE_LEVELS

    def scalar(q):
        if kind == "step":
            return sign * (-1.0 if q < root else 1.0)
        return sign * (q - root) * (1.0 + (q - lo) * (q - lo))

    batches = []

    def batched(qs):
        batches.append(qs.size)
        return np.array([scalar(q) for q in qs])

    flo = scalar(lo)
    single = oracles.bisect_steps(scalar, lo, hi, flo, tol)
    tree = distributions._bisect_root(batched, lo, hi, flo, tol)
    assert tree == single
    steps = math.ceil(math.log2(max(hi - lo, tol) / tol))
    assert len(batches) == math.ceil(steps / levels)
    assert sum(batches) == sum(2 ** min(levels, steps - i) - 1
                               for i in range(0, steps, levels))

    # a batch of brackets of other widths, so other step counts, and of
    # either sign at the lower end: each row is its one-bracket call
    los = np.array([lo, lo - 3.0 * width, lo, root])
    his = np.array([hi, hi, lo + 0.3 * width, hi + 50.0 * width])
    rows = distributions._bisect_root(np.vectorize(scalar), los, his,
                                      np.vectorize(scalar)(los), tol)
    for row, a, b in zip(rows, los, his):
        assert row == distributions._bisect_root(batched, a, b, scalar(a),
                                                 tol)


@settings(max_examples=200, deadline=None)
@given(st.floats(-1e6, 1e6), st.floats(1e-12, 1e3), st.floats(0.0, 1.0),
       st.floats(-15.0, 1.0), st.sampled_from(["step", "smooth"]),
       st.sampled_from([1.0, -1.0]))
# near 1e6 one float spacing exceeds the tolerance: windows collapse
@example(1e6, 1.0, 0.3, -12.0, "step", 1.0)
@example(1e6, 1.0, 0.3, -12.0, "smooth", -1.0)
@example(0.0, 5.0, 0.71875, -3.65625, "step", 1.0)
@example(512.0, 1.0, 1.0, -11.75, "step", 1.0)
def test_secant_polish_ends_in_a_bracket_below_the_tolerance(lo, width, at,
                                                             log_tol, kind,
                                                             sign):
    # the polish returns the midpoint of a final bracket narrower than the
    # tolerance, whose ends differ in sign, in at most one residual call
    # more than the tree walk
    hi = lo + width
    root = lo + at * width
    tol = width * 10.0 ** log_tol

    def scalar(q):
        if kind == "step":
            return sign * (-1.0 if q < root else 1.0)
        return sign * (q - root) * (1.0 + (q - lo) * (q - lo))

    batches = []

    def batched(qs):
        batches.append(qs.size)
        return np.array([scalar(q) for q in qs])

    flo, fhi = scalar(lo), scalar(hi)
    assume((flo > 0.0) != (fhi > 0.0))
    tree_walks = []
    tree_walk = distributions._bisect_root

    def recorded(residual, a, b, fa, tol):
        tree_walks.append((a, b, fa))
        return tree_walk(residual, a, b, fa, tol)

    with mock.patch.object(equilibria, "_bisect_root", recorded):
        polished = equilibria._secant_polish(batched, lo, hi, flo, fhi, tol)
    (a, b, fa), = tree_walks
    assert fa == scalar(a)
    a, b = oracles.bisect_bracket(scalar, a, b, fa, tol)
    assert polished == 0.5 * (a + b)
    assert (scalar(a) > 0.0) != (scalar(b) > 0.0)
    # up to the rounding of the midpoints and of the step count's log2
    assert b - a <= tol * (1.0 + 1e-12) + np.spacing(abs(a) + abs(b))
    steps = math.ceil(math.log2(max(hi - lo, tol) / tol))
    assert len(batches) <= math.ceil(steps / distributions.TREE_LEVELS) + 1


def test_exclusion_solve_makes_three_sign_calls_and_one_clearing_call(
        model_v50, monkeypatch):
    # the root search walks the sign residual: one scan call and two secant
    # window calls polish its one bracket, the second ending in a window
    # narrower than the tolerance; market clearing runs once, in the root
    # pass at the polished roots, where one checked Newton step clears
    # without the bracketed kernel
    calls = {}

    def counted(name):
        real = getattr(equilibria, name)

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)
        monkeypatch.setattr(equilibria, name, wrapper)

    for name in ("_sign_residuals", "_root_pass", "_batch_residuals",
                 "_clearing_thresholds"):
        counted(name)
    out = solve_exclusion(model_v50)
    assert abs(out.cutoff - V50_Q1) < 1e-6
    assert calls == {"_sign_residuals": 3, "_root_pass": 1}


@pytest.mark.parametrize("policy", EVERY_POLICY.values(), ids=EVERY_POLICY)
def test_model_b_root_pass_clears_without_the_kernel(model_v50, monkeypatch,
                                                     policy):
    # at a root polished to 1e-10 the Newton step from s* passes its check
    # under every policy, the kernel staying the fallback, and clears to
    # rounding: within 1e-13 of the threshold bracketed to 1e-14
    def refused(*args):
        raise AssertionError("the root pass fell back to the kernel")

    monkeypatch.setattr(equilibria, "_clearing_thresholds", refused)
    monkeypatch.setattr(equilibria, "_batch_residuals", refused)
    out = solve(model_v50, policy)
    assert out.residual < 1e-8
    assert len(out.root_clearing) == len(out.all_roots) == 1
    assert abs(out.sbar - core.signal_cutoff(out.profile, model_v50)) < 1e-13


# orthant evaluations of one model-B solve: the two-tail screen leaves an
# orthant to the scan rows near the root (and to a signal ban's own mass on
# every row), to the secant windows and to the clearing at the root; one
# orthant per scan row cost 2,259 (4,517 with a signal ban) in six sign calls
@pytest.mark.parametrize("policy, bound", [
    (NoExclusion(), 800), (RejectionExclusion(1), 800),
    (RejectionExclusion(5), 800), (SignalExclusion(0.0), 2_700)],
    ids=["benchmark", "exclusion", "t5", "signal_0"])
def test_model_b_solve_screens_most_scan_rows_from_the_orthant(
        model_v50, monkeypatch, policy, bound):
    real = core._normal_orthant
    evaluated = []

    def counted(h, k, rho, r):
        evaluated.append(np.broadcast(h, k).size)
        return real(h, k, rho, r)

    sign_calls = []
    real_sign = equilibria._sign_residuals

    def counted_sign(*args):
        sign_calls.append(1)
        return real_sign(*args)

    monkeypatch.setattr(core, "_normal_orthant", counted)
    monkeypatch.setattr(equilibria, "_sign_residuals", counted_sign)
    solve(model_v50, policy)
    assert sum(evaluated) <= bound
    assert len(sign_calls) <= 4


def test_empty_scan_interval_raises_before_any_residual_call(monkeypatch):
    # a budget of 1 - 1e-6 puts the first-best cutoff at the grid floor:
    # the scan interval is empty, and no leftward extension may run away
    def refused(params, policy, grid):
        raise AssertionError("residual evaluated on an empty scan interval")

    for name in ("_sign_residuals", "_root_pass", "_batch_residuals"):
        monkeypatch.setattr(equilibria, name, refused)
    params = normal_model(1e-7, 1.0, 1.0, reject_cost=1.0, win_value=6.96,
                          budget=0.999999, discount=0.17)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for policy in (NoExclusion(), RejectionExclusion(1),
                       SignalExclusion(-INF)):
            with pytest.raises(NoRoot):
                solve(params, policy)


def _scan_with_zero_at_grid_point(params, shape):
    """Scan roots of the residual shape(zero - cutoff) on the pooled scan's
    interval, zero being the 701st point of its grid."""
    interval = equilibria._cutoff_interval(params)
    zero = np.linspace(*interval[:2], equilibria.GRID_POINTS)[700]
    return equilibria._scan_roots(
        lambda cutoffs: shape(zero - cutoffs), *interval,
        equilibria.GRID_POINTS, equilibria._ROOT_TOL), zero


def test_exact_zero_on_the_scan_grid_gives_one_root(model_v50):
    # a residual that is exactly zero at a grid point closes one bracket and
    # must not open a second one, whose bisection would start from the zero
    # and drift to the next grid point
    roots, zero = _scan_with_zero_at_grid_point(model_v50, lambda x: x)
    assert len(roots) == 1
    assert abs(roots[0] - zero) < 1e-10


@pytest.mark.parametrize("side", [1.0, -1.0], ids=["above", "below"])
def test_a_residual_touching_zero_on_the_scan_grid_gives_one_root(
        model_v50, side):
    # touching zero without crossing: from above no bracket may open on
    # either side of the zero, and from below the zero must still count
    roots, zero = _scan_with_zero_at_grid_point(
        model_v50, lambda x: side * np.abs(x))
    assert roots == [zero]


# ---------------------------------------------------------------------------
# signal-threshold bans


def test_signal_ban_minus_inf_reduces_to_benchmark(model_v50,
                                                   v50_benchmark):
    out = solve_signal_cutoff(model_v50, -INF)
    assert abs(out.cutoff - v50_benchmark.cutoff) < 1e-9
    assert abs(out.eligibility[0] - 1.0) < 1e-12


def test_signal_ban_at_equilibrium_threshold_keeps_root(model_v50,
                                                        v50_exclusion):
    out = solve_signal_cutoff(model_v50, v50_exclusion.sbar)
    assert any(abs(r - v50_exclusion.cutoff) < 1e-6 for r in out.all_roots)


def test_signal_ban_plus_inf_root(model_v50):
    out = solve_signal_cutoff(model_v50, INF)
    assert abs(out.cutoff - V50_SC_INF_ROOT) < 1e-6
    assert out.submission_volume > model_v50.budget
    assert out.residual < 1e-8
    # steady-state eligibility equals 1 / (1 + ban probability)
    ban = ban_mass(out.cutoff, INF, model_v50.quality, model_v50.noise)
    assert abs(out.eligibility[0] - 1.0 / (1.0 + ban)) < 1e-10


def test_signal_ban_corner_when_budget_covers_everyone():
    p = normal_model(0.0, 1.0, 2.0, reject_cost=1.0, win_value=30.0,
                     budget=0.6, discount=0.97)
    out = solve_signal_cutoff(p, INF)
    assert out.corner
    assert out.cutoff == ALWAYS_SUBMIT
    assert out.sbar == -INF
    assert abs(out.eligibility[0] - 0.5) < 1e-12


# ---------------------------------------------------------------------------
# researcher types


@pytest.fixture(scope="module")
def two_type_params():
    types = (TypeMix(0.5, Normal(0.5, 2.0)), TypeMix(0.5, Normal(0.0, 2.0)))
    return normal_model(var_signal=5.0, reject_cost=1.0, win_value=50.0,
                        budget=0.1, discount=0.97, types=types)


@pytest.fixture(scope="module")
def two_type_outcome(two_type_params):
    return solve(two_type_params, RejectionExclusion(1))


def test_two_type_matches_reference(two_type_outcome):
    out = two_type_outcome
    assert abs(out.cutoffs[0] - TWO_TYPE_QH) < 1e-6
    assert abs(out.cutoffs[1] - TWO_TYPE_QL) < 1e-6
    assert abs(out.eligibility[0] - TWO_TYPE_AH) < 1e-8
    assert abs(out.eligibility[1] - TWO_TYPE_AL) < 1e-8
    assert out.residual < 1e-8
    assert out.eligibility_residual < 1e-9


def test_two_type_stronger_type_is_more_selective(two_type_outcome):
    assert two_type_outcome.cutoffs[0] > two_type_outcome.cutoffs[1]


def test_two_type_shares_solve_flow_balance(two_type_params, two_type_outcome):
    # re-derive each type's flow balance at the outcome: the type share
    # refills the eligible share, rejections among the eligible drain it
    p, out = two_type_params, two_type_outcome
    profile = SubmissionProfile(tuple(
        ProfileComponent(t.quality, q, a / t.share, t.share)
        for t, q, a in zip(p.types, out.cutoffs, out.eligibility)))
    ev = evaluate_success(profile, p)
    for t, q, a in zip(p.types, out.cutoffs, out.eligibility):
        wins = win_mass(q, ev, t.quality)
        inflow = t.share - a * (1.0 - t.quality.cdf(q)) + a * wins
        assert abs(inflow - a) < 1e-9


@pytest.mark.parametrize("policy", EVERY_POLICY.values(), ids=EVERY_POLICY)
def test_two_type_identical_types_collapse_to_pooled(policy):
    types = (TypeMix(0.5, Normal(0.0, 2.0)), TypeMix(0.5, Normal(0.0, 2.0)))
    p = normal_model(var_signal=5.0, reject_cost=1.0, win_value=50.0,
                     budget=0.1, discount=0.97, types=types)
    out = solve_typed(p, policy)
    pooled = solve(normal_model(0.0, 2.0, 5.0, reject_cost=1.0,
                                win_value=50.0, budget=0.1, discount=0.97),
                   policy)
    assert out.regime == pooled.regime
    assert abs(out.cutoffs[0] - pooled.cutoff) < 1e-8
    assert abs(out.cutoffs[1] - pooled.cutoff) < 1e-8
    assert abs(sum(out.eligibility) - pooled.eligibility[0]) < 1e-8


@pytest.mark.parametrize("hi, lo, dominates", [
    (Normal(0.5, 2.0), Normal(0.0, 2.0), True),
    (Normal(0.0, 2.0), Normal(0.0, 2.0), True),
    (Normal(0.0, 2.0), Normal(0.5, 2.0), False),
    (Normal(0.5, 1.0), Normal(0.0, 2.0), False),
    (Normal(5.0, 2.0), Normal(0.0, 1.0), False),
])
def test_type_dominance_rule(hi, lo, dominates):
    # equal variances with a weakly higher mean dominate; unequal variances
    # cross, which the cdfs on a wide grid confirm
    assert equilibria._dominates(hi, lo) is dominates
    qs = np.linspace(-30.0, 30.0, 6001)
    assert bool(np.all(hi.cdf(qs) <= lo.cdf(qs))) is dominates


def test_ban_lengths_are_positive_integers(model_v20):
    # an integral float is the integer ban; a fractional one is not
    # truncated to a shorter ban but refused
    policy = RejectionExclusion(2.0)
    assert type(policy.periods) is int and policy == RejectionExclusion(2)
    assert policy.regime == "multi_period(t=2)"
    for bad in (2.5, 0, -1, INF, math.nan):
        with pytest.raises(ValueError):
            RejectionExclusion(bad)
    for bad in (2.5, 0):
        with pytest.raises(ValueError):
            solve_multi_period(model_v20, bad)


def test_typed_solver_needs_a_type_block_of_any_size(model_v50):
    # three types solve under each policy, strongest first; a model without
    # a type block has nothing to solve
    types = (TypeMix(0.3, Normal(1.0, 2.0)), TypeMix(0.3, Normal(0.5, 2.0)),
             TypeMix(0.4, Normal(0.0, 2.0)))
    p = normal_model(var_signal=5.0, reject_cost=1.0, win_value=50.0,
                     budget=0.1, discount=0.97, types=types)
    for policy in (RejectionExclusion(1), RejectionExclusion(5),
                   SignalExclusion(0.0)):
        out = solve_typed(p, policy)
        assert out.residual < 1e-8 and out.eligibility_residual < 1e-9
        assert out.cutoffs[0] > out.cutoffs[1] > out.cutoffs[2]
        ev = evaluate_success(out.profile, p)
        funded = sum(a * win_mass(q, ev, t.quality)
                     for t, q, a in zip(types, out.cutoffs, out.eligibility))
        assert abs(funded - p.budget) < 1e-9
    with pytest.raises(ValueError, match="type block"):
        solve_typed(model_v50, RejectionExclusion(1))


def _corner_model(mean_hi, budget):
    types = (TypeMix(0.5, Normal(mean_hi, 1.0)),
             TypeMix(0.5, Normal(0.0, 1.0)))
    return normal_model(var_signal=1.0, reject_cost=1.0, win_value=50.0,
                        budget=budget, discount=0.97, types=types)


def test_typed_signal_ban_corner_when_budget_covers_everyone():
    # a ban on every submission halves each type's eligible share: typed
    # mass 0.5 <= k = 0.6, so everyone applies and wins
    p = _corner_model(0.5, 0.6)
    out = solve_typed(p, SignalExclusion(INF))
    assert out.corner and out.cutoffs == (ALWAYS_SUBMIT, ALWAYS_SUBMIT)
    assert out.sbar == -INF and out.residual == 0.0
    assert out.eligibility == (0.25, 0.25)
    assert out.eligibility_residual < 1e-15
    assert out.submission_volume == 0.5
    assert out.payoff_x[0] == out.payoff_x[1] == \
        solve_signal_cutoff(p, INF).payoff_x[0]


def test_typed_problem_off_a_pooled_corner_solves():
    # the pooled mixture bans half its mass below s = 4 (eligible 2/3 <=
    # k = 0.7), but the strong type is almost never banned: typed mass
    # 0.4988 + 0.2503 > k is interior, and the typed scan solves it
    p = _corner_model(8.0, 0.7)
    assert solve_signal_cutoff(p, 4.0).corner
    full = [t.share / (1.0 + ban_mass(ALWAYS_SUBMIT, 4.0, t.quality, p.noise))
            for t in p.types]
    assert abs(sum(full) - 0.749) < 1e-3
    out = solve_typed(p, SignalExclusion(4.0))
    assert not out.corner and out.sbar > -INF
    assert out.residual < 1e-8 and out.eligibility_residual < 1e-9
    assert out.cutoffs[0] > out.cutoffs[1]


def test_two_type_random_draw_meets_contracts():
    # unequal type variances and a small prize far from the pinned model
    types = (TypeMix(0.42508819789798513,
                     Normal(0.47510724983544644, 2.2283425881943533)),
             TypeMix(1.0 - 0.42508819789798513,
                     Normal(0.0, 0.9464296954359298)))
    p = normal_model(var_signal=2.6794088921934254, reject_cost=1.0,
                     win_value=5.134335821866616, budget=0.11562367818752538,
                     discount=0.8800258747035015, types=types)
    out = solve(p, RejectionExclusion(1))
    assert out.residual < 1e-8
    assert out.eligibility_residual < 1e-9
    assert out.cutoffs[0] > out.cutoffs[1]


@st.composite
def typed_models(draw):
    """Two types of one quality variance, the first stronger by a mean gap
    of up to 2 sd, over the valid box of `tests/test_policies.py`: V/C over
    six decades, k and delta in (0, 1), var_s/var_q from 1e-4 to 1e2."""
    unit = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)
    c = 10.0 ** draw(st.floats(-0.5, 0.5))
    var_q = 10.0 ** draw(st.floats(-0.5, 0.5))
    mean = draw(st.floats(-1.0, 1.0))
    gap = draw(st.floats(0.0, 2.0)) * math.sqrt(var_q)
    share = draw(st.floats(0.1, 0.9))
    types = (TypeMix(share, Normal(mean + gap, var_q)),
             TypeMix(1.0 - share, Normal(mean, var_q)))
    return normal_model(var_signal=var_q * 10.0 ** draw(st.floats(-4.0, 2.0)),
                        reject_cost=c,
                        win_value=c * 10.0 ** draw(st.floats(-1.0, 5.0)),
                        budget=draw(unit), discount=draw(unit), types=types)


@settings(max_examples=25, deadline=None)
@given(typed_models(), st.one_of(
    st.just(NoExclusion()),
    st.integers(1, 10_000).map(RejectionExclusion),
    st.one_of(st.just(-INF), st.just(INF),
              st.floats(-5.0, 5.0)).map(SignalExclusion)))
def test_dominant_type_uses_the_higher_cutoff(params, policy):
    """Better-able agents self-select more: every draw solves within its
    contracts, and the stronger type's cutoff is weakly higher (equal
    cutoffs tie within the solver's 1e-9).  Free entry selects no one by
    type: both cutoffs are the same float and every researcher is
    eligible.  Rejection bans make the stronger type strictly more
    selective once its mean is 0.1 sd ahead, wherever the solver resolves
    the ban's cost."""
    out = solve_typed(params, policy)
    assert out.residual < 1e-8 and out.eligibility_residual < 1e-9
    assert out.cutoffs[0] >= out.cutoffs[1] - 1e-9
    strong, weak = (t.quality for t in params.types)
    if isinstance(policy, NoExclusion):
        assert out.cutoffs[0] == out.cutoffs[1]
        assert out.eligibility == tuple(t.share for t in params.types)
    elif isinstance(policy, RejectionExclusion) \
            and strong.mean - weak.mean >= 0.1 * strong.stddev:
        # a ban whose cost at the threshold is below 1e-13 leaves both types
        # at the free-entry cutoff, where no gap is resolved (delta and k
        # near 0)
        free = out.sbar - params.noise.quantile(1.0 - params.loss_share)
        assert out.cutoffs[0] > out.cutoffs[1] \
            or out.cutoffs[0] == out.cutoffs[1] == free


@pytest.mark.parametrize("share, strong, weak, var_s, c, v, k, delta, t", [
    # one-period bans where the pooled problem has three roots
    (0.62, (5.24, 0.0606), (0.0, 0.0542), 0.337, 1.0, 24.5, 0.608, 0.395, 1),
    (0.22, (2.1, 0.132), (0.0, 0.0443), 0.05, 1.0, 481.0, 0.202, 0.0268, 1),
    # bans of thousands of periods
    (0.657, (1.329, 1.456), (-0.792, 1.456), 0.00487, 0.834, 22000.0,
     0.878, 0.462, 2006),
    (0.686, (1.837, 0.78), (0.212, 0.78), 0.000608, 0.515, 5.57, 0.331,
     0.328, 9339),
])
def test_typed_steady_states_far_from_the_pooled_one(share, strong, weak,
                                                     var_s, c, v, k, delta,
                                                     t):
    # rounded draws on which a Newton solve seeded by the pooled steady
    # state missed its contracts: the threshold scan solves each, and the
    # stronger type uses the higher cutoff
    types = (TypeMix(share, Normal(*strong)), TypeMix(1.0 - share,
                                                      Normal(*weak)))
    p = normal_model(var_signal=var_s, reject_cost=c, win_value=v,
                     budget=k, discount=delta, types=types)
    out = solve_typed(p, RejectionExclusion(t))
    assert out.residual < 1e-8 and out.eligibility_residual < 1e-9
    assert out.all_roots[0] == out.cutoffs
    assert out.cutoffs[0] > out.cutoffs[1]


def test_pooled_root_missing_its_contract_raises(monkeypatch):
    # a root polished only to 1e-3 misses the 1e-8 residual contract
    monkeypatch.setattr(equilibria, "_ROOT_TOL", 1e-3)
    with pytest.raises(NoConvergence) as info:
        solve_benchmark(normal_model())
    assert info.value.best_residual > 1e-8


def test_two_type_root_missing_its_contract_raises(two_type_params,
                                                   monkeypatch):
    # a funding threshold polished only to 1e-2 funds more or less than
    # the budget by far more than the 1e-9 contract
    monkeypatch.setattr(equilibria, "_ROOT_TOL", 1e-2)
    with pytest.raises(NoConvergence) as info:
        solve(two_type_params, RejectionExclusion(1))
    assert info.value.best_residual > 1e-8


def test_typed_outcome_records_every_root(two_type_params, two_type_outcome,
                                          monkeypatch):
    # each threshold the scan returns puts the types' cutoffs on all_roots,
    # smallest first, and the outcome describes the first; a cutoff rises
    # with the threshold
    scan = equilibria._scan_roots

    def with_a_second_root(values, *interval):
        roots = scan(values, *interval)
        return roots + [roots[0] + 1.0]

    monkeypatch.setattr(equilibria, "_scan_roots", with_a_second_root)
    out = solve(two_type_params, RejectionExclusion(1))
    first, second = out.all_roots
    assert first == out.cutoffs == two_type_outcome.cutoffs
    assert second[0] > first[0] and second[1] > first[1]


# ---------------------------------------------------------------------------
# best responses


def test_best_response_always_submit_when_undersubscribed(model_v50):
    p = model_v50
    profile = truncated_profile(p.quality, p.first_best_cutoff)
    for policy in (NoExclusion(), RejectionExclusion(1), RejectionExclusion(9),
                   SignalExclusion(1.0)):
        assert best_response(profile, p, policy) == ALWAYS_SUBMIT


def test_best_response_free_entry_is_indifference_point(model_v50):
    p = model_v50
    profile = truncated_profile(p.quality, 0.0, 0.9)
    br = best_response(profile, p, NoExclusion())
    ev = evaluate_success(profile, p)
    assert abs(float(ev.win_prob(br)) - p.loss_share) < 1e-10


def test_best_response_exclusion_is_more_conservative(model_v50):
    p = model_v50
    rng = np.random.default_rng(11)
    for _ in range(6):
        Q = p.quality.quantile(rng.uniform(0.05, 0.7))
        profile = truncated_profile(p.quality, Q, rng.uniform(0.5, 1.0))
        if profile.volume() <= p.budget:
            continue
        assert best_response(profile, p, RejectionExclusion(1)) > \
            best_response(profile, p, NoExclusion())


def test_best_response_increases_with_ban_length(model_v20):
    p = model_v20
    profile = truncated_profile(p.quality, 0.0, 0.8)
    b1 = best_response(profile, p, RejectionExclusion(1))
    b5 = best_response(profile, p, RejectionExclusion(5))
    assert b5 > b1


def test_best_response_signal_policy_reduces_to_free_entry(model_v50):
    p = model_v50
    profile = truncated_profile(p.quality, 0.0, 0.9)
    a = best_response(profile, p, SignalExclusion(-INF))
    b = best_response(profile, p, NoExclusion())
    assert abs(a - b) < 1e-10


@pytest.mark.parametrize("policy", EVERY_POLICY.values(), ids=EVERY_POLICY)
def test_equilibrium_is_a_best_response_to_itself(policy, model_v30,
                                                  model_v50, model_v20):
    # the steady-state residual is the best-response residual at the
    # steady-state payoff, so the equilibrium cutoff is the best response to
    # the profile it regenerates
    for p in (model_v30, model_v50, model_v20):
        out = solve(p, policy)
        profile = steady_state_profile(p, out.cutoff, policy)
        assert abs(best_response(profile, p, policy) - out.cutoff) < 1e-9


def test_best_response_optimality_by_payoff_scan(model_v50):
    # the returned cutoff maximizes the lifetime payoff over a dense grid
    from contest_eq import lifetime_payoff
    p = model_v50
    profile = truncated_profile(p.quality, -0.5, 0.75)
    ev = evaluate_success(profile, p)
    br = best_response(profile, p, RejectionExclusion(1))
    x_at_br = lifetime_payoff(br, ev, p)
    for q in np.linspace(br - 1.5, br + 1.5, 61):
        assert lifetime_payoff(q, ev, p) <= x_at_br + 1e-10


def test_root_payoff_positive_even_below_existence_bound():
    # the V/C bound is sufficient, not necessary: the root found below it
    # still carries a positive lifetime payoff, so it is a true equilibrium
    p = normal_model(0.0, 1.0, 2.0, reject_cost=1.0, win_value=2.0,
                     budget=0.1, discount=0.9)
    out = solve_exclusion(p)
    assert not out.hypothesis_met
    assert out.payoff_x[0] > 0.0
    assert out.residual < 1e-8
