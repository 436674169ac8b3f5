"""Property tests of the exclusion-policy layer over the valid parameter
box: V/C over six decades, k and delta in (0, 1), var_s/var_q from 1e-4 to
1e2, ban lengths up to 1e4 and signal bars across +-inf, with review noise
centred off zero.  Each example evaluates the residual on one grid, one
clearing solve or the bisections of one best response, quantile or winner
comparison; the root-pass properties run the root search, and the contract,
corner and exclusion-order properties run full pooled solves."""

import contextlib
import math
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from contest_eq import (ALWAYS_SUBMIT, BracketFailure, Mixture, NoConvergence,
                        NoExclusion, Normal, RejectionExclusion,
                        SignalExclusion, ban_mass, best_response,
                        compare_winners, evaluate_success, lifetime_payoff,
                        normal_model, solve, solve_benchmark,
                        solve_exclusion, solve_signal_cutoff,
                        steady_state_profile, truncated_profile,
                        winner_density)
from contest_eq import analysis, core, distributions, equilibria
from contest_eq.equilibria import NoRoot, _batch_residuals, _sign_residuals

INF = math.inf
unit = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)


@st.composite
def models(draw):
    c = 10.0 ** draw(st.floats(-0.5, 0.5))
    var_q = 10.0 ** draw(st.floats(-0.5, 0.5))
    params = normal_model(draw(st.floats(-1.0, 1.0)), var_q,
                          var_q * 10.0 ** draw(st.floats(-4.0, 2.0)),
                          reject_cost=c,
                          win_value=c * 10.0 ** draw(st.floats(-1.0, 5.0)),
                          budget=draw(unit), discount=draw(unit))
    # review noise centred off zero: a signal bias
    return replace(params, noise=Normal(draw(st.floats(-2.0, 2.0)),
                                        params.noise.variance))


policies = st.one_of(
    st.just(NoExclusion()),
    st.integers(1, 10_000).map(RejectionExclusion),
    st.one_of(st.just(-INF), st.just(INF),
              st.floats(-5.0, 5.0)).map(SignalExclusion))


def _cutoff_grid(params, n=50):
    qstar = params.first_best_cutoff
    return np.linspace(params.quality.quantile(1e-6),
                       qstar - 1e-9 * (1.0 + abs(qstar)), n)


@settings(max_examples=40, deadline=None)
@given(models())
def test_signal_bar_at_minus_inf_is_free_entry(params):
    grid = _cutoff_grid(params)
    sig = _batch_residuals(params, SignalExclusion(-INF), grid)
    free = _batch_residuals(params, NoExclusion(), grid)
    for a, b in zip(sig, free):
        assert np.array_equal(a, b)
    _, rhs, _, _, elig = free
    assert np.all(rhs == params.loss_share)
    assert np.all(elig == 1.0)


@settings(max_examples=40, deadline=None)
@given(models(), st.integers(1, 10_000))
def test_rejection_eligibility_closed_form(params, t):
    policy = RejectionExclusion(t)
    grid = _cutoff_grid(params)
    F = params.quality.cdf(grid)
    k = params.budget
    elig = policy.eligibility(F, policy.ban(F, None), k)
    assert np.allclose(elig, (1.0 + t * k) / (1.0 + t * (1.0 - F)),
                       rtol=1e-14, atol=0.0)
    assert np.all((elig > 0.0) & (elig <= 1.0))
    scalar = steady_state_profile(params, float(grid[10]),
                                  policy).components[0].eligibility
    assert scalar == elig[10]


@settings(max_examples=25, deadline=None)
@given(models(), policies)
def test_pooled_solve_meets_its_contract_or_raises(params, policy):
    """A pooled solve raises a typed solver failure or returns a root that
    meets the 1e-8 residual contract and clears the market: away from the
    always-submit corner its funded mass is the budget."""
    try:
        out = solve(params, policy)
    except (NoRoot, NoConvergence, BracketFailure):
        return
    assert out.residual < 1e-8
    if not out.corner:
        funded = oracles.funded_mass(out.profile, out.sbar, params.noise)
        assert abs(funded - params.budget) < 1e-8


@settings(max_examples=40, deadline=None)
@given(models(), st.one_of(st.just(NoExclusion()),
                           st.integers(1, 10_000).map(RejectionExclusion)))
def test_rejection_bans_and_free_entry_never_take_the_corner(params, policy):
    """Full-entry eligibility is (1 + tk) / (1 + t) > k under rejection bans
    and 1 under free entry, so the budget never covers it and no solve
    returns the always-submit corner."""
    k = params.budget
    assert policy.eligibility(0.0, policy.ban(0.0, None), k) > k
    try:
        out = solve(params, policy)
    except (NoRoot, NoConvergence, BracketFailure):
        return
    assert not out.corner and out.cutoff > ALWAYS_SUBMIT


def _outcome_or_error(solver, *args):
    try:
        return solver(*args)
    except (NoRoot, NoConvergence, BracketFailure) as exc:
        return type(exc), str(exc)


@settings(max_examples=40, deadline=None)
@given(models(), st.one_of(st.just(INF), st.floats(-5.0, 5.0)))
def test_signal_corner_through_solve_is_the_public_solvers(params, sbar):
    """A signal bar solved through `solve` is `solve_signal_cutoff`'s
    outcome, and it is the corner exactly when the budget covers the
    full-entry eligibility of `steady_state_profile`."""
    policy = SignalExclusion(sbar)
    out = _outcome_or_error(solve, params, policy)
    assert out == _outcome_or_error(solve_signal_cutoff, params, sbar)
    full = steady_state_profile(params, ALWAYS_SUBMIT,
                                policy).components[0].eligibility
    if params.budget >= full:
        assert out.corner and out.eligibility == (full,)
    else:
        assert isinstance(out, tuple) or not out.corner


# the V/C box of `models()`, in log10
LOG_VC_BOX = (-1.0, 5.0)


def _exclusion_sign(params, log_vc):
    """At each V/C of the log10 array `log_vc`: the one-period-ban sign
    residual at the free-entry root c_b, which is <= 0 exactly when the
    exclusion cutoff is at least c_b (with one exclusion root)."""
    signs = []
    for x in np.ravel(log_vc).tolist():
        p = replace(params, win_value=params.reject_cost * 10.0 ** x)
        c_b = solve_benchmark(p).cutoff
        signs.append(_sign_residuals(p, RejectionExclusion(1), [c_b])[0])
    return np.reshape(signs, np.shape(log_vc))


def _exclusion_thresholds(params, points=25, tol=1e-3):
    """Every log10 V/C in `LOG_VC_BOX` where `_exclusion_sign` changes
    sign: a scan of `points` V/C values, then `_bisect_root` on each
    bracket to `tol`.  The paper's claim is one crossing, above which
    exclusion raises the cutoff."""
    grid = np.linspace(*LOG_VC_BOX, points)
    signs = _exclusion_sign(params, grid)
    i = np.nonzero((signs[:-1] > 0.0) != (signs[1:] > 0.0))[0]
    if not i.size:
        return []
    return distributions._bisect_root(
        lambda x: _exclusion_sign(params, x), grid[i], grid[i + 1],
        signs[i], tol).tolist()


@settings(max_examples=30, deadline=None)
@given(models())
def test_exclusion_raises_the_cutoff_exactly_where_its_sign_says(params):
    """The headline claim as a sign: wherever one-period bans have one
    steady state, their residual at the free-entry root is <= 0 exactly
    when exclusion's cutoff is at least free entry's."""
    try:
        bench, excl = solve_benchmark(params), solve_exclusion(params)
    except (NoRoot, NoConvergence, BracketFailure):
        return
    if len(excl.all_roots) != 1:
        return
    sign = _sign_residuals(params, RejectionExclusion(1), [bench.cutoff])[0]
    assert (sign <= 0.0) == (excl.cutoff >= bench.cutoff)


@settings(max_examples=25, deadline=None)
@given(models(), policies)
def test_pooled_steady_state_is_a_best_response_to_itself(params, policy):
    """Against the recurrent profile of a non-corner pooled steady state
    the best response is its own cutoff."""
    try:
        out = solve(params, policy)
    except (NoRoot, NoConvergence, BracketFailure):
        return
    if out.corner:
        return
    profile = steady_state_profile(params, out.cutoff, policy)
    assert abs(best_response(profile, params, policy) - out.cutoff) < 1e-7


@settings(max_examples=30, deadline=None)
@given(models())
def test_free_entry_cutoff_falls_when_the_prize_doubles(params):
    """A larger prize draws more entry: the free-entry cutoff falls
    strictly when V doubles."""
    doubled = replace(params, win_value=2.0 * params.win_value)
    try:
        low, high = solve_benchmark(params), solve_benchmark(doubled)
    except (NoRoot, NoConvergence, BracketFailure):
        return
    assert high.cutoff < low.cutoff


@pytest.mark.parametrize("var_q, var_s, delta", [
    (1.0, 2.0, 0.97), (2.0, 5.0, 0.97), (1.0, 1.0, 0.85)],
    ids=["A", "B", "C"])
def test_exclusion_selects_more_above_one_prize_threshold(var_q, var_s,
                                                          delta):
    """On the pinned models the sign changes once in the V/C box, and the
    solved cutoffs order on either side of the crossing as it says."""
    params = normal_model(0.0, var_q, var_s, reject_cost=1.0, budget=0.1,
                          discount=delta)
    (x,) = _exclusion_thresholds(params)
    for side in (-0.05, 0.05):
        p = replace(params, win_value=10.0 ** (x + side))
        excl = solve_exclusion(p)
        assert len(excl.all_roots) == 1
        assert (excl.cutoff >= solve_benchmark(p).cutoff) == (side > 0.0)


@settings(max_examples=25, deadline=None)
@given(models(), policies, st.floats(1e-3, 0.99))
def test_payoff_default_base_is_the_population(params, policy, p):
    cutoff = params.quality.quantile(p * (1.0 - params.budget))
    ev = evaluate_success(truncated_profile(params.quality, cutoff), params)
    x = lifetime_payoff(cutoff, ev, params, policy)
    assert math.isfinite(x)
    assert lifetime_payoff(cutoff, ev, params, policy,
                           base=params.quality) == x


@settings(max_examples=40, deadline=None)
@given(models(), policies, st.sampled_from([1e-10, 1e-14]))
def test_clearing_takes_no_more_steps_than_bisection(params, policy, tol):
    f, noise, k = params.quality, params.noise, params.budget
    grid = _cutoff_grid(params, 200)
    F = f.cdf(grid)
    elig = policy.eligibility(
        F, policy.ban(F, lambda s: ban_mass(grid, s, f, noise)), k)
    rows = elig * (1.0 - F) > k + 1e-12
    lo, hi = f.support_hint
    bisection = math.ceil(math.log2((hi - lo + 20.0 * noise.stddev) / tol))
    with mock.patch.object(core, "_upper_mass",
                           wraps=core._upper_mass) as mass:
        sbar = core._clearing_thresholds([(f, grid[rows], elig[rows])],
                                         params, lo, hi, tol)
    # one evaluation of the submitted mass, then one per step (two points
    # per row)
    assert mass.call_count - 1 <= bisection
    funded = elig[rows] * core._upper_mass(f, grid[rows], noise, sbar)
    assert np.all(np.abs(funded - k) < 1e-9)


# the two-type model of configs/two_type.ini: its quality is a two-part
# Mixture
mixture_model = normal_model(
    var_signal=5.0, reject_cost=1.0, win_value=50.0, budget=0.1,
    discount=0.97, types=((0.5, Normal(0.5, 2.0)),
                          (0.5, Normal(0.0, 2.0))))


@settings(max_examples=40, deadline=None)
@given(st.one_of(models(), st.just(mixture_model)), policies,
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=63))
def test_batch_rows_equal_single_cutoff_calls(params, policy, at):
    """Every entry of a `_batch_residuals` call equals a size-1 call at its
    cutoff bit for bit.  The root polish evaluates 63 bisection-tree points
    per call and returns the float that single-point bisection returns only
    because of this."""
    lo = params.quality.quantile(1e-6)
    qstar = params.first_best_cutoff
    cutoffs = lo + np.array(at) * (qstar - lo)
    batch = _batch_residuals(params, policy, cutoffs)
    for i, q in enumerate(cutoffs):
        single = _batch_residuals(params, policy, float(q))
        for rows, row in zip(batch, single):
            assert rows[i:i + 1].tobytes() == row.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.one_of(models(), st.just(mixture_model)), policies,
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=63))
def test_sign_residual_rows_equal_single_cutoff_calls(params, policy, at):
    """Every entry of a `_sign_residuals` call equals a size-1 call at its
    cutoff bit for bit: the root search walks it in 63-point tree calls."""
    lo = params.quality.quantile(1e-6)
    qstar = params.first_best_cutoff
    cutoffs = lo + np.array(at) * (qstar - lo)
    batch = _sign_residuals(params, policy, cutoffs)
    for i, q in enumerate(cutoffs):
        single = _sign_residuals(params, policy, float(q))
        assert batch[i:i + 1].tobytes() == single.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.one_of(models(), st.just(mixture_model)), policies)
def test_sign_residual_has_the_sign_of_the_clearing_residual(params, policy):
    """On the whole cutoff grid, indifference levels outside (0, 1)
    included, the sign residual has the sign of the residual at the solved
    clearing threshold wherever that exceeds its own clearing error of
    1e-9; under-subscribed rows carry the residual itself."""
    grid = _cutoff_grid(params)
    sign = _sign_residuals(params, policy, grid)
    resid, _, interior = _batch_residuals(params, policy, grid)[:3]
    assert not np.any(np.isnan(sign))
    clear = np.abs(resid) > 1e-9
    assert np.array_equal(np.sign(sign[clear]), np.sign(resid[clear]))
    assert np.array_equal(sign[~interior], resid[~interior])


@settings(max_examples=60, deadline=None)
@given(st.one_of(models(), st.just(mixture_model)), policies)
def test_screened_sign_residual_is_the_orthant_sign(params, policy):
    """On every interior cutoff grid row the screened sign residual has the
    sign of k less the clearing mass at s* by the orthant, and wherever the
    two-tail bounds leave that sign in doubt it is that value bit for bit.
    """
    f, noise, k = params.quality, params.noise, params.budget
    grid = _cutoff_grid(params)
    sign = _sign_residuals(params, policy, grid)
    _, elig, interior, s_star = equilibria._steady_state(params, policy, grid)
    exact = k - elig * core._upper_mass(f, grid, noise, s_star)
    lower, upper = core._upper_mass_bounds(f, grid, noise, s_star)
    margin = equilibria._SCREEN_MARGIN
    doubt = interior & ~(elig * lower - k > margin) \
        & ~(k - elig * upper > margin)
    assert np.array_equal(np.sign(sign[interior]), np.sign(exact[interior]))
    assert sign[doubt].tobytes() == exact[doubt].tobytes()


def _polished_roots(params, policy):
    try:
        return equilibria._scan_roots(
            lambda grid: _sign_residuals(params, policy, grid),
            *equilibria._cutoff_interval(params), equilibria.GRID_POINTS,
            equilibria._ROOT_TOL)
    except NoRoot:
        return []


@settings(max_examples=30, deadline=None)
@given(st.one_of(models(), st.just(mixture_model)), policies,
       st.lists(st.floats(0.0, 1.0), max_size=8))
def test_root_pass_rows_equal_single_cutoff_calls(params, policy, at):
    """Every entry of a `_root_pass` call equals a size-1 call at its
    cutoff bit for bit, at polished roots (one Newton step) and at other
    cutoffs (the bracketed kernel), and the pass raises no floating-point
    warning."""
    lo = params.quality.quantile(1e-6)
    qstar = params.first_best_cutoff
    cutoffs = np.concatenate([_polished_roots(params, policy),
                              lo + np.array(at) * (qstar - lo)])
    assume(cutoffs.size)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = equilibria._root_pass(params, policy, cutoffs)
        for i, q in enumerate(cutoffs):
            single = equilibria._root_pass(params, policy, float(q))
            for rows, row in zip(batch, single):
                assert rows[i:i + 1].tobytes() == row.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.one_of(models(), st.just(mixture_model)), policies)
def test_root_pass_threshold_is_the_clearing_threshold(params, policy):
    """At every polished root the root pass's threshold lies within 1e-10
    of the bracketed kernel's: both are within 5e-11 of clearing."""
    roots = np.array(_polished_roots(params, policy))
    assume(roots.size)
    _, interior, sbar, elig = equilibria._root_pass(params, policy, roots)
    f = params.quality
    kernel = core._clearing_thresholds(
        [(f, roots[interior], elig[interior])], params, *f.support_hint,
        1e-10)
    assert np.all(np.abs(sbar[interior] - kernel) <= 1e-10)


@settings(max_examples=40, deadline=None)
@given(st.one_of(models(), st.just(mixture_model)), policies)
def test_root_pass_falls_back_to_the_kernel_off_a_root(params, policy):
    """At the interior grid cutoff farthest from a root s* is far from
    clearing: the Newton step fails its check, and the pass returns the
    bracketed kernel's threshold bit for bit."""
    grid = _cutoff_grid(params)
    sign = _sign_residuals(params, policy, grid)
    interior = equilibria._steady_state(params, policy, grid)[2]
    far = np.where(interior, np.abs(sign), -1.0)
    i = int(np.argmax(far))
    assume(far[i] > 1e-3)
    q = grid[i:i + 1]
    with mock.patch.object(equilibria, "_clearing_thresholds",
                           wraps=core._clearing_thresholds) as kernel:
        _, _, sbar, elig = equilibria._root_pass(params, policy, q)
    assert kernel.call_count == 1
    f = params.quality
    expected = core._clearing_thresholds([(f, q, elig)], params,
                                         *f.support_hint, 1e-10)
    assert sbar.tobytes() == expected.tobytes()


@contextlib.contextmanager
def _checked_tree_calls(module):
    """Route `module`'s bisections through a check of every residual call
    the tree walk makes: each entry of an array call must equal a one-point
    call at its point bit for bit, and the root must be the one-step
    bisection's.  Yields the list of roots found."""
    tree_walk = distributions._bisect_root
    roots = []

    def checked_bisect(residual, lo, hi, flo, tol):
        def checked(qs):
            batch = np.asarray(residual(qs), dtype=float)
            singles = np.array([residual(float(q)) for q in qs], dtype=float)
            assert batch.tobytes() == singles.tobytes()
            return batch

        root = tree_walk(checked, lo, hi, flo, tol)
        assert root == oracles.bisect_steps(residual, lo, hi, flo, tol)
        roots.append(root)
        return root

    with mock.patch.object(module, "_bisect_root", checked_bisect):
        yield roots


@settings(max_examples=30, deadline=None)
@given(st.one_of(models(), st.just(mixture_model)), policies, unit, unit)
def test_best_response_residual_rows_equal_single_calls(params, policy, u,
                                                        e):
    # an over-subscribed profile: the share submitting exceeds the budget
    k = params.budget
    elig = k + (1.0 - k) * e
    cutoff = params.quality.quantile(u * (1.0 - k / elig))
    profile = truncated_profile(params.quality, cutoff, elig)
    assume(profile.volume() > k + 1e-9)
    with _checked_tree_calls(equilibria) as roots:
        try:
            best_response(profile, params, policy)
        except NoRoot:
            pass
    assume(roots)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.floats(0.05, 1.0), st.floats(-3.0, 3.0),
                          st.floats(0.1, 10.0)), min_size=1, max_size=3),
       st.floats(1e-9, 1.0 - 1e-9))
def test_mixture_quantile_residual_rows_equal_single_calls(parts, p):
    total = sum(w for w, _, _ in parts)
    mix = Mixture([(w / total, Normal(m, v)) for w, m, v in parts])
    with _checked_tree_calls(distributions) as roots:
        q = mix.quantile(p)
    assert roots == [q]


@settings(max_examples=30, deadline=None)
@given(models(), unit, unit, st.floats(0.3, 0.95))
def test_winner_difference_rows_equal_single_calls(params, u0, u1, e):
    # free entry at one cutoff against part of the population at a higher
    # one, both over-subscribed: the winner densities usually cross once
    k, f = params.budget, params.quality
    elig = k + (1.0 - k) * e
    c0 = f.quantile(u0 * (1.0 - k / elig))
    c1 = f.quantile(f.cdf(c0) + u1 * (1.0 - k / elig - f.cdf(c0)))
    assume(c1 > c0)
    h0 = winner_density(truncated_profile(f, c0), params, 200)
    h = winner_density(truncated_profile(f, c1, elig), params, 200)
    with _checked_tree_calls(analysis) as roots:
        compare_winners(h, h0)
    assume(roots)
