import math

import numpy as np
import pytest

from contest_eq import (ALWAYS_SUBMIT, Normal, NoExclusion,
                        RejectionExclusion, SignalExclusion, TypeMix,
                        ban_mass, best_response, equilibrium_curves,
                        evaluate_success, normal_model, solve_benchmark,
                        solve_exclusion, solve_multi_period,
                        solve_signal_cutoff, solve_two_type,
                        steady_state_profile, truncated_profile,
                        type_eligibility_shares)

from reference import (EXCLUSION_V400_ROOT, V30_Q0, V50_Q0, V50_Q1,
                       V50_ALPHA1, V50_SC_INF_ROOT, V20_BAN_ROOTS, TWO_TYPE_AH,
                       TWO_TYPE_AL, TWO_TYPE_QH, TWO_TYPE_QL)

INF = math.inf


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
# two researcher types


@pytest.fixture(scope="module")
def two_type_params():
    types = (TypeMix(0.5, Normal(0.5, 2.0)), TypeMix(0.5, Normal(0.0, 2.0)))
    return normal_model(var_signal=5.0, reject_cost=1.0, win_value=50.0,
                        budget=0.1, discount=0.97, types=types)


@pytest.fixture(scope="module")
def two_type_outcome(two_type_params):
    return solve_two_type(two_type_params)


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
    # re-derive the steady-state shares by direct damped iteration from a
    # different starting point and compare
    p, out = two_type_params, two_type_outcome
    shares, resid = type_eligibility_shares(p, out.cutoffs,
                                            start=(0.25, 0.45))
    assert resid < 1e-9
    assert abs(shares[0] - out.eligibility[0]) < 1e-8
    assert abs(shares[1] - out.eligibility[1]) < 1e-8


def test_two_type_identical_types_collapse_to_pooled():
    types = (TypeMix(0.5, Normal(0.0, 2.0)), TypeMix(0.5, Normal(0.0, 2.0)))
    p = normal_model(var_signal=5.0, reject_cost=1.0, win_value=50.0,
                     budget=0.1, discount=0.97, types=types)
    out = solve_two_type(p)
    pooled = solve_exclusion(normal_model(0.0, 2.0, 5.0, reject_cost=1.0,
                                          win_value=50.0, budget=0.1,
                                          discount=0.97))
    assert abs(out.cutoffs[0] - pooled.cutoff) < 1e-8
    assert abs(out.cutoffs[1] - pooled.cutoff) < 1e-8
    assert abs(sum(out.eligibility) - pooled.eligibility[0]) < 1e-8


def test_two_type_needs_two_types(model_v50):
    with pytest.raises(ValueError):
        solve_two_type(model_v50)


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
