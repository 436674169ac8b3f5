import math

import numpy as np
import pytest

from contest_eq import (ALWAYS_SUBMIT, FAST_QUADRATURE, NEVER_SUBMIT, Normal,
                        RejectionExclusion, SignalExclusion,
                        ban_mass, evaluate_success, lifetime_payoff,
                        normal_model, signal_cutoff,
                        steady_state_profile, truncated_profile, welfare,
                        win_mass, TypeMix)

import oracles
from reference import V30_SBAR_FULL, V50_SBAR_EQ

INF = math.inf


# ---------------------------------------------------------------------------
# market clearing


def test_clearing_at_budget_boundary_funds_everything(model_v30):
    p = model_v30
    profile = truncated_profile(p.quality, p.first_best_cutoff)
    assert signal_cutoff(profile, p) == -INF
    ev = evaluate_success(profile, p)
    assert ev.win_prob(-3.0) == 1.0


def test_clearing_full_participation_matches_brute_force(model_v30):
    p = model_v30
    profile = truncated_profile(p.quality, ALWAYS_SUBMIT)
    sbar = signal_cutoff(profile, p)
    assert abs(sbar - V30_SBAR_FULL) < 1e-8
    # clearing residual at the returned threshold
    ev = evaluate_success(profile, p)
    funded = profile.integral(lambda q: np.asarray(ev.win_prob(q)))
    assert abs(funded - p.budget) < 1e-10


def test_halving_competition_lowers_the_bar(model_v50):
    p = model_v50
    profile = truncated_profile(p.quality, -1.0)
    assert profile.scaled(0.5).volume() > p.budget
    assert signal_cutoff(profile.scaled(0.5), p) < signal_cutoff(profile, p)


def test_exclusion_profile_clearing_threshold(model_v50, v50_exclusion):
    profile = steady_state_profile(model_v50, v50_exclusion.cutoff,
                                   RejectionExclusion(1))
    sbar = signal_cutoff(profile, model_v50)
    assert abs(sbar - V50_SBAR_EQ) < 1e-8


# ---------------------------------------------------------------------------
# win probability and masses


def test_win_prob_trivial_cases(model_v50):
    p = model_v50
    profile = truncated_profile(p.quality, 0.0)
    ev = evaluate_success(profile, p)
    assert abs(ev.win_prob(ev.sbar) - 0.5) < 1e-12  # zero-mean symmetric noise
    assert ev.win_prob(ev.sbar + 10 * p.noise.stddev) >= 1.0 - 1e-8
    under = evaluate_success(truncated_profile(p.quality,
                                               p.first_best_cutoff), p)
    assert under.win_prob(-50.0) == 1.0


def test_win_mass_bounds_and_trivials(model_v50):
    p = model_v50
    profile = truncated_profile(p.quality, 0.0)
    ev = evaluate_success(profile, p)
    assert win_mass(NEVER_SUBMIT, ev, p.quality) == 0.0
    under = evaluate_success(truncated_profile(p.quality,
                                               p.first_best_cutoff), p)
    assert abs(win_mass(1.0, under, p.quality)
               - (1.0 - p.quality.cdf(1.0))) < 1e-12
    w = win_mass(0.5, ev, p.quality)
    assert 0.0 < w < 1.0 - p.quality.cdf(0.5)


def test_win_mass_steady_state_identity(model_v50):
    # ex-ante winning probability against the recurrent competition equals
    # budget * (2 - F(Q)) / (1 + k), a consequence of market clearing
    p = model_v50
    k = p.budget
    for Q in np.linspace(p.quality.quantile(0.001),
                         p.first_best_cutoff - 0.05, 50):
        profile = steady_state_profile(p, Q, RejectionExclusion(1))
        ev = evaluate_success(profile, p)
        expected = k * (2.0 - p.quality.cdf(Q)) / (1.0 + k)
        assert abs(win_mass(Q, ev, p.quality) - expected) < 1e-8


def test_ban_mass_limits(model_v50):
    p = model_v50
    assert ban_mass(0.3, -INF, p.quality, p.noise) == 0.0
    assert ban_mass(ALWAYS_SUBMIT, INF, p.quality, p.noise) == 1.0
    assert abs(ban_mass(0.3, INF, p.quality, p.noise)
               - (1.0 - p.quality.cdf(0.3))) < 1e-12


def test_ban_mass_against_brute_force(model_v50):
    p = model_v50
    got = ban_mass(0.0, 1.0, p.quality, p.noise)
    assert 0.0 < got < 0.5
    ref = oracles.ban_integral(0.0, 1.0, 0.0, math.sqrt(2.0), math.sqrt(5.0))
    assert abs(got - ref) < 1e-6


# ---------------------------------------------------------------------------
# lifetime payoffs vs value-iteration oracles


def test_payoff_never_submit_is_zero(model_v50):
    p = model_v50
    ev = evaluate_success(truncated_profile(p.quality, 0.0), p)
    assert lifetime_payoff(NEVER_SUBMIT, ev, p) == 0.0
    assert lifetime_payoff(NEVER_SUBMIT, ev, p,
                           policy=RejectionExclusion(7)) == 0.0
    assert lifetime_payoff(NEVER_SUBMIT, ev, p, base=p.quality) == 0.0


def test_payoff_always_winning(model_v50):
    p = model_v50
    under = evaluate_success(truncated_profile(p.quality,
                                               p.first_best_cutoff), p)
    x = lifetime_payoff(ALWAYS_SUBMIT, under, p)
    assert abs(x - p.win_value / (1.0 - p.discount)) < 1e-9


def test_payoff_matches_value_iteration(model_v50):
    p = model_v50
    profile = steady_state_profile(p, 1.0, RejectionExclusion(1))
    ev = evaluate_success(profile, p)
    x = lifetime_payoff(1.0, ev, p)
    ref = oracles.value_iter_payoff(1.0, ev.sbar, 0.0, math.sqrt(2.0),
                                    math.sqrt(5.0), p.win_value,
                                    p.reject_cost, p.discount, ban_periods=1)
    assert abs(x - ref) < 1e-8


def test_payoff_recursion_residual(model_v50):
    # one period: skip keeps eligibility, winning keeps it, rejection costs
    # the next period; the closed form solves that recursion
    p = model_v50
    profile = steady_state_profile(p, 0.4, RejectionExclusion(1))
    ev = evaluate_success(profile, p)
    x = lifetime_payoff(0.4, ev, p)
    d = p.discount
    F = p.quality.cdf(0.4)
    win = win_mass(0.4, ev, p.quality)
    reject = (1.0 - F) - win
    rhs = F * d * x + win * (p.win_value + d * x) \
        + reject * (-p.reject_cost + d * d * x)
    assert abs(x - rhs) < 1e-8


def test_general_payoff_reduces_without_exclusion(model_v50):
    p = model_v50
    ev = evaluate_success(truncated_profile(p.quality, 0.2), p)
    x = lifetime_payoff(0.2, ev, p, policy=SignalExclusion(-INF))
    win = win_mass(0.2, ev, p.quality)
    reject = (1.0 - p.quality.cdf(0.2)) - win
    static = (win * p.win_value - reject * p.reject_cost) / (1.0 - p.discount)
    assert abs(x - static) < 1e-10


def test_general_payoff_coincides_when_ban_equals_rejection(model_v50,
                                                            v50_exclusion):
    # when the exclusion bar sits at the funding threshold the two routes
    # must agree; the 1e-10 bound needs the machine-precision panels because
    # the payoff magnitude (~160) amplifies integral error a hundredfold
    p = model_v50
    profile = steady_state_profile(p, v50_exclusion.cutoff,
                                   RejectionExclusion(1))
    ev = evaluate_success(profile, p)
    a = lifetime_payoff(v50_exclusion.cutoff, ev, p, FAST_QUADRATURE)
    b = lifetime_payoff(v50_exclusion.cutoff, ev, p, FAST_QUADRATURE,
                        policy=SignalExclusion(ev.sbar))
    assert abs(a - b) < 1e-10
    a_default = lifetime_payoff(v50_exclusion.cutoff, ev, p)
    assert abs(a_default - a) < 1e-8


def test_general_payoff_matches_value_iteration(model_v50):
    p = model_v50
    profile = steady_state_profile(p, 0.5, RejectionExclusion(1))
    ev = evaluate_success(profile, p)
    x = lifetime_payoff(0.5, ev, p, policy=SignalExclusion(2.0))
    ref = oracles.value_iter_payoff(0.5, ev.sbar, 0.0, math.sqrt(2.0),
                                    math.sqrt(5.0), p.win_value,
                                    p.reject_cost, p.discount, sbar_ban=2.0)
    assert abs(x - ref) < 1e-8


def test_multi_period_payoff_reductions(model_v20):
    p = model_v20
    profile = steady_state_profile(p, 0.0, RejectionExclusion(5))
    ev = evaluate_success(profile, p)
    assert lifetime_payoff(0.0, ev, p, policy=RejectionExclusion(1)) == \
        lifetime_payoff(0.0, ev, p)
    xs = [lifetime_payoff(0.0, ev, p, policy=RejectionExclusion(t))
          for t in (1, 2, 5, 20)]
    assert all(a > b for a, b in zip(xs, xs[1:]))  # longer bans hurt
    ref = oracles.value_iter_payoff(0.0, ev.sbar, 0.0, 1.0, 1.0, p.win_value,
                                    p.reject_cost, p.discount, ban_periods=5)
    assert abs(xs[2] - ref) < 1e-8


def test_typed_payoff_single_type_reduces(model_v50):
    p = model_v50
    ev = evaluate_success(truncated_profile(p.quality, 0.3), p)
    assert abs(lifetime_payoff(0.3, ev, p, base=p.quality)
               - lifetime_payoff(0.3, ev, p)) < 1e-12


def test_typed_payoff_matches_value_iteration():
    types = (TypeMix(0.5, Normal(0.5, 1.0)), TypeMix(0.5, Normal(0.0, 1.0)))
    p = normal_model(var_signal=2.0, reject_cost=1.0, win_value=50.0,
                     budget=0.1, discount=0.97, types=types)
    profile = truncated_profile(p.quality, 0.8, 0.9)
    ev = evaluate_success(profile, p)
    x = lifetime_payoff(0.8, ev, p, base=types[0].quality)
    ref = oracles.value_iter_payoff(0.8, ev.sbar, 0.5, 1.0, math.sqrt(2.0),
                                    p.win_value, p.reject_cost, p.discount,
                                    ban_periods=1)
    assert abs(x - ref) < 1e-8


def test_closed_forms_match_recursions_on_random_draws():
    rng = np.random.default_rng(7)
    for _ in range(12):
        var_q = rng.uniform(0.5, 3.0)
        var_s = rng.uniform(0.5, 5.0)
        p = normal_model(rng.uniform(-1, 1), var_q, var_s,
                         reject_cost=rng.uniform(0.5, 2.0),
                         win_value=rng.uniform(5.0, 80.0), budget=0.1,
                         discount=rng.uniform(0.6, 0.97))
        Q = p.quality.quantile(rng.uniform(0.05, 0.85))
        elig = rng.uniform(0.4, 1.0)
        profile = truncated_profile(p.quality, Q, elig)
        if profile.volume() <= p.budget:
            continue
        ev = evaluate_success(profile, p)
        sd_q, sd_s = math.sqrt(var_q), math.sqrt(var_s)
        x = lifetime_payoff(Q, ev, p)
        ref = oracles.value_iter_payoff(Q, ev.sbar, p.quality.mean, sd_q,
                                        sd_s, p.win_value, p.reject_cost,
                                        p.discount, ban_periods=1)
        assert abs(x - ref) < 1e-8
        t = int(rng.integers(2, 12))
        xt = lifetime_payoff(Q, ev, p, policy=RejectionExclusion(t))
        ref_t = oracles.value_iter_payoff(Q, ev.sbar, p.quality.mean, sd_q,
                                          sd_s, p.win_value, p.reject_cost,
                                          p.discount, ban_periods=t)
        assert abs(xt - ref_t) < 1e-8


# ---------------------------------------------------------------------------
# welfare


def test_welfare_first_best(model_v30):
    p = model_v30
    profile = truncated_profile(p.quality, p.first_best_cutoff)
    assert abs(welfare(profile, p)
               - p.budget * p.win_value) < 1e-10


def test_welfare_arithmetic():
    p = normal_model(win_value=30.0, reject_cost=1.0, budget=0.1)
    profile = truncated_profile(p.quality, p.quality.quantile(0.6))
    assert abs(profile.volume() - 0.4) < 1e-12
    assert abs(welfare(profile, p) - 2.7) < 1e-10


def test_welfare_undersubscribed_funds_everything():
    p = normal_model(win_value=30.0, reject_cost=1.0, budget=0.1)
    profile = truncated_profile(p.quality, p.quality.quantile(0.95))
    assert abs(welfare(profile, p) - 0.05 * 30.0) < 1e-10


# ---------------------------------------------------------------------------
# the assumptions on the success function


def test_market_clearing_monotonicity_and_ordering():
    # twenty random environments: funded mass equals the budget, the win
    # probability rises strictly in quality, and pointwise-smaller
    # competition can only help
    rng = np.random.default_rng(123)
    for trial in range(20):
        p = normal_model(rng.uniform(-1, 1), rng.uniform(0.5, 3.0),
                         rng.uniform(0.5, 5.0),
                         reject_cost=rng.uniform(0.5, 2.0),
                         win_value=rng.uniform(5.0, 100.0),
                         budget=rng.uniform(0.05, 0.3),
                         discount=0.9)
        Q = p.quality.quantile(rng.uniform(0.05, 0.6))
        profile = truncated_profile(p.quality, Q, rng.uniform(0.5, 1.0))
        if profile.volume() <= p.budget:
            continue
        ev = evaluate_success(profile, p)
        funded = profile.integral(lambda q: np.asarray(ev.win_prob(q)))
        assert abs(funded - p.budget) < 1e-8
        # strict increase over the representable range of the noise cdf
        qs = ev.sbar + np.linspace(-7.0, 7.0, 1000) * p.noise.stddev
        w = ev.win_prob(qs)
        assert np.all(np.diff(w) > 0.0)
        # weakly increasing over the whole truncated support
        w_full = ev.win_prob(np.linspace(*p.quality.support_hint, 1000))
        assert np.all(np.diff(w_full) >= 0.0)


def test_smaller_competition_raises_win_prob(model_v50):
    p = model_v50
    rng = np.random.default_rng(5)
    for _ in range(10):
        Q = p.quality.quantile(rng.uniform(0.05, 0.6))
        big = truncated_profile(p.quality, Q, rng.uniform(0.7, 1.0))
        small = big.scaled(rng.uniform(0.3, 0.95))
        if small.volume() <= p.budget:
            continue
        ev_big = evaluate_success(big, p)
        ev_small = evaluate_success(small, p)
        qs = np.linspace(*p.quality.support_hint, 400)
        assert np.all(ev_small.win_prob(qs) >= ev_big.win_prob(qs) - 1e-12)


def test_profile_volume_matches_integral(model_v50):
    p = model_v50
    profile = steady_state_profile(p, 0.3, RejectionExclusion(3))
    by_integral = profile.integral(lambda q: np.ones_like(q))
    assert abs(profile.volume() - by_integral) < 1e-8
    # bounded above by the population density
    qs = np.linspace(*p.quality.support_hint, 500)
    assert np.all(profile.pdf(qs) <= p.quality.pdf(qs) + 1e-14)


def test_clearing_bracket_failure_on_malformed_profile():
    # a profile whose reported volume exceeds the budget while its density
    # carries no mass: the clearing residual never changes sign
    from contest_eq import BracketFailure, Custom, signal_cutoff
    base = Normal(0.0, 1.0)
    broken = Custom(pdf=lambda q: np.zeros_like(np.asarray(q, dtype=float)),
                    cdf=base.cdf, support=base.support_hint, mean=0.0,
                    stddev=1.0)
    p = normal_model()
    profile = truncated_profile(broken, -1.0)
    assert profile.volume() > p.budget  # cdf-based volume looks fine
    with pytest.raises(BracketFailure):
        signal_cutoff(profile, p)
