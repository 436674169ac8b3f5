import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contest_eq import (ALWAYS_SUBMIT, NEVER_SUBMIT, Mixture, Normal,
                        ProfileComponent, RejectionExclusion, SignalExclusion,
                        SubmissionProfile,
                        ban_mass, evaluate_success, lifetime_payoff,
                        normal_model, signal_cutoff,
                        steady_state_profile, truncated_profile, welfare,
                        win_mass, TypeMix)
from contest_eq.core import _upper_mass

import oracles
from reference import V30_SBAR_FULL, V50_SBAR_EQ

INF = math.inf


# ---------------------------------------------------------------------------
# model primitives take normal laws only


class _NotNormal:
    """A stand-in for any non-normal law."""


def test_model_rejects_non_normal_laws():
    plain = normal_model()
    for law in ({"noise": _NotNormal()}, {"quality": _NotNormal()}):
        with pytest.raises(TypeError):
            dataclasses.replace(plain, **law)
    with pytest.raises(TypeError):
        TypeMix(0.5, _NotNormal())
    typed = normal_model(types=(TypeMix(0.5, Normal(0.5, 1.0)),
                                TypeMix(0.5, Normal(0.0, 1.0))))
    with pytest.raises(TypeError):
        dataclasses.replace(typed, noise=_NotNormal())
    # replace hands the built Mixture back in as `quality`, which a typed
    # model ignores and rebuilds from its types
    again = dataclasses.replace(typed, win_value=50.0)
    assert again.win_value == 50.0
    assert isinstance(again.quality, Mixture)
    assert again.quality.mean == typed.quality.mean


def test_profile_rejects_non_normal_bases():
    # a profile's masses are normal orthants: a non-normal base fails where
    # the profile is built, not deep inside the clearing solve
    with pytest.raises(TypeError):
        truncated_profile(_NotNormal(), 0.2)
    with pytest.raises(TypeError):
        SubmissionProfile((ProfileComponent(Normal(0.0, 1.0), 0.1),
                           ProfileComponent(_NotNormal(), 0.2)))
    mixed = Mixture([(0.5, Normal(0.5, 1.0)), (0.5, Normal(0.0, 1.0))])
    assert truncated_profile(mixed, 0.2).volume() > 0.0


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
    funded = oracles.funded_mass(profile, sbar, p.noise)
    assert abs(funded - p.budget) < 1e-10


def test_halving_competition_lowers_the_bar(model_v50):
    p = model_v50
    profile = truncated_profile(p.quality, -1.0)
    halved = truncated_profile(p.quality, -1.0, 0.5)
    assert halved.volume() > p.budget
    assert signal_cutoff(halved, p) < signal_cutoff(profile, p)


def test_exclusion_profile_clearing_threshold(model_v50, v50_exclusion):
    profile = steady_state_profile(model_v50, v50_exclusion.cutoff,
                                   RejectionExclusion(1))
    sbar = signal_cutoff(profile, model_v50)
    assert abs(sbar - V50_SBAR_EQ) < 1e-8


def test_two_component_clearing_matches_brute_force():
    # two truncated types with their own cutoffs, shares and eligibilities
    hi_type, lo_type = Normal(0.5, 1.2), Normal(-0.3, 0.8)
    profile = SubmissionProfile((ProfileComponent(hi_type, 0.1, 0.7, 0.4),
                                 ProfileComponent(lo_type, -0.5, 0.9, 0.6)))
    p = normal_model(var_signal=2.0, budget=0.1)
    expected = oracles.mixture_clearing_sbar(
        [(0.4 * 0.7, 0.1, 0.5, math.sqrt(1.2)),
         (0.6 * 0.9, -0.5, -0.3, math.sqrt(0.8))], 0.1, 2.0)
    assert abs(signal_cutoff(profile, p) - expected) < 1e-10


# ---------------------------------------------------------------------------
# the closed-form orthant P(q >= cutoff, q + e >= b)

# standardized limits: signed zeros, the origin, +-inf and |x| up to 40;
# correlations sd_q / sd_s over the valid box's var_s / var_q in [1e-4, 1e2]
limits = st.one_of(st.sampled_from([0.0, -0.0, INF, -INF]),
                   st.floats(-40.0, 40.0))
correlations = st.floats(0.0995, 0.99995)
means = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))


def _laws(mu, sd_q, rho, noise_mean):
    """Normal quality and noise whose quality-signal correlation is rho."""
    sd_e = sd_q * math.sqrt((1.0 - rho) * (1.0 + rho)) / rho
    return Normal(mu, sd_q ** 2), Normal(noise_mean, sd_e ** 2)


@settings(max_examples=80, deadline=None)
@given(limits, limits, correlations, means, st.floats(0.3, 3.0), means)
def test_upper_mass_matches_dense_oracle(h, k, rho, mu, sd_q, noise_mean):
    base, noise = _laws(mu, sd_q, rho, noise_mean)
    sd_s = sd_q / rho
    # a zero mean adds nothing, which keeps the sign of a zero limit
    cutoff = mu + h * sd_q if mu else h * sd_q
    b = mu + noise_mean + k * sd_s if mu or noise_mean else k * sd_s
    got = float(_upper_mass(base, cutoff, noise, b))
    want = oracles.upper_mass(cutoff, b, mu, sd_q, noise_mean, noise.stddev)
    assert abs(got - want) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(-1.0, 1.0), st.floats(0.3, 3.0),
       correlations, st.lists(st.floats(-6.0, 6.0), min_size=3, max_size=3),
       st.floats(-6.0, 6.0))
def test_upper_mass_sums_mixture_parts(w, gap, var_q, rho, cutoffs, b):
    first, noise = _laws(0.0, math.sqrt(var_q), rho, 0.0)
    second = Normal(gap, 0.5 * var_q)
    mix = Mixture([(w, first), (1.0 - w, second)])
    got = _upper_mass(mix, np.array(cutoffs), noise, b)
    want = [w * oracles.upper_mass(c, b, 0.0, first.stddev, 0.0,
                                   noise.stddev)
            + (1.0 - w) * oracles.upper_mass(c, b, gap, second.stddev, 0.0,
                                             noise.stddev)
            for c in cutoffs]
    assert got.shape == (3,)
    assert np.all(np.abs(got - want) < 1e-12)


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
    a = lifetime_payoff(v50_exclusion.cutoff, ev, p)
    b = lifetime_payoff(v50_exclusion.cutoff, ev, p,
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
        t = int(rng.integers(2, 12))
        xt = lifetime_payoff(Q, ev, p, policy=RejectionExclusion(t))
        ref, ref_t = oracles.value_iter_payoffs(
            Q, ev.sbar, p.quality.mean, sd_q, sd_s, p.win_value,
            p.reject_cost, p.discount, [1, t])
        assert abs(x - ref) < 1e-8
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
        funded = oracles.funded_mass(profile, ev.sbar, p.noise)
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
        elig = rng.uniform(0.7, 1.0)
        big = truncated_profile(p.quality, Q, elig)
        small = truncated_profile(p.quality, Q,
                                  elig * rng.uniform(0.3, 0.95))
        if small.volume() <= p.budget:
            continue
        ev_big = evaluate_success(big, p)
        ev_small = evaluate_success(small, p)
        qs = np.linspace(*p.quality.support_hint, 400)
        assert np.all(ev_small.win_prob(qs) >= ev_big.win_prob(qs) - 1e-12)


def test_profile_volume_matches_integral(model_v50):
    p = model_v50
    profile = steady_state_profile(p, 0.3, RejectionExclusion(3))
    by_integral = oracles.funded_mass(profile, -INF, p.noise)
    assert abs(profile.volume() - by_integral) < 1e-8
    # bounded above by the population density
    qs = np.linspace(*p.quality.support_hint, 500)
    assert np.all(profile.pdf(qs) <= p.quality.pdf(qs) + 1e-14)


def test_clearing_bracket_failure_on_malformed_profile():
    # rows whose submitted mass does not exceed the budget (a high cutoff;
    # a low eligibility): no threshold clears them, so the clearing
    # residual never changes sign
    from contest_eq import BracketFailure
    from contest_eq.core import _clearing_thresholds
    p = normal_model()
    base = p.quality
    lo, hi = base.support_hint
    for cutoffs, masses in (([-1.0, 3.0], [1.0, 1.0]),
                            ([-1.0, -1.0], [1.0, 0.05])):
        parts = [(base, np.array(cutoffs), np.array(masses))]
        with pytest.raises(BracketFailure):
            _clearing_thresholds(parts, p, lo, hi, 1e-14)
