"""Property tests of the exclusion-policy layer over the valid parameter
box: V/C over six decades, k and delta in (0, 1), var_s/var_q from 1e-4 to
1e2, ban lengths up to 1e4 and signal bars across +-inf.  No full solves:
each example evaluates the residual on one grid or one clearing solve."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from contest_eq import (FAST_QUADRATURE, NoExclusion, RejectionExclusion,
                        SignalExclusion, evaluate_success, lifetime_payoff,
                        normal_model, steady_state_eligibility,
                        truncated_profile)
from contest_eq.equilibria import _batch_residuals

INF = math.inf
unit = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)


@st.composite
def models(draw):
    c = 10.0 ** draw(st.floats(-0.5, 0.5))
    var_q = 10.0 ** draw(st.floats(-0.5, 0.5))
    return normal_model(draw(st.floats(-1.0, 1.0)), var_q,
                        var_q * 10.0 ** draw(st.floats(-4.0, 2.0)),
                        reject_cost=c,
                        win_value=c * 10.0 ** draw(st.floats(-1.0, 5.0)),
                        budget=draw(unit), discount=draw(unit))


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
    sig = _batch_residuals(params, SignalExclusion(-INF), grid,
                           FAST_QUADRATURE)
    free = _batch_residuals(params, NoExclusion(), grid, FAST_QUADRATURE)
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
    scalar = steady_state_eligibility(params, float(grid[10]), policy)
    assert 0.0 < scalar <= 1.0


@settings(max_examples=25, deadline=None)
@given(models(), policies, st.floats(1e-3, 0.99))
def test_payoff_default_base_is_the_population(params, policy, p):
    cutoff = params.quality.quantile(p * (1.0 - params.budget))
    ev = evaluate_success(truncated_profile(params.quality, cutoff), params,
                          FAST_QUADRATURE)
    x = lifetime_payoff(cutoff, ev, params, FAST_QUADRATURE, policy)
    assert math.isfinite(x)
    assert lifetime_payoff(cutoff, ev, params, FAST_QUADRATURE, policy,
                           base=params.quality) == x
