import math

import numpy as np
import pytest

from contest_eq import (Mixture, NoExclusion, Normal, RejectedValue,
                        RejectionExclusion, SignalExclusion, SimConfig,
                        TypeMix, compare_winners, equilibria, first_best,
                        normal_model, solve_benchmark, solve_signal_cutoff,
                        steady_state_profile, sweep, truncated_profile,
                        winner_density)

from reference import V50_QBAR, SMALL_V_DOMINATED, STD_NORMAL_Q90

INF = math.inf


@pytest.fixture(scope="module")
def v50_densities(model_v50, v50_benchmark, v50_exclusion):
    h0 = winner_density(
        steady_state_profile(model_v50, v50_benchmark.cutoff,
                             NoExclusion()), model_v50)
    h1 = winner_density(
        steady_state_profile(model_v50, v50_exclusion.cutoff,
                             RejectionExclusion(1)), model_v50)
    return h0, h1


def test_first_best_winners_are_the_submissions(model_v30):
    fb = first_best(model_v30)
    assert abs(fb["cutoff"] - STD_NORMAL_Q90) < 1e-10
    assert abs(fb["welfare"] - 3.0) < 1e-12
    h = fb["winner_density"]
    qs = h.grid[h.grid > fb["cutoff"] + 1e-9]
    assert np.allclose(h(qs), model_v30.quality.pdf(qs), atol=1e-12)
    assert abs(h.total_mass - model_v30.budget) < 1e-6


def test_winner_mass_equals_budget_when_oversubscribed(model_v50,
                                                       v50_densities):
    h0, h1 = v50_densities
    assert abs(h0.total_mass - model_v50.budget) < 1e-6
    assert abs(h1.total_mass - model_v50.budget) < 1e-6


def test_winner_density_vanishes_below_cutoff(model_v50, v50_exclusion,
                                              v50_densities):
    _, h1 = v50_densities
    below = h1.grid < v50_exclusion.cutoff
    assert np.all(h1.values[below] == 0.0)
    above = (h1.grid > v50_exclusion.cutoff) & (h1.grid < 5.0)
    assert np.all(h1.values[above] > 0.0)


def test_single_crossing_between_exclusion_and_benchmark(model_v50,
                                                         v50_exclusion,
                                                         v50_densities):
    h0, h1 = v50_densities
    report = compare_winners(h1, h0)
    assert report.verdict == "single_crossing"
    assert report.qbar > v50_exclusion.cutoff
    assert abs(report.qbar - V50_QBAR) < 1e-6
    # sign pattern: h1 >= h0 between the entry cutoff and the crossing,
    # h1 <= h0 outside
    diff = h1.values - h0.values
    inside = (h1.grid >= v50_exclusion.cutoff) & (h1.grid <= report.qbar)
    assert np.all(diff[inside] >= -1e-10)
    assert np.all(diff[~inside] <= 1e-10)


def test_identical_densities_are_incomparable(model_v50, v50_densities):
    _, h1 = v50_densities
    report = compare_winners(h1, h1)
    assert report.verdict == "incomparable"
    assert np.max(np.abs(report.cdf_diff)) <= 1e-9  # dominance both ways


def test_first_best_dominates_equilibria(model_v50, v50_densities):
    h0, h1 = v50_densities
    fb = first_best(model_v50)["winner_density"]
    assert compare_winners(fb, h0).verdict == \
        "first_order_dominates"
    assert compare_winners(fb, h1).verdict == \
        "first_order_dominates"


def test_benchmark_dominates_when_exclusion_backfires():
    # small prize: the signal ban lowers the entry cutoff below the
    # benchmark's and the benchmark winner distribution dominates
    p = normal_model(0.0, 2.0, 5.0, reject_cost=1.0,
                     win_value=SMALL_V_DOMINATED, budget=0.1, discount=0.97)
    base = solve_benchmark(p)
    banned = solve_signal_cutoff(p, INF)
    assert banned.cutoff <= base.cutoff
    h = winner_density(
        steady_state_profile(p, banned.cutoff, SignalExclusion(INF)), p)
    h0 = winner_density(
        steady_state_profile(p, base.cutoff, NoExclusion()), p)
    assert compare_winners(h, h0).verdict == "dominated_by"


def test_verdict_invariant_to_grid_refinement(model_v50, v50_benchmark,
                                              v50_exclusion):
    qbars = []
    for grid_size in (500, 5000):
        h0 = winner_density(
            steady_state_profile(model_v50, v50_benchmark.cutoff,
                                 NoExclusion()), model_v50, grid_size)
        h1 = winner_density(
            steady_state_profile(model_v50, v50_exclusion.cutoff,
                                 RejectionExclusion(1)), model_v50,
            grid_size)
        report = compare_winners(h1, h0)
        assert report.verdict == "single_crossing"
        qbars.append(report.qbar)
    assert abs(qbars[0] - qbars[1]) < 1e-8


def test_winner_density_rejects_small_grid(model_v50):
    profile = truncated_profile(model_v50.quality, 0.0)
    with pytest.raises(ValueError):
        winner_density(profile, model_v50, grid_size=10)


def test_densities_on_different_grids_do_not_compare(model_v50):
    profile = truncated_profile(model_v50.quality, 0.0)
    coarse = winner_density(profile, model_v50, grid_size=100)
    fine = winner_density(profile, model_v50, grid_size=200)
    with pytest.raises(ValueError, match="share a grid"):
        compare_winners(coarse, fine)


def test_sweep_rejects_an_unknown_axis(model_v50):
    with pytest.raises(ValueError, match="unknown sweep axis"):
        sweep(model_v50, "mu", [0.0])


# ---------------------------------------------------------------------------
# sweeps


def test_prize_sweep_monotone_benchmark(model_v50):
    entries = sweep(model_v50, "V", [50.0, 500.0, 5000.0], NoExclusion())
    cutoffs = [e.outcome.cutoff for e in entries]
    assert all(e.error is None for e in entries)
    assert cutoffs[0] > cutoffs[1] > cutoffs[2]


def test_prize_sweep_exclusion_stays_above_benchmark(model_v50):
    bench = sweep(model_v50, "V", [50.0, 500.0, 5000.0], NoExclusion())
    excl = sweep(model_v50, "V", [50.0, 500.0, 5000.0],
                 RejectionExclusion(1))
    for b, e in zip(bench, excl):
        assert e.outcome.cutoff > b.outcome.cutoff
    # the same comparison holds for the apply-and-sit-out policy
    sig = sweep(model_v50, "V", [50.0, 500.0, 5000.0], SignalExclusion(INF))
    for b, s in zip(bench, sig):
        assert s.outcome.cutoff > b.outcome.cutoff


def test_ban_length_sweep_is_nonmonotone(model_v20):
    entries = sweep(model_v20, "t", [1, 5, 50])
    roots = {int(e.value): e.outcome.cutoff for e in entries}
    assert roots[50] < roots[1] < roots[5]


def test_discount_sweep_residuals(model_v50):
    entries = sweep(model_v50, "delta", [0.5, 0.9, 0.99],
                    RejectionExclusion(1))
    assert all(e.outcome.residual < 1e-8 for e in entries)


def test_sweep_records_failures_inline(model_v50):
    entries = sweep(model_v50, "k", [0.1, 1.5], RejectionExclusion(1))
    assert entries[0].error is None
    assert entries[1].outcome is None
    assert "budget" in entries[1].error


@pytest.mark.parametrize("make", [
    lambda: normal_model(budget=1.5),
    lambda: normal_model(win_value=math.nan),
    lambda: TypeMix(1.5, Normal(0.0, 1.0)),
    lambda: Normal(0.0, -1.0),
    lambda: Mixture([(0.5, Normal(0.0, 1.0))]),
    lambda: RejectionExclusion(2.5),
    lambda: SignalExclusion(math.nan),
    lambda: SimConfig(seed=1, n_agents=10),
    lambda: Normal(0.0, 1.0).quantile(1.5),
])
def test_model_rejections_raise_one_typed_error(make):
    # the one ValueError subclass that a sweep records inline
    with pytest.raises(RejectedValue):
        make()


def test_a_broadcast_error_propagates_out_of_sweep(model_v20, monkeypatch):
    # a ValueError from a bug is no solver failure: the sweep must not
    # record it as one
    def broken(*args, **kwargs):
        return np.zeros(3) + np.zeros(2)

    monkeypatch.setattr(equilibria, "_root_pass", broken)
    with pytest.raises(ValueError, match="broadcast") as info:
        sweep(model_v20, "t", [1, 5])
    assert not isinstance(info.value, RejectedValue)


def test_fractional_ban_length_is_an_inline_error(model_v20):
    # t = 2.5 must not solve (and label) the two-period ban
    entries = sweep(model_v20, "t", [2.0, 2.5])
    assert entries[0].outcome.regime == "multi_period(t=2)"
    assert entries[1].outcome is None
    assert "ban length" in entries[1].error


def test_sweep_propagates_programming_errors(model_v50, monkeypatch):
    from contest_eq import equilibria

    def broken(*args, **kwargs):
        raise TypeError("broken solver")

    monkeypatch.setattr(equilibria, "_solve_common", broken)
    with pytest.raises(TypeError, match="broken solver"):
        sweep(model_v50, "t", [1, 5])
