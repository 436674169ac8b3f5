import dataclasses
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from contest_eq import (NEVER_SUBMIT, NoExclusion, Normal, RejectedValue,
                        RejectionExclusion, SignalExclusion, SimConfig,
                        SuccessEvaluation, empirical_best_response,
                        lifetime_payoff, normal_model, run_simulation, solve,
                        solve_multi_period, solve_signal_cutoff,
                        trend_statistic)
from contest_eq.cli import parse_config
from reference import V50_ALPHA1, V50_Q1

# medium-size runs keep this module fast; the full-scale cross-validation
# lives in the acceptance suite
N_AGENTS = 20_000
N_PERIODS = 400
BURN_IN = 100


@pytest.fixture(scope="module")
def v50_sim(model_v50, v50_exclusion):
    out = v50_exclusion
    cfg = SimConfig(seed=42, policy=RejectionExclusion(1),
                    cutoffs=(out.cutoff,), n_agents=N_AGENTS,
                    n_periods=N_PERIODS, burn_in=BURN_IN,
                    initial_eligibility=out.eligibility)
    return cfg, run_simulation(cfg, model_v50)


def test_simulation_is_deterministic(model_v50, v50_sim):
    cfg, res = v50_sim
    again = run_simulation(cfg, model_v50)
    assert np.array_equal(res.eligibility_trajectory,
                          again.eligibility_trajectory)
    assert np.array_equal(res.winner_hist_density, again.winner_hist_density)
    assert res.mean_welfare_per_period == again.mean_welfare_per_period


def test_draw_stream_is_pinned(model_v50):
    # which seeds' empirical best response lands a grid step off depends on
    # the exact draws, so any change to the draw stream (order, generator,
    # sampler) must show up here first, as a changed bit
    cfg = SimConfig(seed=2024, policy=RejectionExclusion(1),
                    cutoffs=(V50_Q1,), n_agents=5000, n_periods=60,
                    burn_in=10, initial_eligibility=(V50_ALPHA1,))
    res = run_simulation(cfg, model_v50)
    assert float(res.mean_eligibility[0]).hex() == "0x1.653198288051dp-1"
    assert float(res.mean_welfare_per_period).hex() == "0x1.2ca4c1ebc83aap+2"
    assert float(res.funding_thresholds.sum()).hex() == "0x1.354be3e5beab7p+7"
    # the replay credits the expected flow given each quality draw, with
    # the review noise integrated out, so its payoffs are pinned to that
    # estimator
    grid = V50_Q1 + np.arange(-5, 6) * 0.1
    best, payoffs = empirical_best_response(cfg, model_v50, grid, result=res,
                                            replications=2000)
    assert best == grid[4]
    assert [float(payoffs[i]).hex() for i in (0, 5, 10)] == [
        "0x1.3946db3686e51p+7", "0x1.3eae8b70b0558p+7",
        "0x1.353e20ab4a34dp+7"]


def _result_sha256(res):
    """sha256 of every SimResult field's float64 bytes, in field order."""
    h = hashlib.sha256()
    for f in dataclasses.fields(res):
        h.update(f.name.encode())
        h.update(np.ascontiguousarray(getattr(res, f.name),
                                      dtype=float).tobytes())
    return h.hexdigest()


def test_signal_policy_run_is_pinned(model_v50):
    # the signal ban trigger reads the submitters' signals
    cfg = SimConfig(seed=2025, policy=SignalExclusion(0.0), cutoffs=(1.0,),
                    n_agents=5000, n_periods=60, burn_in=10,
                    initial_eligibility=(0.8,))
    res = run_simulation(cfg, model_v50)
    assert float(res.mean_welfare_per_period).hex() == "0x1.37d577963992dp+2"
    assert _result_sha256(res) == (
        "cc41c115251c0cad8394e1f8f82393c05f4e9e168877d3d26bd88915521d9f37")


def test_two_type_ban_run_is_pinned():
    # two type blocks, per-type eligibility counts and a five-period ban
    # set on a subset of the agents
    types = ((0.5, Normal(0.5, 2.0)), (0.5, Normal(0.0, 2.0)))
    p = normal_model(var_signal=5.0, reject_cost=1.0, win_value=50.0,
                     budget=0.1, discount=0.97, types=types)
    cfg = SimConfig(seed=2026, policy=RejectionExclusion(5),
                    cutoffs=(1.3, 1.1), n_agents=5000, n_periods=60,
                    burn_in=10, initial_eligibility=(0.3, 0.3))
    res = run_simulation(cfg, p)
    assert _result_sha256(res) == (
        "9ef9fcff7415d9b79a006410f91a5b43b79b2ea7abb63d13191847760d1e32a4")


def test_nobody_submits_with_infinite_cutoff(model_v50):
    cfg = SimConfig(seed=3, policy=RejectionExclusion(1),
                    cutoffs=(NEVER_SUBMIT,), n_agents=2000, n_periods=50,
                    burn_in=10)
    res = run_simulation(cfg, model_v50)
    assert np.all(res.eligibility_trajectory == 1.0)
    assert res.mean_volume == 0.0
    assert res.mean_welfare_per_period == 0.0


def test_budget_feasibility_every_period(model_v50, v50_sim):
    cfg, res = v50_sim
    slots = math.floor(model_v50.budget * cfg.n_agents)
    funded_counts = np.round(res.funded_trajectory * cfg.n_agents).astype(int)
    sub_counts = np.round(res.volume_trajectory * cfg.n_agents).astype(int)
    assert np.all(funded_counts <= slots)
    over = sub_counts > slots
    assert np.all(funded_counts[over] == slots)


def test_eligibility_tracks_analytic_steady_state(model_v50, v50_exclusion,
                                                  v50_sim):
    _, res = v50_sim
    assert abs(res.mean_eligibility[0] - v50_exclusion.eligibility[0]) < 0.01
    assert abs(res.mean_volume - v50_exclusion.submission_volume) < 0.01
    assert abs(res.mean_welfare_per_period - v50_exclusion.welfare) < 0.05


def test_stationarity_when_seeded_at_steady_state(v50_sim):
    cfg, res = v50_sim
    z = trend_statistic(res.eligibility_trajectory[cfg.burn_in:])
    assert abs(z) < 2.576  # 1% two-sided critical value


def test_winner_histogram_integrates_to_funded_volume(v50_sim):
    _, res = v50_sim
    width = res.winner_hist_edges[1] - res.winner_hist_edges[0]
    assert abs(res.winner_hist_density.sum() * width
               - res.mean_funded_volume) < 1e-12


def test_multi_period_eligibility(model_v20):
    out = solve_multi_period(model_v20, 50)
    cfg = SimConfig(seed=11, policy=RejectionExclusion(50),
                    cutoffs=(out.cutoff,), n_agents=N_AGENTS,
                    n_periods=N_PERIODS, burn_in=200,
                    initial_eligibility=out.eligibility)
    res = run_simulation(cfg, model_v20)
    assert abs(res.mean_eligibility[0] - out.eligibility[0]) < 0.02


def test_signal_policy_eligibility(model_v50):
    out = solve_signal_cutoff(model_v50, 2.0)
    cfg = SimConfig(seed=5, policy=SignalExclusion(2.0),
                    cutoffs=(out.cutoff,), n_agents=N_AGENTS,
                    n_periods=N_PERIODS, burn_in=BURN_IN,
                    initial_eligibility=out.eligibility)
    res = run_simulation(cfg, model_v50)
    assert abs(res.mean_eligibility[0] - out.eligibility[0]) < 0.01


def test_two_type_eligibility_tracking():
    types = ((0.5, Normal(0.5, 2.0)), (0.5, Normal(0.0, 2.0)))
    p = normal_model(var_signal=5.0, reject_cost=1.0, win_value=50.0,
                     budget=0.1, discount=0.97, types=types)
    out = solve(p, RejectionExclusion(1))
    cfg = SimConfig(seed=9, policy=RejectionExclusion(1), cutoffs=out.cutoffs,
                    n_agents=N_AGENTS, n_periods=N_PERIODS, burn_in=BURN_IN,
                    initial_eligibility=out.eligibility)
    res = run_simulation(cfg, p)
    assert abs(res.mean_eligibility[0] - out.eligibility[0]) < 0.01
    assert abs(res.mean_eligibility[1] - out.eligibility[1]) < 0.01


def test_empirical_best_response_argmax_near_analytic(model_v50,
                                                      v50_exclusion,
                                                      v50_sim):
    cfg, res = v50_sim
    q1 = v50_exclusion.cutoff
    grid = q1 + np.arange(-5, 6) * 0.1
    best, _ = empirical_best_response(cfg, model_v50, grid, result=res,
                                      replications=4000)
    assert abs(best - q1) <= 0.1 + 1e-12


def test_empirical_best_response_free_entry(model_v50):
    from contest_eq import NoExclusion, solve_benchmark
    q0 = solve_benchmark(model_v50).cutoff
    cfg = SimConfig(seed=7, policy=NoExclusion(), cutoffs=(q0,),
                    n_agents=50_000, n_periods=500, burn_in=100)
    res = run_simulation(cfg, model_v50)
    grid = q0 + np.arange(-20, 21) * 0.05
    best, _ = empirical_best_response(cfg, model_v50, grid, result=res,
                                      replications=8000)
    assert abs(best - q0) <= 0.05 + 1e-12


def test_empirical_best_response_on_a_type_block():
    # the deviator draws its ideas from the population mixture of
    # configs/two_type.ini
    run = parse_config((Path(__file__).resolve().parents[1] / "configs"
                        / "two_type.ini").read_text())
    out = solve(run.params, run.policy)
    cfg = SimConfig(seed=11, policy=run.policy, cutoffs=out.cutoffs,
                    n_agents=2000, n_periods=40, burn_in=10,
                    initial_eligibility=out.eligibility)
    grid = np.linspace(min(out.cutoffs) - 0.5, max(out.cutoffs) + 0.5, 11)
    (best, payoffs), (again, repeat) = (
        empirical_best_response(cfg, run.params, grid, replications=500,
                                horizon=60) for _ in range(2))
    assert best in grid.tolist()
    assert np.all(np.isfinite(payoffs))
    assert best == again and payoffs.tobytes() == repeat.tobytes()


def test_trend_statistic_signs():
    assert trend_statistic(np.linspace(1.0, 0.0, 50)) < 0.0
    assert trend_statistic(np.full(50, 0.3)) == 0.0


def test_empirical_best_response_undersubscribed_prefers_entry(model_v50):
    # with everyone priced out the budget is never binding, so the deviator
    # should submit as much as possible
    p = model_v50
    cfg = SimConfig(seed=8, policy=RejectionExclusion(1),
                    cutoffs=(p.first_best_cutoff + 1.0,), n_agents=5000,
                    n_periods=200, burn_in=50)
    res = run_simulation(cfg, p)
    grid = np.linspace(-1.0, 1.0, 11)
    best, payoffs = empirical_best_response(cfg, p, grid, result=res,
                                            replications=2000)
    assert best == grid[0]
    assert np.all(np.diff(payoffs) <= 1e-9)


@pytest.mark.parametrize("noise_mean", [0.0, -0.5])
@pytest.mark.parametrize("policy", [NoExclusion(), RejectionExclusion(1),
                                    RejectionExclusion(5),
                                    SignalExclusion(0.0)], ids=repr)
def test_empirical_best_response_is_unbiased(model_v20, policy, noise_mean):
    # against a constant funding threshold the lifetime payoff is closed
    # form, so the replay's mean over seeds must sit within 5 standard
    # errors of it for every candidate (horizon 128 at delta = 0.85)
    params = dataclasses.replace(model_v20, noise=Normal(noise_mean, 1.0))
    out = solve(params, policy)
    cfg = SimConfig(seed=0, policy=policy, cutoffs=(out.cutoff,),
                    n_agents=1000, n_periods=20, burn_in=10)
    res = run_simulation(cfg, params)
    res = dataclasses.replace(
        res, funding_thresholds=np.full(cfg.n_periods, out.sbar))
    grid = out.cutoff + np.arange(-5, 6) * 0.2
    runs = np.array([
        empirical_best_response(dataclasses.replace(cfg, seed=seed), params,
                                grid, result=res, replications=2000)[1]
        for seed in range(1, 11)])
    exact = lifetime_payoff(grid, SuccessEvaluation(out.sbar, params.noise),
                            params, policy)
    se = runs.std(axis=0, ddof=1) / math.sqrt(len(runs))
    assert np.all(np.abs(runs.mean(axis=0) - exact) < 5 * se)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(seed=1, n_agents=10)
    with pytest.raises(ValueError):
        SimConfig(seed=1, n_periods=100, burn_in=100)


@pytest.mark.parametrize("eligibility", [(0.5, 0.5), (), (-0.2,),
                                         (math.nan,), (1.2,)],
                         ids=["two-for-one-type", "empty", "negative", "nan",
                              "above-share"])
def test_initial_eligibility_is_one_share_per_type(model_v50, eligibility):
    cfg = SimConfig(seed=1, n_agents=1000, n_periods=20, burn_in=5,
                    initial_eligibility=eligibility)
    with pytest.raises(RejectedValue, match="initial eligible"):
        run_simulation(cfg, model_v50)


def test_typed_initial_eligibility_stays_within_each_share():
    p = normal_model(var_signal=5.0, types=((0.5, Normal(0.5, 2.0)),
                                            (0.5, Normal(0.0, 2.0))))
    cfg = SimConfig(seed=1, cutoffs=(1.0, 1.0), n_agents=1000, n_periods=20,
                    burn_in=5, initial_eligibility=(0.6, 0.3))
    with pytest.raises(RejectedValue, match="initial eligible"):
        run_simulation(cfg, p)
    run_simulation(dataclasses.replace(cfg, initial_eligibility=(0.5, 0.3)),
                   p)


def test_a_nan_cutoff_is_rejected_and_infinite_ones_run(model_v50):
    with pytest.raises(RejectedValue, match="cutoffs"):
        SimConfig(seed=1, cutoffs=(math.nan,))
    always, never = (run_simulation(SimConfig(seed=1, cutoffs=(cutoff,),
                                              n_agents=1000, n_periods=20,
                                              burn_in=5), model_v50)
                     for cutoff in (-math.inf, math.inf))
    assert always.mean_volume == always.mean_eligibility[0] > 0.0
    assert never.mean_volume == 0.0


def test_a_budget_that_funds_no_one_is_rejected(model_v50):
    # floor(k * n) = 0 leaves no order statistic to fund at
    p = dataclasses.replace(model_v50, budget=0.0005)
    cfg = SimConfig(seed=1, n_agents=1000, n_periods=20, burn_in=5)
    with pytest.raises(RejectedValue, match="funds no one"):
        run_simulation(cfg, p)


def test_seed_must_be_a_philox_key():
    for seed in (-1, 2**128):
        with pytest.raises(ValueError, match="seed"):
            SimConfig(seed=seed)
    assert SimConfig(seed=2**128 - 1).seed == 2**128 - 1


def test_a_run_without_a_seed_raises(model_v50):
    # no implicit entropy: a seedless config parses but never runs
    cfg = SimConfig(seed=None, n_agents=1000, n_periods=20, burn_in=5)
    with pytest.raises(ValueError, match="seed"):
        run_simulation(cfg, model_v50)
    res = run_simulation(dataclasses.replace(cfg, seed=1), model_v50)
    with pytest.raises(ValueError, match="seed"):
        empirical_best_response(cfg, model_v50, [0.0], result=res,
                                replications=10)
