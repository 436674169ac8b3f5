"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are pinned here and nowhere else; the heavy Monte Carlo
cross-validation (criterion 8) runs the full 200k-agent population.
"""

import math
import time

import numpy as np
import pytest

from contest_eq import (Normal, NoExclusion, RejectionExclusion,
                        SignalExclusion, SimConfig,
                        compare_winners, empirical_best_response,
                        evaluate_success, first_best, lifetime_payoff,
                        normal_model, run_simulation, solve, solve_benchmark,
                        solve_exclusion, solve_multi_period,
                        solve_signal_cutoff, steady_state_profile,
                        truncated_profile, winner_density)

import oracles

INF = math.inf
SIM_SEED = 20260810


def _report(num, label, checks):
    """Print one acceptance line; fail the test if any check failed."""
    failed = [name for name, ok in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    print(f"\ncriterion {num:2d} [{status}] {label}"
          + (f"  (failed: {', '.join(failed)})" if failed else ""))
    assert not failed, f"criterion {num}: failed checks: {failed}"


@pytest.fixture(scope="module")
def model_v30():
    return normal_model(0.0, 1.0, 2.0, reject_cost=1.0, win_value=30.0,
                        budget=0.1, discount=0.97)


@pytest.fixture(scope="module")
def model_v50():
    return normal_model(0.0, 2.0, 5.0, reject_cost=1.0, win_value=50.0,
                        budget=0.1, discount=0.97)


@pytest.fixture(scope="module")
def model_v20():
    return normal_model(0.0, 1.0, 1.0, reject_cost=1.0, win_value=20.0,
                        budget=0.1, discount=0.85)


@pytest.fixture(scope="module")
def v50_solved(model_v50):
    return solve_benchmark(model_v50), solve_exclusion(model_v50)


def test_criterion_1_benchmark_reproduction(model_v30):
    t0 = time.monotonic()
    out = solve_benchmark(model_v30)
    elapsed = time.monotonic() - t0
    ev = evaluate_success(truncated_profile(model_v30.quality, out.cutoff), model_v30)
    w_residual = abs(float(ev.win_prob(out.cutoff)) - 1.0 / 31.0)
    _report(1, "free-entry cutoff at the V=30 example model", [
        ("unique root", len(out.all_roots) == 1),
        ("indifference residual < 1e-8", w_residual < 1e-8),
        ("cutoff below first-best", out.cutoff < model_v30.first_best_cutoff),
        ("cutoff finite", math.isfinite(out.cutoff)),
        ("runtime < 1 s", elapsed < 1.0),
    ])


def test_criterion_2_exclusion_reproduction(model_v50):
    t0 = time.monotonic()
    bench = solve_benchmark(model_v50)
    excl = solve_exclusion(model_v50)
    elapsed = time.monotonic() - t0
    _report(2, "one-period exclusion at the V=50 example model", [
        ("equation residual < 1e-8", excl.residual < 1e-8),
        ("exclusion cutoff above benchmark", excl.cutoff > bench.cutoff),
        ("volume strictly below benchmark",
         excl.submission_volume < bench.submission_volume),
        ("welfare strictly above benchmark", excl.welfare > bench.welfare),
        ("runtime < 5 s", elapsed < 5.0),
    ])


def test_criterion_3_ban_length_ordering(model_v20):
    t0 = time.monotonic()
    roots = {t: solve_multi_period(model_v20, t).cutoff for t in (1, 5, 50)}
    elapsed = time.monotonic() - t0
    _report(3, "ban-length ordering Q50 < Q1 < Q5", [
        ("Q50 < Q1", roots[50] < roots[1]),
        ("Q1 < Q5", roots[1] < roots[5]),
        ("runtime < 10 s", elapsed < 10.0),
    ])


def test_criterion_4_long_ban_limit(model_v20):
    outs = {t: solve_multi_period(model_v20, t) for t in (1, 5, 50, 200, 1000)}
    k = model_v20.budget
    # distance between the induced submissions and budget-scaled population
    out = outs[1000]
    qs = np.linspace(*model_v20.quality.support_hint, 200_001)
    prof = steady_state_profile(model_v20, out.cutoff, RejectionExclusion(1000))
    dist = float(np.trapezoid(np.abs(prof.pdf(qs) - k * model_v20.quality.pdf(qs)),
                              qs))
    tail_elig = [outs[t].eligibility[0] for t in (50, 200, 1000)]
    winner_masses = [
        winner_density(steady_state_profile(model_v20, outs[t].cutoff,
                                            RejectionExclusion(t)),
                       model_v20).total_mass
        for t in (1, 5, 50, 200, 1000)]
    _report(4, "long bans: cutoff diverges, eligibility goes to the budget", [
        ("Q_1000 < Q_50 - 1", outs[1000].cutoff < outs[50].cutoff - 1.0),
        ("eligibility within 0.02 of k",
         abs(out.eligibility[0] - k) < 0.02),
        ("eligibility decreasing toward k in the tail",
         tail_elig[0] > tail_elig[1] > tail_elig[2] > k),
        ("winner volume equals k at every ban length",
         all(abs(m - k) < 1e-6 for m in winner_masses)),
        ("submissions within 0.05 of k * population", dist < 0.05),
        ("all residuals < 1e-8",
         all(o.residual < 1e-8 for o in outs.values())),
    ])


def test_criterion_5_reduction_identities(model_v50, v50_solved):
    bench, excl = v50_solved
    multi1 = solve_multi_period(model_v50, 1)
    sig_bench = solve_signal_cutoff(model_v50, -INF)
    sig_eq = solve_signal_cutoff(model_v50, excl.sbar)
    same_roots = len(multi1.all_roots) == len(excl.all_roots) and all(
        abs(a - b) < 1e-9
        for a, b in zip(multi1.all_roots, excl.all_roots))
    _report(5, "reduction identities between the solvers", [
        ("one-period ban equals t=1 root set (1e-9)", same_roots),
        ("signal ban at -inf equals benchmark (1e-9)",
         abs(sig_bench.cutoff - bench.cutoff) < 1e-9),
        ("signal ban at the equilibrium threshold keeps Q1 (1e-6)",
         any(abs(r - excl.cutoff) < 1e-6 for r in sig_eq.all_roots)),
    ])


def test_criterion_6_assumption_suite():
    rng = np.random.default_rng(2026)
    clearing_ok, monotone_ok, nested_ok = True, True, True
    nested_checked = 0
    for trial in range(20):
        p = normal_model(rng.uniform(-1, 1), rng.uniform(0.5, 3.0),
                         rng.uniform(0.5, 5.0),
                         reject_cost=rng.uniform(0.5, 2.0),
                         win_value=rng.uniform(5.0, 100.0),
                         budget=rng.uniform(0.05, 0.3),
                         discount=rng.uniform(0.6, 0.97))
        Q = p.quality.quantile(rng.uniform(0.05, 0.6))
        elig = rng.uniform(0.6, 1.0)
        profile = truncated_profile(p.quality, Q, elig)
        if profile.volume() <= p.budget:
            continue
        ev = evaluate_success(profile, p)
        funded = oracles.funded_mass(profile, ev.sbar, p.noise)
        clearing_ok &= abs(funded - p.budget) < 1e-8
        qs = ev.sbar + np.linspace(-7.0, 7.0, 1000) * p.noise.stddev
        monotone_ok &= bool(np.all(np.diff(ev.win_prob(qs)) > 0.0))
        if nested_checked < 10:
            small = truncated_profile(p.quality, Q,
                                      elig * rng.uniform(0.4, 0.95))
            if small.volume() > p.budget:
                ev_small = evaluate_success(small, p)
                grid = np.linspace(*p.quality.support_hint, 1000)
                nested_ok &= bool(np.all(ev_small.win_prob(grid)
                                         >= ev.win_prob(grid) - 1e-12))
                nested_checked += 1
    _report(6, "market clearing, monotonicity and competition ordering", [
        ("funded mass equals budget (1e-8), 20 draws", clearing_ok),
        ("win probability strictly increasing, 1000-point grids",
         monotone_ok),
        ("10 nested profile pairs ordered", nested_ok and
         nested_checked >= 10),
    ])


def test_criterion_7_payoff_identities():
    rng = np.random.default_rng(77)
    worst = 0.0
    done = 0
    while done < 100:
        mu = rng.uniform(-1, 1)
        var_q = rng.uniform(0.5, 3.0)
        var_s = rng.uniform(0.5, 5.0)
        p = normal_model(mu, var_q, var_s,
                         reject_cost=rng.uniform(0.5, 2.0),
                         win_value=rng.uniform(5.0, 80.0),
                         budget=rng.uniform(0.05, 0.25),
                         discount=rng.uniform(0.6, 0.97))
        Q = p.quality.quantile(rng.uniform(0.05, 0.8))
        profile = truncated_profile(p.quality, Q, rng.uniform(0.4, 1.0))
        if profile.volume() <= p.budget:
            continue
        ev = evaluate_success(profile, p)
        sd_q, sd_s = math.sqrt(var_q), math.sqrt(var_s)

        x = lifetime_payoff(Q, ev, p)
        t = int(rng.integers(2, 20))
        xt = lifetime_payoff(Q, ev, p, policy=RejectionExclusion(t))
        # one oracle grid serves both ban lengths
        ref, ref_t = oracles.value_iter_payoffs(Q, ev.sbar, mu, sd_q, sd_s,
                                                p.win_value, p.reject_cost,
                                                p.discount, [1, t])
        worst = max(worst, abs(x - ref), abs(xt - ref_t))

        # typed payoff: researcher type differs from the population
        mu_i = mu + rng.uniform(0.1, 0.6)
        type_dist = Normal(mu_i, var_q)
        xi = lifetime_payoff(Q, ev, p, base=type_dist)
        ref_i = oracles.value_iter_payoff(Q, ev.sbar, mu_i, sd_q, sd_s,
                                          p.win_value, p.reject_cost,
                                          p.discount, ban_periods=1)
        worst = max(worst, abs(xi - ref_i))
        done += 1
    _report(7, "closed-form payoffs equal value-iterated recursions", [
        ("100 draws, all within 1e-8", worst < 1e-8),
    ])


def test_criterion_8_simulator_cross_validation(model_v50, v50_solved):
    _, excl = v50_solved
    q1, alpha = excl.cutoff, excl.eligibility[0]
    t0 = time.monotonic()
    cfg = SimConfig(seed=SIM_SEED, policy=RejectionExclusion(1),
                    cutoffs=(q1,), n_agents=200_000, n_periods=1000,
                    burn_in=200, initial_eligibility=(alpha,))
    res = run_simulation(cfg, model_v50)

    elig_err = abs(res.mean_eligibility[0] - alpha)

    profile = steady_state_profile(model_v50, q1, RejectionExclusion(1))
    ev = evaluate_success(profile, model_v50)
    centers = 0.5 * (res.winner_hist_edges[:-1] + res.winner_hist_edges[1:])
    width = res.winner_hist_edges[1] - res.winner_hist_edges[0]
    analytic = profile.pdf(centers) * np.asarray(ev.win_prob(centers))
    p_emp = res.winner_hist_density * width
    p_ana = analytic * width
    tv = 0.5 * float(np.sum(np.abs(p_emp / p_emp.sum()
                                   - p_ana / p_ana.sum())))

    grid = q1 + np.arange(-20, 21) * 0.05
    best, _ = empirical_best_response(cfg, model_v50, grid, result=res,
                                      replications=10_000)
    elapsed = time.monotonic() - t0
    _report(8, "200k-agent simulation reproduces the analytic steady state", [
        ("mean eligibility within 0.01", elig_err < 0.01),
        ("winner histogram within TV 0.03", tv < 0.03),
        ("empirical best response within one 0.05 step",
         abs(best - q1) <= 0.05 + 1e-12),
        ("runtime < 2 min", elapsed < 120.0),
    ])


def test_criterion_9_two_type_suite(model_v50):
    types = ((0.5, Normal(0.5, 2.0)), (0.5, Normal(0.0, 2.0)))
    p = normal_model(var_signal=5.0, reject_cost=1.0, win_value=50.0,
                     budget=0.1, discount=0.97, types=types)
    out = solve(p, RejectionExclusion(1))

    same = ((0.5, Normal(0.0, 2.0)), (0.5, Normal(0.0, 2.0)))
    p_same = normal_model(var_signal=5.0, reject_cost=1.0, win_value=50.0,
                          budget=0.1, discount=0.97, types=same)
    degenerate = solve(p_same, RejectionExclusion(1))
    pooled = solve_exclusion(model_v50)
    collapse = max(abs(degenerate.cutoffs[0] - pooled.cutoff),
                   abs(degenerate.cutoffs[1] - pooled.cutoff))
    _report(9, "two researcher types: selectivity ordering and reduction", [
        ("indifference residuals < 1e-8", out.residual < 1e-8),
        ("flow-balance residual < 1e-9",
         out.eligibility_residual < 1e-9),
        ("stronger type uses the strictly higher cutoff",
         out.cutoffs[0] > out.cutoffs[1]),
        ("identical types collapse to the pooled cutoff (1e-8)",
         collapse < 1e-8),
    ])


def test_criterion_10_dominance_suite(model_v50, v50_solved):
    bench, excl = v50_solved
    h0 = winner_density(
        steady_state_profile(model_v50, bench.cutoff, NoExclusion()), model_v50)
    h1 = winner_density(
        steady_state_profile(model_v50, excl.cutoff, RejectionExclusion(1)), model_v50)
    report = compare_winners(h1, h0)
    diff = h1.values - h0.values
    inside = (h1.grid >= excl.cutoff) & (h1.grid <= (report.qbar or -INF))
    pattern_ok = report.verdict == "single_crossing" and \
        bool(np.all(diff[inside] >= -1e-10)) and \
        bool(np.all(diff[~inside] <= 1e-10))

    fb = first_best(model_v50)["winner_density"]
    others = [h0, h1]
    multi5 = solve_multi_period(model_v50, 5)
    others.append(winner_density(
        steady_state_profile(model_v50, multi5.cutoff, RejectionExclusion(5)),
        model_v50))
    sig = solve_signal_cutoff(model_v50, INF)
    others.append(winner_density(
        steady_state_profile(model_v50, sig.cutoff, SignalExclusion(INF)), model_v50))
    fb_dominates = all(
        compare_winners(fb, h).verdict == "first_order_dominates"
        for h in others)
    _report(10, "funding shifts to the middle; first best dominates all", [
        ("single crossing above the exclusion cutoff",
         report.verdict == "single_crossing" and report.qbar > excl.cutoff),
        ("sign pattern holds on the grid", pattern_ok),
        ("first best dominates every tested equilibrium", fb_dominates),
    ])
