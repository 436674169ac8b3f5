"""Config-driven command line: solves, sweeps, simulations, comparisons and
figure-data reproduction, all emitted as byte-stable CSV.

Config files are INI documents with [model], [policy], [sim], [sweep] and
[output] sections; every value can be overridden on the command line with
`--set section.key=value`.  Floats are printed with 12 significant digits and
"\n" terminators so identical configs produce identical bytes.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .analysis import compare_winners, first_best, sweep, winner_density
from .core import (ModelParams, NoExclusion, RejectionExclusion,
                   SignalExclusion, TypeMix, normal_model)
from .distributions import FAST_QUADRATURE, Normal
from .equilibria import (equilibrium_curves, solve_benchmark, solve_exclusion,
                         solve_multi_period, solve_two_type,
                         steady_state_profile)
from .simulation import SimConfig, run_simulation

RESIDUAL_CONTRACT = 1e-8


class ParseError(ValueError):
    """Malformed config document (syntax, unknown key, bad literal)."""


class ValidationError(ValueError):
    """Config value violates a model invariant."""


_MODEL_KEYS = {"mu_q", "var_q", "var_s", "c", "v", "k", "delta",
               "lambda_h", "mu_q_h", "var_q_h", "mu_q_l", "var_q_l"}
_POLICY_KEYS = {"regime", "t", "sbar_ban"}
_SIM_KEYS = {"n_agents", "n_periods", "burn_in", "seed", "cutoff",
             "cutoff_h", "cutoff_l", "hist_bins"}
_SWEEP_KEYS = {"axis", "values"}
_OUTPUT_KEYS = {"path", "grid_size"}
_SECTIONS = {"model": _MODEL_KEYS, "policy": _POLICY_KEYS, "sim": _SIM_KEYS,
             "sweep": _SWEEP_KEYS, "output": _OUTPUT_KEYS}


@dataclass
class RunConfig:
    """Validated run description assembled from a config document."""

    params: ModelParams
    regime: str = "benchmark"
    policy: object = NoExclusion()
    command: str | None = None
    seed: int | None = None
    n_agents: int = 200_000
    n_periods: int = 1000
    burn_in: int = 200
    hist_bins: int = 200
    cutoffs: tuple[float, ...] | None = None
    sweep_axis: str | None = None
    sweep_values: tuple[float, ...] = ()
    output_path: str = "out.csv"
    grid_size: int = 1000

    def solve(self):
        """The configured regime's equilibrium, from its public solver."""
        if self.regime == "two_type":
            return solve_two_type(self.params)
        return self.policy.solve(self.params)


def _float(section, key, raw):
    try:
        return float(raw)
    except ValueError as exc:
        raise ParseError(f"[{section}] {key}: not a number: {raw!r}") from exc


def _int(section, key, raw):
    try:
        return int(raw)
    except ValueError as exc:
        raise ParseError(f"[{section}] {key}: not an integer: {raw!r}") from exc


def parse_config(text, overrides=()):
    """Parse and validate an INI config document into a RunConfig.

    `overrides` holds "section.key=value" strings applied on top of the
    document.  Unknown sections or keys are rejected.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ParseError(f"config syntax error: {exc}") from exc

    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ParseError(f"override must look like section.key=value: "
                             f"{item!r}")
        dotted, value = item.split("=", 1)
        section, key = dotted.split(".", 1)
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section.strip(), key.strip(), value.strip())

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ParseError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SECTIONS[section]:
                raise ParseError(f"unknown key {key!r} in [{section}]")

    model = parser["model"] if parser.has_section("model") else {}
    get = lambda key, default: _float("model", key, model[key]) \
        if key in model else default
    v = get("v", 30.0)
    c = get("c", 1.0)
    k = get("k", 0.1)
    delta = get("delta", 0.97)
    var_s = get("var_s", 2.0)
    if not 0.0 < k < 1.0:
        raise ValidationError("k must lie in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise ValidationError("delta must lie in (0, 1)")

    types = None
    try:
        if "lambda_h" in model:
            lam_h = get("lambda_h", 0.5)
            if not 0.0 < lam_h < 1.0:
                raise ValidationError("lambda_H must lie in (0, 1)")
            types = (TypeMix(lam_h, Normal(get("mu_q_h", 0.5),
                                           get("var_q_h", 1.0))),
                     TypeMix(1.0 - lam_h, Normal(get("mu_q_l", 0.0),
                                                 get("var_q_l", 1.0))))
        params = normal_model(
            mean_quality=get("mu_q", 0.0), var_quality=get("var_q", 1.0),
            var_signal=var_s, reject_cost=c, win_value=v, budget=k,
            discount=delta, types=types)
    except (ParseError, ValidationError):
        raise
    except ValueError as exc:  # a model invariant, e.g. a non-finite value
        raise ValidationError(str(exc)) from exc

    cfg = RunConfig(params=params)

    policy = parser["policy"] if parser.has_section("policy") else {}
    cfg.regime = policy.get("regime", "benchmark").strip()
    periods = _int("policy", "t", policy["t"]) if "t" in policy else 1
    sbar_ban = _float("policy", "sbar_ban", policy["sbar_ban"]) \
        if "sbar_ban" in policy else -math.inf
    try:
        # two_type uses one-period rejection bans
        policies = {"benchmark": NoExclusion(),
                    "exclusion": RejectionExclusion(1),
                    "multi_period": RejectionExclusion(periods),
                    "signal_cutoff": SignalExclusion(sbar_ban),
                    "two_type": RejectionExclusion(1)}
    except ValueError as exc:
        raise ValidationError(f"[policy] {exc}") from exc
    if cfg.regime not in policies:
        raise ValidationError(f"unknown regime {cfg.regime!r}")
    cfg.policy = policies[cfg.regime]
    if cfg.regime == "two_type" and params.types is None:
        raise ValidationError("two_type regime requires the type block "
                              "(lambda_H, mu_q_H, ...) in [model]")

    sim = parser["sim"] if parser.has_section("sim") else {}
    if "seed" in sim:
        cfg.seed = _int("sim", "seed", sim["seed"])
    cfg.n_agents = _int("sim", "n_agents", sim.get("n_agents", "200000"))
    cfg.n_periods = _int("sim", "n_periods", sim.get("n_periods", "1000"))
    cfg.burn_in = _int("sim", "burn_in", sim.get("burn_in", "200"))
    cfg.hist_bins = _int("sim", "hist_bins", sim.get("hist_bins", "200"))
    if cfg.n_agents < 1000:
        raise ValidationError("n_agents must be at least 1000")
    if not 0 <= cfg.burn_in < cfg.n_periods:
        raise ValidationError("burn_in must be smaller than n_periods")
    if "cutoff" in sim:
        cfg.cutoffs = (_float("sim", "cutoff", sim["cutoff"]),)
    if "cutoff_h" in sim or "cutoff_l" in sim:
        if not ("cutoff_h" in sim and "cutoff_l" in sim):
            raise ValidationError("cutoff_H and cutoff_L must come together")
        cfg.cutoffs = (_float("sim", "cutoff_h", sim["cutoff_h"]),
                       _float("sim", "cutoff_l", sim["cutoff_l"]))

    sweep_sec = parser["sweep"] if parser.has_section("sweep") else {}
    if "axis" in sweep_sec:
        cfg.sweep_axis = sweep_sec["axis"].strip()
        if cfg.sweep_axis not in ("V", "C", "k", "delta", "t", "sbar_ban"):
            raise ValidationError(f"unknown sweep axis {cfg.sweep_axis!r}")
    if "values" in sweep_sec:
        cfg.sweep_values = tuple(
            _float("sweep", "values", tok)
            for tok in sweep_sec["values"].replace(",", " ").split())

    out = parser["output"] if parser.has_section("output") else {}
    cfg.output_path = out.get("path", "out.csv").strip()
    cfg.grid_size = _int("output", "grid_size", out.get("grid_size", "1000"))
    if cfg.grid_size < 100:
        raise ValidationError("grid_size must be at least 100")
    return cfg


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".12g")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


_SOLVE_HEADER = ["regime", "cutoff", "cutoff_2", "eligibility",
                 "eligibility_2", "sbar", "volume", "welfare", "payoff_x",
                 "payoff_x_2", "residual"]


def _outcome_row(outcome):
    two = len(outcome.cutoffs) == 2
    return [outcome.regime,
            outcome.cutoffs[0], outcome.cutoffs[1] if two else None,
            outcome.eligibility[0], outcome.eligibility[1] if two else None,
            outcome.sbar, outcome.submission_volume, outcome.welfare,
            outcome.payoff_x[0], outcome.payoff_x[1] if two else None,
            outcome.residual]


def _cmd_solve(cfg):
    from .equilibria import _describe
    outcome = cfg.solve()
    rows = []
    if cfg.regime == "two_type" or len(outcome.all_roots) == 1:
        rows.append(_outcome_row(outcome))
    else:
        for root in outcome.all_roots:
            rows.append(_outcome_row(
                _describe(cfg.params, cfg.policy, root, FAST_QUADRATURE,
                          outcome.all_roots)))
    _write_csv(cfg.output_path, _SOLVE_HEADER, rows)
    ok = outcome.residual < RESIDUAL_CONTRACT and \
        outcome.eligibility_residual < 1e-9
    return 0 if ok else 1


def _cmd_sweep(cfg):
    if cfg.sweep_axis is None or not cfg.sweep_values:
        raise ValidationError("sweep needs [sweep] axis and values")
    entries = sweep(cfg.params, cfg.sweep_axis, cfg.sweep_values, cfg.policy)
    rows, ok = [], True
    for e in entries:
        if e.error is not None:
            rows.append([f"error: {e.error}"] + [None] * 10 + [e.value])
            ok = False
            continue
        rows.append(_outcome_row(e.outcome) + [e.value])
        ok = ok and e.outcome.residual < RESIDUAL_CONTRACT
    _write_csv(cfg.output_path, _SOLVE_HEADER + ["axis_value"], rows)
    return 0 if ok else 1


def _cmd_simulate(cfg):
    if cfg.seed is None:
        raise ValidationError("simulate requires an explicit [sim] seed")
    cutoffs = cfg.cutoffs
    analytic = None
    if cutoffs is None:
        analytic = cfg.solve()
        cutoffs = analytic.cutoffs
    sim_cfg = SimConfig(
        seed=cfg.seed, policy=cfg.policy, cutoffs=cutoffs,
        n_agents=cfg.n_agents, n_periods=cfg.n_periods, burn_in=cfg.burn_in,
        initial_eligibility=analytic.eligibility if analytic else None,
        hist_bins=cfg.hist_bins)
    result = run_simulation(sim_cfg, cfg.params)

    n_types = result.eligibility_by_type.shape[1]
    header = ["period", "eligibility"] + \
        [f"eligibility_type_{i+1}" for i in range(n_types)] + \
        ["funding_threshold"]
    rows = [[p, result.eligibility_trajectory[p],
             *result.eligibility_by_type[p], result.funding_thresholds[p]]
            for p in range(cfg.n_periods)]
    _write_csv(cfg.output_path, header, rows)

    summary_path = _with_suffix(cfg.output_path, "_summary")
    header = [f"mean_eligibility_{i+1}" for i in range(n_types)] + \
        ["mean_volume", "mean_funded_volume", "mean_welfare_per_period"] + \
        [f"analytic_cutoff_{i+1}" for i in range(len(cutoffs))] + \
        [f"analytic_eligibility_{i+1}"
         for i in range(len(analytic.eligibility) if analytic else 0)]
    row = [*result.mean_eligibility, result.mean_volume,
           result.mean_funded_volume, result.mean_welfare_per_period,
           *cutoffs, *(analytic.eligibility if analytic else ())]
    _write_csv(summary_path, header, [row])
    return 0


def _cmd_compare(cfg):
    base = solve_benchmark(cfg.params)
    other = cfg.solve()
    h0 = winner_density(
        steady_state_profile(cfg.params, base.cutoff, NoExclusion()),
        cfg.params, cfg.grid_size)
    if cfg.regime == "two_type":
        from .equilibria import _type_profile
        profile = _type_profile(cfg.params, other.cutoffs, other.eligibility)
    else:
        profile = steady_state_profile(cfg.params, other.cutoff, cfg.policy)
    h = winner_density(profile, cfg.params, cfg.grid_size)
    report = compare_winners(h, h0, cfg.params)
    _write_csv(cfg.output_path, ["q", "h_policy", "h_benchmark", "cdf_diff"],
               [[q, hv, h0v, d] for q, hv, h0v, d in
                zip(h.grid, h.values, h0.values, report.cdf_diff)])
    _write_csv(_with_suffix(cfg.output_path, "_report"),
               ["verdict", "qbar", "policy_cutoff", "benchmark_cutoff"],
               [[report.verdict, report.qbar, other.cutoffs[0], base.cutoff]])
    ok = base.residual < RESIDUAL_CONTRACT and other.residual < RESIDUAL_CONTRACT
    return 0 if ok else 1


def _cmd_figures(cfg):
    import os
    outdir = cfg.output_path
    os.makedirs(outdir, exist_ok=True)
    params = cfg.params
    ok = True

    def curve_grid(n=400):
        lo = params.quality.quantile(1e-6)
        hi = params.first_best_cutoff - 1e-9
        return np.linspace(lo, hi, n)

    def density_grid(n=400):
        return np.linspace(*params.quality.support_hint, n)

    # dataset 1: free entry vs first best
    rows = []
    grid = curve_grid()
    lhs, rhs = equilibrium_curves(params, NoExclusion(), grid)
    rows += [["eq_lhs", q, y] for q, y in zip(grid, lhs)]
    rows += [["eq_rhs", q, y] for q, y in zip(grid, rhs)]
    bench = solve_benchmark(params)
    ok = ok and bench.residual < RESIDUAL_CONTRACT
    fb = first_best(params, cfg.grid_size)
    dq = density_grid()
    prof0 = steady_state_profile(params, bench.cutoff, NoExclusion())
    h0 = winner_density(prof0, params, cfg.grid_size)
    rows += [["root", 0, bench.cutoff]]
    rows += [["submissions_first_best", q,
              fb["winner_density"].density(q)] for q in dq]
    rows += [["submissions_benchmark", q, prof0.pdf(q)] for q in dq]
    rows += [["winners_first_best", q, fb["winner_density"].density(q)]
             for q in dq]
    rows += [["winners_benchmark", q, h0.density(q)] for q in dq]
    _write_csv(os.path.join(outdir, "figure1.csv"), ["series", "x", "y"], rows)

    # dataset 2: one-period exclusion vs free entry
    rows = []
    lhs1, rhs1 = equilibrium_curves(params, RejectionExclusion(1), grid)
    rows += [["eq_lhs_benchmark", q, y] for q, y in zip(grid, lhs)]
    rows += [["eq_rhs_benchmark", q, y] for q, y in zip(grid, rhs)]
    rows += [["eq_lhs_exclusion", q, y] for q, y in zip(grid, lhs1)]
    rows += [["eq_rhs_exclusion", q, y] for q, y in zip(grid, rhs1)]
    exc = solve_exclusion(params)
    ok = ok and exc.residual < RESIDUAL_CONTRACT
    prof1 = steady_state_profile(params, exc.cutoff, RejectionExclusion(1))
    h1 = winner_density(prof1, params, cfg.grid_size)
    rows += [["root_benchmark", 0, bench.cutoff], ["root_exclusion", 1, exc.cutoff]]
    rows += [["submissions_benchmark", q, prof0.pdf(q)] for q in dq]
    rows += [["submissions_exclusion", q, prof1.pdf(q)] for q in dq]
    rows += [["winners_benchmark", q, h0.density(q)] for q in dq]
    rows += [["winners_exclusion", q, h1.density(q)] for q in dq]
    _write_csv(os.path.join(outdir, "figure2.csv"), ["series", "x", "y"], rows)

    # dataset 3: ban-length comparison (curve pairs and roots per t)
    rows = []
    for t in (1, 5, 50):
        lhs_t, rhs_t = equilibrium_curves(params, RejectionExclusion(t), grid)
        rows += [[f"eq_lhs_t{t}", q, y] for q, y in zip(grid, lhs_t)]
        rows += [[f"eq_rhs_t{t}", q, y] for q, y in zip(grid, rhs_t)]
        out_t = solve_multi_period(params, t)
        ok = ok and out_t.residual < RESIDUAL_CONTRACT
        rows += [["root", t, out_t.cutoff]]
    _write_csv(os.path.join(outdir, "figure3.csv"), ["series", "x", "y"], rows)
    return 0 if ok else 1


def _with_suffix(path, suffix):
    if path.endswith(".csv"):
        return path[:-4] + suffix + ".csv"
    return path + suffix


_COMMANDS = {"solve": _cmd_solve, "sweep": _cmd_sweep,
             "simulate": _cmd_simulate, "compare": _cmd_compare,
             "figures": _cmd_figures}


def run_command(config):
    """Dispatch a validated RunConfig; returns the process exit status."""
    if config.command not in _COMMANDS:
        raise ValidationError(f"unknown command {config.command!r}")
    return _COMMANDS[config.command](config)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="contest-eq",
        description="equilibrium and simulation toolkit for repeated "
                    "contests with temporary-exclusion policies")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True,
                        help="INI config file ([model], [policy], [sim], "
                             "[sweep], [output] sections)")
    parser.add_argument("--set", action="append", default=[], metavar="K=V",
                        dest="overrides",
                        help="override a config value, e.g. --set model.V=50")
    parser.add_argument("--out", default=None,
                        help="output path (overrides [output] path)")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            text = fh.read()
        cfg = parse_config(text, args.overrides)
        cfg.command = args.command
        if args.out is not None:
            cfg.output_path = args.out
        return run_command(cfg)
    except (ParseError, ValidationError, OSError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)},
                  sys.stderr)
        sys.stderr.write("\n")
        return 2
    except Exception as exc:  # solver/simulator failure
        json.dump({"error": type(exc).__name__, "message": str(exc)},
                  sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
