"""Config-driven command line: solves, sweeps, simulations, comparisons and
figure-data reproduction, all emitted as byte-stable CSV.

Config files are INI documents with [model], [policy], [sim], [sweep] and
[output] sections; every value can be overridden on the command line with
`--set section.key=value`.  `_SECTIONS` lists every key with the literal it
takes.  The [model] keys and the [sim] run sizes go to `normal_model` and
`SimConfig`, which own their defaults and range checks.  A config error
exits 2, a failed solve (a root that misses its residual contract among
them) exits 1, each with a JSON record on stderr.  Floats are printed with
12 significant digits and "\n" terminators so identical configs produce
identical bytes.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .analysis import (_SOLVER_ERRORS, _SWEEP_AXES, compare_winners,
                       first_best, sweep, winner_density)
from .core import (ModelParams, NoExclusion, RejectionExclusion,
                   SignalExclusion, TypeMix, normal_model)
from .distributions import Normal, RejectedValue
from .equilibria import (_outcome, equilibrium_curves, solve,
                         solve_benchmark, solve_exclusion, solve_multi_period)
from .simulation import SimConfig, run_simulation


class ParseError(ValueError):
    """Malformed config document (syntax, unknown key, bad literal)."""


class ValidationError(ValueError):
    """Config value violates a model invariant."""


# every key of every section and the literal it takes; a tuple is a list of
# numbers separated by commas or blanks
_SECTIONS = {
    "model": dict.fromkeys(["mu_q", "var_q", "var_s", "c", "v", "k", "delta",
                            "lambda_h", "mu_q_h", "var_q_h", "mu_q_l",
                            "var_q_l"], float),
    "policy": {"regime": str, "t": int, "sbar_ban": float},
    "sim": {"seed": int, "n_agents": int, "n_periods": int, "burn_in": int,
            "cutoff": float, "cutoff_h": float, "cutoff_l": float},
    "sweep": {"axis": str, "values": tuple},
    "output": {"path": str, "grid_size": int},
}
# [model] key -> normal_model argument; an absent key takes its default
_MODEL_ARGS = {"mu_q": "mean_quality", "var_q": "var_quality",
               "var_s": "var_signal", "c": "reject_cost", "v": "win_value",
               "k": "budget", "delta": "discount"}
# [sim] run sizes, each a SimConfig argument of the same name
_SIM_ARGS = ("n_agents", "n_periods", "burn_in")


@dataclass
class RunConfig:
    """Validated run description assembled from a config document."""

    params: ModelParams
    policy: object
    sim: SimConfig
    cutoffs: tuple[float, ...] | None
    sweep_axis: str | None
    sweep_values: tuple[float, ...]
    output_path: str
    grid_size: int
    command: str | None = None


def _literal(section, key, raw):
    """`raw` read as the literal `_SECTIONS` gives its key."""
    kind = _SECTIONS[section][key]
    if kind is str:
        return raw.strip()
    values = []
    for tok in raw.replace(",", " ").split() if kind is tuple else [raw]:
        try:
            values.append(int(tok) if kind is int else float(tok))
        except ValueError as exc:
            noun = "an integer" if kind is int else "a number"
            raise ParseError(f"[{section}] {key}: not {noun}: {tok!r}") \
                from exc
    return tuple(values) if kind is tuple else values[0]


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
        section, key = (part.strip() for part in dotted.split(".", 1))
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value.strip())

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ParseError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SECTIONS[section]:
                raise ParseError(f"unknown key {key!r} in [{section}]")
    model, policy, sim, sweep_sec, out = (
        {key: _literal(name, key, raw) for key, raw in parser[name].items()}
        if parser.has_section(name) else {} for name in _SECTIONS)

    types = None
    try:
        if "lambda_h" in model:
            lam_h = model["lambda_h"]
            types = (TypeMix(lam_h, Normal(model.get("mu_q_h", 0.5),
                                           model.get("var_q_h", 1.0))),
                     TypeMix(1.0 - lam_h, Normal(model.get("mu_q_l", 0.0),
                                                 model.get("var_q_l", 1.0))))
        params = normal_model(types=types, **{
            arg: model[key] for key, arg in _MODEL_ARGS.items()
            if key in model})
        sim_cfg = SimConfig(seed=sim.get("seed"), **{
            key: sim[key] for key in _SIM_ARGS if key in sim})
    except RejectedValue as exc:  # e.g. a non-finite value, k >= 1, seed < 0
        raise ValidationError(str(exc)) from exc

    regime = policy.get("regime", "benchmark")
    try:
        policies = {"benchmark": NoExclusion(),
                    "exclusion": RejectionExclusion(1),
                    "multi_period": RejectionExclusion(policy.get("t", 1)),
                    "signal_cutoff": SignalExclusion(
                        policy.get("sbar_ban", -math.inf))}
    except RejectedValue as exc:
        raise ValidationError(f"[policy] {exc}") from exc
    if regime not in policies:
        raise ValidationError(f"unknown regime {regime!r}")

    names = ("cutoff_h", "cutoff_l") if types else ("cutoff",)
    given = tuple(key for key in ("cutoff", "cutoff_h", "cutoff_l")
                  if key in sim)
    if not set(given) <= set(names):
        raise ValidationError("[sim] takes cutoff_H and cutoff_L with a type "
                              "block, cutoff without one")
    if given not in ((), names):
        raise ValidationError("cutoff_H and cutoff_L must come together")

    axis = sweep_sec.get("axis")
    if axis is not None and axis not in _SWEEP_AXES:
        raise ValidationError(f"unknown sweep axis {axis!r}")
    grid_size = out.get("grid_size", 1000)
    if grid_size < 100:
        raise ValidationError("grid_size must be at least 100")
    return RunConfig(params=params, policy=policies[regime], sim=sim_cfg,
                     cutoffs=tuple(sim[key] for key in given) or None,
                     sweep_axis=axis, sweep_values=sweep_sec.get("values", ()),
                     output_path=out.get("path", "out.csv"),
                     grid_size=grid_size)


# a float cell's text, bound once so that a column of floats formats in
# one map with no Python call per cell
_FLOAT_TYPES = frozenset({float, np.float64})
_fmt_float = "%.12g".__mod__


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return _fmt_float(float(x))


def _column_text(cells):
    """One column's cells as `_fmt` writes them: a column of floats in one
    map; in a mixed column, float cells the same way and the others through
    `_fmt`."""
    if _FLOAT_TYPES.issuperset(map(type, cells)):
        return map(_fmt_float, cells)
    return [_fmt_float(x) if type(x) in _FLOAT_TYPES else _fmt(x)
            for x in cells]


def _write_csv(path, header, rows):
    """Write a header and rows of equal length, formatted a column at a
    time; the csv writer quotes the text cells."""
    if len(set(map(len, rows))) > 1:
        raise ValueError("CSV rows differ in length")
    columns = [_column_text(cells) for cells in zip(*rows)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*columns))


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
    outcome = solve(cfg.params, cfg.policy)
    rows = [_outcome_row(outcome)]
    # further pooled roots: each row from the solve's clearing at that root
    for root, (elig, sbar, residual) in zip(outcome.all_roots[1:],
                                            outcome.root_clearing[1:]):
        rows.append(_outcome_row(_outcome(
            cfg.params, cfg.policy, root, elig, sbar, residual=residual,
            all_roots=outcome.all_roots)))
    _write_csv(cfg.output_path, _SOLVE_HEADER, rows)
    return 0


def _cmd_sweep(cfg):
    if cfg.sweep_axis is None or not cfg.sweep_values:
        raise ValidationError("sweep needs [sweep] axis and values")
    entries = sweep(cfg.params, cfg.sweep_axis, cfg.sweep_values, cfg.policy)
    rows = [_outcome_row(e.outcome) + [e.value] if e.error is None
            else [f"error: {e.error}"] + [None] * 10 + [e.value]
            for e in entries]
    _write_csv(cfg.output_path, _SOLVE_HEADER + ["axis_value"], rows)
    return 0 if all(e.error is None for e in entries) else 1


def _cmd_simulate(cfg):
    if cfg.sim.seed is None:
        raise ValidationError("simulate requires an explicit [sim] seed")
    cutoffs = cfg.cutoffs
    analytic = None
    if cutoffs is None:
        analytic = solve(cfg.params, cfg.policy)
        cutoffs = analytic.cutoffs
    result = run_simulation(replace(
        cfg.sim, policy=cfg.policy, cutoffs=cutoffs,
        initial_eligibility=analytic.eligibility if analytic else None),
        cfg.params)

    n_types = result.eligibility_by_type.shape[1]
    header = ["period", "eligibility"] + \
        [f"eligibility_type_{i+1}" for i in range(n_types)] + \
        ["funding_threshold"]
    rows = [[p, result.eligibility_trajectory[p],
             *result.eligibility_by_type[p], result.funding_thresholds[p]]
            for p in range(cfg.sim.n_periods)]
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
    other = base if cfg.policy == NoExclusion() \
        else solve(cfg.params, cfg.policy)
    h0 = winner_density(base.profile, cfg.params, cfg.grid_size)
    h = winner_density(other.profile, cfg.params, cfg.grid_size)
    report = compare_winners(h, h0)
    _write_csv(cfg.output_path, ["q", "h_policy", "h_benchmark", "cdf_diff"],
               [[q, hv, h0v, d] for q, hv, h0v, d in
                zip(h.grid, h.values, h0.values, report.cdf_diff)])
    _write_csv(_with_suffix(cfg.output_path, "_report"),
               ["verdict", "qbar", "policy_cutoff", "benchmark_cutoff"],
               [[report.verdict, report.qbar, other.cutoffs[0], base.cutoff]])
    return 0


def _cmd_figures(cfg):
    import os
    # a .csv path names the other commands' file: the figures go into the
    # directory of that name without the suffix
    outdir = cfg.output_path.removesuffix(".csv")
    os.makedirs(outdir, exist_ok=True)
    params = cfg.params

    # every series is evaluated once: equation curves on the cutoff grid,
    # densities on the quality grid
    grid = np.linspace(params.quality.quantile(1e-6),
                       params.first_best_cutoff - 1e-9, 400)
    dq = np.linspace(*params.quality.support_hint, 400)
    series = lambda name, xs, ys: [[name, x, y] for x, y in zip(xs, ys)]
    lhs, rhs = equilibrium_curves(params, NoExclusion(), grid)
    curves = {t: equilibrium_curves(params, RejectionExclusion(t), grid)
              for t in (1, 5, 50)}
    bench = solve_benchmark(params)
    exc = solve_exclusion(params)
    outs = {1: exc, 5: solve_multi_period(params, 5),
            50: solve_multi_period(params, 50)}
    fb = first_best(params, cfg.grid_size)["winner_density"].density(dq)
    prof0, prof1 = bench.profile, exc.profile
    sub0, sub1 = prof0.pdf(dq), prof1.pdf(dq)
    win0 = winner_density(prof0, params, cfg.grid_size).density(dq)
    win1 = winner_density(prof1, params, cfg.grid_size).density(dq)

    # dataset 1: free entry vs first best
    rows = series("eq_lhs", grid, lhs) + series("eq_rhs", grid, rhs)
    rows += [["root", 0, bench.cutoff]]
    rows += series("submissions_first_best", dq, fb)
    rows += series("submissions_benchmark", dq, sub0)
    rows += series("winners_first_best", dq, fb)
    rows += series("winners_benchmark", dq, win0)
    _write_csv(os.path.join(outdir, "figure1.csv"), ["series", "x", "y"], rows)

    # dataset 2: one-period exclusion vs free entry
    lhs1, rhs1 = curves[1]
    rows = series("eq_lhs_benchmark", grid, lhs) + \
        series("eq_rhs_benchmark", grid, rhs) + \
        series("eq_lhs_exclusion", grid, lhs1) + \
        series("eq_rhs_exclusion", grid, rhs1)
    rows += [["root_benchmark", 0, bench.cutoff],
             ["root_exclusion", 1, exc.cutoff]]
    rows += series("submissions_benchmark", dq, sub0)
    rows += series("submissions_exclusion", dq, sub1)
    rows += series("winners_benchmark", dq, win0)
    rows += series("winners_exclusion", dq, win1)
    _write_csv(os.path.join(outdir, "figure2.csv"), ["series", "x", "y"], rows)

    # dataset 3: ban-length comparison (curve pairs and roots per t)
    rows = []
    for t, (lhs_t, rhs_t) in curves.items():
        rows += series(f"eq_lhs_t{t}", grid, lhs_t)
        rows += series(f"eq_rhs_t{t}", grid, rhs_t)
        rows += [["root", t, outs[t].cutoff]]
    _write_csv(os.path.join(outdir, "figure3.csv"), ["series", "x", "y"], rows)
    return 0


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
    except (ParseError, ValidationError, OSError, *_SOLVER_ERRORS) as exc:
        # a failed solve exits 1 and a config error 2; a programming error
        # propagates
        json.dump({"error": type(exc).__name__, "message": str(exc)},
                  sys.stderr)
        sys.stderr.write("\n")
        return 1 if isinstance(exc, _SOLVER_ERRORS) else 2


if __name__ == "__main__":
    sys.exit(main())
