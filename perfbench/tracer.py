"""Span tracer installed around contest_eq from outside the package.

`Tracer` wraps every public module-level function of the six layer modules
and can swap each wrapper in for every module-namespace copy of the
original (``win_mass`` is bound in ``core``, ``equilibria`` and the package
itself, ``solve_*`` in ``equilibria``, ``analysis``, ``cli`` and the
package).  A wrapper appends one span per call: name, start, end, parent
span, op id.  Spans stay in memory until `write_spans`.

Private helpers (``_batch_residuals``, ``_bisect_root``, ``_describe`` ...)
are deliberately not wrapped: their cost lands in the self time of the
public span that calls them.
"""

from __future__ import annotations

import csv
import inspect
import math
import sys
from time import perf_counter

import numpy as np

LAYERS = ("distributions", "core", "equilibria", "analysis", "simulation",
          "cli")

SINGLE_CUTOFF_SOLVES = ("equilibria.solve_benchmark",
                        "equilibria.solve_exclusion",
                        "equilibria.solve_multi_period",
                        "equilibria.solve_signal_cutoff")
LIFETIME_PAYOFFS = ("core.lifetime_payoff", "core.lifetime_payoff_general",
                    "core.lifetime_payoff_multi", "core.lifetime_payoff_typed")

# span record fields
NAME, START, END, PARENT, OP, POINTS, EXTRA = range(7)


def _roots(args, kwargs, result):
    return len(result.all_roots)


def _simulation(args, kwargs, result):
    """(agents, periods, over-subscribed periods, periods funding exactly
    floor(k * n)) of one run_simulation call."""
    config, params = args[0], args[1]
    n = config.n_agents
    slots = int(math.floor(params.budget * n))
    over = np.isfinite(result.funding_thresholds)
    funded = np.rint(result.funded_trajectory * n).astype(np.int64)
    return (n, config.n_periods, int(over.sum()),
            int(np.sum(over & (funded == slots))))


# extra data read from a call's arguments and result, stored on its span
_HOOKS = {name: _roots for name in SINGLE_CUTOFF_SOLVES}
_HOOKS["simulation.run_simulation"] = _simulation


def package_modules():
    """Every loaded module of the contest_eq package, the package included."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "contest_eq"
                                  or name.startswith("contest_eq."))]


class Tracer:
    """Wrappers for the public functions of the layer modules plus the span
    list they fill.  `enable` rebinds every copy to its wrapper, `disable`
    restores the originals."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"contest_eq.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        self.originals = [orig for orig, _ in wrapped.values()]
        # (module, attribute, original, wrapper) for every namespace copy
        self.bindings = []
        for mod in package_modules():
            for attr, obj in vars(mod).items():
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self.bindings.append((mod, attr, obj, hit[1]))

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        hook = _HOOKS.get(name)
        counts_points = name == "distributions.integrate"

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0,
                   None]
            spans.append(rec)
            stack.append(idx)
            if counts_points:
                integrand = args[0]

                def counted(x):
                    rec[POINTS] += np.size(x)
                    return integrand(x)

                args = (counted,) + args[1:]
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            # a call that raised keeps EXTRA None; layer_metrics skips it
            if hook is not None:
                rec[EXTRA] = hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def enable(self):
        for mod, attr, _, wrapper in self.bindings:
            setattr(mod, attr, wrapper)

    def disable(self):
        for mod, attr, orig, _ in self.bindings:
            setattr(mod, attr, orig)

    def run_op(self, op_id, fn):
        """Call fn() traced, under a root span named "op"."""
        self.op = op_id
        self.enable()
        try:
            return self._wrap("op", fn)()
        finally:
            self.disable()
            self.op = -1

    def write_spans(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["span", "name", "start", "end", "parent", "op",
                        "points"])
            for i, s in enumerate(self.spans):
                w.writerow([i, s[NAME], repr(s[START]), repr(s[END]),
                            s[PARENT], s[OP], s[POINTS]])


def unwrapped_copies(tracer):
    """(module, attribute) pairs in the package that still hold an original
    while the tracer is enabled; empty when the rebinding is complete."""
    originals = {id(f): f for f in tracer.originals}
    return [(mod.__name__, attr) for mod in package_modules()
            for attr, obj in vars(mod).items()
            if originals.get(id(obj)) is obj]


def layer_metrics(spans, count_ops, n_ops):
    """Per-layer metrics from a span list.

    Counts are per op over the ops whose id is in `count_ops` (a fixed
    prefix of the op sequence, so two runs with one seed repeat them
    exactly); times are per op over all `n_ops` traced ops.  A call that
    raised counts as a call; its roots, agent-periods and simulated
    periods, which only a return reports, are left out.
    """
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    self_ms = [1e3 * (d - c) for d, c in zip(dur, child)]

    ms, own, calls = {}, {}, {}
    for i, s in enumerate(spans):
        name = s[NAME]
        ms[name] = ms.get(name, 0.0) + 1e3 * dur[i]
        own[name] = own.get(name, 0.0) + self_ms[i]
        if s[OP] in count_ops:
            calls[name] = calls.get(name, 0) + 1

    def named(n):
        return spans[n][NAME] if n >= 0 else None

    points = clearing_integrals = roots = 0
    solve_calls = solved = 0
    agent_periods = over = exact = 0
    sim_ms = sim_periods = 0.0
    for i, s in enumerate(spans):
        if s[NAME] == "simulation.run_simulation" and s[EXTRA] is not None:
            sim_ms += 1e3 * dur[i]
            sim_periods += s[EXTRA][1]
        if s[OP] not in count_ops:
            continue
        name = s[NAME]
        if name == "distributions.integrate":
            points += s[POINTS]
            if named(s[PARENT]) == "core.signal_cutoff":
                clearing_integrals += 1
        elif name in SINGLE_CUTOFF_SOLVES:
            # solve_exclusion delegates to solve_multi_period: count the
            # outermost solve span only
            if named(s[PARENT]) not in SINGLE_CUTOFF_SOLVES:
                solve_calls += 1
                if s[EXTRA] is not None:
                    solved += 1
                    roots += s[EXTRA]
        elif name == "simulation.run_simulation" and s[EXTRA] is not None:
            agents, periods, n_over, n_exact = s[EXTRA]
            agent_periods += agents * periods
            over += n_over
            exact += n_exact

    n_count = max(len(count_ops), 1)
    per_op = max(n_ops, 1)

    def c(name):
        return calls.get(name, 0) / n_count

    def t(table, name):
        return table.get(name, 0.0) / per_op

    out = {
        "distributions.integrate.calls": c("distributions.integrate"),
        "distributions.integrate.points": points / n_count,
        "distributions.integrate.self_ms": t(own, "distributions.integrate"),
        "core.signal_cutoff.calls": c("core.signal_cutoff"),
        "core.signal_cutoff.ms": t(ms, "core.signal_cutoff"),
        "core.signal_cutoff.integrals_per_call":
            clearing_integrals / max(calls.get("core.signal_cutoff", 0), 1),
        "core.win_mass.calls": c("core.win_mass"),
        "core.win_mass.ms": t(ms, "core.win_mass"),
        "core.ban_mass.calls": c("core.ban_mass"),
        "core.ban_mass.ms": t(ms, "core.ban_mass"),
        "core.lifetime_payoff.calls": sum(c(n) for n in LIFETIME_PAYOFFS),
        "equilibria.solve.calls": solve_calls / n_count,
        "equilibria.solve.self_ms":
            sum(t(own, n) for n in SINGLE_CUTOFF_SOLVES),
        "equilibria.solve.roots_per_call": roots / max(solved, 1),
        "equilibria.best_response.calls": c("equilibria.best_response"),
        "equilibria.best_response.ms": t(ms, "equilibria.best_response"),
        "equilibria.type_eligibility_shares.calls":
            c("equilibria.type_eligibility_shares"),
        "equilibria.type_eligibility_shares.ms":
            t(ms, "equilibria.type_eligibility_shares"),
        "equilibria.solve_two_type.self_ms":
            t(own, "equilibria.solve_two_type"),
        "equilibria.equilibrium_curves.ms":
            t(ms, "equilibria.equilibrium_curves"),
        "analysis.sweep.ms": t(ms, "analysis.sweep"),
        "analysis.winner_density.ms": t(ms, "analysis.winner_density"),
        "analysis.compare_winners.ms": t(ms, "analysis.compare_winners"),
        "simulation.run_simulation.agent_periods": agent_periods / n_count,
        "simulation.empirical_best_response.ms":
            t(ms, "simulation.empirical_best_response"),
        "simulation.funded_exact_share": exact / over if over else 0.0,
    }
    out["simulation.run_simulation.ms_per_period"] = \
        sim_ms / sim_periods if sim_periods else 0.0
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = sum(
            v for k, v in own.items() if k.startswith(layer + ".")) / per_op
    # main, parse_config and run_command: parse, dispatch and CSV write
    out["cli.main.self_ms"] = out.pop("cli.self_ms")
    return out
