"""Workloads of the contest-eq benchmark: seeded inputs, ops and checks.

Every workload is a closed loop with one client: the next op starts when the
previous one returns.  `build(seed)` makes the workload's models (timed as
part of `setup_s`); `ops(...)` returns an endless iterator that repeats one
cycle of `cycle` ops, a pure function of the seed.  A run stops only at the
end of a cycle (the one nearest to --seconds), so the mix of ops behind
each statistic is the same from run to run, and a run that fits a second
cycle adds samples of the same mix.  An op's `key` names its input, so a
repeat of the key must reproduce the earlier output bit for bit; after its
timed ops every run repeats op number `repeat` of its first cycle.

An op marked `pinned` has a known right answer (a value from
tests/reference.py, or output that must be byte-stable); its misses make a
run incorrect.  The other ops (seeded draws over the valid parameter box,
statistical simulator checks) count their misses in `failed` only.
"""

from __future__ import annotations

import hashlib
import importlib.util
import itertools
import math
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass, fields, is_dataclass
from time import perf_counter

import numpy as np

import contest_eq as ce

RESIDUAL_CONTRACT = 1e-8       # solver residual contract
ELIGIBILITY_CONTRACT = 1e-9    # eligibility fixed point
CUTOFF_TOL = 1e-6              # reference tolerances used by tests/
SHARE_TOL = 1e-8
SIM_ELIGIBILITY_TOL = 0.01     # acceptance criterion 8
BR_STEP = 0.05

SIM_AGENTS = 200_000
SIM_PERIODS = 100
SIM_BURN_IN = 20
BR_REPLICATIONS = 10_000


@dataclass
class Op:
    key: str
    run: object        # () -> (result, info); info holds measurements only
    check: object      # result -> list of failure strings
    pinned: bool


def load_reference(root):
    """tests/reference.py, loaded read-only as a module."""
    spec = importlib.util.spec_from_file_location(
        "contest_eq_reference", os.path.join(root, "tests", "reference.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def digest(obj):
    """Bit-exact fingerprint of an op result (floats by their bytes)."""
    h = hashlib.sha256()

    def feed(x):
        if is_dataclass(x):
            h.update(type(x).__name__.encode())
            for f in fields(x):
                feed(getattr(x, f.name))
        elif isinstance(x, np.ndarray):
            h.update(f"{x.dtype}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, (tuple, list)):
            h.update(b"(")
            for item in x:
                feed(item)
            h.update(b")")
        elif isinstance(x, (float, np.floating)):
            h.update(float(x).hex().encode())
        elif isinstance(x, bytes):
            h.update(len(x).to_bytes(8, "little") + x)
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()


def _near(label, value, ref, tol):
    err = abs(value - ref)
    return [] if err < tol else [f"{label} off reference by {err:.3g}"]


def _outcome_contract(out):
    bad = []
    if not out.residual < RESIDUAL_CONTRACT:
        bad.append(f"residual contract: {out.residual:.3g}")
    if not out.eligibility_residual < ELIGIBILITY_CONTRACT:
        bad.append(f"eligibility residual: {out.eligibility_residual:.3g}")
    return bad


# ---------------------------------------------------------------------------
# models


def model_a():
    return ce.normal_model(0.0, 1.0, 2.0, reject_cost=1.0, win_value=30.0,
                           budget=0.1, discount=0.97)


def model_b(win_value=50.0):
    return ce.normal_model(0.0, 2.0, 5.0, reject_cost=1.0,
                           win_value=win_value, budget=0.1, discount=0.97)


def model_c():
    return ce.normal_model(0.0, 1.0, 1.0, reject_cost=1.0, win_value=20.0,
                           budget=0.1, discount=0.85)


def latin_hypercube(rng, dims, n):
    """n points in [0, 1)^dims; each coordinate's range is cut into n equal
    strata and every stratum holds one point.  Stratified blocks keep the
    cost mix of a run's draws alike from seed to seed without narrowing the
    box."""
    strata = rng.permuted(np.tile(np.arange(n), (dims, 1)), axis=1)
    return ((strata + rng.random((dims, n))) / n).T


def _box_point(u):
    """Map a point of [0, 1)^10 onto the valid parameter box (ROADMAP 3b):
    V/C over six decades, k and delta uniform on the whole of (0, 1),
    var_s/var_q from 1e-4 to 1e2, ban length up to 1e4 and a signal bar
    anywhere on the extended line (a quarter of the draws at -inf, a
    quarter at +inf)."""
    c = 10.0 ** (u[0] - 0.5)
    v = c * 10.0 ** (6.0 * u[1] - 1.0)
    k = u[2]
    delta = u[3]
    var_q = 10.0 ** (u[4] - 0.5)
    var_s = var_q * 10.0 ** (6.0 * u[5] - 4.0)
    mu = 2.0 * u[6] - 1.0
    periods = int(round(10.0 ** (4.0 * u[7])))
    if u[8] < 0.25:
        sbar = -math.inf
    elif u[8] < 0.5:
        sbar = math.inf
    else:
        sbar = mu + (6.0 * u[9] - 3.0) * math.sqrt(var_q + var_s)
    params = ce.normal_model(mu, var_q, var_s, reject_cost=c, win_value=v,
                             budget=k, discount=delta)
    return params, periods, sbar


def _solve(regime, params, arg=None):
    # module attribute lookups, so an enabled tracer sees the call
    if regime == "benchmark":
        return ce.solve_benchmark(params)
    if regime == "exclusion":
        return ce.solve_exclusion(params)
    if regime == "multi_period":
        return ce.solve_multi_period(params, arg)
    return ce.solve_signal_cutoff(params, arg)


# ---------------------------------------------------------------------------
# regime_solves


class RegimeSolves:
    name = "regime_solves"
    draws_per_cycle = 6
    cycle = 9 + 4 * draws_per_cycle   # every pinned solve, six box draws
    repeat = 0                        # pinned A benchmark

    def build(self, seed):
        rng = np.random.default_rng(seed)
        draws = [_box_point(u)
                 for u in latin_hypercube(rng, 10, self.draws_per_cycle)]
        return {"a": model_a(), "b": model_b(), "b400": model_b(400.0),
                "c": model_c(), "draws": draws}

    def ops(self, models, seed, ref, workdir):
        a, b, c = models["a"], models["b"], models["c"]
        pinned = [
            ("A benchmark", "benchmark", a, None,
             {"cutoff": ref.V30_Q0}),
            ("B benchmark", "benchmark", b, None, {"cutoff": ref.V50_Q0}),
            ("B exclusion", "exclusion", b, None,
             {"cutoff": ref.V50_Q1, "eligibility": ref.V50_ALPHA1}),
            ("B signal +inf", "signal_cutoff", b, math.inf,
             {"cutoff": ref.V50_SC_INF_ROOT}),
            ("B V=400 exclusion", "exclusion", models["b400"], None,
             {"cutoff": ref.EXCLUSION_V400_ROOT}),
        ] + [(f"C t={t}", "multi_period", c, t,
              {"cutoff": ref.V20_BAN_ROOTS[t]}) for t in (1, 5, 50, 1000)]
        pinned_ops = [self._op(f"pinned {label}", regime, params, arg, expect)
                      for label, regime, params, arg, expect in pinned]
        per = self.draws_per_cycle
        # pinned solves spread evenly between the draws of a cycle
        cut = [round(i * len(pinned_ops) / per) for i in range(per + 1)]
        cycle = []
        for i, (params, periods, sbar) in enumerate(models["draws"]):
            cycle += pinned_ops[cut[i]:cut[i + 1]]
            cycle += [self._op(f"draw {i} {regime}", regime, params, arg,
                               None)
                      for regime, arg in (("benchmark", None),
                                          ("exclusion", None),
                                          ("multi_period", periods),
                                          ("signal_cutoff", sbar))]
        return itertools.cycle(cycle)

    @staticmethod
    def _op(key, regime, params, arg, expect):
        def run():
            return _solve(regime, params, arg), {}

        def check(out):
            bad = _outcome_contract(out)
            if expect:
                bad += _near("cutoff", out.cutoff, expect["cutoff"],
                             CUTOFF_TOL)
                if "eligibility" in expect:
                    bad += _near("eligibility", out.eligibility[0],
                                 expect["eligibility"], SHARE_TOL)
            return bad

        return Op(key, run, check, pinned=expect is not None)


# ---------------------------------------------------------------------------
# sim_verify


class SimVerify:
    name = "sim_verify"
    cycle = 3    # one verification per policy
    repeat = 1   # model C, the shortest op

    def build(self, seed):
        return {"b": model_b(), "c": model_c()}

    def ops(self, models, seed, ref, workdir):
        b, c = models["b"], models["c"]
        cases = [
            ("B exclusion", b, "exclusion", None, ce.RejectionExclusion(1)),
            ("C multi_period t=5", c, "multi_period", 5,
             ce.RejectionExclusion(5)),
            ("B signal sbar=0", b, "signal_cutoff", 0.0,
             ce.SignalExclusion(0.0)),
        ]
        return itertools.cycle(
            [self._op(f"{label} sim seed {seed * 1000 + i}", params, regime,
                      arg, policy, seed * 1000 + i)
             for i, (label, params, regime, arg, policy) in enumerate(cases)])

    @staticmethod
    def _op(key, params, regime, arg, policy, sim_seed):
        def run():
            out = _solve(regime, params, arg)
            cfg = ce.SimConfig(seed=sim_seed, policy=policy,
                               cutoffs=out.cutoffs, n_agents=SIM_AGENTS,
                               n_periods=SIM_PERIODS, burn_in=SIM_BURN_IN,
                               initial_eligibility=out.eligibility)
            t0 = perf_counter()
            res = ce.run_simulation(cfg, params)
            sim_s = perf_counter() - t0
            grid = out.cutoff + np.arange(-20, 21) * BR_STEP
            best, payoff = ce.empirical_best_response(
                cfg, params, grid, result=res, replications=BR_REPLICATIONS)
            return (out, res, best, payoff), {
                "sim_s": sim_s, "agent_periods": SIM_AGENTS * SIM_PERIODS}

        def check(result):
            out, res, best, _ = result
            bad = _outcome_contract(out)
            err = abs(res.mean_eligibility[0] - out.eligibility[0])
            if not err < SIM_ELIGIBILITY_TOL:
                bad.append(f"simulated eligibility off by {err:.3g}")
            if not abs(best - out.cutoff) <= BR_STEP + 1e-12:
                bad.append(f"empirical best response off by "
                           f"{best - out.cutoff:+.3f}")
            return bad

        return Op(key, run, check, pinned=False)


# ---------------------------------------------------------------------------
# cli_configs


class CliConfigs:
    name = "cli_configs"
    cycle = 8    # every call once
    repeat = 0   # simulate: seeded CSV output

    def build(self, seed):
        # the parsed configs are the models; ops hand the paths to the CLI
        from contest_eq import cli
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        configs = {}
        for name in sorted(os.listdir(os.path.join(root, "configs"))):
            path = os.path.join(root, "configs", name)
            with open(path) as fh:
                configs[name] = (path, cli.parse_config(fh.read()))
        return configs

    def ops(self, models, seed, ref, workdir):
        path = {name: p for name, (p, _) in models.items()}
        sim_set = ["--set", "sim.n_periods=50", "--set", "sim.burn_in=10",
                   "--set", f"sim.seed={seed}"]
        calls = [
            ("simulate", "one_period_bans.ini", sim_set, None),
            ("solve", "free_entry.ini", [], {"cutoff": ref.V30_Q0}),
            ("solve", "ban_length.ini", [],
             {"cutoff": ref.V20_BAN_ROOTS[5]}),
            ("solve", "one_period_bans.ini", [],
             {"cutoff": ref.V50_Q1, "eligibility": ref.V50_ALPHA1}),
            # the two-type solver: the scalar clearing and quadrature path
            ("solve", "two_type.ini", [],
             {"cutoff": ref.TWO_TYPE_QH, "cutoff_2": ref.TWO_TYPE_QL,
              "eligibility": ref.TWO_TYPE_AH,
              "eligibility_2": ref.TWO_TYPE_AL}),
            ("compare", "one_period_bans.ini", [], None),
            ("sweep", "ban_length.ini", [], None),
            ("figures", "ban_length.ini", [], None),
        ]
        return itertools.cycle(
            [self._op(f"{command} {config}",
                      [command, "--config", path[config]] + extra, expect,
                      workdir)
             for command, config, extra, expect in calls])

    @staticmethod
    def _op(key, argv, expect, workdir):
        def run():
            cli = sys.modules["contest_eq.cli"]
            tmp = tempfile.mkdtemp(dir=workdir)
            try:
                out = os.path.join(tmp, "out" if argv[0] == "figures"
                                   else "out.csv")
                rc = cli.main(argv + ["--out", out])
                files = []
                for dirpath, _, names in sorted(os.walk(tmp)):
                    for name in sorted(names):
                        full = os.path.join(dirpath, name)
                        with open(full, "rb") as fh:
                            files.append((os.path.relpath(full, tmp),
                                          fh.read()))
            finally:
                shutil.rmtree(tmp)
            return (rc, tuple(files)), {
                "bytes_written": sum(len(data) for _, data in files)}

        def check(result):
            rc, files = result
            if rc != 0:
                return [f"exit code {rc}"]
            bad = []
            data = dict(files)
            if expect:
                head, row = data["out.csv"].decode().splitlines()[:2]
                got = dict(zip(head.split(","), row.split(",")))
                if not float(got["residual"]) < RESIDUAL_CONTRACT:
                    bad.append(f"residual contract: {got['residual']}")
                for col, ref_value in expect.items():
                    tol = CUTOFF_TOL if col.startswith("cutoff") \
                        else SHARE_TOL
                    bad += _near(col, float(got[col]), ref_value, tol)
            if argv[0] == "simulate":
                head, row = data["out_summary.csv"].decode().splitlines()
                summary = dict(zip(head.split(","), row.split(",")))
                err = abs(float(summary["mean_eligibility_1"])
                          - float(summary["analytic_eligibility_1"]))
                if not err < SIM_ELIGIBILITY_TOL:
                    bad.append(f"simulated eligibility off by {err:.3g}")
            return bad

        return Op(key, run, check, pinned=True)


WORKLOADS = {w.name: w for w in (RegimeSolves(), SimVerify(), CliConfigs())}
