"""Fingerprint every output of a checkout, to show a change keeps them.

    python3 tests/output_digest.py <checkout>

Imports `contest_eq` from `<checkout>/src` and prints five sha256 lines,
pooled and typed outputs apart, so that a change to one solver can show
that the other's outputs did not move:

outcomes pooled  seeded outcomes over the valid parameter box, three
                 quarters of the draws, each solved under free entry,
                 one-period bans, a t-period ban and a signal bar; model
                 B's equation curves and steady-state profiles under the
                 same four policies; a small seeded simulation and replay
                 on model B.
outcomes typed   the other quarter of the box draws, two-type models under
                 the same four policies; the same simulation and replay on
                 the shipped two-type model.
best responses   model B's best responses to three steady-state profiles
                 under each of the four policies.
cli pooled       the bytes of the five commands on the three shipped pooled
                 configs (`sweep` over V = 20, 50 where a config has no
                 [sweep]; `simulate` at seed 7, 5,000 agents, 60 periods,
                 burn-in 10), with each command's exit status.
cli typed        the same on the shipped two-type config.

Run it on two checkouts and compare the lines.  Typed models are built only
from config text through `cli.parse_config`, so the script reads no model
field a refactor may rename.  Floats are hashed by their bytes, quality and
noise laws by each part's (weight, mean, variance), and errors by their
class and message; no value is hashed by its `repr`.  Outcomes are hashed
field by field, so a change to `EquilibriumOutcome`'s fields changes the
outcome lines.  Not a test module: pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import os
import struct
import sys
import tempfile

import numpy as np

DRAWS = 300
SEED = 12345
POOLED_CONFIGS = ("free_entry", "one_period_bans", "ban_length")
TYPED_CONFIGS = ("two_type",)
COMMANDS = ("solve", "sweep", "simulate", "compare", "figures")
SIMULATE_SETS = ("sim.seed=7", "sim.n_agents=5000", "sim.n_periods=60",
                 "sim.burn_in=10")


class Digest:
    """sha256 over a stream of tagged values."""

    def __init__(self, ce, errors):
        self.ce = ce
        self.errors = errors
        self.h = hashlib.sha256()

    def tag(self, text):
        self.h.update(text.encode() + b"\0")

    def feed(self, x):
        ce = self.ce
        if isinstance(x, ce.Mixture):
            self.tag("Mixture")
            for w, d in x.parts:
                self.feed((w, d))
        elif isinstance(x, ce.Normal):
            self.tag("Normal")
            self.feed((x.mean, x.variance))
        elif dataclasses.is_dataclass(x) and not isinstance(x, type):
            self.tag(type(x).__name__)
            for f in dataclasses.fields(x):
                self.tag(f.name)
                self.feed(getattr(x, f.name))
        elif isinstance(x, np.ndarray):
            self.tag(f"{x.dtype}{x.shape}")
            self.h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, (tuple, list)):
            self.tag(f"({len(x)}")
            for item in x:
                self.feed(item)
        elif isinstance(x, (bool, np.bool_)):
            self.tag(str(bool(x)))
        elif isinstance(x, (int, np.integer)):
            self.tag(f"i{int(x)}")
        elif isinstance(x, (float, np.floating)):
            self.h.update(b"f" + struct.pack("<d", float(x)))
        elif isinstance(x, (str, bytes)):
            data = x.encode() if isinstance(x, str) else x
            self.h.update(len(data).to_bytes(8, "little") + data)
        elif x is None:
            self.tag("None")
        else:
            raise TypeError(f"no digest rule for {type(x).__name__}")

    def call(self, fn, *args):
        """Feed fn(*args), or the class and message of a model or solver
        error it raises; any other exception propagates."""
        try:
            out = fn(*args)
        except self.errors as exc:
            self.tag(f"error {type(exc).__name__}: {exc}")
            return None
        self.feed(out)
        return out


def config_text(model, policy="benchmark"):
    """An INI document of [model] keys, every float written exactly."""
    lines = ["[model]", *(f"{k} = {float(v)!r}" for k, v in model.items()),
             "[policy]", f"regime = {policy}"]
    return "\n".join(lines) + "\n"


def box_model(u):
    """The [model] keys of the valid box at a point of [0, 1)^12 but the
    quality's, with the quality mean and variance, a ban length and a
    signal bar: V/C over six decades, k and delta on (0, 1), var_s/var_q
    from 1e-4 to 1e2, bans up to 1e4 periods and a quarter of the bars at
    each of -inf and +inf."""
    c = 10.0 ** (u[0] - 0.5)
    var_q = 10.0 ** (u[4] - 0.5)
    var_s = var_q * 10.0 ** (6.0 * u[5] - 4.0)
    mu = 2.0 * u[6] - 1.0
    model = {"C": c, "V": c * 10.0 ** (6.0 * u[1] - 1.0), "k": u[2],
             "delta": u[3], "var_s": var_s}
    periods = int(round(10.0 ** (4.0 * u[7])))
    if u[8] < 0.25:
        sbar = -math.inf
    elif u[8] < 0.5:
        sbar = math.inf
    else:
        sbar = mu + (6.0 * u[9] - 3.0) * math.sqrt(var_q + var_s)
    return model, mu, var_q, periods, sbar


def outcomes_digest(ce, cli, checkout):
    """(pooled, typed, best-response) digests of the seeded outcomes."""
    pooled, typed, responses = (Digest(ce, cli._SOLVER_ERRORS)
                                for _ in range(3))
    rng = np.random.default_rng(SEED)
    for i, u in enumerate(rng.random((DRAWS, 12))):
        model, mu, var_q, periods, sbar = box_model(u)
        d = typed if i % 4 == 3 else pooled
        if i % 4 == 3:  # two types of one variance, the first stronger
            share = 0.1 + 0.8 * u[10]
            model.update(lambda_H=share,
                         mu_q_H=mu + 2.0 * u[11] * math.sqrt(var_q),
                         var_q_H=var_q, mu_q_L=mu, var_q_L=var_q)
        else:
            model.update(mu_q=mu, var_q=var_q)
        params = cli.parse_config(config_text(model)).params
        for policy in (ce.NoExclusion(), ce.RejectionExclusion(1),
                       ce.RejectionExclusion(periods),
                       ce.SignalExclusion(sbar)):
            d.tag(f"draw {i} {type(policy).__name__}")
            d.call(ce.solve, params, policy)

    # model B: curves, profiles and best responses
    b = ce.normal_model(0.0, 2.0, 5.0, reject_cost=1.0, win_value=50.0,
                        budget=0.1, discount=0.97)
    grid = np.linspace(b.quality.quantile(1e-6),
                       b.first_best_cutoff - 1e-9, 200)
    for policy in (ce.NoExclusion(), ce.RejectionExclusion(1),
                   ce.RejectionExclusion(5), ce.SignalExclusion(0.0)):
        pooled.tag(f"model B {policy.regime}")
        responses.tag(f"model B {policy.regime}")
        pooled.call(ce.equilibrium_curves, b, policy, grid)
        for cutoff in (-1.0, 0.5, 2.0):
            profile = pooled.call(ce.steady_state_profile, b, cutoff, policy)
            responses.call(ce.best_response, profile, b, policy)

    # a seeded simulation and replay, pooled and typed
    two_type = os.path.join(checkout, "configs", "two_type.ini")
    with open(two_type) as fh:
        typed_config = cli.parse_config(fh.read())
    for d, params, policy in (
            (pooled, b, ce.RejectionExclusion(1)),
            (typed, typed_config.params, typed_config.policy)):
        out = ce.solve(params, policy)
        config = ce.SimConfig(seed=11, policy=policy, cutoffs=out.cutoffs,
                              n_agents=2000, n_periods=60, burn_in=10,
                              initial_eligibility=out.eligibility)
        d.tag(f"simulation {policy.regime}")
        result = d.call(ce.run_simulation, config, params)
        d.call(ce.empirical_best_response, config, params,
               np.linspace(out.cutoffs[-1] - 0.5, out.cutoffs[-1] + 0.5, 11),
               result, 200, 60)
    return tuple(d.h.hexdigest() for d in (pooled, typed, responses))


def cli_digest(ce, cli, checkout, configs):
    d = Digest(ce, ())
    with tempfile.TemporaryDirectory() as tmp:
        for name in configs:
            path = os.path.join(checkout, "configs", name + ".ini")
            with open(path) as fh:
                has_sweep = "[sweep]" in fh.read()
            for command in COMMANDS:
                out = os.path.join(tmp, f"{name}_{command}", "out.csv")
                os.makedirs(os.path.dirname(out))
                sets = []
                if command == "sweep" and not has_sweep:
                    sets = ["sweep.axis=V", "sweep.values=20,50"]
                if command == "simulate":
                    sets = list(SIMULATE_SETS)
                argv = [command, "--config", path, "--out", out]
                for item in sets:
                    argv += ["--set", item]
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    status = cli.main(argv)
                d.tag(f"{name} {command} exit {status}")
                d.feed(err.getvalue())
                for root, dirs, files in sorted(os.walk(os.path.dirname(out))):
                    dirs.sort()
                    for fname in sorted(files):
                        full = os.path.join(root, fname)
                        d.tag(os.path.relpath(full, tmp))
                        with open(full, "rb") as fh:
                            d.feed(fh.read())
    return d.h.hexdigest()


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: python3 tests/output_digest.py <checkout>")
    checkout = os.path.abspath(argv[1])
    sys.path.insert(0, os.path.join(checkout, "src"))
    import contest_eq as ce
    import contest_eq.cli as cli
    if not ce.__file__.startswith(os.path.join(checkout, "src")):
        sys.exit(f"contest_eq imported from {ce.__file__}")
    pooled, typed, responses = outcomes_digest(ce, cli, checkout)
    for label, digest in (
            ("outcomes pooled", pooled), ("outcomes typed", typed),
            ("best responses", responses),
            ("cli pooled", cli_digest(ce, cli, checkout, POOLED_CONFIGS)),
            ("cli typed", cli_digest(ce, cli, checkout, TYPED_CONFIGS))):
        print(f"{label:15s} {digest}")


if __name__ == "__main__":
    main(sys.argv)
