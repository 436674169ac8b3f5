"""Self-checks of the benchmark and its tracer; exits non-zero on failure.

    python3 perfbench/check_tracer.py [workload ...]

Run from the root of a checkout.  It asserts that
1. with the tracer enabled no contest_eq module still holds an unwrapped
   original of a traced function, and disabling restores every original;
2. a traced and an untraced run of the first ops of every workload give
   bit-identical outputs;
3. an op whose traced calls raise is counted as failed, and the per-layer
   metrics still come out;
4. the untimed repeat that ends every run fails a run whose op output
   changes between two runs of the same input;
5. the count metrics of two traced runs with one seed repeat exactly, for
   each named workload (default: regime_solves, the quickest);
6. BENCHMARK.json names exactly the workloads and the per-layer metrics
   the benchmark computes.
"""

import itertools
import json
import os
import subprocess
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import contest_eq  # noqa: E402
import contest_eq.cli  # noqa: E402,F401

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import (Tracer, layer_metrics, package_modules,  # noqa: E402
                    unwrapped_copies)

COUNT_UNITS = ("count", "bytes")
# ops per workload for the traced-versus-untraced comparison
FIRST_OPS = {"regime_solves": 5, "sim_verify": 1, "cli_configs": 5}


def check_rebinding():
    tracer = Tracer()
    names = {f"{f.__module__}.{f.__name__}" for f in tracer.originals}
    for name in ("contest_eq.distributions.integrate",
                 "contest_eq.core.win_mass", "contest_eq.cli.main",
                 "contest_eq.equilibria.solve_benchmark",
                 "contest_eq.simulation.run_simulation"):
        assert name in names, f"{name} is not traced"
    copies = {(m.__name__, a) for m, a, _, _ in tracer.bindings}
    for copy in (("contest_eq.core", "win_mass"),
                 ("contest_eq.equilibria", "win_mass"),
                 ("contest_eq", "win_mass"),
                 ("contest_eq.analysis", "solve_benchmark"),
                 ("contest_eq.cli", "solve_benchmark")):
        assert copy in copies, f"{copy} is not rebound"
    tracer.enable()
    try:
        left = unwrapped_copies(tracer)
    finally:
        tracer.disable()
    assert not left, f"unwrapped originals left: {left}"
    wrappers = {id(w) for _, _, _, w in tracer.bindings}
    for mod in package_modules():
        for attr, obj in vars(mod).items():
            assert id(obj) not in wrappers, \
                f"{mod.__name__}.{attr} still wrapped after disable"
    print(f"rebinding: {len(tracer.originals)} functions, "
          f"{len(tracer.bindings)} namespace copies")


def check_bit_identical(tmpdir):
    ref = workloads.load_reference(ROOT)
    tracer = Tracer()
    for name, wl in workloads.WORKLOADS.items():
        models = wl.build(1)
        ops = wl.ops(models, 1, ref, tmpdir)
        for i, op in enumerate(itertools.islice(ops, FIRST_OPS[name])):
            plain, _ = op.run()
            traced, _ = tracer.run_op(i, op.run)
            assert workloads.digest(plain) == workloads.digest(traced), \
                f"{name} {op.key}: traced output differs"
            if op.pinned:
                assert not op.check(plain), \
                    f"{name} {op.key}: {op.check(plain)}"
        print(f"bit-identical: {name}, {FIRST_OPS[name]} ops")
    assert tracer.spans, "tracer recorded no spans"


def check_raising_ops():
    tracer = Tracer()
    runner = run.Runner(workloads.digest)
    a, c = workloads.model_a(), workloads.model_c()
    # one cutoff for a one-type model is wrong: run_simulation raises
    cfg = contest_eq.SimConfig(seed=1, policy=contest_eq.RejectionExclusion(1),
                               cutoffs=(0.0, 0.0), n_agents=1000,
                               n_periods=10, burn_in=2)

    def solve_then_raise():
        contest_eq.solve_benchmark(a)
        return contest_eq.solve_multi_period(c, 0), {}   # ban length 0

    def simulate_raise():
        return contest_eq.run_simulation(cfg, c), {}

    for i, fn in enumerate((solve_then_raise, simulate_raise)):
        op = workloads.Op(f"raises {i}", fn, lambda out: [], pinned=False)
        runner.paired(op, i, tracer)
    assert all(r["failures"] and r["failures"][0].startswith("raised")
               for r in runner.records), runner.records
    assert runner.correct
    values = layer_metrics(tracer.spans, {0, 1}, 2)
    assert values["equilibria.solve.calls"] == 1.0, values
    assert values["equilibria.solve.roots_per_call"] >= 1.0, values
    assert values["simulation.run_simulation.agent_periods"] == 0, values
    print("raising ops: counted as failed, per-layer metrics computed")


def check_repeat_gate():
    runner = run.Runner(workloads.digest)
    ticks = itertools.count()
    op = workloads.Op("output changes", lambda: (next(ticks), {}),
                      lambda out: [], pinned=False)
    runner.untraced(op)
    runner.repeat(op)
    assert not runner.correct and runner.records[-1]["failures"], \
        runner.records
    print("repeat gate: a changed output fails the run")


def _traced_run(workload):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_counts_repeat(names):
    for name in names:
        first, second = _traced_run(name), _traced_run(name)
        assert first["correct"] and second["correct"], name
        counts = {k for k, m in first["metrics"].items()
                  if m["unit"] in COUNT_UNITS
                  or k == "simulation.funded_exact_share"}
        for key in sorted(counts):
            a = first["metrics"][key]["value"]
            b = second["metrics"][key]["value"]
            assert a == b, f"{name} {key}: {a} then {b}"
        print(f"counts repeat: {name}, {len(counts)} metrics")


def check_benchmark_json():
    spec = run.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    computed = set(layer_metrics([], {0}, 1)) | set(run.RUN_LAYER_METRICS)
    assert {m["name"] for m in spec["per_layer"]} == computed, \
        computed ^ {m["name"] for m in spec["per_layer"]}
    print("BENCHMARK.json matches the metrics run.py computes")


def main(argv):
    check_benchmark_json()
    check_rebinding()
    os.makedirs(run.OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmpdir:
        check_bit_identical(tmpdir)
    check_raising_ops()
    check_repeat_gate()
    check_counts_repeat(argv or ["regime_solves"])
    print("all checks passed")


if __name__ == "__main__":
    main(sys.argv[1:])
