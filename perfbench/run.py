"""contest-eq benchmark: one workload per run, every op checked.

    python3 perfbench/run.py --workload regime_solves --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  `--trace 0` prints the end-to-end metrics
(set-up time, op latency median and tail, peak memory) measured with no
tracing.  `--trace 1` runs every op twice, untraced and traced in
alternating order, checks that both give bit-identical output, and prints
the per-layer metrics taken from the spans.  After the timed ops, every
run repeats one op of its first cycle, untimed, and checks that its output
is bit-identical to the first time.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  Human
readable lines before it carry the check results, fail_share, the
simulator throughput and the machine/version metadata.  See NOTES.md.
"""

import os

# one process, one thread: cap BLAS/OpenMP pools before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
# fresh-interpreter set-ups before and after the ops: the median then
# samples the whole run, not one moment of a machine whose speed drifts
SETUP_BEFORE, SETUP_AFTER = 3, 2
# trace-mode metrics computed here rather than from the spans
RUN_LAYER_METRICS = ("cli.bytes_written", "simulation.agent_periods_per_s",
                     "trace.overhead_share")


def load_spec():
    """BENCHMARK.json: workload names and the metric names and units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _setup_times(workload, seed, repeats):
    """Times of `repeats` fresh interpreters doing import contest_eq plus
    building the workload's models, each timed inside the child."""
    code = ("import sys, time\n"
            "t0 = time.perf_counter()\n"
            f"sys.path[:0] = [{SRC!r}, {BENCH!r}]\n"
            "import contest_eq, workloads\n"
            f"workloads.WORKLOADS[{workload!r}].build({seed!r})\n"
            "print(repr(time.perf_counter() - t0))\n")
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def _tail(ms):
    """Highest percentile with at least 10 ops beyond it; with 10 ops or
    fewer no such percentile exists and the maximum stands in.  Callers
    pass the first cycle, so the percentile is the same in every run."""
    xs = sorted(ms)
    n = len(xs)
    if n > 10:
        return xs[n - 11], 100.0 * (n - 10) / n
    return xs[-1], 100.0


def _meta(seed):
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        # the ceiling keeps git from reporting an enclosing repository
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=
                                      os.path.dirname(ROOT)))
        git_hash = git.stdout.strip() if git.returncode == 0 else \
            "unknown (not a git checkout)"
    except OSError:
        git_hash = "unknown (git not found)"
    pkg = os.path.join(SRC, "contest_eq")
    lines = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                lines += sum(1 for _ in fh)
    return {"nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": os.environ["OMP_NUM_THREADS"],
            "git_hash": git_hash, "seed": seed,
            "src_contest_eq_lines": lines}


class Runner:
    """Executes ops, checks them and keeps one record per op."""

    def __init__(self, digest):
        self.digest = digest
        self.records = []
        self.seen = {}        # op key -> digest of its first output
        self.correct = True

    def _call(self, op, call):
        t0 = perf_counter()
        try:
            result, info = call()
        except Exception as exc:  # an op failure is counted, not fatal
            return 1e3 * (perf_counter() - t0), None, {}, \
                [f"raised {type(exc).__name__}: {exc}"]
        ms = 1e3 * (perf_counter() - t0)
        return ms, self.digest(result), info, op.check(result)

    def _record(self, op, ms, dig, info, failures, extra_ms=None,
                timed=True):
        if dig is not None:
            first = self.seen.setdefault(op.key, dig)
            if first != dig:
                failures = failures + [
                    "output differs from an earlier run of the same input"]
                self.correct = False
        if failures and op.pinned:
            self.correct = False
        self.records.append({"key": op.key, "ms": ms, "traced_ms": extra_ms,
                             "info": info, "failures": failures,
                             "timed": timed})

    def untraced(self, op):
        ms, dig, info, failures = self._call(op, op.run)
        self._record(op, ms, dig, info, failures)

    def repeat(self, op):
        """Run an op again, outside the timings: its output must match
        the first run bit for bit."""
        ms, dig, info, failures = self._call(op, op.run)
        self._record(op, ms, dig, info, failures, timed=False)

    def paired(self, op, op_id, tracer):
        """Untraced and traced run of one op, order alternating by op id."""
        runs = {}
        for traced in ((False, True) if op_id % 2 == 0 else (True, False)):
            call = (lambda: tracer.run_op(op_id, op.run)) if traced \
                else op.run
            runs[traced] = self._call(op, call)
        (ms, dig, info, failures), traced = runs[False], runs[True]
        if traced[1] != dig:
            failures = failures + ["traced output differs from untraced"]
            self.correct = False
        self._record(op, ms, dig, info, failures, extra_ms=traced[0])


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for need in (os.path.join(SRC, "contest_eq", "__init__.py"),
                 os.path.join(ROOT, "tests", "reference.py"),
                 os.path.join(ROOT, "configs")):
        if not os.path.exists(need):
            _fail(f"{os.path.relpath(need, ROOT)} not found: run from the "
                  "root of a contest-eq checkout")
    sys.path[:0] = [SRC, BENCH]
    import contest_eq
    import contest_eq.cli  # noqa: F401  (the cli layer is traced too)
    if os.path.dirname(os.path.dirname(os.path.abspath(
            contest_eq.__file__))) != SRC:
        _fail(f"contest_eq imported from {contest_eq.__file__}, not {SRC}")
    import workloads
    from tracer import Tracer, layer_metrics

    os.makedirs(OUT, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]
    meta = _meta(args.seed)
    setup = [] if args.trace else \
        _setup_times(args.workload, args.seed, SETUP_BEFORE)

    ref = workloads.load_reference(ROOT)
    models = workload.build(args.seed)
    runner = Runner(workloads.digest)
    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        ops = workload.ops(models, args.seed, ref, workdir)
        first_cycle = []
        start = perf_counter()
        while True:
            cycle_start = perf_counter()
            for _ in range(workload.cycle):
                op = next(ops)
                if len(first_cycle) < workload.cycle:
                    first_cycle.append(op)
                if tracer is None:
                    runner.untraced(op)
                else:
                    runner.paired(op, len(runner.records), tracer)
            # whole cycles only, so every run measures the same mix of ops;
            # stop at the cycle boundary nearest to --seconds
            now = perf_counter()
            if now - start + (now - cycle_start) / 2 >= args.seconds:
                break
        runner.repeat(first_cycle[workload.repeat])

    if not args.trace:
        setup += _setup_times(args.workload, args.seed, SETUP_AFTER)
    attempted = len(runner.records)
    failed = sum(1 for r in runner.records if r["failures"])
    records = [r for r in runner.records if r["timed"]]
    ms = [r["ms"] for r in records]
    sim_s = sum(r["info"].get("sim_s", 0.0) for r in records)
    agent_periods = sum(r["info"].get("agent_periods", 0) for r in records)
    summary = {"fail_share": failed / attempted,
               "ops": attempted,
               "agent_periods_per_s": agent_periods / sim_s if sim_s else None}

    if tracer is None:
        tail, pct = _tail(ms[:workload.cycle])
        values = {"setup_s": statistics.median(setup),
                  "op_ms_p50": statistics.median(ms),
                  "op_ms_tail": tail,
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        units = spec["end_to_end"]
        summary.update(tail_percentile=pct, setup_runs_s=setup)
    else:
        prefix = set(range(workload.cycle))
        values = layer_metrics(tracer.spans, prefix, len(records))
        values["cli.bytes_written"] = sum(
            r["info"].get("bytes_written", 0) for r in records[:len(prefix)]
        ) / len(prefix)
        values["simulation.agent_periods_per_s"] = \
            summary["agent_periods_per_s"] or 0.0
        values["trace.overhead_share"] = statistics.median(
            r["traced_ms"] for r in records) / statistics.median(ms) - 1.0
        units = spec["per_layer"]
        tracer.write_spans(os.path.join(OUT, f"spans-{args.workload}.csv"))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in units}

    label = f"{args.workload} seed={args.seed} trace={args.trace}"
    for r in runner.records:
        status = "ok" if not r["failures"] else "FAIL " + "; ".join(
            r["failures"])
        kind = "op" if r["timed"] else "repeat"
        print(f"{kind} {r['ms']:10.1f} ms  {r['key']}: {status}")
    for name, m in metrics.items():
        print(f"{label}  {name} = {m['value']:.6g} {m['unit']}")
    print(f"{label}  fail_share = {summary['fail_share']:.6g} "
          f"({failed} of {attempted} ops failed a check; "
          f"correct={runner.correct})")
    if tracer is None:
        print(f"{label}  op_ms_tail is p{summary['tail_percentile']:.4g} "
              f"of the first {workload.cycle} ops; op_ms_p50 is over "
              f"{len(ms)} ops")
    if summary["agent_periods_per_s"]:
        print(f"{label}  agent_periods_per_s = "
              f"{summary['agent_periods_per_s']:.6g} 1/s "
              f"({agent_periods} agent-periods at {workloads.SIM_AGENTS} "
              "agents)")
    print(f"{label}  meta {json.dumps(meta, sort_keys=True)}")
    result = {"correct": runner.correct, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    details = dict(result, summary=summary, meta=meta, ops=runner.records,
                   workload=args.workload, seconds=args.seconds)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w") as fh:
        json.dump(details, fh, indent=1, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
