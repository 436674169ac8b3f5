"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload regime_solves --seeds 1 2 3 4 5

Runs `run.py --trace 0` once per seed, one run at a time, for the
run_seconds of BENCHMARK.json, and prints for every end-to-end metric its
median and the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, next to the bound
from BENCHMARK.json.  Runs are appended as JSON lines to
perfbench/out/spread-<workload>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    log = os.path.join(BENCH, "out", f"spread-{args.workload}.jsonl")
    runs = []
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append(result)
        with open(log, "a") as fh:
            fh.write(json.dumps(dict(result, seed=seed)) + "\n")
        values = {k: round(m["value"], 4) for k, m in
                  result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {values}",
              flush=True)
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        print(f"{args.workload} {metric['name']}: median {med:.6g} "
              f"{metric['unit']}, spread {(q3 - q1) / med:.4f} "
              f"(bound {metric['bound']})")


if __name__ == "__main__":
    main()
