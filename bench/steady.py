"""Run one workload repeatedly and print the spread of its end-to-end metrics.

    python3 bench/steady.py --workload corpus --runs 10

Each run is a fresh `bench/run.py` process of the length BENCHMARK.json
gives, with its own seed: 1, 2, ..., runs.  For every end-to-end metric this
prints the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`) and the spread (q3 - q1) / median,
next to the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    failed_shares = set()
    for seed in range(1, args.runs + 1):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed_shares.add(result["failed"] / result["attempted"])
        line = [f"seed {seed}", f"correct={result['correct']}",
                f"attempted={result['attempted']}", f"failed={result['failed']}"]
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
            line.append(f"{name}={metric['value']:.5g}")
        print(" ".join(line), flush=True)

    print(f"{args.workload}: {args.runs} runs, failed shares {sorted(failed_shares)}")
    for metric in spec["end_to_end"]:
        data = values[metric["name"]]
        q1, median, q3 = statistics.quantiles(data, n=4)
        spread = (q3 - q1) / median
        print(f"  {metric['name']:<16} median {median:.5g} {metric['unit']}  "
              f"q1 {q1:.5g}  q3 {q3:.5g}  spread {spread:.3f}  bound {metric['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
