"""Run-to-run spread of the benchmark, the way its acceptance is judged.

Runs the command of ``BENCHMARK.json`` ``--runs`` times per workload, each
time with another seed, and prints for every end-to-end metric the distance
between the first and third quartile of its values as a share of their
median, next to the metric's bound.  A benchmark is steady when every spread
(``setup_s`` aside) is below a third of its bound.

    python3 perf/spread.py [--runs 10] [--first-seed 1] [--workload NAME]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out", type=Path, help="write every run's values")
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json") as f:
        contract = json.load(f)
    names = args.workload or [w["name"] for w in contract["workloads"]]
    steady = True
    collected = {}
    for name in names:
        values: dict[str, list[float]] = {}
        elapsed = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            t0 = time.perf_counter()
            done = subprocess.run(
                [*contract["command"], "--workload", name, "--seed", str(seed),
                 "--seconds", str(contract["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            elapsed.append(time.perf_counter() - t0)
            if done.returncode != 0:
                print(done.stdout, done.stderr, file=sys.stderr)
                return done.returncode
            result = json.loads(done.stdout.splitlines()[-1])
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
        collected[name] = values
        print(f"{name}: {args.runs} runs, {statistics.median(elapsed):.1f} s "
              f"each (longest {max(elapsed):.1f} s)")
        for m in contract["end_to_end"]:
            series = values[m["name"]]
            q1, _q2, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            spread = (q3 - q1) / median
            ok = m["name"] == "setup_s" or spread < m["bound"] / 3
            steady &= ok
            print(f"  {m['name']:14s} median {median:12.6g} {m['unit']:4s} "
                  f"spread {spread:6.2%}  bound {m['bound']:.0%}"
                  f"{'' if ok else '  <-- above a third of the bound'}")
    if args.out:
        with open(args.out, "w") as out:
            json.dump(collected, out, indent=1)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
