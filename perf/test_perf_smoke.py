"""Tier-1 smoke of the wall-clock benchmark: ``run.py --smoke --trace``.

Tiny sizes, one set-up and two passes per workload, ``serve_socket`` and the
traced run included; asserts the shape of the output, not the numbers.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

PERF = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_smoke_prints_every_metric_and_passes_the_gate(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--smoke", "--trace",
         "--out", str(out)],
        capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout + done.stderr
    with open(PERF.parent / "BENCHMARK.json") as f:
        contract = json.load(f)
    with open(out) as f:
        document = json.load(f)
    printed = {tuple(line.split()[:2]): line.split()
               for line in done.stdout.splitlines() if len(line.split()) == 4}
    declared = contract["end_to_end"] + contract["per_layer"]
    assert "trace.unaccounted_share" in {m["name"] for m in declared}
    for workload in (w["name"] for w in contract["workloads"]):
        assert NAME.fullmatch(workload)
        run = document["workloads"][workload]
        assert run["attempted"] > 0 and run["failed"] == 0, run["failures"]
        for kind in ("end_to_end", "per_layer"):
            assert list(run[kind]) == [m["name"] for m in contract[kind]]
        for m in declared:
            assert NAME.fullmatch(m["name"])
            line = printed[workload, m["name"]]
            float(line[2])
            assert line[3] == m["unit"]
