"""Compare two result files of ``run.py --out``: ``compare.py A.json B.json``.

One row per workload and end-to-end metric, judged by the bound that
``BENCHMARK.json`` fixes for the metric:

* ``ok``          B is no worse than A by more than the bound;
* ``worse``       B is worse than A by more than the bound;
* ``unresolved``  the run-to-run spread (quartile distance of the per-pass
  samples over their median, the wider of A and B) exceeds the bound, so the
  two cannot be told apart — unless every sample of B beats every sample
  of A, which is ``ok``.

Every ratio is printed with its base (A's value).  Per-layer metrics that
are counts must be equal between two runs of one commit; those that differ
are listed after the table.  Exit code 1 if any row is ``worse``, else 2 if
any is ``unresolved``, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Units of per-layer metrics that repeat exactly on one commit.
EXACT_UNITS = ("count", "sim_ms", "B")


def spread(samples: list[float] | None) -> float:
    if not samples or len(samples) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def judge(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """The verdict, and the spread it was judged against."""
    wide = max(spread(a.get("samples")), spread(b.get("samples")))
    if wide > bound:
        a_s, b_s = a["samples"], b["samples"]
        b_always_better = (max(b_s) < min(a_s) if better == "lower"
                           else min(b_s) > max(a_s))
        return ("ok" if b_always_better else "unresolved"), wide
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / a["value"]
    return ("worse" if worse_by > bound else "ok"), wide


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 64
    with open(ROOT / "BENCHMARK.json") as f:
        contract = json.load(f)
    docs = []
    for path in argv:
        with open(path) as f:
            docs.append(json.load(f)["workloads"])
    a_doc, b_doc = docs
    verdicts = set()
    print(f"{'workload':13s} {'metric':14s} {'A (base)':>12s} {'B':>12s} "
          f"{'B/A':>7s} {'spread':>7s} {'bound':>6s}  verdict")
    for workload in (w["name"] for w in contract["workloads"]):
        for m in contract["end_to_end"]:
            a = a_doc[workload]["end_to_end"][m["name"]]
            b = b_doc[workload]["end_to_end"][m["name"]]
            verdict, wide = judge(a, b, m["better"], m["bound"])
            verdicts.add(verdict)
            print(f"{workload:13s} {m['name']:14s} {a['value']:12.6g} "
                  f"{b['value']:12.6g} {b['value'] / a['value']:7.3f} "
                  f"{wide:7.2%} {m['bound']:6.0%}  {verdict} "
                  f"(base {a['value']:.6g} {m['unit']})")
    for workload in a_doc:
        layers_a = a_doc[workload].get("per_layer", {})
        layers_b = b_doc[workload].get("per_layer", {})
        for name, a in layers_a.items():
            b = layers_b.get(name)
            if b and a["unit"] in EXACT_UNITS and a["value"] != b["value"]:
                print(f"{workload:13s} {name} differs: "
                      f"{a['value']} -> {b['value']} {a['unit']}")
    return 1 if "worse" in verdicts else 2 if "unresolved" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
