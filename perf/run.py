"""The wall-clock benchmark: ``python3 perf/run.py``.

Driver form, one workload per call, last line of output one JSON object::

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Without ``--workload`` it runs all four workloads (and, with ``--trace``,
the traced run), prints every metric by name with its unit and, with
``--out FILE``, writes the whole result as one JSON document.  ``--smoke``
shrinks every size so that the whole thing takes seconds.

See README.md in this directory for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
RESULTS = PERF / "results"
sys.path.insert(0, str(ROOT / "src"))

from builders import (FULL, SMOKE, build_micro_db, build_serving_db,  # noqa: E402
                      build_tpch_db)
from harness import (Trace, end_to_end, gate, now, peak_rss_kb,  # noqa: E402
                     percentile)
from probes import engine_probes  # noqa: E402
from serve_socket import ServerChild, ServeSocket, layer_run  # noqa: E402
from workloads import PointLookup, ScanSweep, TpchSql  # noqa: E402

SCHEMA_VERSION = 1
DEFAULT_SEED = 2015
#: Fewest measured passes of a run: the repeat check needs two.
MIN_PASSES = 2
#: Times the set-up is done per run; setup_s is their median.
SETUPS = 3


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def measure(workload, seed: int, seconds: float, sizes, setups: int) -> dict:
    """The untraced run: set up, warm up, pass until the time is spent."""
    setup_s = []
    built = None
    for _ in range(setups):
        if built is not None:
            workload.discard(built)
            built = None
            gc.collect()
        t0 = now()
        built, _timings = workload.build(sizes)
        setup_s.append(now() - t0)
    state = None
    try:
        state = workload.open(built, sizes)
        schedule = workload.schedule(seed, sizes)
        warm_up = workload.run_pass(state, schedule)
        passes = []
        deadline = now() + seconds
        while len(passes) < MIN_PASSES or now() < deadline:
            passes.append(workload.run_pass(state, schedule))
        rss_kb = peak_rss_kb() + workload.extra_rss_kb(state)
    finally:
        if state is None:
            workload.discard(built)
        else:
            workload.close(state)
    return {
        **gate([warm_up, *passes], passes),
        "passes": len(passes),
        "statements": passes[0].statements,
        "end_to_end": end_to_end(passes, setup_s, rss_kb),
    }


def trace_inproc(workload, db, seed: int, sizes) -> dict:
    """Reference passes through the cursor, then the staged, traced pass."""
    state = workload.open(db, sizes)
    try:
        schedule = workload.schedule(seed, sizes)
        workload.run_pass(state, schedule)
        plain = [workload.run_pass(state, schedule) for _ in range(MIN_PASSES)]
        trace = Trace()
        traced = workload.run_pass(state, schedule, trace)
    finally:
        workload.close(state)
    return {
        "trace": trace,
        "trace.overhead_ratio":
            traced.busy_s / statistics.median(p.busy_s for p in plain),
        "tail.p99_ms": percentile(
            [ms for p in plain for ms in p.latencies_ms], 99),
        "counts": plain[0].counts,
        **gate([*plain, traced], plain),
    }


WORKLOADS = {w.name: w for w in
             (ScanSweep(), PointLookup(), TpchSql(), ServeSocket())}
LAYERS = ("sql", "optimizer", "exec", "api", "server", "client")


def own_metrics(info: dict) -> dict:
    """The per-layer metrics that come from the traced workload itself."""
    counts = info["counts"]
    shares = info["trace"].layer_shares()
    reads = counts["buffer_hits"] + counts["buffer_misses"]
    lookups = counts["cache_hits"] + counts["cache_misses"]
    out = {f"trace.{layer}_share": shares.get(layer, 0.0)
           for layer in LAYERS}
    out.update({
        "trace.unaccounted_share": shares[Trace.ROOT],
        "trace.overhead_ratio": info["trace.overhead_ratio"],
        "tail.p99_ms": info["tail.p99_ms"],
        "storage.disk_requests": counts["disk_requests"],
        "storage.pages_read": counts["pages_read"],
        "storage.buffer_hit_ratio": counts["buffer_hits"] / reads,
        "sim.io_ms": counts["sim_io_ms"],
        "sim.cpu_ms": counts["sim_cpu_ms"],
        "sql.compile_count": counts["sql_compiles"],
        "optimizer.cache_hit_ratio": counts["cache_hits"] / lookups,
        "optimizer.cache_evictions": counts["cache_evictions"],
        "api.fetch_calls": counts["fetch_calls"],
    })
    return out


def traced_runs(names: list[str], seed: int, sizes, repeats: int) -> dict:
    """The traced run of each named workload.

    Every run reports every per-layer metric: the layer probes and the
    server's layers are measured once and shared, the ``trace.*``, count
    and ``tail`` metrics are the named workload's own.
    """
    serve = WORKLOADS["serve_socket"]
    child = ServerChild(sizes.serve_rows)   # builds while this process does
    try:
        micro_db, micro_s = build_micro_db(sizes.micro_rows)
        tpch_db, tpch_s = build_tpch_db(sizes.tpch_sf)
        serving_db, _ = build_serving_db(sizes.serve_rows)
        child.wait_ready()
    except BaseException:
        child.stop()
        raise
    # Three databases now share this process with the socket clients, whose
    # JSON row lists would otherwise set off full collections over all of
    # them; the untraced runs never hold more than their own database.
    gc.collect()
    gc.freeze()
    state = None
    try:
        state = serve.open(child, sizes)
        schedules = serve.schedule(seed, sizes)
        serve.run_pass(state, schedules)
        socket_passes = [serve.run_pass(state, schedules)
                         for _ in range(MIN_PASSES)]
        server, serve_info = layer_run(state, schedules, serving_db,
                                       socket_passes)
    finally:
        if state is None:
            child.stop()
        else:
            serve.close(state)
    shared = {
        **engine_probes(micro_db, serving_db, tpch_db, repeats),
        **server,
        "workloads.micro_build_s": micro_s["micro_build_s"],
        "workloads.analyze_s": micro_s["analyze_s"],
        "workloads.tpch_build_s": tpch_s["tpch_build_s"],
    }
    fixtures = {"scan_sweep": micro_db, "tpch_sql": tpch_db}
    out = {}
    for name in names:
        if name == "serve_socket":
            info = serve_info
        else:
            workload = WORKLOADS[name]
            db = fixtures.get(name)
            if db is None:
                db, _ = workload.build(sizes)
            info = trace_inproc(workload, db, seed, sizes)
        info["trace"].dump(RESULTS / f"trace_{name}.json")
        out[name] = {key: info[key]
                     for key in ("attempted", "failed", "failures")}
        out[name]["per_layer"] = {**shared, **own_metrics(info)}
    return out


def measure_in_child(name: str, args, seconds: float) -> dict:
    """One workload's untraced run in a process of its own, as the driver
    runs it: its peak RSS and its collector see this workload only."""
    with tempfile.TemporaryDirectory(dir=RESULTS) as scratch:
        out = Path(scratch) / "run.json"
        command = [sys.executable, __file__, "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(seconds),
                   "--trace", "0", "--out", str(out)]
        done = subprocess.run(command + ["--smoke"] * args.smoke,
                              stdout=subprocess.DEVNULL)
        if not out.exists():
            raise RuntimeError(f"{name}: run exited {done.returncode} "
                               "without a result")
        with open(out) as f:
            return json.load(f)["workloads"][name]


def with_units(values: dict, declared: list[dict]) -> dict:
    """``values`` in the contract's order, each with the contract's unit; a
    metric the contract names and the run did not produce is an error."""
    out = {}
    for m in declared:
        value = values[m["name"]]
        out[m["name"]] = {**(value if isinstance(value, dict)
                             else {"value": value}), "unit": m["unit"]}
    return out


def print_metrics(workload: str, metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"{workload:13s} {name:34s} {m['value']:.6g} {m['unit']}")


def fingerprint() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    contract = load_contract()
    declared = [w["name"] for w in contract["workloads"]]
    if sorted(declared) != sorted(WORKLOADS):
        parser.error(f"BENCHMARK.json names workloads {declared}")
    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {declared}")

    sizes = SMOKE if args.smoke else FULL
    seconds = args.seconds if args.seconds is not None \
        else (0.0 if args.smoke else contract["run_seconds"])
    setups = 1 if args.smoke else SETUPS
    repeats = 1 if args.smoke else 3
    names = [args.workload] if args.workload else declared

    report = {name: {"why": WORKLOADS[name].why, "attempted": 0, "failed": 0,
                     "failures": []} for name in names}

    def record(name: str, run: dict) -> None:
        entry = report[name]
        entry["attempted"] += run.pop("attempted")
        entry["failed"] += run.pop("failed")
        entry["failures"] = (entry["failures"] + run.pop("failures"))[:5]
        entry.update(run)

    if args.workload and not args.trace:
        run = measure(WORKLOADS[args.workload], args.seed, seconds, sizes,
                      setups)
        run["end_to_end"] = with_units(run["end_to_end"],
                                       contract["end_to_end"])
        record(args.workload, run)
    elif not args.workload:
        for name in names:
            record(name, measure_in_child(name, args, seconds))
    if args.trace:
        for name, run in traced_runs(names, args.seed, sizes,
                                     repeats).items():
            run["per_layer"] = with_units(run["per_layer"],
                                          contract["per_layer"])
            record(name, run)

    for name, run in report.items():
        for kind in ("end_to_end", "per_layer"):
            print_metrics(name, run.get(kind, {}))
        for failure in run["failures"]:
            print(f"{name:13s} FAILED {failure}")
        print(f"{name:13s} attempted {run['attempted']} "
              f"failed {run['failed']}")
    failed = sum(run["failed"] for run in report.values())
    if args.out:
        document = {"schema": SCHEMA_VERSION, "seed": args.seed,
                    "smoke": args.smoke, "seconds": seconds,
                    "machine": fingerprint(), "workloads": report}
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w") as out:
            json.dump(document, out, indent=1)
            out.write("\n")
    if args.workload:
        run = report[args.workload]
        metrics = run["per_layer"] if args.trace else run["end_to_end"]
        print(json.dumps({
            "correct": run["failed"] == 0,
            "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": {n: {"value": m["value"], "unit": m["unit"]}
                        for n, m in metrics.items()},
        }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
