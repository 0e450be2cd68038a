"""Clocks, pass records, spans and the summary arithmetic of the benchmark.

Everything here measures from outside the engine: a statement is timed
around the public call that runs it, on the wall clock and on the calling
thread's CPU clock, and a span is a pair of wall-clock reads around one
public call into a layer.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.runtime import CostLedger

now = time.perf_counter
cpu_now = time.thread_time


def percentile(values, pct: float) -> float:
    return float(np.percentile(values, pct))


def median_us(samples_s: list[float]) -> float:
    return statistics.median(samples_s) * 1e6


def median_ms(samples_s: list[float]) -> float:
    return statistics.median(samples_s) * 1e3


def timed(fn, repeats: int) -> list[float]:
    """Wall seconds of ``repeats`` calls of ``fn``."""
    samples = []
    for _ in range(repeats):
        t0 = now()
        fn()
        samples.append(now() - t0)
    return samples


def peak_rss_kb() -> int:
    """Peak resident set of this process (Linux ``VmHWM``).

    Not ``ru_maxrss``: a child process's ``ru_maxrss`` starts at the peak of
    the process that spawned it, ``VmHWM`` starts afresh at ``exec``.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


@dataclass
class PassResult:
    """One pass over a workload's schedule.

    Statements are recorded in schedule order, one connection after the
    other, so entry ``i`` is the same statement in every pass.
    """

    latencies_ms: list[float] = field(default_factory=list)
    cpus_ms: list[float] = field(default_factory=list)
    #: Statements per connection (one entry for an in-process client).
    lanes: list[int] = field(default_factory=list)
    #: Seconds of this pass the throughputs divide by: the sum of the
    #: statement latencies of one client, the wall time of the pass when
    #: several connections run at once.
    busy_s: float = 0.0
    #: CPU seconds a server child process spent on the pass.
    child_cpu_s: float = 0.0
    rows: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: Counters that must repeat exactly from pass to pass.
    counts: dict = field(default_factory=dict)

    @property
    def statements(self) -> int:
        return len(self.latencies_ms)

    @property
    def cpu_s(self) -> float:
        return sum(self.cpus_ms) / 1e3 + self.child_cpu_s

    def add(self, wall_s: float, cpu_s: float, rows: int,
            error: str | None) -> None:
        self.latencies_ms.append(wall_s * 1e3)
        self.cpus_ms.append(cpu_s * 1e3)
        self.busy_s += wall_s
        self.rows += rows
        if error is not None:
            self.failed += 1
            self.failures.append(error)

    def count(self, name: str, amount=1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def count_ledger(self, ledger: CostLedger) -> None:
        """Fold one statement's private cost ledger into the pass counts."""
        self.count("sim_io_ms", ledger.io_ms)
        self.count("sim_cpu_ms", ledger.cpu_ms)
        self.count("disk_requests", ledger.disk.requests)
        self.count("pages_read", ledger.disk.pages_read)
        self.count("buffer_hits", ledger.buffer_hits)
        self.count("buffer_misses", ledger.buffer_misses)

    def close_lane(self) -> None:
        """The statements added since the last call were one connection's."""
        self.lanes.append(self.statements - sum(self.lanes))

    def merge(self, other: "PassResult") -> None:
        """Append another connection's share of the same pass
        (``busy_s`` is the caller's to set: connections overlap)."""
        self.latencies_ms += other.latencies_ms
        self.cpus_ms += other.cpus_ms
        self.lanes += other.lanes
        self.rows += other.rows
        self.failed += other.failed
        self.failures += other.failures
        for name, amount in other.counts.items():
            self.count(name, amount)


class EngineCounts:
    """Compile and plan-cache counters of a database over one pass."""

    NAMES = ("sql_compiles", "cache_hits", "cache_misses", "cache_evictions")

    def __init__(self, db) -> None:
        self.db = db
        self.before = self._read()

    def _read(self) -> tuple:
        cache = self.db.plan_cache.stats
        return (self.db.sql_compile_count, cache.hits, cache.misses,
                cache.evictions)

    def into(self, result: PassResult) -> None:
        for name, before, after in zip(self.NAMES, self.before, self._read(),
                                       strict=True):
            result.count(name, after - before)


def end_to_end(passes: list[PassResult], setup_s: list[float],
               rss_kb: int) -> dict:
    """The seven end-to-end metrics of one run, as ``{value, samples}``.

    The schedule is fixed, so statement ``i`` is the same statement in every
    pass: its latency (and CPU time) is the **median of its executions**
    over the measured passes.  Throughput is the statements over the sum of
    those medians (the slowest connection's sum when there are several),
    percentiles are over them.  On a host whose speed moves from second to
    second this is markedly steadier than the median of per-pass figures,
    because a stall spoils one execution of a statement, not a pass.
    ``samples`` keeps the per-pass figures (per set-up for ``setup_s``) so
    that ``compare.py`` can tell a difference from run-to-run spread.
    """
    first = passes[0]
    latency = np.median([p.latencies_ms for p in passes], axis=0)
    cpu_ms = np.median([p.cpus_ms for p in passes], axis=0).sum() \
        + statistics.median(p.child_cpu_s for p in passes) * 1e3
    edges = np.cumsum([0, *first.lanes])
    busy_s = max(latency[a:b].sum()
                 for a, b in zip(edges, edges[1:], strict=False)) / 1e3
    values = {
        "qps": first.statements / busy_s,
        "rows_per_s": first.rows / busy_s,
        "p50_ms": percentile(latency, 50),
        "p95_ms": percentile(latency, 95),
        "cpu_ms_per_op": cpu_ms / first.statements,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    samples = {
        "qps": [p.statements / p.busy_s for p in passes],
        "rows_per_s": [p.rows / p.busy_s for p in passes],
        "p50_ms": [percentile(p.latencies_ms, 50) for p in passes],
        "p95_ms": [percentile(p.latencies_ms, 95) for p in passes],
        "cpu_ms_per_op": [p.cpu_s * 1e3 / p.statements for p in passes],
        "setup_s": setup_s,
    }
    return {name: {"value": float(value), **(
        {"samples": samples[name]} if name in samples else {})}
        for name, value in values.items()}


def gate(checked: list[PassResult], *repeating: list[PassResult]) -> dict:
    """The correctness gate over some passes.

    Every statement of ``checked`` counts as attempted and its wrong answers
    as failed; each group in ``repeating`` is passes over one schedule, whose
    counters must be identical, and every counter that is not is one more
    failure.
    """
    drift = sorted({name for group in repeating for p in group[1:]
                    for name in set(group[0].counts) | set(p.counts)
                    if p.counts.get(name) != group[0].counts.get(name)})
    failures = [f for p in checked for f in p.failures]
    failures += [f"{name} did not repeat exactly across passes"
                 for name in drift]
    return {"attempted": sum(p.statements for p in checked),
            "failed": sum(p.failed for p in checked) + len(drift),
            "failures": failures[:5]}


class Trace:
    """The spans of one traced pass, kept in memory until the run ends.

    A span is ``[name, start, end, parent, statement]``; ``parent`` is the
    index of the span that caused it (-1 for a statement's root span) and
    every span of one statement carries that statement's number.  The part
    of a name before the first dot is its layer.
    """

    ROOT = "stmt"

    def __init__(self) -> None:
        self.spans: list[list] = []

    def begin(self, name: str, parent: int = -1, statement: int = -1) -> int:
        self.spans.append([name, now(), 0.0, parent, statement])
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self.spans[index][2] = now()

    def layer_shares(self) -> dict[str, float]:
        """Each layer's self time as a share of the statements' total time.

        A span's self time is its duration minus its children's; the root
        spans' own self time (harness glue between the calls) is the
        unaccounted share, so the shares sum to 1.
        """
        children = [0.0] * len(self.spans)
        for _name, start, end, parent, _stmt in self.spans:
            if parent >= 0:
                children[parent] += end - start
        total = 0.0
        layers: dict[str, float] = {}
        for i, (name, start, end, parent, _stmt) in enumerate(self.spans):
            if parent < 0:
                total += end - start
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + (end - start) - children[i]
        return {layer: t / total for layer, t in layers.items()}

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _p, _s in self.spans
                if n == name]

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            json.dump({"columns": ["name", "start", "end", "parent",
                                   "statement"],
                       "spans": self.spans}, out)
