"""Shard-parallel execution: Exchange and ShardedScan.

One logical scan over a partitioned table becomes N physical scans —
one per shard, each a :class:`ShardedScan` wrapping whichever access
path the planner chose for that shard — merged by an :class:`Exchange`.
The exchange is the intra-query parallelism model of this engine:

* **Cooperative, chunk-granular, deterministic.**  Shard scans are
  pulled in round-robin order, one batch per turn, on the caller's
  thread — the same interleaving discipline the
  :class:`~repro.exec.scheduler.CooperativeScheduler` applies between
  queries, applied within one.  No threads, no nondeterminism.
* **Overlapped simulated time.**  While K shards are still producing,
  each worker's charges are counted in the clock's row of divisor K
  (:meth:`~repro.storage.disk.SimClock.set_divisor`), whose
  milliseconds are divided by K: K shard workers progress concurrently,
  so one unit of per-shard work moves *completion time* by 1/K.  As
  shards drain, survivors speed up less (K shrinks) — the straggler
  tail of real parallel scans.  The
  coordinator's merge cost (:meth:`~repro.context.ExecutionContext.
  charge_exchange` per row) stays undivided: it is the serial fraction,
  the Amdahl term the shard-scaling experiment quantifies.
* **One spindle per shard.**  Each shard's disk-head position is saved
  after its slice and restored before its next one, so interleaved
  shards do not pay each other's seek penalties — shard files have
  disjoint file ids, making the swap exact.
* **Conserved accounting.**  Every pull runs inside a per-shard
  attribution window (:meth:`~repro.runtime.EngineRuntime.
  begin_shard_attribution`), nested in the query's own window; the
  merge cost is charged inside the producing shard's window.  Summing
  the per-shard ledgers therefore reproduces the parent ledger — and
  the runtime totals — exactly: every counter is an integer.

The serial baseline of ``experiments/shards.py`` is the same query over
one shard.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.context import ExecutionContext
from repro.errors import ExecutionError
from repro.exec.iterator import Chunk, Operator
from repro.exec.misc import RowCounter
from repro.runtime import CostLedger


class ShardedScan(Operator):
    """One shard's scan, labeled with its shard identity.

    A thin wrapper around whichever access path the planner chose for
    this shard — it delegates ``batches()`` unchanged — existing so
    ``explain()`` output and telemetry name the shard, and so the
    Exchange can attribute the slice to the right ledger without
    inspecting the child.
    """

    def __init__(self, child: Operator, shard_name: str,
                 shard_index: int):
        self.child = child
        self.shard_name = shard_name
        self.shard_index = shard_index
        self.schema = child.schema

    def name(self) -> str:
        return f"ShardedScan({self.shard_name})"

    def children(self) -> tuple[Operator, ...]:
        return (self.child,)

    def batches(self, ctx: ExecutionContext) -> Iterator[Chunk]:
        return self.child.batches(ctx)


class Exchange(Operator):
    """Merge N shard scans, interleaved round-robin, overlapped in time.

    Each child is a :class:`ShardedScan` (counted or not), which names
    the shard in the ``shard.start`` / ``shard.finish`` trace events.

    After a run, :attr:`shard_ledgers` holds one
    :class:`~repro.runtime.CostLedger` per child with that shard's
    share of the charges (merge cost included); their sum reproduces
    the query ledger.  See the module docstring for the execution
    model.
    """

    def __init__(self, children: Sequence[Operator],
                 table_name: str | None = None,
                 scheme: str | None = None):
        if not children:
            raise ExecutionError("Exchange requires at least one child")
        for child in children[1:]:
            if child.schema.column_names != children[0].schema.column_names:
                raise ExecutionError(
                    "Exchange children must share one schema; "
                    f"{children[0].name()} and {child.name()} differ")
        self._children = tuple(children)
        self.table_name = table_name
        self.scheme = scheme
        self.schema = self._children[0].schema
        #: Per-shard cost breakdown of the most recent run.
        self.shard_ledgers: tuple[CostLedger, ...] = ()

    def name(self) -> str:
        origin = f"{self.table_name}, " if self.table_name else ""
        return (f"Exchange({origin}{len(self._children)} shards, "
                f"{self.scheme or 'round_robin'})")

    def children(self) -> tuple[Operator, ...]:
        return self._children

    def _shard_label(self, index: int) -> str:
        child = self._children[index]
        if isinstance(child, RowCounter):  # the planner counts every node
            child = child.child
        return child.shard_name

    def batches(self, ctx: ExecutionContext) -> Iterator[Chunk]:
        runtime = ctx.runtime
        clock = ctx.clock
        disk = ctx.disk
        tracer = runtime.tracer
        n = len(self._children)
        ledgers = tuple(CostLedger() for _ in range(n))
        self.shard_ledgers = ledgers
        iters = [child.batches(ctx) for child in self._children]
        heads: list[tuple[int, int] | None] = [None] * n
        produced = [0] * n
        if tracer.enabled:
            for i in range(n):
                tracer.emit("shard.start", tracer.current_query_id,
                            shard=self._shard_label(i),
                            shards=n, op=self.name())
        active = list(range(n))
        turn = 0
        while active:
            if turn >= len(active):
                turn = 0
            i = active[turn]
            runtime.begin_shard_attribution(ledgers[i])
            try:
                saved_divisor = clock.divisor
                saved_head = disk.head_state()
                disk.set_head_state(heads[i])
                clock.set_divisor(saved_divisor * len(active))
                try:
                    batch = next(iters[i], None)
                finally:
                    clock.set_divisor(saved_divisor)
                    heads[i] = disk.head_state()
                    disk.set_head_state(saved_head)
                if batch is not None:
                    # Coordinator merge work: serial (undivided), but
                    # charged inside the producing shard's window so
                    # the per-shard ledgers still sum to the totals.
                    ctx.charge_exchange(len(batch))
            finally:
                runtime.end_shard_attribution()
            if batch is None:
                del active[turn]
                if tracer.enabled:
                    tracer.emit("shard.finish", tracer.current_query_id,
                                value=ledgers[i].total_ms,
                                shard=self._shard_label(i),
                                rows=produced[i],
                                io_ms=ledgers[i].io_ms,
                                cpu_ms=ledgers[i].cpu_ms,
                                pages_read=ledgers[i].disk.pages_read)
                continue
            produced[i] += len(batch)
            turn += 1
            yield batch
