"""The execution protocol: ``batches()`` is the operator, ``rows()`` a view.

Charges are pinned against ``golden_row_path.json``: every plan in
:data:`CASES` was drained through the tuple-at-a-time ``rows()`` bodies at
the last commit that still had them, and what that run produced — row
count, SHA-256 of ``repr(rows)``, simulated io/cpu/total ms, pages read,
disk requests and the ``SmoothScanStats`` counters — is the frozen
reference ``batches()`` must keep reproducing: rows exactly, milliseconds
within ``rel=1e-9``, integer counters exactly.  SmoothScan gets the full
configuration grid (policy × trigger × ordered), including the
morph-boundary interplay of the Tuple ID cache and Result Cache under
non-eager triggers.
"""

import hashlib
import json
import sqlite3
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.morph_join import MorphingIndexJoin
from repro.core.policy import (
    ElasticPolicy,
    GreedyPolicy,
    SelectivityIncreasePolicy,
)
from repro.core.smooth_scan import SmoothScan
from repro.core.switch_scan import SwitchScan
from repro.core.trigger import (
    EagerTrigger,
    OptimizerDrivenTrigger,
    SLADrivenTrigger,
)
from repro.exec.aggregates import AggSpec, HashAggregate
from repro.exec.expressions import (
    And,
    Between,
    ColumnComparison,
    Comparison,
    CompareOp,
    InList,
    KeyRange,
    Not,
    Or,
    StringMatch,
    TruePredicate,
)
from repro.exec.iterator import DEFAULT_BATCH_SIZE, Operator, chunked
from repro.exec.joins import HashJoin
from repro.exec.misc import Filter, Limit, Project, Rename
from repro.exec.scans import FullTableScan, IndexScan, SortScan
from repro.exec.sort import Sort
from repro.exec import values
from repro.storage.chunk import Chunk
from repro.storage.disk import KINDS
from repro.storage.types import Column, ColumnType, Schema

from kleene import truth

ALL_POLICIES = [GreedyPolicy(), SelectivityIncreasePolicy(), ElasticPolicy()]
TRIGGERS = {
    "eager": EagerTrigger,
    "optimizer": lambda: OptimizerDrivenTrigger(10),
    "sla": lambda: SLADrivenTrigger(25),
}

GOLDEN = json.loads(
    Path(__file__).with_name("golden_row_path.json").read_text()
)["cases"]


# -- the golden grid -------------------------------------------------------

#: case id -> ``factory(table)`` building a fresh plan over ``small_table``.
CASES = {}

for _policy in ALL_POLICIES:
    for _trigger in TRIGGERS:
        for _ordered in (False, True):
            CASES[f"smooth/{'ord' if _ordered else 'unord'}-{_trigger}-"
                  f"{_policy.name}"] = (
                lambda t, p=_policy, g=_trigger, o=_ordered: SmoothScan(
                    t, "c2", KeyRange(0, 400), residual=Between("c3", 0, 5),
                    policy=p, trigger=TRIGGERS[g](), ordered=o,
                )
            )

CASES["smooth/stats"] = lambda t: SmoothScan(
    t, "c2", KeyRange(0, 700), ordered=True,
    trigger=OptimizerDrivenTrigger(15),
)
CASES["smooth/spill"] = lambda t: SmoothScan(
    t, "c2", KeyRange(0, 1000), ordered=True,
    result_cache_memory_limit=2_000,
)

CASES["scan/full"] = lambda t: FullTableScan(t, Between("c2", 0, 650))
CASES["scan/index"] = lambda t: IndexScan(t, "c2", KeyRange(0, 650))
CASES["scan/sort"] = lambda t: SortScan(
    t, "c2", KeyRange(0, 650), residual=InList("c3", (1, 2, 3)),
)
CASES["scan/switch"] = lambda t: SwitchScan(
    t, "c2", KeyRange(0, 650), threshold=40,
)

CASES["pipeline"] = lambda t: Sort(
    Project(
        Filter(FullTableScan(t, Between("c2", 0, 800)),
               InList("c3", (0, 1, 2, 3, 4))),
        ["c2", "c3"],
    ),
    ["c2", "c3"],
)

for _n in (0, 1, 37, 10_000):
    CASES[f"limit/{_n}"] = lambda t, n=_n: Limit(FullTableScan(t), n)

for _join_type in ("inner", "left", "semi", "anti"):
    CASES[f"join/hash-{_join_type}"] = lambda t, jt=_join_type: HashJoin(
        Project(FullTableScan(t, Between("c2", 0, 90)), ["c1", "c2"]),
        Rename(Project(FullTableScan(t, Between("c2", 0, 60)), ["c2"]),
               {"c2": "d2"}),
        ["c2"], ["d2"], join_type=jt,
    )
CASES["join/morphing"] = lambda t: MorphingIndexJoin(
    Rename(Project(FullTableScan(t, Between("c1", 0, 300)), ["c1"]),
           {"c1": "o_key"}),
    t, "c2", "o_key",
)

CASES["aggregate"] = lambda t: HashAggregate(
    FullTableScan(t, Between("c2", 0, 900)),
    group_by=["c3"],
    aggs=[AggSpec("count", "n", column=None),
          AggSpec("sum", "total", column="c2"),
          AggSpec("max", "hi", column="c2", ctype=t.schema.columns[1].ctype)],
)

#: Frozen from the parent's ``batches()`` — there the base-class shim over
#: ``IndexScan.rows()``: a Limit stops the scan only at a flush boundary,
#: so these pin *where* the native body flushes, not just what it yields.
for _n in (5, 1_500):
    CASES[f"shim/limit-index-{_n}"] = lambda t, n=_n: Limit(
        IndexScan(t, "c2", KeyRange(0, 650)), n,
    )


def smooth_stats_fields(stats):
    """The ``SmoothScanStats`` counters the golden file records."""
    fields = {
        "probes": stats.probes,
        "produced": stats.produced,
        "pages_fetched": stats.pages_fetched,
        "pages_with_results": stats.pages_with_results,
        "mode0_tuples": stats.mode0_tuples,
        "mode0_page_fetches": stats.mode0_page_fetches,
        "morphed_at": stats.morphed_at,
        "max_region_used": stats.max_region_used,
        "region_trace": [list(step) for step in stats.region_trace],
    }
    if stats.result_cache is not None:
        fields["result_cache_inserts"] = stats.result_cache.inserts
        fields["result_cache_hits"] = stats.result_cache.hits
    return fields


def observe(db, plan, rows):
    """What the golden file records about one finished cold run."""
    out = {
        "rows": len(rows),
        "sha256": hashlib.sha256(repr(rows).encode()).hexdigest(),
        "io_ms": db.clock.io_ms,
        "cpu_ms": db.clock.cpu_ms,
        "total_ms": db.clock.total_ms,
        "pages_read": db.disk.stats.pages_read,
        "disk_requests": db.disk.stats.requests,
    }
    if isinstance(plan, SmoothScan):
        out["stats"] = smooth_stats_fields(plan.last_stats)
    return out


def drain_batches(db, plan):
    batches = list(plan.batches(db.cold_run()))
    for batch in batches:
        assert len(batch), "operators must not yield empty batches"
    return [row for batch in batches for row in batch]


def assert_matches_golden(small_table, case, costs=True):
    """``batches()`` reproduces the frozen row-path run of ``case``."""
    db, table = small_table
    plan = CASES[case](table)
    rows = drain_batches(db, plan)
    got, want = observe(db, plan, rows), GOLDEN[case]
    assert (got["rows"], got["sha256"]) == (want["rows"], want["sha256"])
    if costs:
        for field in ("io_ms", "cpu_ms", "total_ms"):
            assert got[field] == pytest.approx(want[field], rel=1e-9), field
        assert got["pages_read"] == want["pages_read"]
        assert got["disk_requests"] == want["disk_requests"]
    assert got.get("stats") == want.get("stats")
    return rows


#: Golden entries of deleted operators (the merge join and the block
#: nested-loop join), kept so the frozen file stays as recorded.
RETIRED = ("join/merge", "join/nlj")


def test_golden_file_covers_exactly_the_grid():
    assert sorted(GOLDEN) == sorted([*CASES, *RETIRED])


def _plan_tree(op):
    yield op
    for child in op.children():
        yield from _plan_tree(child)


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_operator_yields_only_nonempty_chunks(small_table, case):
    """One batch type: every operator of every plan in the grid — not just
    the root — hands its parent only non-empty ``Chunk`` batches."""
    db, table = small_table
    plan = CASES[case](table)
    seen = []

    def checked(op):
        batches = op.batches

        def wrapper(ctx):
            for batch in batches(ctx):
                assert type(batch) is Chunk and len(batch), op.name()
                seen.append(op)
                yield batch
        return wrapper

    for op in _plan_tree(plan):
        op.batches = checked(op)
    rows = list(plan.rows(db.cold_run()))
    assert bool(rows) == (plan in seen)


# -- one protocol ----------------------------------------------------------


class _ListBatches(Operator):
    def __init__(self, batches):
        self.schema = Schema.of_ints(["a"])
        self._batches = batches

    def batches(self, ctx):
        for rows in self._batches:
            yield Chunk.from_rows(self.schema, rows)


def test_operator_without_batches_raises_at_construction():
    # Built with type() so repro-lint (RPL106) has no class body to flag.
    no_batches = type("NoBatches", (Operator,),
                      {"schema": Schema.of_ints(["a"])})
    with pytest.raises(TypeError, match="batches"):
        no_batches()


def test_rows_view_equals_flattened_batches(db):
    data = [[(i,) for i in range(10)], [(10,)], [(i,) for i in range(11, 40)]]
    op = _ListBatches(data)
    assert list(op.rows(db.context())) == [r for b in data for r in b]
    # The view is where the batch contract's "never empty" is enforced.
    with pytest.raises(AssertionError, match="empty batch"):
        list(_ListBatches([[(1,)], []]).rows(db.context()))


# -- vectorized predicates ----------------------------------------------


PREDICATES = [
    TruePredicate(),
    Comparison("c2", CompareOp.LT, 300),
    Comparison("c2", CompareOp.EQ, 42),
    Comparison("c2", CompareOp.NE, 42),
    Between("c2", 100, 500),
    Between("c2", 100, 500, lo_inclusive=False, hi_inclusive=True),
    InList("c3", (1, 3, 5)),
    And([Between("c2", 0, 700), InList("c3", (0, 2, 4, 6, 8))]),
    Or([Comparison("c2", CompareOp.LT, 50),
        Comparison("c2", CompareOp.GE, 900)]),
    Not(Between("c2", 200, 800)),
    And([]),
    Or([]),
]


BIG = 2 ** 63

#: The rest of the predicate classes, and the float, CHAR and beyond-int64
#: columns (a chunk holds ``b`` as an array only while it fits int64).
MORE_PREDICATES = [
    StringMatch("s", "prefix", "a"),
    StringMatch("s", "suffix", "b"),
    StringMatch("s", "contains", "ab"),
    InList("s", ("a", "ab")),
    ColumnComparison("c2", CompareOp.LT, "c3"),
    ColumnComparison("f", CompareOp.GE, "c3"),
    Comparison("f", CompareOp.LT, 0.5),
    Between("f", -2, 2.5, lo_inclusive=False),
    Comparison("b", CompareOp.GT, BIG),
    Comparison("b", CompareOp.LE, BIG - 1),
    Between("b", -3, BIG + 1, hi_inclusive=True),
    InList("b", (BIG, 0)),
    Or([And([Comparison("c2", CompareOp.GE, 500),
             StringMatch("s", "prefix", "b")]),
        Not(InList("c3", (1, 2)))]),
]

#: NULL where the rules bite: ``NOT`` over a NULL at the top, a listed
#: NULL, a NULL constant, a NULL bound, and connectives mixing NULL parts.
NULL_PREDICATES = [
    Not(Comparison("f", CompareOp.LT, 0.5)),
    Not(Not(StringMatch("s", "contains", "a"))),
    Not(InList("c3", (1, 2))),
    Not(ColumnComparison("c2", CompareOp.LT, "c3")),
    Not(Between("f", -1, 1)),
    InList("s", ("a", None)),
    Not(InList("c3", (1, None))),
    Comparison("f", CompareOp.EQ, None),
    Not(Comparison("b", CompareOp.NE, None)),
    Between("c2", 100, None, hi_inclusive=True),
    Not(Between("c2", None, 500)),
    Not(And([Comparison("c2", CompareOp.GE, 500),
             StringMatch("s", "prefix", "a")])),
    Or([Comparison("f", CompareOp.GT, 1.0), Not(Comparison("c3", CompareOp.EQ, 4))]),
    Not(Or([Comparison("b", CompareOp.NE, 0), Comparison("c2", CompareOp.LT, 300)])),
]

PREDICATE_SCHEMA = Schema([
    Column("c1"), Column("c2"), Column("c3"),
    Column("f", ColumnType.FLOAT), Column("s", ColumnType.CHAR, 4),
    Column("b", ColumnType.BIGINT),
])

_row = st.tuples(
    st.integers(0, 99), st.integers(0, 999), st.integers(0, 9),
    st.floats(-3, 3, allow_nan=False),
    st.text("ab", max_size=3),
    st.integers(-3, 3) | st.integers(BIG - 2, BIG + 2),
)

_SQL_OPS = {CompareOp.NE: "<>"}


def _sql(predicate):
    """``predicate`` as sqlite3 WHERE text (GLOB: case-sensitive LIKE)."""
    def lit(v):
        return "NULL" if v is None else repr(v)

    if isinstance(predicate, TruePredicate):
        return "1"
    if isinstance(predicate, Comparison):
        op = _SQL_OPS.get(predicate.op, predicate.op.value)
        return f"{predicate.column} {op} {lit(predicate.value)}"
    if isinstance(predicate, ColumnComparison):
        op = _SQL_OPS.get(predicate.op, predicate.op.value)
        return f"{predicate.left} {op} {predicate.right}"
    if isinstance(predicate, Between):
        lo = ">=" if predicate.lo_inclusive else ">"
        hi = "<=" if predicate.hi_inclusive else "<"
        c = predicate.column
        return (f"({c} {lo} {lit(predicate.lo)} AND "
                f"{c} {hi} {lit(predicate.hi)})")
    if isinstance(predicate, InList):
        items = ", ".join(lit(v) for v in predicate.values)
        return f"{predicate.column} IN ({items})"
    if isinstance(predicate, StringMatch):
        pattern = {"prefix": "{}*", "suffix": "*{}",
                   "contains": "*{}*"}[predicate.kind]
        return f"{predicate.column} GLOB '{pattern.format(predicate.value)}'"
    if isinstance(predicate, (And, Or)):
        if not predicate.parts:
            return "1" if isinstance(predicate, And) else "0"
        joiner = " AND " if isinstance(predicate, And) else " OR "
        return "(" + joiner.join(_sql(p) for p in predicate.parts) + ")"
    assert isinstance(predicate, Not)
    return f"NOT ({_sql(predicate.part)})"


def _verdicts(predicate, view):
    """Per row of ``view``: what the compiled kernel says (True / False /
    None for UNKNOWN), with its two masks checked for shape."""
    true, unknown = predicate.compile(PREDICATE_SCHEMA)(view)
    n = len(view)
    assert true is None or len(true) == n
    assert unknown is None or len(unknown) == n
    assert true is not None or unknown is None
    out = []
    for i in range(n):
        is_true = true is None or bool(true[i])
        is_unknown = unknown is not None and bool(unknown[i])
        assert not (is_true and is_unknown)
        out.append(True if is_true else None if is_unknown else False)
    return out


@settings(max_examples=80, deadline=None)
@given(rows=st.lists(st.tuples(_row, st.frozensets(st.integers(1, 5))),
                     max_size=40),
       nulls=st.booleans(), every=st.integers(1, 3))
def test_the_kernel_is_kleene_logic(rows, nulls, every):
    """Every predicate class compiles to SQL's three-valued logic: the
    kernel's TRUE and UNKNOWN rows are the plain-Python evaluator's
    (``tests/kleene.py``), over a chunk and a selection of it;
    ``bind_mask`` / ``bind_chunk`` keep the TRUE rows and ``CASE`` takes
    THEN on exactly those.  With NULLs, sqlite3 witnesses the WHERE and
    the CASE for every predicate that fits its 64-bit integers."""
    if nulls:
        rows = [tuple(None if i in gone else v for i, v in enumerate(row))
                for row, gone in rows]
    else:
        rows = [row for row, _gone in rows]
    chunk = Chunk.from_rows(PREDICATE_SCHEMA, rows)
    witness = None
    if nulls:
        witness = sqlite3.connect(":memory:")
        witness.execute("CREATE TABLE p (k, c1, c2, c3, f, s)")
    for view in (chunk, chunk.take(list(range(0, len(rows), every)))):
        view_rows = view.to_rows()
        if witness is not None:
            witness.execute("DELETE FROM p")
            witness.executemany("INSERT INTO p VALUES (?, ?, ?, ?, ?, ?)",
                                [(k,) + row[:5]
                                 for k, row in enumerate(view_rows)])
        for predicate in PREDICATES + MORE_PREDICATES + NULL_PREDICATES:
            want = [truth(predicate, PREDICATE_SCHEMA, row)
                    for row in view_rows]
            assert _verdicts(predicate, view) == want, predicate
            kept = [row for row, t in zip(view_rows, want, strict=True)
                    if t is True]
            mask = predicate.bind_mask(PREDICATE_SCHEMA)(view)
            by_mask = view_rows if mask is None else [
                row for row, keep in zip(view_rows, mask, strict=True)
                if keep]
            assert by_mask == kept, predicate
            filtered = predicate.bind_chunk(PREDICATE_SCHEMA)(view)
            assert ([] if filtered is None else filtered.to_rows()) \
                == kept, predicate
            case_of = values.case(predicate, PREDICATE_SCHEMA,
                                  values.constant(1), values.constant(0))
            then = [1 if t is True else 0 for t in want]
            assert list(values.compute(case_of)(view)) == then, predicate
            if witness is None or "b" in predicate.columns():
                continue
            text = _sql(predicate)
            assert [k for (k,) in witness.execute(
                f"SELECT k FROM p WHERE {text} ORDER BY k")] == [
                k for k, t in enumerate(want) if t is True], text
            assert [v for (v,) in witness.execute(
                f"SELECT CASE WHEN {text} THEN 1 ELSE 0 END FROM p "
                "ORDER BY k")] == then, text


# -- SmoothScan: the full configuration grid -----------------------------


@pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.name)
@pytest.mark.parametrize("trigger_name", list(TRIGGERS))
@pytest.mark.parametrize("ordered", [False, True], ids=["unord", "ord"])
def test_smooth_scan_batch_equals_rows(small_table, policy, trigger_name,
                                       ordered):
    case = (f"smooth/{'ord' if ordered else 'unord'}-{trigger_name}-"
            f"{policy.name}")
    rows = assert_matches_golden(small_table, case)
    assert rows  # the grid point actually produces data


def test_smooth_scan_batch_stats_match_row_stats(small_table):
    assert_matches_golden(small_table, "smooth/stats")
    assert GOLDEN["smooth/stats"]["stats"]["result_cache_hits"] > 0


@pytest.mark.parametrize("trigger_name", ["optimizer", "sla"])
@pytest.mark.parametrize("use_batches", [False, True], ids=["rows", "batches"])
def test_ordered_non_eager_no_duplicates(small_table, trigger_name,
                                         use_batches):
    """Tuple ID cache × Result Cache across the morph boundary.

    Under a non-eager trigger an ordered Smooth Scan produces tuples in
    mode 0 (recorded in the Tuple ID cache), then morphs; post-morph page
    probes must both skip already-produced tuples and keep parking future
    ones in the Result Cache — no tuple may come out twice.
    """
    db, table = small_table
    scan = SmoothScan(table, "c2", KeyRange(0, 500),
                      trigger=TRIGGERS[trigger_name](), ordered=True)
    ctx = db.cold_run()
    if use_batches:
        rows = [r for b in scan.batches(ctx) for r in b]
    else:
        rows = list(scan.rows(ctx))
    assert scan.last_stats.morphed_at is not None  # it did morph
    # No duplicates: row identity is the unique c1 primary key.
    c1s = [r[0] for r in rows]
    assert len(c1s) == len(set(c1s))
    # Exactly the qualifying tuples, in key order after the morph point.
    expected = sorted(
        (row for row in table.heap.image()[:].to_rows() if 0 <= row[1] < 500),
        key=lambda r: r[0],
    )
    assert sorted(rows, key=lambda r: r[0]) == expected
    keys = [r[1] for r in rows[scan.last_stats.morphed_at:]]
    assert keys == sorted(keys)


def test_smooth_scan_stats_current_when_batch_run_abandoned(small_table):
    """Early termination (e.g. Limit) must not leave stale internals.

    A generator can only be abandoned while suspended at a yield, and
    every yield site syncs the local probe ordinal back to the stats.
    """
    db, table = small_table
    scan = SmoothScan(table, "c2", KeyRange(0, 1000))
    plan = Limit(scan, 5)
    rows = [r for b in plan.batches(db.cold_run()) for r in b]
    assert len(rows) == 5
    # The probes that produced the emitted batch are recorded, not a
    # stale zero from before the first policy update.
    assert scan.last_stats.probes > 0
    assert scan.last_stats.produced >= 5


def test_smooth_scan_spill_parity(small_table):
    assert_matches_golden(small_table, "smooth/spill")


# -- the rest of the operator zoo ----------------------------------------


def test_scans_batch_equals_rows(small_table):
    for case in ("scan/full", "scan/index", "scan/sort", "scan/switch"):
        assert assert_matches_golden(small_table, case)


def test_scan_fast_paths_yield_chunks(small_table):
    """The scans hand out selections of the heap image, built from no row.

    Batches stay columnar from the heap pages to the operator boundary
    instead of being rowified in the scan.
    """
    db, table = small_table
    image = table.heap.image()
    dense = KeyRange(0, 1000)  # every tuple qualifies: dense page runs
    sparse = KeyRange(0, 20)   # a few slots per page
    for plan in (
        FullTableScan(table, Between("c2", 0, 650)),
        SortScan(table, "c2", dense),
        SortScan(table, "c2", sparse),
        SmoothScan(table, "c2", dense),  # eager + unordered
        SmoothScan(table, "c2", sparse, ordered=True),
    ):
        batches = list(plan.batches(db.cold_run()))
        assert batches, plan.name()
        for batch in batches:
            assert batch._rows is None, plan.name()
            assert all(col is whole for col, whole in zip(
                batch.columns, image.columns, strict=True)), plan.name()


def test_pipeline_batch_equals_rows(small_table):
    assert assert_matches_golden(small_table, "pipeline")


def test_limit_batch_equals_rows(small_table):
    # Rows only: a Limit stops a batch producer at a batch boundary, so
    # early-exit charges never equalled the tuple-at-a-time ones.
    _db, table = small_table
    for n in (0, 1, 37, 10_000):
        rows = assert_matches_golden(small_table, f"limit/{n}", costs=False)
        assert len(rows) == min(n, table.row_count)


def test_joins_batch_equals_rows(small_table):
    for case in ("join/hash-inner", "join/hash-left", "join/hash-semi",
                 "join/hash-anti"):
        assert_matches_golden(small_table, case)


def test_aggregate_batch_equals_rows(small_table):
    assert assert_matches_golden(small_table, "aggregate")


def test_morphing_join_batch_equals_rows(small_table):
    assert_matches_golden(small_table, "join/morphing")


# -- IndexScan: the body that used to be row-only -------------------------


def test_index_scan_batches_key_order_and_residual(small_table):
    db, table = small_table
    residual = InList("c3", (1, 2, 3))
    plan = IndexScan(table, "c2", KeyRange(100, 400), residual=residual)
    batches = list(plan.batches(db.cold_run()))
    assert all(isinstance(b, Chunk) for b in batches)
    # Flushed every DEFAULT_BATCH_SIZE rows; only the tail is short.
    assert [len(b) for b in batches[:-1]] == \
        [DEFAULT_BATCH_SIZE] * (len(batches) - 1)
    rows = [row for batch in batches for row in batch]
    keys = [row[1] for row in rows]
    assert keys == sorted(keys)
    assert sorted(rows) == sorted(
        row for row in table.heap.image()[:].to_rows()
        if 100 <= row[1] < 400 and row[2] in (1, 2, 3)
    )


class _PerTidIndexScan(IndexScan):
    """The reference: the paper's per-TID loop, one charge call at a time."""

    def batches(self, ctx):
        return chunked(self.schema.column_names, self._fetch_by_tid(ctx))

    def _fetch_by_tid(self, ctx):
        heap = self.table.heap
        rng = self.key_range
        for leaf in self.index.scan_leaf_tids(
            ctx, lo=rng.lo, hi=rng.hi,
            lo_inclusive=rng.lo_inclusive, hi_inclusive=rng.hi_inclusive,
        ):
            for tid in leaf.tolist():
                ctx.charge_index_entry()
                ctx.get_page(heap, tid // heap.tuples_per_page)
                ctx.charge_inspect()
                row = heap.row(tid)
                if truth(self.residual, self.schema, row) is True:
                    ctx.charge_emit()
                    yield row


def test_index_scan_charges_once_per_tid(observe_plan):
    """One heap-page request and one inspect per index entry, one emit
    per survivor: the paper's per-TID loop.  The block walk must count
    what that loop counts: same rows and batches, same counts per batch,
    same ledger — with and without a residual, roomy pool and thrashing
    one."""
    import random

    from repro.config import EngineConfig
    from repro.database import Database
    from repro.exec.stats import measure

    for pool_pages in (None, 4):
        db = Database(config=EngineConfig(buffer_pool_pages=pool_pages)
                      if pool_pages else None)
        rng = random.Random(123)
        table = db.load_table(
            "t", Schema.of_ints(["c1", "c2", "c3"]),
            [(i, rng.randrange(0, 1000), rng.randrange(0, 10))
             for i in range(5_000)])
        db.create_index("t", "c2")
        entries = sum(row[1] < 800 for row in table.heap.image()[:].to_rows())
        for residual in (None, InList("c3", (1, 2, 3))):
            args = (table, "c2", KeyRange(0, 800), residual)
            rows, observed = observe_plan(db, IndexScan(*args))
            wanted_rows, wanted = observe_plan(db, _PerTidIndexScan(*args))
            assert rows == wanted_rows and len(rows) > DEFAULT_BATCH_SIZE
            assert observed == wanted
            got, want = (measure(db, scan(*args))
                         for scan in (IndexScan, _PerTidIndexScan))
            assert got.ledger == want.ledger
            assert (got.io_ms, got.cpu_ms) == (want.io_ms, want.cpu_ms)
            # entry + inspect per entry, emit per survivor, hits on top.
            counts = dict(zip(KINDS, got.ledger.counts[1], strict=True))
            assert counts["index_entry"] == counts["tuple_inspect"] == entries
            assert counts["tuple_emit"] == len(rows)
            assert counts["buffer_hit"] == got.buffer_hits
            assert got.buffer_hits + got.buffer_misses > entries


def test_limit_over_index_scan_charges_frozen_shim_numbers(small_table):
    # n=5 pays for a whole first flush; n=1500 stops inside the second.
    for n in (5, 1_500):
        rows = assert_matches_golden(small_table, f"shim/limit-index-{n}")
        assert len(rows) == n


# -- The buffer pool -------------------------------------------------------


def test_buffer_get_run_keeps_strict_lru_capacity(db):
    """A run larger than the pool must not transiently over-hold pages.

    With capacity 4 and page 8 resident but oldest, fetching pages 0-9
    evicts 8 before the run reaches it: 10 honest misses, one read run.
    """
    from repro.storage.heap import HeapFile
    heap = HeapFile(file_id=0, schema=Schema.of_ints(["a"]),
                    tuples_per_page=2)
    for i in range(40):
        heap.append((i,))
    pool = db.buffer
    pool.capacity_pages = 4
    pool.get_page(heap, 8)
    pool.stats.reset()
    db.disk.reset()
    pool.get_run(heap, 0, 10)
    assert pool.stats.misses == 10
    assert pool.stats.hits == 0
    assert db.disk.stats.pages_read == 10
    assert len(pool) <= 4
