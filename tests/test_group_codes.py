"""Grouping by codes is the row loop.

``HashAggregate`` finds each row's group from small-int key codes — a
heap image's object columns carry their dictionary (``CodedColumn``),
every other key column is coded per batch — never by hashing a tuple per
row.  The reference here is the per-row loop it replaced: zip the key
values, look each tuple up in a dict, give an unseen one the next
ordinal.  Over every kind of key payload and selection, both give the
same rows in the same order (first-seen groups, first-seen key objects)
with bitwise-equal aggregates, compared by ``repr`` so that ``1`` /
``1.0`` / ``True``, ``-0.0`` / ``0.0`` and NaN all count.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database import Database
from repro.exec.aggregates import AggSpec, HashAggregate, _Fold
from repro.exec.iterator import Operator
from repro.exec.values import arith, column, compute, constant
from repro.storage.chunk import Chunk, CodedColumn, extend_column
from repro.storage.types import Column, ColumnType, Schema

CHARS = ["A", "N", "R", "F"]
INTS = [-2, 0, 1, 3, 7]
FLOATS = [0.0, -0.0, 1.5, math.nan, 2.0, -3.25]
MIXED = [None, 1, 1.0, True, 0, False, -0.0, 0.0, 2, "x"]

#: Key kinds: how a key column's payload is built from drawn values.
KINDS = {
    # A heap image's CHAR column: coded.
    "char": (CHARS, lambda v: extend_column([], list(v))),
    # The same values after a join or a compaction: a plain list.
    "char_plain": (CHARS, list),
    "int": (INTS, lambda v: np.array(v, dtype=np.int64)),
    "float": (FLOATS, lambda v: np.array(v, dtype=np.float64)),
    # A NULL-bearing image column of mixed numbers: coded...
    "mixed": (MIXED, lambda v: CodedColumn(v)),
    # ... and uncoded.
    "mixed_plain": (MIXED, list),
    # Computed values: an int64 array, and an object list (NULL in,
    # NULL out) from Python arithmetic over the mixed numbers.
    "computed": (INTS, lambda v: compute(arith("*", column(0), constant(2)))(
        Chunk(["x"], [np.array(v, dtype=np.int64)]))),
    "computed_obj": ([m for m in MIXED if m != "x"],
                     lambda v: compute(arith("+", column(0), constant(1)))(
                         Chunk(["x"], [list(v)]))),
}

AGGS = [
    AggSpec("count", "n"),
    AggSpec("sum", "sv", column="v"),
    AggSpec("avg", "aw", column="w"),
    AggSpec("min", "lo", column="v"),
    AggSpec("max", "hi", column="o"),
    AggSpec("count", "no", column="o"),
]


class _Source(Operator):
    """Yields prepared chunks."""

    def __init__(self, schema: Schema, make_batches):
        self.schema = schema
        self.make_batches = make_batches

    def batches(self, ctx):
        yield from self.make_batches()

    def children(self):
        return ()


def reference_rows(agg: HashAggregate, batches) -> list[tuple]:
    """The per-row ``_ordinals`` loop ``HashAggregate`` used to run."""
    folds = [_Fold(spec, agg.child.schema) for spec in agg.aggs]
    index: dict[tuple, int] = {} if agg.group_by else {(): 0}
    for fold in folds:
        fold.grow(len(index))
    for batch in batches:
        keys = zip(*[batch.column_values(p) for p in agg._group_positions],
                   strict=True)
        ords = []
        for key in keys:
            g = index.get(key)
            if g is None:
                g = index[key] = len(index)
            ords.append(g)
        ords = np.asarray(ords, dtype=np.intp)
        for fold in folds:
            fold.add(batch, ords, len(index))
    return [key + tuple(fold.result(g) for fold in folds)
            for key, g in index.items()]


def run(agg: HashAggregate) -> list[tuple]:
    return agg.collect(Database().context())


@st.composite
def cases(draw):
    """Key kinds, payloads and a batch plan over them."""
    kinds = draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=1,
                          max_size=3))
    names = [f"k{i}" for i in range(len(kinds))] + ["v", "w", "o"]
    payloads = []
    for _ in range(draw(st.integers(1, 2))):
        n = draw(st.integers(1, 40))
        cols = []
        for kind in kinds:
            domain, build = KINDS[kind]
            cols.append(build(draw(st.lists(st.sampled_from(domain),
                                            min_size=n, max_size=n))))
        cols.append(np.array(draw(st.lists(st.sampled_from(FLOATS),
                                           min_size=n, max_size=n))))
        cols.append(np.array(draw(st.lists(st.sampled_from(INTS),
                                           min_size=n, max_size=n))))
        cols.append(draw(st.lists(st.sampled_from([None, 1, 2.5, 3]),
                                  min_size=n, max_size=n)))
        payloads.append(cols)
    plan = []
    for _ in range(draw(st.integers(1, 6))):
        which = draw(st.integers(0, len(payloads) - 1))
        n = len(payloads[which][-1])
        how = draw(st.sampled_from(["none", "range", "array", "list"]))
        if how == "none":
            sel = None
        elif how == "range":
            lo = draw(st.integers(0, n - 1))
            sel = ("range", lo, draw(st.integers(lo + 1, n)))
        else:
            sel = (how, draw(st.lists(st.integers(0, n - 1), min_size=1,
                                      max_size=2 * n)))
        plan.append((which, sel))
    group_by = draw(st.permutations(range(len(kinds))))
    group_by = group_by[:draw(st.integers(1, len(kinds)))]
    return names, payloads, plan, [f"k{i}" for i in group_by]


def _batches(names, payloads, plan):
    """Fresh chunks for one run (no compacted column is shared)."""
    out = []
    for which, sel in plan:
        cols = payloads[which]
        if sel is None:
            out.append(Chunk(names, cols))
        elif sel[0] == "range":
            out.append(Chunk(names, cols, sel=range(sel[1], sel[2])))
        elif sel[0] == "array":
            out.append(Chunk(names, cols,
                             sel=np.array(sel[1], dtype=np.intp)))
        else:
            out.append(Chunk(names, cols, sel=list(sel[1])))
    return out


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cases())
def test_grouping_by_codes_is_the_row_loop(case):
    names, payloads, plan, group_by = case
    schema = Schema([Column(n, ColumnType.INT) for n in names])
    source = _Source(schema, lambda: _batches(names, payloads, plan))
    agg = HashAggregate(source, group_by, AGGS)
    want = reference_rows(agg, _batches(names, payloads, plan))
    assert repr(run(agg)) == repr(want)


def test_float_keys_keep_each_nan_and_the_first_zero():
    schema = Schema([Column("k", ColumnType.FLOAT), Column("v", ColumnType.INT)])
    keys = np.array([-0.0, math.nan, 0.0, math.nan, 1.0, -0.0])
    batches = lambda: [Chunk(["k", "v"], [keys, np.arange(6)],  # noqa: E731
                             sel=range(0, 6))]
    agg = HashAggregate(_Source(schema, batches), ["k"],
                        [AggSpec("count", "n")])
    assert repr(run(agg)) == "[(-0.0, 3), (nan, 1), (nan, 1), (1.0, 1)]"
    assert repr(run(agg)) == repr(reference_rows(agg, batches()))


def test_mixed_keys_keep_the_first_object_seen():
    schema = Schema([Column("k", ColumnType.INT), Column("v", ColumnType.INT)])
    keys = CodedColumn([True, 1, 1.0, None, 0.0, False, None])
    batches = lambda: [  # noqa: E731
        Chunk(["k", "v"], [keys, np.arange(7)], sel=np.array([2, 0, 1])),
        Chunk(["k", "v"], [keys, np.arange(7)], sel=[3, 4, 5, 6])]
    agg = HashAggregate(_Source(schema, batches), ["k"],
                        [AggSpec("count", "n")])
    assert repr(run(agg)) == "[(1.0, 3), (None, 2), (0.0, 2)]"


# -- codes belong to a payload ------------------------------------------------

ROWS = [(i, "ANRF"[i % 4], "OF"[i % 3 == 0]) for i in range(300)]
GROUP_SQL = ("SELECT flag, status, count(*) AS n, sum(id) AS s FROM t "
             "GROUP BY flag, status")


def _table():
    db = Database()
    db.load_table("t", Schema([Column("id", ColumnType.INT),
                               Column("flag", ColumnType.CHAR, 1),
                               Column("status", ColumnType.CHAR, 1)]), ROWS)
    return db


def _expected(rows):
    groups: dict[tuple, list] = {}
    for i, flag, status in rows:
        acc = groups.setdefault((flag, status), [0, 0.0])
        acc[0] += 1
        acc[1] += i
    return [key + (n, s) for key, (n, s) in groups.items()]


def test_a_second_execution_does_not_rebuild_the_codes():
    db = _table()
    image = db.table("t").heap.image()
    flag = image.columns[1]
    assert isinstance(flag, CodedColumn)
    conn = db.connect()
    assert conn.run(GROUP_SQL).rows == _expected(ROWS)
    built = flag.dictionary()
    assert built[0] == ["A", "N", "R", "F"]
    assert built[1].dtype == np.uint8
    assert conn.run(GROUP_SQL).rows == _expected(ROWS)
    assert db.table("t").heap.image() is image
    assert flag.dictionary() is built


def test_extend_makes_a_new_payload_and_old_chunks_keep_theirs():
    db = _table()
    heap = db.table("t").heap
    conn = db.connect()
    assert conn.run(GROUP_SQL).rows == _expected(ROWS)
    before = heap.image()
    old_flag = before.columns[1]
    handed_out = before[10:200]
    more = [(300 + i, "XYA"[i % 3], "OZ"[i % 2]) for i in range(50)]
    db.append_rows("t", more)
    after = heap.image()
    assert after.columns[1] is not old_flag
    # The group-by sees the new rows' values, in first-seen order.
    assert conn.run(GROUP_SQL).rows == _expected(ROWS + more)
    assert after.columns[1].dictionary()[0] == ["A", "N", "R", "F", "X", "Y"]
    # A chunk handed out before the extend still groups by its payload.
    schema = db.table("t").schema
    agg = HashAggregate(_Source(schema, lambda: [handed_out]),
                        ["flag", "status"],
                        [AggSpec("count", "n"), AggSpec("sum", "s", "id")])
    assert run(agg) == _expected(ROWS[10:200])
    assert old_flag.dictionary()[0] == ["A", "N", "R", "F"]
