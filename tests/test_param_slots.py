"""Live executions of one prepared statement keep their own parameters.

A parameter inside a computed value (an aggregate argument, a select-list
expression) is read from the bound statement's one
:class:`~repro.optimizer.params.ParamBox`.  Each execution's run refills
that box before every pull, so two cursors of one statement — or two
``execute`` frames on one server statement handle — each compute with
the values they were executed with, whatever order they are pulled in.
Answers are checked against a plain-Python fold over the table's rows.
"""

import random

import pytest

from repro.database import Database
from repro.server.admission import AdmissionController
from repro.server.session import ServerFront
from repro.storage.types import Schema

ROWS = [(i, i % 7) for i in range(100)]
WIDE_ROWS = [(i, i % 7) for i in range(5_000)]

SUM_SQL = "SELECT sum(a + :k) AS s FROM t WHERE b < :hi"
#: One group per row; the map over the aggregate is computed per pull.
MAP_SQL = ("SELECT a, sum(b + :k) * :m AS x FROM t WHERE b < :hi "
           "GROUP BY a")


def _db(rows):
    db = Database()
    db.load_table("t", Schema.of_ints(["a", "b"]), rows)
    return db


def _sum(rows, k, hi):
    return [(float(sum(a + k for a, b in rows if b < hi)),)]


def _map(rows, k, m, hi):
    return [(a, float(b + k) * m) for a, b in rows if b < hi]


def test_two_cursors_of_one_statement_keep_their_own_values():
    conn = _db(ROWS).connect(cold=False)
    statement = conn.prepare(SUM_SQL)
    first = statement.execute({"k": 1, "hi": 7})
    second = statement.execute({"k": 1000, "hi": 7})
    assert first.fetchall() == _sum(ROWS, 1, 7) == [(5050.0,)]
    assert second.fetchall() == _sum(ROWS, 1000, 7)


def test_a_one_shot_run_between_fetches_leaves_the_cursor_alone():
    conn = _db(WIDE_ROWS).connect(cold=False)
    statement = conn.prepare(MAP_SQL)
    cursor = statement.execute({"k": 2, "m": 3, "hi": 5})
    head = cursor.fetchmany(700)
    assert statement.run({"k": -3, "m": 7, "hi": 6}).rows \
        == _map(WIDE_ROWS, -3, 7, 6)
    assert head + cursor.fetchall() == _map(WIDE_ROWS, 2, 3, 5)


@pytest.mark.parametrize("seed", range(6))
def test_interleaved_fetches_each_compute_with_their_own_values(seed):
    conn = _db(WIDE_ROWS).connect(cold=False)
    statement = conn.prepare(MAP_SQL)
    bindings = [(1, 2, 7), (-2, 5, 3), (5, -1, 6), (0, 3, 2)]
    cursors = [statement.execute({"k": k, "m": m, "hi": hi})
               for k, m, hi in bindings]
    got = [[] for _ in cursors]
    rng = random.Random(seed)
    live = list(range(len(cursors)))
    while live:
        i = rng.choice(live)
        rows = cursors[i].fetchmany(rng.choice([1, 300, 1024, 2500]))
        if not rows:
            live.remove(i)
        got[i].extend(rows)
    assert got == [_map(WIDE_ROWS, *binding) for binding in bindings]


def test_a_statement_without_a_parameter_in_a_value_has_no_slots():
    conn = _db(ROWS).connect(cold=False)
    plain = conn.prepare("SELECT a, b FROM t WHERE b < :hi ORDER BY b")
    assert plain._bound.param_box is None
    assert plain.execute({"hi": 3})._run._params is None
    valued = conn.prepare(SUM_SQL)
    assert valued._bound.param_box is not None


def test_two_execute_frames_on_one_statement_handle():
    db = _db(ROWS)
    front = ServerFront(db, admission=AdmissionController(db))
    session = front.session()
    [prepared] = session.handle({"op": "prepare", "id": 0, "sql": SUM_SQL})
    cursors = []
    for rid, k in ((1, 1), (2, 1000)):
        [executing] = session.handle({
            "op": "execute", "id": rid,
            "statement": prepared["statement"],
            "params": {"k": k, "hi": 7},
        })
        cursors.append(executing["cursor"])
    answers = []
    for rid, cid in enumerate(cursors, start=3):
        [rows] = session.handle({"op": "fetch", "id": rid, "cursor": cid})
        assert rows["done"]
        answers.append([tuple(row) for row in rows["rows"]])
    assert answers == [_sum(ROWS, 1, 7), _sum(ROWS, 1000, 7)]
    session.close()
