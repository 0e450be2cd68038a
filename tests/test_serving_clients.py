"""Scripted protocol clients stepped by the cooperative scheduler.

:class:`~repro.server.inprocess.ScriptedClient` is the serving
benchmark's client: a :class:`~repro.exec.scheduler.CooperativeScheduler`
visits it round-robin and it makes at most one wire request per visit on
a shared :class:`~repro.server.session.ServerFront`.  Six clients on two
in-flight slots make the admission queue real at unit-test scale.
"""

import pytest

from repro.database import Database
from repro.errors import ExecutionError
from repro.exec.scheduler import CooperativeScheduler
from repro.experiments.concurrency import CLASSIC_OPTIONS
from repro.server.admission import AdmissionController
from repro.server.inprocess import ScriptedClient
from repro.server.session import ServerFront
from repro.workloads.micro import VALUE_DOMAIN, build_micro_table

NUM_TUPLES = 6_000
NUM_CLIENTS = 6
MAX_INFLIGHT = 2

SQL = "SELECT c1, c2 FROM micro WHERE c2 >= :lo AND c2 < :hi"
#: Priced far over the SLA budget and not degradable: rejected.
FORCED_SQL = ("SELECT /*+ force_path(index) */ c1, c2 FROM micro "
              "WHERE c2 >= :lo AND c2 < :hi")


def _hi(pct):
    return round(pct / 100.0 * VALUE_DOMAIN)


@pytest.fixture()
def db():
    db = Database()
    build_micro_table(db, num_tuples=NUM_TUPLES, seed=7)
    db.analyze()
    return db


def schedule(db):
    """Six clients: prepare, probe, then a range (the last: forced)."""
    front = ServerFront(
        db, options=CLASSIC_OPTIONS,
        admission=AdmissionController(db, sla_multiple=2.0,
                                      max_inflight=MAX_INFLIGHT),
    )
    sched = CooperativeScheduler(db)
    clients = []
    for i in range(NUM_CLIENTS):
        client = sched.add_client(ScriptedClient(f"c{i + 1}", front))
        clients.append(client)
        client.prepare("st", SQL)
        client.execute("st", {"lo": 0, "hi": _hi(0.1)}, label="probe")
        if i + 1 == NUM_CLIENTS:
            client.execute(FORCED_SQL, {"lo": 0, "hi": _hi(50.0)},
                           label="forced")
        else:
            client.execute("st", {"lo": 0, "hi": _hi(1.0 + i)},
                           label=f"range{i + 1}")
    return front, sched, clients


def _count(db, hi):
    return db.connect().run(SQL, {"lo": 0, "hi": hi}).row_count


@pytest.mark.parametrize("interleave", [False, True],
                         ids=["serial", "interleaved"])
def test_one_record_per_admitted_execute(db, interleave):
    front, sched, clients = schedule(db)
    assert [c.queries_left for c in clients] == [3] * NUM_CLIENTS
    report = sched.run(cold=True, interleave=interleave)
    assert [c.queries_left for c in clients] == [0] * NUM_CLIENTS
    assert len(report.records) == 2 * NUM_CLIENTS - 1
    assert front.admission.stats.admitted == len(report.records)
    for i, client in enumerate(clients):
        labels = [r.label for r in report.for_client(client.name)]
        last = [] if i + 1 == NUM_CLIENTS else [f"range{i + 1}"]
        assert labels == ["probe"] + last
    for record in report.records:
        hi = _hi(0.1) if record.label == "probe" \
            else _hi(float(record.label[len("range"):]))
        assert record.rows == _count(db, hi)
    for client in clients:
        client.close()
    assert front.sessions == 0 and front.inflight == 0


def test_a_rejected_execute_makes_no_record(db):
    _front, sched, clients = schedule(db)
    report = sched.run(cold=True)
    assert all(r.label != "forced" for r in report.records)
    assert [c.rejections for c in clients[:-1]] == [[]] * (NUM_CLIENTS - 1)
    [(label, detail)] = clients[-1].rejections
    assert label == "forced"
    assert detail["action"] == "reject"
    assert detail["estimated_cost"] > detail["budget"]


def test_a_parked_execute_latency_includes_its_queue_wait(db):
    front, sched, clients = schedule(db)
    grants = []  # (client, clock at the grant, queued_ms)
    for client in clients:
        def sink(frame, name=client.name, deliver=client.session.sink):
            grants.append((name, front.clock_ms,
                           frame["admission"]["queued_ms"]))
            deliver(frame)
        client.session.sink = sink
    report = sched.run(cold=True)
    assert grants and all(wait > 0 for _n, _t, wait in grants)
    assert front.admission.stats.queued == len(grants)
    for name, granted_ms, wait in grants:
        [record] = [r for r in report.for_client(name)
                    if r.start_ms < granted_ms <= r.finish_ms]
        # The clock starts at submission, not at the grant.
        assert record.start_ms == pytest.approx(granted_ms - wait)
        assert record.latency_ms > wait


@pytest.mark.parametrize("interleave", [False, True],
                         ids=["serial", "interleaved"])
def test_wire_ledgers_sum_to_the_runtime_totals(db, interleave):
    _front, sched, _clients = schedule(db)
    report = sched.run(cold=True, interleave=interleave)
    assert report.total_ledger() == db.runtime.totals()


def test_serial_and_interleaved_schedules_answer_alike(db):
    answers = []
    for interleave in (False, True):
        _front, sched, _clients = schedule(db)
        report = sched.run(cold=True, interleave=interleave)
        answers.append(sorted((r.client, r.label, r.rows)
                              for r in report.records))
        if interleave:
            # Round robin: the first two probes run side by side.
            first, second = report.records[0], report.records[1]
            assert second.start_ms < first.finish_ms
    assert answers[0] == answers[1]


def test_rerunning_a_drained_schedule_raises(db):
    _front, sched, _clients = schedule(db)
    sched.run(cold=True)
    with pytest.raises(ExecutionError, match="already drained"):
        sched.run(cold=True)


@pytest.mark.parametrize("interleave", [False, True],
                         ids=["serial", "interleaved"])
def test_an_admission_that_never_grants_raises(db, interleave):
    front, sched, _clients = schedule(db)
    front.admission.try_acquire = lambda: False
    with pytest.raises(ExecutionError, match="parked"):
        sched.run(cold=True, interleave=interleave)
    assert front.admission.stats.admitted == 0
