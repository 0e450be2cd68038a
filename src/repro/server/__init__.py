"""The serving front: wire protocol, admission control, transports.

Layered so the deterministic benchmark and the real socket server share
every serving decision:

* :mod:`repro.server.protocol` — the NDJSON frame vocabulary.
* :mod:`repro.server.admission` — SLA pricing: admit / degrade / reject,
  plus in-flight slots and queue-wait accounting.
* :mod:`repro.server.session` — the sans-IO request handler
  (:class:`~repro.server.session.ServerFront` /
  :class:`~repro.server.session.ServerSession`).
* :mod:`repro.server.inprocess` — deterministic dict-frame clients (the
  1,000-client benchmark's wire), stepped one request per visit by
  :class:`~repro.exec.scheduler.CooperativeScheduler`.
* :mod:`repro.server.server` — the asyncio TCP server
  (``python -m repro.server``).
* :mod:`repro.server.client` — a blocking socket client and the CI
  smoke script (``python -m repro.server.client``).
"""

from repro.server.admission import (
    ADMIT,
    DEGRADE,
    REJECT,
    AdmissionController,
    AdmissionDecision,
    AdmissionStats,
)
from repro.server.protocol import PROTOCOL_VERSION, ProtocolError
from repro.server.session import ServerFront, ServerSession

__all__ = [
    "ADMIT",
    "DEGRADE",
    "REJECT",
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionStats",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServerFront",
    "ServerSession",
]
