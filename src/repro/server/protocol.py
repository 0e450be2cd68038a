"""The wire protocol: newline-delimited JSON frames.

One frame per line, each frame a JSON object.  Every request carries a
client-chosen ``id`` (string or integer); every response echoes it, so
clients may pipeline requests and match replies out of order.  The
protocol is deliberately transport-agnostic: the asyncio socket server
(:mod:`repro.server.server`) encodes frames as ``utf-8`` lines, while
the deterministic in-process clients (:mod:`repro.server.inprocess`,
stepped by :class:`~repro.exec.scheduler.CooperativeScheduler`) pass
the same dict frames directly — both drive one sans-IO
:class:`~repro.server.session.ServerSession`.

Request frames (client → server)::

    {"op": "prepare",  "id": 1, "sql": "SELECT ... WHERE c2 < ?"}
    {"op": "execute",  "id": 2, "statement": 0, "params": [100]}
    {"op": "execute",  "id": 2, "sql": "SELECT ...", "params": null}
    {"op": "fetch",    "id": 3, "cursor": 0, "n": 256}
    {"op": "close",    "id": 4, "cursor": 0}
    {"op": "query",    "id": 5, "sql": "SELECT ...", "params": [7]}
    {"op": "stats",    "id": 6}
    {"op": "shutdown", "id": 7}

Response frames (server → client)::

    {"op": "hello",     "protocol": 1, ...}          # on connect
    {"op": "prepared",  "id": 1, "statement": 0, "params": 1, ...}
    {"op": "executing", "id": 2, "cursor": 0, "description": [...],
     "admission": {"action": "admit", "estimated_cost": ..., ...}}
    {"op": "rows",      "id": 3, "cursor": 0, "rows": [[...], ...],
     "done": false}                                  # + "summary" when done
    {"op": "closed",    "id": 4, "cursor": 0, "summary": {...}}
    {"op": "stats",     "id": 6, "admission": {...}, "engine": {...}}
    {"op": "error",     "id": 2, "code": "rejected", "message": "...",
     "detail": {"estimated_cost": ..., "budget": ...}}

A ``query`` request is sugar for execute-plus-drain: the server answers
with ``executing``, then streams ``rows`` frames until the final one
carries ``done: true`` and the measurement ``summary``.  Structured
errors never close the connection — only unparseable *lines* do.
"""

from __future__ import annotations

import json
from typing import Mapping

from repro.errors import ReproError

#: Protocol version announced in the server's ``hello`` frame.
PROTOCOL_VERSION = 1

#: Request operations a server accepts.
REQUEST_OPS = (
    "prepare", "execute", "fetch", "close", "query", "stats", "shutdown",
)

#: Structured error codes (the ``code`` field of ``error`` frames).
ERR_BAD_FRAME = "bad_frame"            # malformed frame / missing fields
ERR_UNKNOWN_OP = "unknown_op"          # op outside REQUEST_OPS
ERR_SQL = "sql_error"                  # statement failed to lex/parse/bind
ERR_REJECTED = "rejected"              # admission: estimate exceeds budget
ERR_STATEMENT_MISSING = "statement_missing"
ERR_CURSOR_MISSING = "cursor_missing"
ERR_SHUTTING_DOWN = "shutting_down"    # server is draining, no new work
ERR_TIMEOUT = "timeout"                # per-request timeout expired
ERR_INTERFACE = "interface"            # session-layer misuse (closed
                                       # connection/cursor, bad fetch size)
ERR_INTERNAL = "internal"              # unexpected engine error


class ProtocolError(ReproError):
    """A frame violated the protocol; carries the structured error code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def encode_frame(frame: Mapping) -> bytes:
    """One frame as a newline-terminated JSON line (sorted keys, so the
    byte encoding of a frame is deterministic)."""
    return (json.dumps(frame, sort_keys=True,
                       separators=(",", ":")) + "\n").encode("utf-8")


def decode_frame(line: "bytes | str") -> dict:
    """Parse one line into a frame dict; raises :class:`ProtocolError`."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(ERR_BAD_FRAME,
                                f"frame is not utf-8: {exc}") from None
    try:
        frame = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(ERR_BAD_FRAME,
                            f"frame is not valid JSON: {exc}") from None
    if not isinstance(frame, dict):
        raise ProtocolError(ERR_BAD_FRAME,
                            "frame must be a JSON object")
    return frame


#: Required fields per request op: name → (type check, description).
_FIELD_CHECKS = {
    "sql": (str, "a string"),
    "statement": (int, "an integer statement handle"),
    "cursor": (int, "an integer cursor handle"),
}


def _check_field(frame: dict, name: str) -> None:
    value = frame.get(name)
    ctype, what = _FIELD_CHECKS[name]
    if not isinstance(value, ctype) or isinstance(value, bool):
        raise ProtocolError(
            ERR_BAD_FRAME, f"{frame['op']!r} frame needs {name!r}: {what}"
        )


def validate_request(frame: dict) -> str:
    """Check a request frame's shape; returns its ``op``.

    Raises :class:`ProtocolError` with the structured code a server
    should answer with.  ``id`` may be any JSON string or integer; it
    is only echoed, never interpreted.
    """
    op = frame.get("op")
    if not isinstance(op, str):
        raise ProtocolError(ERR_BAD_FRAME, "frame needs a string 'op'")
    if op not in REQUEST_OPS:
        raise ProtocolError(
            ERR_UNKNOWN_OP,
            f"unknown op {op!r}; expected one of {', '.join(REQUEST_OPS)}"
        )
    rid = frame.get("id")
    if not isinstance(rid, (str, int)) or isinstance(rid, bool):
        raise ProtocolError(ERR_BAD_FRAME,
                            f"{op!r} frame needs an 'id' (string or int)")
    if op == "prepare":
        _check_field(frame, "sql")
    elif op in ("execute", "query"):
        if "statement" in frame:
            _check_field(frame, "statement")
        else:
            _check_field(frame, "sql")
        params = frame.get("params")
        if params is not None and not isinstance(params, (list, dict)):
            raise ProtocolError(
                ERR_BAD_FRAME,
                f"{op!r} params must be an array, an object, or null"
            )
    elif op in ("fetch", "close"):
        _check_field(frame, "cursor")
        if op == "fetch":
            n = frame.get("n")
            if n is not None and (not isinstance(n, int)
                                  or isinstance(n, bool) or n <= 0):
                raise ProtocolError(ERR_BAD_FRAME,
                                    "'fetch' n must be a positive integer")
    return op


def error_frame(rid: object, code: str, message: str,
                detail: dict | None = None) -> dict:
    """A structured error response (never closes the connection)."""
    frame = {"op": "error", "id": rid, "code": code, "message": message}
    if detail:
        frame["detail"] = detail
    return frame


def rows_payload(rows: list) -> list[list]:
    """Result rows as JSON-encodable lists (tuples become arrays)."""
    return [list(row) for row in rows]
