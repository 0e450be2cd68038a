"""Exception hierarchy for the Smooth Scan reproduction.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch a single base class at their boundary while tests can
assert on precise subclasses.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """An :class:`~repro.config.EngineConfig` value is invalid."""


class StorageError(ReproError):
    """A storage-layer invariant was violated."""


class UnknownPageError(StorageError):
    """A page id outside the file was requested."""


class BTreeError(ReproError):
    """A B+-tree invariant was violated or misused."""


class ExecutionError(ReproError):
    """A physical operator was driven through an illegal state transition."""


class PlanningError(ReproError):
    """The optimizer could not produce a plan for the request."""


class SqlError(PlanningError):
    """A SQL statement failed to lex, parse or bind.

    Messages are position-annotated (line, column, and a caret under the
    offending token) so REPL users see *where* the statement broke.
    Subclassing :class:`PlanningError` keeps the contract that everything
    between query text and physical plan raises through one family.
    """


class InterfaceError(ReproError):
    """The session API (Connection/Cursor) was misused.

    Raised for driver-level mistakes — fetching before ``execute()``,
    using a closed cursor or connection, executing a statement prepared
    against a *different database* (sharing across connections of one
    database is allowed) — as distinct from errors *in* the statement
    (:class:`SqlError`) or its planning (:class:`PlanningError`).
    """


class StatisticsError(ReproError):
    """Statistics were requested for an unknown table or column."""


class WorkloadError(ReproError):
    """A workload generator received inconsistent parameters."""
