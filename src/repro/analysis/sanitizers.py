"""Runtime sanitizers: dynamic checks of the accounting disciplines.

The static rules catch structural violations; these catch behavioural
ones, at runtime, on a live engine:

* :class:`LedgerSanitizer` — the unattributed-cost detector, the
  cooperative-scheduler analogue of a race detector.  Once a runtime
  starts executing queries (the first attribution window opens), every
  simulated charge must land inside *some* window, or summed per-query
  ledgers silently stop reproducing the shared totals.  Every counter
  is an integer — the clock's event counts, the disk's and the buffer
  pool's — so the sanitizer diffs them all across window boundaries:
  any that moved between windows is caught, and the drift attributed
  to the call site that opened the next window.
* :class:`DeterminismSanitizer` — the double-run hasher.  Anything
  that feeds a committed artifact (report text, trace event streams)
  must hash identically across independent runs; a mismatch means
  wall-clock, unseeded randomness or unordered iteration leaked in.

Both are opt-in: explicitly constructed in tests, or armed suite-wide
through the ``--sanitize={ledger,determinism,all}`` pytest flag (see
the root ``conftest.py``), which CI enables for a tier-1 subset.
"""

from __future__ import annotations

import hashlib
import json
import traceback
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable

from repro.storage.disk import KINDS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime import EngineRuntime


class SanitizerError(AssertionError):
    """A sanitizer invariant was violated (subclass of AssertionError
    so plain ``pytest`` reporting shows the details)."""


@dataclass(frozen=True)
class SanitizerViolation:
    """One detected violation, with the call site that caused it."""

    kind: str
    detail: str
    where: str

    def render(self) -> str:
        """One-line human-readable form."""
        return f"[{self.kind}] {self.detail} (at {self.where})"


def _call_site(skip: int = 3) -> str:
    """A compact ``file:line in func`` for the offending frame.

    Walks outward past sanitizer internals to the first frame that is
    not this module — the charge's real origin.
    """
    for frame in reversed(traceback.extract_stack()[:-skip]):
        if "sanitizers.py" not in frame.filename:
            return f"{frame.filename}:{frame.lineno} in {frame.name}"
    return "<unknown>"


class LedgerSanitizer:
    """Detects simulated charges landing outside attribution windows.

    Installed on one :class:`~repro.runtime.EngineRuntime`; *lazy-armed*
    by the first attribution window, so setup work (bulk loads, index
    builds) before any query is exempt — exactly the phase split the
    engine's own conservation tests assume.  After arming, counters
    that moved *between* windows — the clock's event counts, disk and
    buffer counters, diffed at the next ``begin_attribution``, at
    ``cold_start`` and at :meth:`check` — are a violation (they bypass
    every ledger), and so is a counter that is not an ``int`` (a charge
    of a non-integer ``n``).

    Use as a context manager (checks on exit), or ``install()`` /
    ``uninstall()`` + :meth:`check` by hand.  ``strict=False`` collects
    violations without raising, for suite-wide arming.
    """

    def __init__(self, runtime: "EngineRuntime", strict: bool = True):
        self.runtime = runtime
        self.strict = strict
        self.armed = False
        self.violations: list[SanitizerViolation] = []
        self._installed = False
        self._base = None

    # -- lifecycle ---------------------------------------------------------

    def install(self) -> "LedgerSanitizer":
        """Hook the runtime's window APIs (idempotent)."""
        if self._installed:
            return self
        runtime = self.runtime
        orig_begin = runtime.begin_attribution
        orig_end = runtime.end_attribution
        orig_cold = runtime.cold_start

        def begin_attribution(ledger) -> None:
            if self.armed:
                self._check_counters("between windows")
            orig_begin(ledger)
            if not self.armed:
                self.armed = True
            self._base = None

        def end_attribution() -> None:
            orig_end()
            self._base = self._snapshot()

        def cold_start() -> None:
            # Sweep for drift first — the reset would mask it.
            if self.armed:
                self._check_counters("before cold_start")
            orig_cold()
            # A cold start legitimately zeroes every counter.
            self._base = self._snapshot()

        runtime.begin_attribution = begin_attribution
        runtime.end_attribution = end_attribution
        runtime.cold_start = cold_start
        self._installed = True
        return self

    def uninstall(self) -> None:
        """Remove the hooks, leaving the runtime as found."""
        if not self._installed:
            return
        # The originals are bound methods; deleting the instance
        # attributes restores class-level dispatch.
        for name in ("begin_attribution", "end_attribution", "cold_start"):
            try:
                delattr(self.runtime, name)
            except AttributeError:
                pass
        self._installed = False

    def __enter__(self) -> "LedgerSanitizer":
        return self.install()

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                self.check()
        finally:
            self.uninstall()

    # -- detection ---------------------------------------------------------

    def _snapshot(self) -> dict:
        """Every counter by name; a clock count of divisor ``d`` other
        than 1 is ``kind/d``."""
        runtime = self.runtime
        counters = dict(vars(runtime.disk.stats))
        counters["buffer_hits"] = runtime.buffer.stats.hits
        counters["buffer_misses"] = runtime.buffer.stats.misses
        for divisor, row in runtime.clock.rows.items():
            suffix = "" if divisor == 1 else f"/{divisor}"
            for kind, n in zip(KINDS, row, strict=True):
                counters[kind + suffix] = n
        return counters

    def _check_counters(self, when: str) -> None:
        now = self._snapshot()
        floats = [name for name, n in now.items() if type(n) is not int]
        if floats:
            self._record(
                "non-integer-count",
                f"counters are not integers ({when}): {', '.join(floats)}",
            )
        if self._base is None:
            return
        base = self._base
        self._base = now
        moved = ", ".join(f"{name}{n - base.get(name, 0):+}"
                          for name, n in now.items()
                          if n != base.get(name, 0))
        if moved:
            self._record(
                "unattributed-counters",
                f"counters moved outside any window ({when}): {moved}",
            )

    def _record(self, kind: str, detail: str) -> None:
        violation = SanitizerViolation(
            kind=kind, detail=detail, where=_call_site(),
        )
        self.violations.append(violation)
        if self.strict:
            raise SanitizerError(
                "LedgerSanitizer: " + violation.render()
            )

    def check(self) -> None:
        """Final sweep: counter drift since the last window, then raise
        (in strict mode this usually raised at the violation site)."""
        if self.armed:
            self._check_counters("at check()")
        if self.violations and self.strict:
            lines = "\n  ".join(v.render() for v in self.violations)
            raise SanitizerError(
                f"LedgerSanitizer: {len(self.violations)} violation(s)\n"
                f"  {lines}"
            )


@dataclass
class DeterminismReport:
    """Outcome of a double-run comparison."""

    label: str
    hashes: list[str] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        """True when every run hashed the same."""
        return len(set(self.hashes)) <= 1


class DeterminismSanitizer:
    """Hashes event/artifact streams across independent runs.

    ``check(factory)`` calls ``factory`` N times (default 2 — the
    double run) and hashes each returned stream canonically; any
    divergence raises :class:`SanitizerError` naming the run hashes.
    The factory must rebuild its world from scratch (fresh Database,
    fresh seeds) so the runs are genuinely independent.
    """

    def __init__(self, strict: bool = True):
        self.strict = strict
        self.reports: list[DeterminismReport] = []

    @staticmethod
    def hash_stream(stream: object) -> str:
        """SHA-256 over a canonical encoding of ``stream``.

        Strings and bytes hash as-is; anything iterable hashes as the
        JSON of its items (objects exposing ``to_dict`` — trace events,
        ledgers — are folded through it); everything else by repr.
        """
        digest = hashlib.sha256()
        if isinstance(stream, bytes):
            digest.update(stream)
        elif isinstance(stream, str):
            digest.update(stream.encode("utf-8"))
        elif isinstance(stream, Iterable):
            for item in stream:
                to_dict = getattr(item, "to_dict", None)
                payload = to_dict() if callable(to_dict) else item
                try:
                    encoded = json.dumps(payload, sort_keys=True,
                                         default=repr)
                except TypeError:
                    encoded = repr(payload)
                digest.update(encoded.encode("utf-8"))
                digest.update(b"\x00")
        else:
            digest.update(repr(stream).encode("utf-8"))
        return digest.hexdigest()

    def check(self, factory: Callable[[], object], runs: int = 2,
              label: str = "stream") -> DeterminismReport:
        """Run ``factory`` ``runs`` times and compare the hashes."""
        report = DeterminismReport(label=label)
        for _ in range(runs):
            report.hashes.append(self.hash_stream(factory()))
        self.reports.append(report)
        if not report.identical and self.strict:
            raise SanitizerError(
                f"DeterminismSanitizer: '{label}' diverged across "
                f"{runs} runs: {report.hashes}"
            )
        return report
