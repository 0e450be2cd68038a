"""Logical-spec parameterization: markers, slots and substitution.

Prepared statements compile SQL once into a *parameterized*
:class:`~repro.optimizer.logical.QuerySpec`: wherever the statement wrote
``?`` or ``:name``, the bound predicates carry a :class:`ParamMarker`
instead of a concrete value.  Executing the statement substitutes real
values into a fresh, concrete spec (:func:`substitute_spec`) — no
re-lexing, no re-parsing, no re-binding — which the planner then lowers
(or, on a plan-cache hit, replays).

Two substitution channels exist because bound statements hold two kinds
of compiled artifacts:

* **structural** — predicates are immutable ``And`` / ``Or`` / ``Not``
  trees, so markers inside
  :class:`~repro.exec.expressions.Comparison` / ``Between`` / ``InList``
  (and the spec's ``LIMIT``) are replaced by rebuilding the affected
  nodes.  The planner then sees exactly the predicate a literal statement
  would have produced — measurement-identical by construction.  These
  values become key-range bounds, where ``None`` means "unbounded", so a
  NULL here is refused with :class:`~repro.errors.SqlError` naming the
  parameter, as a bad ``LIMIT`` is.
* **slot-based** — value callables compiled by the binder (aggregate
  arguments, computed select items) are chunk functions; they read
  parameters from a shared :class:`ParamBox` the binder threaded through
  at compile time, which :func:`resolve_params` fills at execute time.
  A NULL here is a value like any other: arithmetic over it is NULL.

The box is per-bound-statement (and only exists when a computed value
reads a parameter), so a cursor's
:class:`~repro.exec.stats.StreamingRun` keeps its execution's values and
refills the box before each pull: interleaved streaming executions of one
prepared statement each compute with their own values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from repro.errors import PlanningError, SqlError
from repro.exec.expressions import (
    And,
    Between,
    Comparison,
    InList,
    Not,
    Or,
    Predicate,
)
from repro.optimizer.logical import QuerySpec


@dataclass(frozen=True)
class ParamMarker:
    """A placeholder for a bind parameter inside a bound spec.

    ``index`` is the 0-based position in statement order; ``name`` is set
    for ``:name`` style parameters (repeated names share the name but
    occupy distinct indices).
    """

    index: int
    name: str | None = None

    def __repr__(self) -> str:
        return f":{self.name}" if self.name else f"?{self.index + 1}"


class ParamBox:
    """The mutable parameter slots compiled value callables read from.

    One box per bound statement; :func:`resolve_params` output is written
    here before each execution, and again before each pull of its run, so
    ``lambda chunk: box.values[i]`` nodes see that run's binding.
    """

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: Sequence[object] | None = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ParamBox({self.values!r})"


def resolve_params(param_names: Sequence[str | None],
                   params: object) -> list[object]:
    """Normalize user-supplied parameters into an index-ordered list.

    ``param_names`` has one entry per placeholder in statement order
    (``None`` for positional ``?``).  Positional statements take a
    sequence of exactly that length; named statements take a mapping
    covering every name.  Extra names are rejected — a typo'd key would
    otherwise silently leave the intended parameter at its old value.
    """
    count = len(param_names)
    if count == 0:
        if params:
            raise SqlError(
                f"statement takes no parameters, got {params!r}"
            )
        return []
    if params is None:
        raise SqlError(
            f"statement takes {count} parameter{'s' if count != 1 else ''}, "
            "got none"
        )
    named = [n for n in param_names if n is not None]
    if named:
        if not isinstance(params, Mapping):
            raise SqlError(
                "statement uses :name parameters; pass a mapping, got "
                f"{type(params).__name__}"
            )
        missing = sorted({n for n in named if n not in params})
        if missing:
            raise SqlError("missing parameter values for: "
                           f"{', '.join(missing)}")
        extra = sorted(set(params) - set(named))
        if extra:
            raise SqlError(
                f"unknown parameter names: {', '.join(map(str, extra))}; "
                f"statement declares: {', '.join(sorted(set(named)))}"
            )
        return [params[n] for n in param_names]  # type: ignore[index]
    if isinstance(params, Mapping):
        raise SqlError(
            "statement uses positional '?' parameters; pass a sequence, "
            "got a mapping"
        )
    if isinstance(params, (str, bytes)):
        raise SqlError(
            "parameters must be a sequence of values, not a bare string"
        )
    values = list(params)  # type: ignore[arg-type]
    if len(values) != count:
        raise SqlError(
            f"statement takes {count} parameter"
            f"{'s' if count != 1 else ''}, got {len(values)}"
        )
    return values


def _value_of(marker: ParamMarker, values: Sequence[object]) -> object:
    """The value bound to ``marker`` in a predicate; never NULL.

    A key range reads ``None`` as "unbounded", so a NULL bound would turn
    ``x >= :lo`` into a full range instead of SQL's no rows: refuse it.
    """
    value = values[marker.index]
    if value is None:
        raise SqlError(
            f"parameter {marker!r} is NULL in a WHERE predicate; a "
            "comparison with NULL is never true — pass a value"
        )
    return value


def substitute_predicate(predicate: Predicate,
                         values: Sequence[object]) -> Predicate:
    """Replace every :class:`ParamMarker` in ``predicate`` with its value.

    Returns the original object when nothing changed, so unparameterized
    statements pay nothing and object identity stays stable for caches.
    A NULL value raises :class:`~repro.errors.SqlError` (see
    :func:`_value_of`).
    """
    if isinstance(predicate, Comparison):
        if isinstance(predicate.value, ParamMarker):
            return replace(predicate,
                           value=_value_of(predicate.value, values))
        return predicate
    if isinstance(predicate, Between):
        lo, hi = predicate.lo, predicate.hi
        changed = False
        if isinstance(lo, ParamMarker):
            lo, changed = _value_of(lo, values), True
        if isinstance(hi, ParamMarker):
            hi, changed = _value_of(hi, values), True
        return replace(predicate, lo=lo, hi=hi) if changed else predicate
    if isinstance(predicate, InList):
        if any(isinstance(v, ParamMarker) for v in predicate.values):
            return replace(predicate, values=tuple(
                _value_of(v, values) if isinstance(v, ParamMarker) else v
                for v in predicate.values
            ))
        return predicate
    if isinstance(predicate, (And, Or)):
        parts = [substitute_predicate(p, values) for p in predicate.parts]
        if all(new is old for new, old in zip(parts, predicate.parts, strict=False)):
            return predicate
        return And(parts) if isinstance(predicate, And) else Or(parts)
    if isinstance(predicate, Not):
        part = substitute_predicate(predicate.part, values)
        return predicate if part is predicate.part else Not(part)
    return predicate


def substitute_spec(spec: QuerySpec,
                    values: Sequence[object]) -> QuerySpec:
    """A concrete spec: every structural marker replaced by its value."""
    changes: dict = {}
    predicate = substitute_predicate(spec.predicate, values)
    if predicate is not spec.predicate:
        changes["predicate"] = predicate
    if isinstance(spec.limit, ParamMarker):
        limit = values[spec.limit.index]
        if not isinstance(limit, int) or isinstance(limit, bool) \
                or limit < 0:
            raise SqlError(
                "LIMIT parameter must be a non-negative integer, "
                f"got {limit!r}"
            )
        changes["limit"] = limit
    return replace(spec, **changes) if changes else spec


def predicate_markers(predicate: Predicate) -> list[ParamMarker]:
    """Every :class:`ParamMarker` in ``predicate``, in tree order."""
    found: list[ParamMarker] = []

    def walk(part: Predicate) -> None:
        if isinstance(part, Comparison):
            if isinstance(part.value, ParamMarker):
                found.append(part.value)
        elif isinstance(part, Between):
            for bound in (part.lo, part.hi):
                if isinstance(bound, ParamMarker):
                    found.append(bound)
        elif isinstance(part, InList):
            found.extend(v for v in part.values
                         if isinstance(v, ParamMarker))
        elif isinstance(part, (And, Or)):
            for p in part.parts:
                walk(p)
        elif isinstance(part, Not):
            walk(part.part)

    walk(predicate)
    return found


def unbound_params(spec: QuerySpec) -> list[ParamMarker]:
    """Every marker still present in ``spec``'s structural positions.

    The planner refuses specs with leftover markers: a marker would flow
    into key-range extraction or the ``Limit`` operator as an opaque
    object and fail far from the cause.
    """
    found = predicate_markers(spec.predicate)
    if isinstance(spec.limit, ParamMarker):
        found.append(spec.limit)
    return found


def require_bound(spec: QuerySpec) -> None:
    """Raise :class:`PlanningError` when ``spec`` has unbound markers."""
    markers = unbound_params(spec)
    if markers:
        shown = ", ".join(repr(m) for m in markers[:5])
        raise PlanningError(
            f"query spec still contains {len(markers)} unbound "
            f"parameter{'s' if len(markers) != 1 else ''} ({shown}); "
            "execute it through a prepared statement or cursor with "
            "parameter values"
        )
