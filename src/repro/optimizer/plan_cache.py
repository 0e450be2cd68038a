"""The plan cache: normalized statement → frozen plan recipe.

Serving workloads re-execute a small set of statements with drifting
bind parameters; re-running the optimizer per call is wasted work, so
engines cache the plan and replay it.  That is exactly the regime the
paper opens with: a cached plan is optimized for the parameter values
seen at prepare/first-execute time, and as parameters drift the plan
goes stale — unless the plan is built from statistics-oblivious
operators (Smooth Scan), which stay near-optimal at any selectivity.
This cache is what makes the repo able to *express* that scenario.

Keys are ``(normalized statement text, planner-options fingerprint)``;
entries remember the catalog version they were planned under and are
invalidated when it moves (``create_index`` / ``drop_index`` /
``load_table`` — anything that changes what plans are even buildable).
Values are :class:`~repro.optimizer.planner.PlanRecipe` objects — the
decisions only, never operator trees, so one cached plan can be
instantiated for any parameter binding.

Statistics refreshes (``analyze``) also bump the catalog version: a
cached plan must never differ observably from planning from scratch.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

from repro.optimizer.planner import PlannerOptions, PlanRecipe

#: Default maximum number of cached statements (LRU beyond this).
DEFAULT_CAPACITY = 128


def options_fingerprint(options: PlannerOptions | None) -> tuple:
    """A hashable identity for the planner options a plan was built under.

    ``None`` and a default-constructed ``PlannerOptions`` fingerprint
    identically (the planner treats them identically).  Policy/trigger
    factory hooks are fingerprinted by ``repr``: two *distinct* hook
    objects may spuriously miss, but never spuriously hit — the safe
    direction for a cache.
    """
    options = options or PlannerOptions()
    return (
        options.enable_index,
        options.enable_sort_scan,
        options.enable_smooth,
        options.enable_inlj,
        options.force_path,
        options.shard_parallel,
        None if options.smooth_policy is None
        else repr(options.smooth_policy),
        None if options.smooth_trigger is None
        else repr(options.smooth_trigger),
    )


@dataclass
class PlanCacheStats:
    """Hit/miss/invalidation accounting, cumulative over the cache's life."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def describe(self) -> str:
        """The one-line summary ``explain()`` and ``\\analyze`` print."""
        return (f"hits={self.hits} misses={self.misses} "
                f"invalidations={self.invalidations}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"PlanCacheStats(hits={self.hits}, misses={self.misses}, "
                f"invalidations={self.invalidations}, "
                f"evictions={self.evictions})")


@dataclass
class _Entry:
    recipe: PlanRecipe
    catalog_version: int
    hits: int = 0


@dataclass
class PlanCache:
    """An LRU plan cache with catalog-version invalidation."""

    capacity: int = DEFAULT_CAPACITY
    stats: PlanCacheStats = field(default_factory=PlanCacheStats)
    #: Optional observer called with "hit" / "miss" / "invalidation" /
    #: "eviction" as each happens (the database wires the tracer here).
    on_event: "Callable[[str], None] | None" = None
    _entries: "OrderedDict[tuple, _Entry]" = field(
        default_factory=OrderedDict
    )

    def _notify(self, kind: str) -> None:
        if self.on_event is not None:
            self.on_event(kind)

    def lookup(self, key: tuple, catalog_version: int) -> PlanRecipe | None:
        """The cached recipe for ``key``, or ``None`` (counted as a miss).

        An entry planned under an older catalog version is dropped and
        counted as an invalidation *and* a miss — the caller re-plans
        and re-stores, exactly like a first execution.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            self._notify("miss")
            return None
        if entry.catalog_version != catalog_version:
            del self._entries[key]
            self.stats.invalidations += 1
            self.stats.misses += 1
            self._notify("invalidation")
            self._notify("miss")
            return None
        self._entries.move_to_end(key)
        entry.hits += 1
        self.stats.hits += 1
        self._notify("hit")
        return entry.recipe

    def store(self, key: tuple, recipe: PlanRecipe,
              catalog_version: int) -> None:
        """Remember ``recipe`` for ``key``, evicting LRU past capacity."""
        self._entries[key] = _Entry(recipe, catalog_version)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            self._notify("eviction")

    def __len__(self) -> int:
        return len(self._entries)

    def stats_dict(self) -> dict:
        """The structured cache state: size, capacity, cumulative stats.

        The single source of truth every surface formats from — cursor
        EXPLAIN's plan-cache line, the metrics registry's gauges, and
        the server ``stats`` frame all read this dict.
        """
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hits": self.stats.hits,
            "misses": self.stats.misses,
            "invalidations": self.stats.invalidations,
            "evictions": self.stats.evictions,
            "lookups": self.stats.lookups,
        }

    def describe(self) -> str:
        """One line for the REPL: size plus cumulative stats."""
        n = self.stats_dict()["entries"]
        return (f"plan cache: {n} entr{'y' if n == 1 else 'ies'}, "
                f"{self.stats.describe()}")
