"""Morphing policies (Section III-B).

A policy decides how the morphing-region size evolves after each probe,
based on the *local* selectivity over the last morphing region (Eq. (1))
versus the *global* selectivity over all pages seen so far (Eq. (2)):

* **Greedy** — double after every probe; fastest convergence to a full
  scan, wasteful at low selectivity.
* **Selectivity-Increase** — double only when the local selectivity
  exceeds the global one; never shrinks (an early dense region inflates
  the region for the operator's whole lifetime — the Fig 8 failure mode).
* **Elastic** — double on denser-than-global, halve on sparser; adapts
  two ways and is the paper's most robust choice.

Reproduction note on the comparison operator: Eq. (1)/(2) are page-level
ratios and the probed page always contains the probed tuple, so on a
uniformly dense table ``local == global == 1`` forever and a *strictly*
greater-than test would never expand the region — contradicting Fig. 5b,
where Smooth Scan converges to within 20% of a full scan at 100%
selectivity.  A greater-or-equal test reconciles every reported behaviour:
dense uniform regions double every probe (greedy-like convergence), the
skewed head of Fig. 8 grows then shrinks under Elastic, and the
adversarial every-second-page layout of the competitive analysis keeps the
region small (CR ≈ 5 on HDD, the paper's 5.5).  We therefore default to
``>=`` and expose ``strict=True`` for the literal reading.
"""

from __future__ import annotations

from abc import ABC, abstractmethod


class MorphPolicy(ABC):
    """Decides the next morphing-region size after a probe."""

    #: Display name used in experiment tables.
    name: str = "abstract"

    def __init__(self, strict: bool = False):
        self.strict = strict

    def _increased(self, local_selectivity: float,
                   global_selectivity: float) -> bool:
        """Did the last region signal a (non-)decreasing selectivity?"""
        if self.strict:
            return local_selectivity > global_selectivity
        return local_selectivity >= global_selectivity

    @abstractmethod
    def next_region(self, region: int, local_selectivity: float,
                    global_selectivity: float) -> int:
        """Return the region size (in pages) for the next probe.

        Args:
            region: region size used for the probe just finished.
            local_selectivity: ``#P_res_region / #P_seen_region`` (Eq. (1)).
            global_selectivity: ``#P_res / #P_seen`` (Eq. (2)).
        """

    def initial_region(self) -> int:
        """Region size for the first probe: one page (Entire Page Probe)."""
        return 1


class GreedyPolicy(MorphPolicy):
    """Double the region after every probe, unconditionally."""

    name = "greedy"

    def next_region(self, region: int, local_selectivity: float,
                    global_selectivity: float) -> int:
        return region * 2


class SelectivityIncreasePolicy(MorphPolicy):
    """Double when the last region was denser than the global average."""

    name = "selectivity-increase"

    def next_region(self, region: int, local_selectivity: float,
                    global_selectivity: float) -> int:
        if self._increased(local_selectivity, global_selectivity):
            return region * 2
        return region


class ElasticPolicy(MorphPolicy):
    """Double on denser regions, halve on sparser ones (two-way morphing)."""

    name = "elastic"

    def next_region(self, region: int, local_selectivity: float,
                    global_selectivity: float) -> int:
        if self._increased(local_selectivity, global_selectivity):
            return region * 2
        return max(1, region // 2)
