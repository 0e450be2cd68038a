"""Morphing triggering points (Section III-C).

* **Eager** (the paper's default): Smooth Scan from the very first tuple;
  no pre-morph bookkeeping needed at all.
* **Optimizer-driven**: run a traditional index scan until the optimizer's
  cardinality estimate is violated, then morph (a "robustness patch");
  tuples produced pre-morph are recorded in the Tuple ID cache.
* **SLA-driven**: morph only when the running cost projection says the SLA
  bound would otherwise be violated; the trigger cardinality is derived
  from Eq. (23) for the worst case (see :mod:`repro.costmodel.sla`), and
  after triggering the scan switches to the Greedy policy, as in Fig. 7b.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.core.policy import GreedyPolicy, MorphPolicy


class Trigger(ABC):
    """Decides when Smooth Scan behaviour starts."""

    #: Display name used in experiment tables.
    name: str = "abstract"

    @property
    def eager(self) -> bool:
        """True when smooth behaviour is active from the first tuple."""
        return False

    @abstractmethod
    def should_morph(self, produced: int) -> bool:
        """True once ``produced`` result tuples warrant morphing."""

    def post_morph_policy(self) -> MorphPolicy | None:
        """Optional policy override applied at the moment of morphing."""
        return None


class EagerTrigger(Trigger):
    """Replace the access path with Smooth Scan outright (the default)."""

    name = "eager"

    @property
    def eager(self) -> bool:
        return True

    def should_morph(self, produced: int) -> bool:
        return True


class OptimizerDrivenTrigger(Trigger):
    """Morph once the optimizer's cardinality estimate is violated."""

    name = "optimizer-driven"

    def __init__(self, estimated_cardinality: int):
        if estimated_cardinality < 0:
            raise ValueError("estimated cardinality must be >= 0")
        self.estimated_cardinality = estimated_cardinality

    def should_morph(self, produced: int) -> bool:
        return produced > self.estimated_cardinality


class SLADrivenTrigger(Trigger):
    """Morph when staying traditional would break the SLA bound.

    ``trigger_cardinality`` is the tuple count at which morphing must start
    so that, even at 100% selectivity, the total cost stays within the SLA
    (computed by :func:`repro.costmodel.sla.trigger_cardinality`).
    """

    name = "sla-driven"

    def __init__(self, trigger_cardinality: int):
        if trigger_cardinality < 0:
            raise ValueError("trigger cardinality must be >= 0")
        self.trigger_cardinality = trigger_cardinality

    def should_morph(self, produced: int) -> bool:
        return produced >= self.trigger_cardinality

    def post_morph_policy(self) -> MorphPolicy | None:
        # Fig. 7b: "with this strategy we switch immediately to Greedy".
        return GreedyPolicy()
