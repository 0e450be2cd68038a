"""The paper's contribution: Smooth Scan, Switch Scan and their machinery."""

from repro.core.caches import (
    PageIdCache,
    ResultCache,
    ResultCacheStats,
    TupleIdCache,
)
from repro.core.morph_join import MorphingIndexJoin, MorphJoinStats
from repro.core.morph_stats import SmoothScanStats
from repro.core.policy import (
    ElasticPolicy,
    GreedyPolicy,
    MorphPolicy,
    SelectivityIncreasePolicy,
)
from repro.core.smooth_scan import SmoothScan
from repro.core.switch_scan import SwitchScan
from repro.core.trigger import (
    EagerTrigger,
    OptimizerDrivenTrigger,
    SLADrivenTrigger,
    Trigger,
)

__all__ = [
    "EagerTrigger",
    "ElasticPolicy",
    "GreedyPolicy",
    "MorphJoinStats",
    "MorphPolicy",
    "MorphingIndexJoin",
    "OptimizerDrivenTrigger",
    "PageIdCache",
    "ResultCache",
    "ResultCacheStats",
    "SLADrivenTrigger",
    "SelectivityIncreasePolicy",
    "SmoothScan",
    "SmoothScanStats",
    "SwitchScan",
    "Trigger",
    "TupleIdCache",
]
