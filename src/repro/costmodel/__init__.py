"""Analytic cost model (Section V) and competitive analysis (Section V-A)."""

from repro.costmodel.calibration import predict_ms
from repro.costmodel.competitive import (
    CRPoint,
    elastic_adversarial_cost,
    elastic_cr_adversarial,
    elastic_cr_bound,
    greedy_cost,
    greedy_cr_curve,
    max_cr,
    smooth_model_cr_curve,
)
from repro.costmodel.formulas import (
    ModeSplit,
    full_scan_cost,
    index_scan_cost,
    optimal_cost,
    smooth_cost_mode1,
    smooth_cost_mode2,
    smooth_scan_cost,
    sort_scan_cost,
)
from repro.costmodel.params import CostParams
from repro.costmodel.sla import (
    sla_bound_for_full_scans,
    trigger_cardinality,
    worst_case_total_cost,
)

__all__ = [
    "CRPoint",
    "CostParams",
    "ModeSplit",
    "elastic_adversarial_cost",
    "elastic_cr_adversarial",
    "elastic_cr_bound",
    "full_scan_cost",
    "greedy_cost",
    "greedy_cr_curve",
    "index_scan_cost",
    "max_cr",
    "optimal_cost",
    "predict_ms",
    "sla_bound_for_full_scans",
    "smooth_cost_mode1",
    "smooth_cost_mode2",
    "smooth_model_cr_curve",
    "smooth_scan_cost",
    "sort_scan_cost",
    "trigger_cardinality",
    "worst_case_total_cost",
]
