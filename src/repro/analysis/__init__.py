"""The paper's motivating applications, built on dominator analysis."""

from .cutpoints import (
    CutFrontier,
    common_single_cutpoints,
    select_cut_frontiers,
    verify_frontier,
)
from .reconvergence import (
    ReconvergentPath,
    reconvergence_report,
    reconvergence_summary,
)
from .signal_probability import (
    DominatorPartitionedProbability,
    SupportExplosion,
    exact_signal_probabilities,
    naive_signal_probabilities,
)
from .simulate import VectorSimulator, evaluate
from .testability import (
    FaultDetectability,
    cop_controllability,
    cop_observability,
    detectability,
    dominator_detectability_profile,
    fault_detectability_exact,
)
from .timing import (
    ArrivalStats,
    CutCriticality,
    DelayModel,
    MonteCarloTiming,
    cut_criticality,
    static_arrival_times,
)
from .switching_activity import (
    activity_from_probability,
    average_power_proxy,
    switching_activities,
)

__all__ = [
    "ArrivalStats",
    "CutCriticality",
    "CutFrontier",
    "DelayModel",
    "MonteCarloTiming",
    "DominatorPartitionedProbability",
    "FaultDetectability",
    "ReconvergentPath",
    "SupportExplosion",
    "VectorSimulator",
    "activity_from_probability",
    "average_power_proxy",
    "common_single_cutpoints",
    "cop_controllability",
    "cop_observability",
    "cut_criticality",
    "detectability",
    "dominator_detectability_profile",
    "fault_detectability_exact",
    "evaluate",
    "exact_signal_probabilities",
    "naive_signal_probabilities",
    "reconvergence_report",
    "reconvergence_summary",
    "select_cut_frontiers",
    "static_arrival_times",
    "switching_activities",
    "verify_frontier",
]
