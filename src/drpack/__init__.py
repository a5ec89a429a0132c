"""Online maximization of monotone DR-submodular objectives under linear
packing constraints: solver engine, penalty designs, bound calculators,
offline baselines, and a seeded experiment harness.
"""

from .baselines import (brute_force_opt, brute_grid_slack, dual_grid_slack,
                        dual_objective, offline_fw, weak_duality_gap)
from .engine import (DualPoint, EngineConfig, OnlineInstance, RunTrace,
                     direction, evaluate_trace, row_loads, run_online)
from .feasible import Box, Simplex
from .generators import FAMILIES, GeneratorSpec, generate
from .harness import (ExperimentResult, SeedRecord, auto_penalties,
                      bound_report, finite_k_slack, reproduce_table1,
                      verify_bounds)
from .objectives import (CurvatureReport, DrCheckResult, LinearObjective,
                         MultilinearObjective, QuadraticObjective,
                         SetFunctionTable, check_dr, estimate_alpha,
                         estimate_smoothness, prefix_grad_coord)
from .penalties import (BoundReport, PenaltyModel, ZeroPenalty, compute_UL,
                        theoretical_cr)

__version__ = "0.1.0"

__all__ = [
    "Box", "BoundReport", "CurvatureReport", "DrCheckResult", "DualPoint",
    "EngineConfig", "ExperimentResult", "FAMILIES", "GeneratorSpec",
    "LinearObjective", "MultilinearObjective", "OnlineInstance",
    "PenaltyModel", "QuadraticObjective", "RunTrace", "SeedRecord",
    "SetFunctionTable", "Simplex", "ZeroPenalty", "auto_penalties",
    "bound_report", "brute_force_opt", "brute_grid_slack", "check_dr",
    "compute_UL", "direction", "dual_grid_slack",
    "dual_objective", "estimate_alpha", "estimate_smoothness",
    "evaluate_trace", "finite_k_slack", "generate", "offline_fw",
    "prefix_grad_coord", "reproduce_table1", "row_loads", "run_online",
    "theoretical_cr", "verify_bounds", "weak_duality_gap",
]
