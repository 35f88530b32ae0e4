"""Solvers and tooling for second-order-cone-constrained binary knapsacks.

The SOC constraint mean'x + omega * sqrt(sum sigma^2 x) <= capacity unifies
chance-constrained and distributionally robust knapsack models; this package
computes upper/lower bounds via polyhedral approximations of the underlying
ellipsoid, solves the problem exactly by a doubling scheme, evaluates
probability guarantees, and ships generators plus a benchmark CLI.
"""

from .approx import (HORIZONTAL, VERTICAL, SegmentTable, beta, beta_exact,
                     build_segments, containment_radii, eval_lower_envelope,
                     eval_upper_envelope)
from .exact import m_star, solve_exact
from .guarantees import (guarantee_gap_dro, guarantee_gap_normal,
                         min_segments_dro, min_segments_normal_order,
                         monte_carlo_feasibility)
from .instances import FAMILIES, GeneratorSpec, generate
from .knapsack import (KnapsackSolution, KnapsackSubproblem,
                       SolverInvariantError, dantzig_bound, solve_knapsack)
from .model import (OmegaSpec, SockpInstance, instance_from_json,
                    instance_to_json, inverse_normal_cdf, is_soc_feasible,
                    resolve_omega, soc_lhs)
from .rkpm import BoundResult, EXACT, LOWER, UPPER, lower_bound, upper_bound

__all__ = [
    "BoundResult", "EXACT", "FAMILIES", "GeneratorSpec", "HORIZONTAL",
    "KnapsackSolution", "KnapsackSubproblem", "LOWER", "OmegaSpec",
    "SegmentTable", "SockpInstance", "SolverInvariantError", "UPPER",
    "VERTICAL", "beta", "beta_exact", "build_segments", "containment_radii",
    "dantzig_bound", "eval_lower_envelope", "eval_upper_envelope", "generate",
    "guarantee_gap_dro", "guarantee_gap_normal", "instance_from_json",
    "instance_to_json", "inverse_normal_cdf", "is_soc_feasible", "lower_bound",
    "m_star", "min_segments_dro", "min_segments_normal_order",
    "monte_carlo_feasibility", "resolve_omega", "soc_lhs", "solve_exact",
    "solve_knapsack", "upper_bound",
]

__version__ = "0.1.0"
