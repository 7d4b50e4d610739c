"""Design and verification of congestion-dependent taxes for atomic
congestion games: load kernels and efficiency factors, the parameterised
tax family and its audit, a Frank-Wolfe load relaxation, exhaustive
equilibrium oracles, learning dynamics, instance generators, and the design
pipeline that runs the stages in order.
"""

from .errors import (ConstructionFailed, GameValidationError, InfeasibleParams,
                     InvalidParams, KernelNonConvergent, KernelOverflow,
                     MaxItersExceeded, NotConverged, TollkitError, TooLarge,
                     UnsupportedBasis)
from .game import (Allocation, BasisFunction, GameInstance, TaxProfile,
                   player_cost, rosenthal_potential, social_cost)
from .kernel import (RhoReport, bell_fractional, binomial_expectation,
                     mu_factor, poisson_kernel, poisson_kernel_derivative,
                     rho_factor)
from .taxes import (TaxAudit, audit_taxes, build_tax_profile, modified_cost,
                    modified_cost_table)
from .relaxation import (FractionalProfile, duality_gap, fractional_loads,
                         gradient, relaxation_objective, solve_relaxation)
from .oracle import (CoarseCorrelatedReport, PoaReport, SmoothnessResult,
                     brute_force_min_sc, check_smoothness,
                     coarse_correlated_check, empirical_poa,
                     enumerate_pure_nash)
from .learning import (RunTrace, best_profile_approximation,
                       best_response_dynamics, multiplicative_weights_run)
from .forge import (LabelCoverInstance, PartitioningSystem,
                    build_partitioning_system, random_instance,
                    reduce_label_cover, transversal_cost)
from .pipeline import DesignReport, design

__all__ = [
    "Allocation", "BasisFunction", "CoarseCorrelatedReport",
    "ConstructionFailed", "DesignReport",
    "FractionalProfile", "GameInstance", "GameValidationError",
    "InfeasibleParams", "InvalidParams", "KernelNonConvergent",
    "KernelOverflow", "LabelCoverInstance", "MaxItersExceeded", "NotConverged",
    "PartitioningSystem", "PoaReport", "RhoReport", "RunTrace",
    "SmoothnessResult", "TaxAudit", "TaxProfile", "TollkitError", "TooLarge",
    "UnsupportedBasis", "audit_taxes", "bell_fractional",
    "best_profile_approximation", "best_response_dynamics",
    "binomial_expectation", "brute_force_min_sc", "build_partitioning_system",
    "build_tax_profile", "check_smoothness", "coarse_correlated_check",
    "design", "duality_gap", "empirical_poa", "enumerate_pure_nash",
    "fractional_loads", "gradient", "modified_cost", "modified_cost_table",
    "mu_factor", "multiplicative_weights_run", "player_cost", "poisson_kernel",
    "poisson_kernel_derivative", "random_instance", "reduce_label_cover",
    "relaxation_objective", "rho_factor", "rosenthal_potential", "social_cost",
    "solve_relaxation", "transversal_cost",
]

__version__ = "0.1.0"
