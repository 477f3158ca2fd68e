"""Equilibrium price vectors and recession diagnostics for goods-exchange
economies built from bilateral trade-flow data."""

from .equilibrium_solver import (
    EquilibriumCheck,
    EquilibriumSolution,
    PriceVector,
    evaluate_solution,
    excess_demand,
    is_equilibrium,
    solve_fixed_point,
)
from .errors import (
    DegenerateTargetError,
    DivisionGuardError,
    EmptyMatrixError,
    InfeasibleError,
    InvalidFlowError,
    NonConvergenceError,
    OutsideConeError,
    PreconditionError,
    RankDeficiencyError,
    SchemaError,
)
from .recession import (
    RecessionReport,
    degeneracy_report,
    generalized_price,
    modified_supply,
    real_consumption,
    recession_level,
)
from .trade_data import (
    CostMatrices,
    ShareReport,
    TradeFlowTensor,
    build_cost_matrices,
    read_flows_csv,
    shares,
)

__version__ = "0.1.0"

# The structure analysis is imported on first use, so that importing
# ``tradequil.cli``, which never calls it, does not compile and load it.
_LAZY = {
    **dict.fromkeys(("BiorthogonalSystem", "Membership", "MembershipResult",
                     "PositiveSolutionFamily", "biorthogonal_system", "classify_membership",
                     "generating_set", "interior_subset", "positive_solution_family",
                     "strictly_positive_solution"), "cone_geometry"),
    **dict.fromkeys(("ConsistencyCertificate", "DVector", "Factorization", "IdealCheck",
                     "IdealExistence", "PriceRecovery", "certify_consistency", "check_ideal",
                     "construct_ideal_supply", "construct_supply", "exists_ideal",
                     "factor_supply", "price_from_D", "solve_D"), "consistency"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    return value


__all__ = [
    "BiorthogonalSystem",
    "ConsistencyCertificate",
    "CostMatrices",
    "DVector",
    "DegenerateTargetError",
    "DivisionGuardError",
    "EmptyMatrixError",
    "EquilibriumCheck",
    "EquilibriumSolution",
    "Factorization",
    "IdealCheck",
    "IdealExistence",
    "InfeasibleError",
    "InvalidFlowError",
    "Membership",
    "MembershipResult",
    "NonConvergenceError",
    "OutsideConeError",
    "PositiveSolutionFamily",
    "PreconditionError",
    "PriceRecovery",
    "PriceVector",
    "RankDeficiencyError",
    "RecessionReport",
    "SchemaError",
    "ShareReport",
    "TradeFlowTensor",
    "biorthogonal_system",
    "build_cost_matrices",
    "certify_consistency",
    "check_ideal",
    "classify_membership",
    "construct_ideal_supply",
    "construct_supply",
    "degeneracy_report",
    "evaluate_solution",
    "excess_demand",
    "exists_ideal",
    "factor_supply",
    "generalized_price",
    "generating_set",
    "interior_subset",
    "is_equilibrium",
    "modified_supply",
    "positive_solution_family",
    "price_from_D",
    "read_flows_csv",
    "real_consumption",
    "recession_level",
    "shares",
    "solve_D",
    "solve_fixed_point",
    "strictly_positive_solution",
]
