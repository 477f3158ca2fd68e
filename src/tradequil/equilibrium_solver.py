"""Equilibrium checks and the regularized fixed-point price solver.

The economy clears at prices ``p`` when, for every good ``k``,

    sum_i c_ki * <b_i, p> / <C_i, p>  <=  psi_k,

with ``psi`` the aggregate supply. The solver iterates a regularized map
on the price simplex for a decreasing sequence of regularization weights,
warm-starting each stage from the previous one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog, root

from ._numerics import as_matrix, as_vector
from .consistency import (
    _classify_factor,
    _with_row_sums,
    factor_supply,
    near_kernel,
    price_from_D,
    solve_D,
)
from .errors import (
    DivisionGuardError,
    NonConvergenceError,
    PreconditionError,
)

DEFAULT_TOL = 1e-6
DEFAULT_TOL_INNER = 1e-10
MAX_INNER_ITERATIONS = 200_000
STALL_EVALUATIONS = 2000


@dataclass(frozen=True)
class PriceVector:
    """Nonnegative prices with a declared normalization.

    ``simplex`` prices sum to one; ``clearing-cost`` prices preserve the
    aggregate supply cost over a clearing set (validated at construction);
    ``raw`` prices are unconstrained beyond nonnegativity.
    """

    p: np.ndarray
    normalization: str = "raw"

    def __post_init__(self):
        p = as_vector(self.p, "p")
        object.__setattr__(self, "p", p)
        if np.any(p < 0):
            raise ValueError("prices must be nonnegative")
        if not np.any(p > 0):
            raise ValueError("price vector must be nonzero")
        if self.normalization == "simplex":
            if abs(p.sum() - 1.0) > 1e-12:
                raise ValueError(
                    f"simplex normalization violated: sum(p) = {p.sum()!r}"
                )
        elif self.normalization not in ("clearing-cost", "raw"):
            raise ValueError(f"unknown normalization {self.normalization!r}")

    @classmethod
    def as_simplex(cls, p):
        p = as_vector(p, "p")
        total = p.sum()
        if total <= 0:
            raise ValueError("cannot project a nonpositive vector to the simplex")
        return cls(p / total, "simplex")

    @classmethod
    def clearing_cost(cls, p, psi, clearing_set):
        """Validate the clearing-cost identity sum_I psi*p = sum_I psi."""
        p = as_vector(p, "p")
        psi = as_vector(psi, "psi")
        idx = list(clearing_set)
        lhs = float(psi[idx] @ p[idx])
        rhs = float(psi[idx].sum())
        if abs(lhs - rhs) > 1e-12 * max(1.0, abs(rhs)):
            raise ValueError(
                f"clearing-cost identity violated: {lhs!r} != {rhs!r}"
            )
        return cls(p, "clearing-cost")


@dataclass(frozen=True)
class EquilibriumCheck:
    ok: bool
    clearing_set: tuple
    excess: np.ndarray
    violations: tuple  # (good index, excess value) pairs

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class EquilibriumSolution:
    """Converged solver output (immutable).

    ``clearing_set`` uses 0-based indices internally; the JSON form is
    1-based.
    """

    p0: PriceVector
    clearing_set: tuple
    y: np.ndarray
    excess: np.ndarray
    iterations: int
    final_epsilon: float
    residual: float

    @property
    def I(self):
        return self.clearing_set

    def to_dict(self):
        return {
            "schema_version": 1,
            "p0": self.p0.p.tolist(),
            "I": [k + 1 for k in self.clearing_set],
            "y": self.y.tolist(),
            "excess": self.excess.tolist(),
            "residual": self.residual,
            "iterations": self.iterations,
            "epsilon": self.final_epsilon,
        }


@dataclass(frozen=True)
class IdealCheck:
    ideal: bool
    balances: np.ndarray
    worst_agent: int
    worst_balance: float

    def __bool__(self):
        return self.ideal


@dataclass(frozen=True)
class IdealExistence:
    exists: bool
    p0: np.ndarray | None
    d: np.ndarray | None
    reason: str | None

    def __bool__(self):
        return self.exists


@dataclass(frozen=True)
class EpsilonSchedule:
    """Strictly decreasing regularization weights start * ratio**-m."""

    start: float = 1e-2
    ratio: float = 4.0
    steps: int = 13

    def __post_init__(self):
        if not (self.start > 0 and np.isfinite(self.start)):
            raise ValueError("schedule start must be positive and finite")
        if not self.ratio > 1:
            raise ValueError("schedule ratio must exceed 1 (strictly decreasing)")
        if self.steps < 1:
            raise ValueError("schedule needs at least one step")

    def values(self):
        return [self.start * self.ratio ** (-m) for m in range(self.steps)]


def _demand_weights(C, B, p, epsilon=0.0):
    """Per-agent income-to-demand-cost ratios <b_i,p>/(<C_i,p>+n*eps)."""
    n = C.shape[0]
    cost = C.T @ p + n * epsilon
    if epsilon == 0.0:
        zero = np.where(cost <= 0)[0]
        if zero.size:
            raise DivisionGuardError(
                f"demand cost <C_i, p> vanishes for agent {zero[0]}",
                agent=int(zero[0]),
            )
    return (B.T @ p) / cost


def excess_demand(C, B, p):
    """Componentwise demand minus aggregate supply at prices ``p``."""
    C = as_matrix(C, "C")
    B = as_matrix(B, "B")
    p = p.p if isinstance(p, PriceVector) else as_vector(p, "p")
    psi = B.sum(axis=1)
    return C @ _demand_weights(C, B, p) - psi


def _tolerance_vector(psi, tol):
    return tol * np.maximum(1.0, psi)


def is_equilibrium(C, B, p, tol=DEFAULT_TOL, tol_clear=None) -> EquilibriumCheck:
    """Check the equilibrium inequalities; report the clearing set.

    ``tol`` and ``tol_clear`` are relative factors applied per component as
    ``tol * max(1, psi_k)``.
    """
    C = as_matrix(C, "C")
    B = as_matrix(B, "B")
    if tol_clear is None:
        tol_clear = tol
    psi = B.sum(axis=1)
    excess = excess_demand(C, B, p)
    tolvec = _tolerance_vector(psi, tol)
    clearvec = _tolerance_vector(psi, tol_clear)
    violations = tuple(
        (int(k), float(excess[k])) for k in np.where(excess > tolvec)[0]
    )
    clearing = tuple(int(k) for k in np.where(np.abs(excess) <= clearvec)[0])
    return EquilibriumCheck(
        ok=not violations,
        clearing_set=clearing,
        excess=excess,
        violations=violations,
    )


def _regularized_map(C, B, psi, p, epsilon):
    w = _demand_weights(C, B, p, epsilon)
    f = (p * (C @ w) + epsilon * w.sum()) / psi
    return f / f.sum()


def _run_stage(C, B, psi, p, epsilon, theta, tol_stage, cap):
    """Damped iteration at fixed epsilon, with safeguarded extrapolation.

    The merit function is the fixed-point residual max|G(p) - p|. Every 16
    steps the linear tail is extrapolated (vector Aitken); the jump is kept
    only when it strictly shrinks the residual, and the best point seen is
    restored (once, disabling further jumps) if the orbit ever drifts far
    above it. Deterministic; returns (p, map evaluations, exit), the exit being
    "converged", "stalled" (no new best residual in ``STALL_EVALUATIONS``) or "cap".
    """
    g = _regularized_map(C, B, psi, p, epsilon)
    evals = 1
    d_prev = None
    best_p, best_resid = p, float(np.abs(g - p).max())
    evals_at_best = evals
    extrapolate = True
    reverted = False
    it = 0
    while evals < cap:
        resid = float(np.abs(g - p).max())
        if resid <= tol_stage:
            return p, evals, "converged"
        if evals - evals_at_best > STALL_EVALUATIONS:
            break  # stalled: no progress on the best residual; let the
            # caller root-find the stage instead of burning the budget
        if resid < best_resid:
            best_p, best_resid = p, resid
            evals_at_best = evals
        elif not reverted and resid > 10.0 * best_resid:
            # The orbit drifted; restart from the best point without jumps.
            p, reverted, extrapolate, d_prev = best_p, True, False, None
            g = _regularized_map(C, B, psi, p, epsilon)
            evals += 1
            continue
        p_new = (1 - theta) * p + theta * g
        p_new = p_new / p_new.sum()
        d = p_new - p
        if extrapolate and d_prev is not None and it % 16 == 15:
            den = float(d_prev @ d_prev)
            rate = float(d @ d_prev) / den if den > 0 else 0.0
            if 0.0 < rate < 1.0:
                cand = p_new + d * (rate / (1.0 - rate))
                if np.all(cand >= 0) and cand.sum() > 0:
                    cand = cand / cand.sum()
                    g_cand = _regularized_map(C, B, psi, cand, epsilon)
                    evals += 1
                    if float(np.abs(g_cand - cand).max()) < 0.9 * resid:
                        p, g, d_prev = cand, g_cand, None
                        it += 1
                        continue
        p, d_prev = p_new, d
        g = _regularized_map(C, B, psi, p, epsilon)
        evals += 1
        it += 1
    stage_exit = "cap" if evals >= cap else "stalled"
    return best_p if best_resid < float(np.abs(g - p).max()) else p, evals, stage_exit


def _newton_stage(C, B, psi, p, epsilon, tol_stage):
    """Stage fixed point by root finding in softmax coordinates.

    The regularized map keeps every stage fixed point strictly positive, so
    the softmax parametrization is exact; the result is accepted only when
    the verified fixed-point residual meets the stage tolerance.
    """
    n = psi.shape[0]
    if n == 1:
        return np.array([1.0]), 0
    u_full = np.log(np.maximum(p, 1e-18))
    u0 = (u_full - u_full[-1])[:-1]

    def gap(u):
        x = np.exp(np.concatenate([u, [0.0]]))
        q = x / x.sum()
        return (_regularized_map(C, B, psi, q, epsilon) - q)[:-1]

    result = root(gap, u0, method="hybr")
    x = np.exp(np.concatenate([result.x, [0.0]]))
    q = x / x.sum()
    residual = float(np.abs(_regularized_map(C, B, psi, q, epsilon) - q).max())
    if residual <= tol_stage:
        return q, int(result.nfev)
    return None, int(result.nfev)


def solve_fixed_point(
    C,
    B,
    schedule=None,
    damping=0.5,
    tol=DEFAULT_TOL,
    tol_clear=None,
    tol_inner=DEFAULT_TOL_INNER,
    max_inner=MAX_INNER_ITERATIONS,
) -> EquilibriumSolution:
    """Equilibrium prices via the regularized fixed-point map.

    Iterates ``p <- (1-theta) p + theta G_eps(p)`` on the simplex for each
    epsilon of the decreasing ``schedule``, warm-starting every stage.
    Requires strictly positive demand entries (nonnegative demand with
    positive row and column sums is accepted with a warning) and positive
    aggregate supply for every good.
    """
    C = as_matrix(C, "C")
    B = as_matrix(B, "B")
    if C.shape != B.shape:
        raise ValueError(f"C shape {C.shape} != B shape {B.shape}")
    if np.any(C < 0) or np.any(B < 0):
        raise ValueError("C and B must be nonnegative")
    n, l = C.shape
    psi = B.sum(axis=1)
    bad = np.where(psi <= 0)[0]
    if bad.size:
        raise PreconditionError(
            f"aggregate supply of good {bad[0]} is not positive; the map "
            "divides by psi_k",
            condition="positive_aggregate_supply",
        )
    if not np.all(C > 0):
        if np.all(C.sum(axis=0) > 0) and np.all(C.sum(axis=1) > 0):
            warnings.warn(
                "demand matrix has zero entries; convergence is guaranteed "
                "only for strictly positive demand",
                stacklevel=2,
            )
        else:
            raise PreconditionError(
                "demand matrix needs positive row and column sums",
                condition="positive_demand_sums",
            )
    if not 0 < damping <= 1:
        raise ValueError("damping must lie in (0, 1]")
    if schedule is None:
        schedule = EpsilonSchedule()
    epsilons = schedule.values() if isinstance(schedule, EpsilonSchedule) else [
        float(e) for e in schedule
    ]
    if not epsilons or any(
        e2 >= e1 for e1, e2 in zip(epsilons, epsilons[1:])
    ) or epsilons[-1] <= 0:
        raise ValueError("epsilon schedule must be positive and strictly decreasing")
    if tol_clear is None:
        tol_clear = tol

    p = np.full(n, 1.0 / n)
    iterations = 0
    last_epsilon = epsilons[-1]
    for m, epsilon in enumerate(epsilons):
        is_last = m == len(epsilons) - 1
        tol_stage = tol_inner if is_last else max(tol_inner, epsilon * 1e-2)
        p, used, stage_exit = _run_stage(
            C, B, psi, p, epsilon, damping, tol_stage, max_inner
        )
        iterations += used
        if stage_exit != "converged":
            # Root-find the stage fixed point directly, then verify it; the
            # damped orbit can stall when the map is barely contractive.
            p_root, used_root = _newton_stage(C, B, psi, p, epsilon, tol_stage)
            iterations += used_root
            if p_root is None:
                residual = float(
                    np.abs(_regularized_map(C, B, psi, p, epsilon) - p).max()
                )
                reason = (f"stalled after {used} map evaluations (no new best residual "
                          f"in {STALL_EVALUATIONS})" if stage_exit == "stalled" else
                          f"hit the {max_inner}-evaluation cap after {used} map evaluations")
                raise NonConvergenceError(
                    f"stage epsilon={epsilon:.3e} {reason}, and root finding "
                    f"failed; residual {residual:.3e}",
                    residual=residual,
                    iterations=iterations,
                    epsilon=epsilon,
                )
            p = p_root

    residual = float(np.abs(_regularized_map(C, B, psi, p, last_epsilon) - p).max())
    check = is_equilibrium(C, B, p, tol=tol, tol_clear=tol_clear)
    if not check.ok:
        worst = max(v for _, v in check.violations)
        raise NonConvergenceError(
            f"converged point violates the equilibrium inequalities by {worst:.3e}",
            residual=worst,
            iterations=iterations,
            epsilon=last_epsilon,
        )
    if not check.clearing_set:
        raise NonConvergenceError(
            "no good clears at the converged point; tighten tolerances",
            residual=residual,
            iterations=iterations,
            epsilon=last_epsilon,
        )
    y = _demand_weights(C, B, p)
    walras_gap = abs(float((C @ y) @ p - psi @ p))
    if walras_gap > 1e-8 * max(1.0, abs(float(psi @ p))):
        raise NonConvergenceError(
            f"aggregate cost identity violated by {walras_gap:.3e}",
            residual=walras_gap,
            iterations=iterations,
            epsilon=last_epsilon,
        )
    return EquilibriumSolution(
        p0=PriceVector.as_simplex(p),
        clearing_set=check.clearing_set,
        y=y,
        excess=check.excess,
        iterations=iterations,
        final_epsilon=last_epsilon,
        residual=residual,
    )


def evaluate_solution(C, B, p, tol=DEFAULT_TOL, tol_clear=None) -> EquilibriumSolution:
    """Package a candidate price vector as a solution object.

    The price must already pass the equilibrium check. Evaluated solutions
    carry ``iterations=0``, ``final_epsilon=0.0`` and ``residual=0.0`` to
    mark that no fixed-point iteration produced them.
    """
    C = as_matrix(C, "C")
    B = as_matrix(B, "B")
    p = p.p if isinstance(p, PriceVector) else as_vector(p, "p")
    check = is_equilibrium(C, B, p, tol=tol, tol_clear=tol_clear)
    if not check.ok:
        raise PreconditionError(
            f"price vector violates the equilibrium inequalities at goods "
            f"{[k for k, _ in check.violations]}",
            condition="is_equilibrium",
        )
    if not check.clearing_set:
        raise PreconditionError(
            "no good clears at the candidate price", condition="nonempty_I"
        )
    return EquilibriumSolution(
        p0=PriceVector.as_simplex(p),
        clearing_set=check.clearing_set,
        y=_demand_weights(C, B, p),
        excess=check.excess,
        iterations=0,
        final_epsilon=0.0,
        residual=0.0,
    )


def check_ideal(C, B, p) -> IdealCheck:
    """Is every agent's trade balance zero at prices ``p``?

    Balances are compared against ``1e-8 * <p, C_i>``; a nonpositive demand
    cost for any agent disqualifies the state.
    """
    C = as_matrix(C, "C")
    B = as_matrix(B, "B")
    p = p.p if isinstance(p, PriceVector) else as_vector(p, "p")
    if np.any(p < 0) or not np.any(p > 0):
        raise ValueError("p must be nonnegative and nonzero")
    demand_cost = C.T @ p
    balances = B.T @ p - demand_cost
    rel = np.abs(balances) - 1e-8 * demand_cost
    worst = int(np.argmax(rel))
    ideal = bool(np.all(demand_cost > 0) and np.all(rel <= 0))
    return IdealCheck(
        ideal=ideal,
        balances=balances,
        worst_agent=worst,
        worst_balance=float(balances[worst]),
    )


def exists_ideal(C, B) -> IdealExistence:
    """Decide whether prices zeroing every trade balance exist.

    Requires the aggregate balance to vanish. Runs the factorization, the
    unit-ratio eigen-system, and the nonnegative price recovery; all three
    must succeed.
    """
    C = as_matrix(C, "C")
    B = as_matrix(B, "B")
    if C.shape != B.shape:
        raise ValueError(f"C shape {C.shape} != B shape {B.shape}")
    total = B.sum(axis=1) - C.sum(axis=1)
    scale = max(1.0, float(np.abs(B).sum()), float(np.abs(C).sum()))
    if float(np.abs(total).max(initial=0.0)) > 1e-9 * scale:
        raise PreconditionError(
            "aggregate supply minus aggregate demand must vanish "
            f"(worst gap {float(np.abs(total).max()):.3e})",
            condition="zero_aggregate_balance",
        )
    l = C.shape[1]
    try:
        fact = factor_supply(C, B)
    except (ValueError, NonConvergenceError) as exc:
        return IdealExistence(False, None, None, f"factorization failed: {exc}")

    # Row sums of any factor satisfy C @ (row_sums - 1) = 0 here; pin them
    # to exactly one so the unit-ratio eigen-system is the right one.
    fact = _classify_factor(C, B, _with_row_sums(C, fact.B1, np.ones(l)))
    try:
        dvec = solve_D(fact, y=np.ones(l))
    except (ValueError, NonConvergenceError) as exc:
        return IdealExistence(False, None, None, f"eigen-system failed: {exc}")

    d, p0 = dvec.d, None
    recovery = price_from_D(C, d)
    if recovery:
        p0 = recovery.p0
    else:
        # The eigen-space may contain other positive vectors; search it for
        # one inside the row cone before giving up.
        found = _kernel_d_in_cone(C, fact.B1)
        if found is None:
            return IdealExistence(
                False, None, d, "d lies outside the cone of the rows of C"
            )
        d, p0 = found
    verdict = check_ideal(C, B, p0)
    if not verdict.ideal:
        return IdealExistence(
            False,
            p0,
            d,
            f"recovered prices leave agent {verdict.worst_agent} with "
            f"balance {verdict.worst_balance:.3e}",
        )
    return IdealExistence(True, p0, d, None)


def _kernel_d_in_cone(C, B1):
    """Positive vector in null(B1.T - I) of the form C.T @ p with p >= 0.

    Solved as a linear program maximizing the smallest component of ``d``
    subject to ``d = K w`` (kernel coordinates) and ``d = C.T @ p``.
    Returns ``(d, p)`` or None.
    """
    n, l = C.shape
    kernel = near_kernel(B1.T - np.eye(l), float(np.abs(B1).max()))
    if kernel.size == 0:
        return None
    dim = kernel.shape[1]
    # Variables: (p_1..p_n, w_1..w_dim, mu); maximize mu.
    cost = np.zeros(n + dim + 1)
    cost[-1] = -1.0
    A_eq = np.hstack([C.T, -kernel, np.zeros((l, 1))])
    b_eq = np.zeros(l)
    norm_row = np.hstack([np.zeros(n), kernel.sum(axis=0), np.zeros(1)])
    A_eq = np.vstack([A_eq, norm_row])
    b_eq = np.append(b_eq, float(l))
    A_ub = np.hstack([np.zeros((l, n)), -kernel, np.ones((l, 1))])
    b_ub = np.zeros(l)
    bounds = [(0, None)] * n + [(None, None)] * dim + [(0, None)]
    res = linprog(cost, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if not res.success or res.x is None or res.x[-1] <= 1e-12:
        return None
    p = res.x[:n]
    d = kernel @ res.x[n:n + dim]
    if np.any(d <= 0):
        return None
    return d, p
