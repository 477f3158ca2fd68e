"""Equilibrium checks and the regularized fixed-point price solver.

The economy clears at prices ``p`` when, for every good ``k``,

    sum_i c_ki * <b_i, p> / <C_i, p>  <=  psi_k,

with ``psi`` the aggregate supply. The solver iterates the regularized map
``p <- G_eps(p)`` on the price simplex for a decreasing sequence of
regularization weights, warm-starting each stage from the previous one.
In currency units the regularization hardly acts and the iteration
converges at a rate near 1, so every 16 steps a stage tries a Newton jump
from the map's exact Jacobian (C. T. Kelley, *Solving Nonlinear Equations
with Newton's Method*, SIAM 2003, ch. 1-2).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._numerics import (
    DEFAULT_TOL,
    DEFAULT_TOL_INNER,
    LOG_FLOOR,
    RESIDUAL_TOL,
    ROUNDING,
    as_matrix,
    as_vector,
    root,
)
from .errors import (
    DivisionGuardError,
    NonConvergenceError,
    PreconditionError,
)

# Regularization weights of the stages, 1e-2 * 4**-m, strictly decreasing.
EPSILONS = tuple(1e-2 * 4.0 ** (-m) for m in range(13))
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
            if abs(p.sum() - 1.0) > ROUNDING:
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
        if abs(lhs - rhs) > ROUNDING * abs(rhs):
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

    @classmethod
    def from_dict(cls, data):
        """Inverse of ``to_dict``: raises KeyError for a missing field and
        ValueError for a malformed one (``p0`` must already sum to one)."""
        return cls(
            p0=PriceVector(data["p0"], "simplex"),
            clearing_set=tuple(int(k) - 1 for k in data["I"]),
            y=as_vector(data["y"], "y"),
            excess=as_vector(data["excess"], "excess"),
            iterations=int(data["iterations"]),
            final_epsilon=float(data["epsilon"]),
            residual=float(data["residual"]),
        )


def demand_weights(C, B, p):
    """Per-agent income-to-demand-cost ratios <b_i,p>/<C_i,p>."""
    cost = C.T @ p
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
    return C @ demand_weights(C, B, p) - psi


def is_equilibrium(C, B, p, tol=DEFAULT_TOL) -> EquilibriumCheck:
    """Check the equilibrium inequalities; report the clearing set.

    Good ``k`` violates them when its excess demand exceeds ``tol * psi_k``
    and clears when the excess is at most that in absolute value.
    """
    C = as_matrix(C, "C")
    B = as_matrix(B, "B")
    excess = excess_demand(C, B, p)
    tolvec = tol * B.sum(axis=1)
    violations = tuple(
        (int(k), float(excess[k])) for k in np.where(excess > tolvec)[0]
    )
    clearing = tuple(int(k) for k in np.where(np.abs(excess) <= tolvec)[0])
    return EquilibriumCheck(
        ok=not violations,
        clearing_set=clearing,
        excess=excess,
        violations=violations,
    )


def _stage_map(C, B, psi, epsilon):
    """The regularized map G_eps of one stage, on the simplex:

        w_i = <b_i, p> / (<C_i, p> + n*eps),
        G(p) ~ (p * (C @ w) + eps * sum(w)) / psi,  normalized to sum 1.

    The returned map carries its exact derivative as ``jacobian(p)``: with
    ``f`` the unnormalized map and ``u = C @ w``,

        dw = (B.T - w * C.T) / (<C_i, p> + n*eps)          (rows i),
        df = (diag(u) + p * (C @ dw) + eps * 1 sum(dw)) / psi  (rows k),
        J  = (df - (f / sum f) sum(df)) / sum f,

    sums taken over rows. The bound products and ``n*eps`` are made once per
    stage; the solver spends most of its time here, so the loop calls
    ``dot`` and the reductions directly.
    """
    CT, BT = C.T, B.T
    Cdot, CTdot, BTdot = C.dot, CT.dot, BT.dot
    shift = C.shape[0] * epsilon
    add = np.add.reduce
    diagonal = np.diag_indices(C.shape[0])

    def stage_map(p):
        w = BTdot(p) / (CTdot(p) + shift)
        f = (p * Cdot(w) + epsilon * add(w, 0)) / psi
        return f / add(f, 0)

    def jacobian(p):
        cost = CTdot(p) + shift
        w = BTdot(p) / cost
        dw = (BT - w[:, None] * CT) / cost[:, None]
        u = Cdot(w)
        f = (p * u + epsilon * add(w, 0)) / psi
        df = p[:, None] * Cdot(dw)
        df[diagonal] += u
        df += epsilon * add(dw, 0)
        df /= psi[:, None]
        total = add(f, 0)
        return (df - (f / total)[:, None] * add(df, 0)) / total

    stage_map.jacobian = jacobian
    return stage_map


def _residual(G, p):
    """Fixed-point residual max|G(p) - p|."""
    return float(np.maximum.reduce(np.abs(G(p) - p)))


def _newton_jump(G, p, d):
    """Newton step ``p + (I - J)^-1 d`` for ``d = G(p) - p``, on the simplex.

    None when ``I - J`` is singular or the step is not finite and strictly
    positive; a NaN Jacobian gives a NaN step, which fails that test.
    """
    try:
        cand = p + np.linalg.solve(np.eye(p.shape[0]) - G.jacobian(p), d)
    except np.linalg.LinAlgError:
        return None
    if not np.all(cand > 0):
        return None
    total = cand.sum()
    return cand / total if np.isfinite(total) else None


def _run_stage(G, p, tol_stage, cap, extrapolate=True):
    """Plain iteration ``p <- G(p)`` at fixed epsilon, with safeguarded Newton jumps.

    The merit function is the fixed-point residual max|G(p) - p|. If
    ``extrapolate``, every 16 steps a Newton jump from ``G.jacobian`` is
    tried (``_newton_jump``); it is kept only when it shrinks the residual
    below 0.9 of the current one. Deterministic; returns (p, map
    evaluations, exit), ``p`` being the stage's last point and the exit
    "converged", "stalled" (residual not halved in ``STALL_EVALUATIONS``) or
    "cap".
    """
    peak, absolute = np.maximum.reduce, np.abs
    g = G(p)
    evals = 1
    halved_resid, evals_at_halving = np.inf, evals
    it = 0
    while evals < cap:
        d = g - p  # G(p) is on the simplex already: d is the step and the residual
        resid = float(peak(absolute(d)))
        if resid <= tol_stage:
            return p, evals, "converged"
        if evals - evals_at_halving > STALL_EVALUATIONS:
            # Too slow a mode (or none) to finish the stage; let the caller
            # root-find it instead of burning the budget.
            return p, evals, "stalled"
        if resid <= 0.5 * halved_resid:
            halved_resid, evals_at_halving = resid, evals
        if extrapolate and it % 16 == 15:
            cand = _newton_jump(G, p, d)
            if cand is not None:
                g_cand = G(cand)
                evals += 1
                if float(peak(absolute(g_cand - cand))) < 0.9 * resid:
                    p, g = cand, g_cand
                    it += 1
                    continue
        p = g
        g = G(p)
        evals += 1
        it += 1
    return p, evals, "cap"


def _softmax(v):
    """``exp(v) / sum(exp(v))``, or None where that sum overflows."""
    with np.errstate(over="ignore"):
        x = np.exp(v)
        total = x.sum()
    return x / total if np.isfinite(total) else None


def _newton_stage(G, p, tol_stage):
    """Stage fixed point by root finding in softmax coordinates.

    The regularized map keeps every stage fixed point strictly positive, so
    the softmax parametrization is exact; the result is accepted only when
    the verified fixed-point residual meets the stage tolerance.
    """
    n = p.shape[0]
    if n == 1:
        return np.array([1.0]), 0
    u_full = np.log(np.maximum(p, LOG_FLOOR))
    u0 = (u_full - u_full[-1])[:-1]

    def gap(u):
        q = _softmax(np.append(u, 0.0))
        if q is None:
            # A NaN residual makes hybr reject the step. Shifting exp to keep
            # it finite instead lets hybr reach points where a good's price
            # collapses, and more solves fail.
            return np.full(n - 1, np.nan)
        return (G(q) - q)[:-1]

    result = root(gap, u0, method="hybr")
    q = _softmax(np.append(result.x, 0.0))
    if q is None:
        return None, int(result.nfev)
    if _residual(G, q) <= tol_stage:
        return q, int(result.nfev)
    return None, int(result.nfev)


def solve_fixed_point(C, B, tol=DEFAULT_TOL,
                      tol_inner=DEFAULT_TOL_INNER) -> EquilibriumSolution:
    """Equilibrium prices via the regularized fixed-point map.

    Iterates ``p <- G_eps(p)`` with Newton jumps on the simplex for each
    epsilon of ``EPSILONS``, warm-starting every stage from the last point
    of the one before; a stage that stalls or reaches
    ``MAX_INNER_ITERATIONS`` is root-found instead. ``tol`` bounds each
    good's excess demand relative to its supply and ``tol_inner`` the last
    stage's fixed-point residual. A solve that fails is repeated once
    without Newton jumps.
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
    if not (tol > 0 and tol_inner > 0):
        raise ValueError("tolerances tol and tol_inner must be positive")
    try:
        return _solve(C, B, psi, tol, tol_inner, True, 0)
    except NonConvergenceError as err:
        # A jump can land a falling price near zero while its good is in excess
        # demand; the price then climbs back by that small fraction per step,
        # too little for the absolute residual to see. Retry without jumps.
        return _solve(C, B, psi, tol, tol_inner, False, err.iterations)


def _solve(C, B, psi, tol, tol_inner, extrapolate, iterations):
    """Stages and checks of ``solve_fixed_point``, counting on from ``iterations``."""
    p = np.full(C.shape[0], 1.0 / C.shape[0])
    last_epsilon = EPSILONS[-1]
    for epsilon in EPSILONS:
        tol_stage = tol_inner if epsilon == last_epsilon else max(tol_inner, epsilon * 1e-2)
        G = _stage_map(C, B, psi, epsilon)
        p, used, stage_exit = _run_stage(G, p, tol_stage, MAX_INNER_ITERATIONS, extrapolate)
        iterations += used
        if stage_exit != "converged":
            # Root-find the stage fixed point directly, then verify it; the
            # orbit can stall when the map is barely contractive.
            p_root, used_root = _newton_stage(G, p, tol_stage)
            iterations += used_root
            if p_root is None:
                residual = _residual(G, p)
                reason = (f"stalled after {used} map evaluations (residual not "
                          f"halved in {STALL_EVALUATIONS})" if stage_exit == "stalled" else
                          f"hit the {MAX_INNER_ITERATIONS}-evaluation cap after {used} "
                          "map evaluations")
                raise NonConvergenceError(
                    f"stage epsilon={epsilon:.3e} {reason}, and root finding "
                    f"failed; residual {residual:.3e}",
                    residual=residual,
                    iterations=iterations,
                    epsilon=epsilon,
                )
            p = p_root

    residual = _residual(G, p)  # G is the last stage's map
    check = is_equilibrium(C, B, p, tol=tol)
    if not check.ok:
        k, worst = max(check.violations, key=lambda violation: violation[1])
        raise NonConvergenceError(
            f"converged point violates the equilibrium inequalities by {worst:.3e} "
            f"at good {k + 1} (1-based), {worst / psi[k]:.3g} of its aggregate supply",
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
    y = demand_weights(C, B, p)
    walras_gap = abs(float((C @ y) @ p - psi @ p))
    if walras_gap > RESIDUAL_TOL * float(psi @ p):
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


def evaluate_solution(C, B, p, tol=DEFAULT_TOL) -> EquilibriumSolution:
    """Package a candidate price vector as a solution object.

    The price must already pass the equilibrium check. Evaluated solutions
    carry ``iterations=0``, ``final_epsilon=0.0`` and ``residual=0.0`` to
    mark that no fixed-point iteration produced them.
    """
    C = as_matrix(C, "C")
    B = as_matrix(B, "B")
    p = p.p if isinstance(p, PriceVector) else as_vector(p, "p")
    check = is_equilibrium(C, B, p, tol=tol)
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
        y=demand_weights(C, B, p),
        excess=check.excess,
        iterations=0,
        final_epsilon=0.0,
        residual=0.0,
    )
