"""Equilibrium checks and the regularized fixed-point price solver.

The economy clears at prices ``p`` when, for every good ``k``,

    sum_i c_ki * <b_i, p> / <C_i, p>  <=  psi_k,

with ``psi`` the aggregate supply. The solver iterates the regularized map
``p <- G_eps(p)`` on the price simplex for a decreasing sequence of
regularization weights relative to the data's largest entry, warm-starting
each stage from the previous one. The regularization hardly acts and the
iteration converges at a rate near 1, so every 16 steps a stage tries a
Newton jump from the map's exact Jacobian (C. T. Kelley, *Solving Nonlinear
Equations with Newton's Method*, SIAM 2003, ch. 1-2). Prices outside the
clearing set fall toward zero, and a full Newton step would often make them
negative; the jump is cut back to stay inside the simplex instead, as an
interior-point method keeps its iterates interior. After every stage the
same Newton step, taken unguarded on the last stage's map, finishes the
stage's point, and the solve returns the first stage point whose Newton
finish passes every check; most solves stop after the first stage. Where
the equilibrium is not unique, the answer is the first verified point on
the homotopy path, not necessarily its limit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._numerics import (
    DEFAULT_TOL,
    DEFAULT_TOL_INNER,
    RESIDUAL_TOL,
    ROUNDING,
    as_economy,
    as_vector,
    magnitude,
)
from .errors import (
    DivisionGuardError,
    NonConvergenceError,
    PreconditionError,
)

# The stages' regularization schedule, 1e-2 * 4**-m, strictly decreasing.
EPSILONS = tuple(1e-2 * 4.0 ** (-m) for m in range(13))
# Data magnitude at which a stage's weight is its epsilon. Of 2**38 to 2**41, this
# solved the most g20 panels (magnitudes 2**38.7 to 2**42.1) in fewest evaluations.
REFERENCE_MAGNITUDE = 2.0 ** 39
MAX_INNER_ITERATIONS = 200_000
STALL_EVALUATIONS = 2000
# A Newton jump moves each falling price at most this fraction of the way to
# zero (fraction to the boundary, Nocedal & Wright, Numerical Optimization,
# 2nd ed., sec. 16.6).
JUMP_TO_BOUNDARY = 0.9
# A jump that cuts a price below this fraction of its old value is kept only
# if that good's price still falls at the new point.
JUMP_COLLAPSE = 0.5
# A last stage that stops short of its tolerance gets at most this many plain
# Newton steps.
FINISH_STEPS = 20


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
        price = cls(p, "clearing-cost")
        idx = list(clearing_set)
        psi_on = as_vector(psi, "psi")[idx]
        lhs = float(psi_on @ price.p[idx])
        rhs = float(psi_on.sum())
        if abs(lhs - rhs) > ROUNDING * abs(rhs):
            raise ValueError(
                f"clearing-cost identity violated: {lhs!r} != {rhs!r}"
            )
        return price


@dataclass(frozen=True)
class EquilibriumCheck:
    ok: bool
    clearing_set: tuple
    excess: np.ndarray
    violations: tuple  # (good index, excess value) pairs

    def __bool__(self):
        return self.ok

    def worst_good(self, psi):
        """The violating good whose excess is the largest share of its supply."""
        return max((k for k, _ in self.violations), key=lambda k: self.excess[k] / psi[k])

    def worst_violation(self, psi, tol):
        """``tol`` and ``worst_good``, with its excess as a share of its supply."""
        k = self.worst_good(psi)
        return (f"at tol={tol:g}: good {k + 1} (1-based) has the largest excess "
                f"demand, {self.excess[k] / psi[k]:.3g} of its aggregate supply")


@dataclass(frozen=True)
class EquilibriumSolution:
    """Verified equilibrium (immutable), with the finite, positive tolerance
    ``tol`` at which its equilibrium inequalities and clearing set were checked.

    ``clearing_set`` uses 0-based indices internally; the JSON form is
    1-based.
    """

    p0: PriceVector
    clearing_set: tuple
    y: np.ndarray
    excess: np.ndarray
    iterations: int
    tol: float
    residual: float

    def __post_init__(self):
        if not 0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive and finite, not {self.tol!r}")

    def to_dict(self):
        return {
            "schema_version": 2,
            "p0": self.p0.p.tolist(),
            "I": [k + 1 for k in self.clearing_set],
            "y": self.y.tolist(),
            "excess": self.excess.tolist(),
            "residual": self.residual,
            "iterations": self.iterations,
            "tol": self.tol,
        }

    @classmethod
    def from_dict(cls, data):
        """Inverse of ``to_dict``: raises KeyError for a missing field and
        ValueError for a malformed one (``p0`` must already sum to one, and
        ``tol`` be finite and positive). A ``schema_version`` 1 payload
        records no tolerance; it is read as checked at ``DEFAULT_TOL``."""
        return cls(
            p0=PriceVector(data["p0"], "simplex"),
            clearing_set=tuple(int(k) - 1 for k in data["I"]),
            y=as_vector(data["y"], "y"),
            excess=as_vector(data["excess"], "excess"),
            iterations=int(data["iterations"]),
            tol=DEFAULT_TOL if data.get("schema_version") == 1 else float(data["tol"]),
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
    return excess_demand_unchecked(*as_economy(C, B, p))


def excess_demand_unchecked(C, B, p):
    """:func:`excess_demand` of ``(C, B, p)`` that :func:`as_economy` has
    already returned, without checking them again."""
    psi = B.sum(axis=1)
    return C @ demand_weights(C, B, p) - psi


def is_equilibrium(C, B, p, tol=DEFAULT_TOL) -> EquilibriumCheck:
    """Check the equilibrium inequalities; report the clearing set.

    Good ``k`` violates them when its excess demand exceeds ``tol * psi_k``
    and clears when the excess is at most that in absolute value.
    """
    return is_equilibrium_unchecked(*as_economy(C, B, p), tol=tol)


def is_equilibrium_unchecked(C, B, p, tol=DEFAULT_TOL) -> EquilibriumCheck:
    """:func:`is_equilibrium` of ``(C, B, p)`` that :func:`as_economy` has
    already returned, without checking them again."""
    excess = excess_demand_unchecked(C, B, p)
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


def _stage_map(C, B, psi, weight):
    """The regularized map G of one stage, on the simplex:

        w_i = <b_i, p> / <C_i, p>,
        G(p) ~ (p * (C @ w) + weight * sum(w)) / psi,  normalized to sum 1.

    The returned map carries its exact derivative as ``jacobian(p)``: with
    ``f`` the unnormalized map and ``u = C @ w``,

        dw = (B.T - w * C.T) / <C_i, p>                          (rows i),
        df = (diag(u) + p * (C @ dw) + weight * 1 sum(dw)) / psi  (rows k),
        J  = (df - (f / sum f) sum(df)) / sum f,

    sums taken over rows. The solver spends most of its time here, so the
    loop calls bound ``dot`` methods and the reductions directly.
    """
    CT, BT = C.T, B.T
    Cdot, CTdot, BTdot = C.dot, CT.dot, BT.dot
    add = np.add.reduce
    diagonal = np.diag_indices(C.shape[0])

    def stage_map(p):
        w = BTdot(p) / CTdot(p)
        f = (p * Cdot(w) + weight * add(w, 0)) / psi
        return f / add(f, 0)

    def jacobian(p):
        cost = CTdot(p)
        w = BTdot(p) / cost
        dw = (BT - w[:, None] * CT) / cost[:, None]
        u = Cdot(w)
        f = (p * u + weight * add(w, 0)) / psi
        df = p[:, None] * Cdot(dw)
        df[diagonal] += u
        df += weight * add(dw, 0)
        df /= psi[:, None]
        total = add(f, 0)
        return (df - (f / total)[:, None] * add(df, 0)) / total

    stage_map.jacobian = jacobian
    return stage_map


def _residual(G, p):
    """Fixed-point residual max|G(p) - p|."""
    return float(np.maximum.reduce(np.abs(G(p) - p)))


def _newton_jump(G, p, d):
    """Newton step ``p + alpha * (I - J)^-1 d`` for ``d = G(p) - p``, on the simplex.

    ``alpha`` is the largest step length up to 1 that moves no price more
    than ``JUMP_TO_BOUNDARY`` of the way to zero. None when ``I - J`` is
    singular, the step is not finite (a NaN Jacobian gives a NaN step) or
    the point is not strictly positive, as when a zero price would fall.
    """
    try:
        step = np.linalg.solve(np.eye(p.shape[0]) - G.jacobian(p), d)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(step)):
        return None
    # Only goods that the full step moves further than that bound the length,
    # so the ratios stay below 1 / JUMP_TO_BOUNDARY and cannot overflow.
    blocking = step < -JUMP_TO_BOUNDARY * p
    alpha = min(1.0, JUMP_TO_BOUNDARY * float(np.min(p[blocking] / -step[blocking],
                                                     initial=np.inf)))
    cand = p + alpha * step
    return cand / cand.sum() if np.all(cand > 0) else None


def _run_stage(G, p, tol_stage, cap, extrapolate=True):
    """Plain iteration ``p <- G(p)`` at fixed epsilon, with safeguarded Newton jumps.

    The merit function is the fixed-point residual max|G(p) - p|. If
    ``extrapolate``, every 16 steps a Newton jump from ``G.jacobian`` is
    tried (``_newton_jump``, cut back to keep prices positive). It is kept
    only when it shrinks the residual below 0.9 of the current one and every
    good whose price it cut below ``JUMP_COLLAPSE`` of the old price is
    still falling at the new point: the absolute residual cannot see a
    collapsed price whose good is in excess demand. Deterministic; returns
    (p, map evaluations, exit), ``p`` being the stage's last point, from which
    the next stage goes on whatever the exit, and the exit "converged",
    "stalled" (residual not halved in ``STALL_EVALUATIONS``) or "cap".
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
            # Too slow a mode (or none) to finish the stage; hand the point
            # on instead of burning the budget.
            return p, evals, "stalled"
        if resid <= 0.5 * halved_resid:
            halved_resid, evals_at_halving = resid, evals
        if extrapolate and it % 16 == 15:
            cand = _newton_jump(G, p, d)
            if cand is not None:
                g_cand = G(cand)
                evals += 1
                if (float(peak(absolute(g_cand - cand))) < 0.9 * resid
                        and not np.any((cand < JUMP_COLLAPSE * p) & (g_cand > cand))):
                    p, g = cand, g_cand
                    it += 1
                    continue
        p = g
        g = G(p)
        evals += 1
        it += 1
    return p, evals, "cap"


def _newton_finish(G, p, tol):
    """At most ``FINISH_STEPS`` plain Newton steps ``_newton_jump(G, p, G(p) - p)``.

    Returns (the first point, ``p`` itself included, whose residual
    max|G(p) - p| is at most ``tol``, or None, map evaluations). The solver
    runs it after every stage, with ``G`` the last stage's map and ``p`` the
    stage's last point. Unlike a jump inside a stage, a step is taken
    whatever it does to the residual: the finished point is judged by the
    equilibrium checks, not by the path to it.
    """
    evals = 0
    while True:
        d = G(p) - p
        evals += 1
        if float(np.abs(d).max()) <= tol:
            return p, evals
        if evals > FINISH_STEPS:
            return None, evals
        p = _newton_jump(G, p, d)
        if p is None:
            return None, evals


def solve_fixed_point(C, B, tol=DEFAULT_TOL) -> EquilibriumSolution:
    """Equilibrium prices via the regularized fixed-point map.

    Iterates ``p <- G_eps(p)`` with Newton jumps on the simplex for each
    epsilon of ``EPSILONS``, warm-starting every stage from the last point
    of the one before, whether that stage converged, stalled or reached
    ``MAX_INNER_ITERATIONS``. After every stage, at most ``FINISH_STEPS``
    plain Newton steps on the last stage's map take the stage's point to a
    fixed-point residual of ``DEFAULT_TOL_INNER``. The solution is the
    first stage point whose Newton finish passes every check: no good's
    excess demand above ``tol`` times its supply, a nonempty clearing set
    and the Walras identity. It records ``tol``; its ``residual`` is
    max|G(p) - p| for the last stage's map and its ``iterations`` count the
    map evaluations of the stages and of every finish. A solve whose stage
    points all fail is repeated once without Newton jumps inside the
    stages. Scaling ``C`` and ``B`` scales only ``excess``. Needs no scipy.
    Requires strictly positive demand entries (nonnegative demand with
    positive row and column sums is accepted with a warning), positive
    aggregate supply for every good and a finite, positive ``tol``.
    """
    C, B = as_economy(C, B)
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
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, not {tol!r}")
    return _solve(C, B, psi, tol)


def _accept(C, B, psi, G_last, p, tol, iterations):
    """The solution at a finished point ``p``, or NonConvergenceError.

    ``p`` is accepted when no equilibrium inequality is violated at ``tol``,
    the clearing set is nonempty and the Walras identity
    ``<C y, p> = <psi, p>`` holds to ``RESIDUAL_TOL``.
    """
    check = is_equilibrium_unchecked(C, B, p, tol=tol)
    if not check.ok:
        raise NonConvergenceError(
            "converged point violates the equilibrium inequalities "
            + check.worst_violation(psi, tol),
            residual=float(check.excess[check.worst_good(psi)]),
            iterations=iterations,
        )
    if not check.clearing_set:
        raise NonConvergenceError(
            "no good clears at the converged point; tighten tolerances",
            residual=_residual(G_last, p),
            iterations=iterations,
        )
    y = demand_weights(C, B, p)
    walras_gap = abs(float((C @ y) @ p - psi @ p))
    if walras_gap > RESIDUAL_TOL * float(psi @ p):
        raise NonConvergenceError(
            f"aggregate cost identity violated by {walras_gap:.3e}",
            residual=walras_gap,
            iterations=iterations,
        )
    return EquilibriumSolution(
        p0=PriceVector.as_simplex(p),
        clearing_set=check.clearing_set,
        y=y,
        excess=check.excess,
        iterations=iterations,
        tol=tol,
        residual=_residual(G_last, p),
    )


def _solve(C, B, psi, tol):
    """Stages and checks of ``solve_fixed_point``, in two passes from the uniform price.

    After every stage, ``_newton_finish`` on the last stage's map runs from
    the stage's last point, and the first finished point that ``_accept``
    accepts is returned. The first pass makes Newton jumps, the second,
    run only if the first ends without a solution, does not: a jump can
    land a falling price near zero while its good is in excess demand, and
    the price then climbs back too slowly for the absolute residual to see.
    """
    unit = magnitude(C, B) / REFERENCE_MAGNITUDE
    G_last = _stage_map(C, B, psi, EPSILONS[-1] * unit)
    iterations = 0
    for extrapolate in (True, False):
        p = np.full(C.shape[0], 1.0 / C.shape[0])
        for epsilon in EPSILONS:
            G = G_last if epsilon == EPSILONS[-1] else _stage_map(C, B, psi, epsilon * unit)
            tol_stage = DEFAULT_TOL_INNER if G is G_last else max(DEFAULT_TOL_INNER, epsilon * 1e-2)
            # A stage that stalls or reaches the cap hands on its last point too.
            p, used, stage_exit = _run_stage(G, p, tol_stage, MAX_INNER_ITERATIONS, extrapolate)
            iterations += used
            p_finished, used_finish = _newton_finish(G_last, p, DEFAULT_TOL_INNER)
            iterations += used_finish
            if p_finished is not None:
                try:
                    return _accept(C, B, psi, G_last, p_finished, tol, iterations)
                except NonConvergenceError as err:
                    rejected = err

    if p_finished is not None:
        raise rejected  # why the last stage's finished point was refused
    # The last stage stopped short of DEFAULT_TOL_INNER and its finish failed.
    residual = _residual(G_last, p)
    reason = (f"stalled after {used} map evaluations (residual not "
              f"halved in {STALL_EVALUATIONS})" if stage_exit == "stalled" else
              f"hit the {MAX_INNER_ITERATIONS}-evaluation cap after {used} "
              "map evaluations")
    raise NonConvergenceError(
        f"the last stage {reason}; residual {residual:.3e}",
        residual=residual,
        iterations=iterations,
    )


def evaluate_solution(C, B, p, tol=DEFAULT_TOL) -> EquilibriumSolution:
    """Package a candidate price vector as a solution object.

    The price must already pass the equilibrium check at ``tol``, which the
    solution records. Evaluated solutions carry ``iterations=0`` and
    ``residual=0.0`` to mark that no fixed-point iteration produced them.
    """
    C, B, p = as_economy(C, B, p)
    check = is_equilibrium_unchecked(C, B, p, tol=tol)
    if not check.ok:
        raise PreconditionError(
            "price vector violates the equilibrium inequalities "
            + check.worst_violation(B.sum(axis=1), tol),
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
        tol=tol,
        residual=0.0,
    )
