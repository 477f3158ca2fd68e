"""Supply/demand structure: factorizations B = C @ B1 and what follows.

A supply structure agrees with a demand structure when the supply matrix
factors through the demand matrix, ``B = C @ B1``. The quality of the
factor (nonnegative and indecomposable, or merely with nonnegative row
sums) decides whether a market-clearing price vector exists; the route to
that price runs through a strictly positive eigenvector ``d`` of the
factor and a nonnegative solve of ``C.T @ p = d``. Whether an ideal
equilibrium exists, prices at which every agent's trade balance vanishes, is
decided without a factor, and :func:`check_ideal` verifies the prices found.

Every positive vector the module needs, ``d``, the ideal prices and the row
sums of a rank-``|I|`` factor, comes from one linear program of one shape,
:func:`_max_smallest`: maximize the smallest slack of a set of inequality
rows over nonnegative solutions of a set of equality rows, on dimensionless
data so that no verdict depends on the currency unit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cone_geometry
from ._numerics import (
    BASE_TOL,
    EIG_TOL,
    RESIDUAL_TOL,
    ROUNDING,
    as_economy,
    as_matrix,
    as_vector,
    clearing_subset,
    linprog,
    magnitude,
    nnls_solve,
    numerical_rank,
)
from .errors import (
    DegenerateTargetError,
    DivisionGuardError,
    InfeasibleError,
    NonConvergenceError,
    PreconditionError,
    RankDeficiencyError,
)


@dataclass(frozen=True)
class Factorization:
    """A factor ``B1`` with ``B = C @ B1`` and its verified properties."""

    B1: np.ndarray
    row_sums: np.ndarray
    mode: str  # "strict" | "weak" | "general"
    residual: float
    nonnegative: bool
    indecomposable: bool
    strictly_positive: bool

    def to_dict(self):
        return {
            "schema_version": 1,
            "B1": self.B1.tolist(),
            "row_sums": self.row_sums.tolist(),
            "mode": self.mode,
            "residual": self.residual,
            "nonnegative": self.nonnegative,
            "indecomposable": self.indecomposable,
            "strictly_positive": self.strictly_positive,
        }


@dataclass(frozen=True)
class DVector:
    """Strictly positive solution of the factor eigen-system."""

    d: np.ndarray


@dataclass(frozen=True)
class PriceRecovery:
    """Result of the nonnegative solve ``C.T @ p = d``.

    ``p0`` is None when ``d`` lies outside the cone of the rows of ``C``;
    ``certificate`` then separates ``d`` from that cone.
    """

    p0: np.ndarray | None
    residual: float
    certificate: np.ndarray | None = None

    def __bool__(self):
        return self.p0 is not None


@dataclass(frozen=True)
class ConsistencyCertificate:
    label: str  # strict | strict-of-rank-|I| | weak | weak-of-rank-|I| | none
    factorization: Factorization | None
    clearing_set: tuple | None = None
    side_margin: float | None = None
    notes: tuple = ()


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


def _support_strongly_connected(B1, tol):
    """Whether the digraph with an edge ``i -> j`` wherever ``|B1[i, j]| > tol``
    is strongly connected (one agent needs its own edge). Every agent reaches
    every other by a path of at most ``l - 1`` edges, so ``(l - 1).bit_length()``
    squarings of the adjacency with self-loops give the reachability."""
    l = B1.shape[0]
    if l == 1:
        return bool(B1[0, 0] > tol)
    reach = (np.abs(B1) > tol) | np.eye(l, dtype=bool)
    for _ in range((l - 1).bit_length()):
        reach = reach @ reach
    return bool(reach.all())


def _classify_factor(C, B, B1):
    B1 = np.asarray(B1, dtype=float)
    residual = magnitude(B - C @ B1)
    tol = BASE_TOL * (1.0 + magnitude(B1))  # B1 is dimensionless
    low = float(B1.min())
    nonnegative = bool(low >= -tol)
    strictly_positive = bool(low > tol)
    indecomposable = nonnegative and _support_strongly_connected(B1, tol)
    row_sums = B1.sum(axis=1)
    if nonnegative and indecomposable:
        mode = "strict"
    elif float(row_sums.min()) >= -tol:
        mode = "weak"
    else:
        mode = "general"
    return Factorization(
        B1=B1,
        row_sums=row_sums,
        mode=mode,
        residual=residual,
        nonnegative=nonnegative,
        indecomposable=indecomposable,
        strictly_positive=strictly_positive,
    )


def factor_supply(C, B) -> Factorization:
    """Factor ``B = C @ B1`` with every row sum of ``B1`` strictly positive.

    Requires ``rank(C) = n <= l`` and a strictly positive solution ``y`` of
    ``C @ y = psi`` (``psi`` the aggregate supply), taken from one
    :func:`cone_geometry.max_margin` program. ``B1`` is the least-squares
    factor shifted along ``null(C)`` to row sums ``y``: the factor of the
    ``weak`` tier of :func:`certify_consistency`. Raises
    ``DegenerateTargetError`` when ``psi`` has no strictly positive solution,
    and ``NonConvergenceError`` (with ``residual``) when ``B - C @ B1``
    fails the residual check, as it does when supply leaves the span of ``C``.
    """
    C, B = as_economy(C, B)
    n, l = C.shape
    if l < n:
        raise ValueError(f"need at least as many agents as goods, got {n}x{l}")
    rank = numerical_rank(C)
    if rank < n:
        raise RankDeficiencyError(
            f"rank(C) = {rank} < {n}: drop dependent rows until the demand "
            "matrix has full row rank, then refactor",
            numerical_rank=rank,
            expected=n,
        )

    found = cone_geometry.max_margin(C, B.sum(axis=1))
    if found is None or found[0] <= BASE_TOL:
        raise DegenerateTargetError(
            "aggregate supply has no strictly positive solution in the demand columns"
        )
    fact = _shifted_factor(C, B, found[1])
    if not _residual_ok(fact, B):
        raise NonConvergenceError(
            f"factor residual {fact.residual:.3e} exceeds tolerance",
            residual=fact.residual,
        )
    return fact


def _residual_ok(fact, B):
    return fact.residual <= RESIDUAL_TOL * magnitude(B)


def _shifted_factor(C, B, y):
    """The least-squares factor of ``B = C @ B1`` shifted along null(C) to
    row sums ``y``, classified. Its residual is not checked here: it is small
    only when ``B`` lies in the span of ``C`` and ``C @ y`` is the aggregate
    supply."""
    B1, *_ = np.linalg.lstsq(C, B, rcond=None)
    l = B1.shape[1]
    return _classify_factor(C, B, B1 + np.outer(y - B1.sum(axis=1), np.full(l, 1.0 / l)))


def _nonneg_solution(C, b):
    """Nonnegative y with ``C @ y = b``, strictly positive where possible, or
    None when ``b`` lies outside the cone of the columns of ``C`` or the
    solution cannot be verified (no factor is certified from it then)."""
    try:
        found = cone_geometry.max_margin(C, b)
    except NonConvergenceError:
        return None
    return None if found is None else found[1]


def _nonneg_factor(C, B):
    """Columnwise nonnegative factor, classified, or None at the first column
    outside the cone of the columns of ``C``."""
    l = C.shape[1]
    B1 = np.zeros((l, l))
    for i in range(l):
        column = _nonneg_solution(C, B[:, i])
        if column is None:
            return None
        B1[:, i] = column
    return _classify_factor(C, B, B1)


def certify_consistency(C, B, I=None) -> ConsistencyCertificate:
    """Strongest certifiable agreement between supply and demand structure.

    Tries, in order: strict on all goods, strict of rank ``|I|``, weak on
    all goods, weak of rank ``|I|``. The rank-``|I|`` labels additionally
    require strict inequalities (demand below supply) on the goods outside
    ``I``, so they are tried only when ``I`` leaves some good out. Every
    certified factor has its residual verified. ``none`` is a valid
    outcome, not an error.
    """
    C, B = as_economy(C, B)
    n = C.shape[0]
    if I is not None:
        I = clearing_subset(I, n)

    blocks = (None,) if I is None or len(I) == n else (None, I)
    for strict in (True, False):
        for rows in blocks:
            certificate = _certify(C, B, rows, strict)
            if certificate is not None:
                return certificate
    return ConsistencyCertificate("none", None)


def _certify(C, B, I, strict):
    """The certificate of one tier, or None.

    ``strict`` asks for a nonnegative indecomposable factor, built column by
    column; otherwise the least-squares factor with nonnegative row sums
    will do. ``I`` None certifies on all goods; a tuple ``I`` certifies on
    that row block, with row sums that meet the off-``I`` inequalities.
    """
    CI, BI = (C, B) if I is None else (C[list(I), :], B[list(I), :])
    if strict:
        fact = _nonneg_factor(CI, BI)
    else:
        y = _nonneg_solution(C, B.sum(axis=1)) if I is None else _clearing_row_sums(C, B, I)
        fact = None if y is None else _shifted_factor(CI, BI, y)
    modes = ("strict",) if strict else ("strict", "weak")
    if fact is None or fact.mode not in modes or not _residual_ok(fact, BI):
        return None
    label = "strict" if strict else "weak"
    notes = ()
    if strict and not fact.strictly_positive:
        notes = ("factor is indecomposable but not strictly positive",)
    if I is None:
        return ConsistencyCertificate(
            label, fact, clearing_set=tuple(range(C.shape[0])), notes=notes
        )
    margin = _side_margin(C, B, I, fact.row_sums)
    if margin <= BASE_TOL * magnitude(B.sum(axis=1)):
        return None
    return ConsistencyCertificate(
        f"{label}-of-rank-|I|", fact, clearing_set=I, side_margin=margin, notes=notes
    )


def _side_margin(C, B, I, y):
    """Worst slack of the strict inequalities on goods outside I."""
    off = [k for k in range(C.shape[0]) if k not in set(I)]
    slack = B[off, :].sum(axis=1) - C[off, :] @ y
    return float(slack.min())


def _clearing_row_sums(C, B, I):
    """y >= 0 with C_I y = psi_I and maximal slack on the off-I inequalities
    ``C_off y <= psi_off``, or None unless that slack is positive. The program
    runs on ``C`` and ``psi`` divided by the largest supply."""
    rows = list(I)
    off = [k for k in range(C.shape[0]) if k not in set(I)]
    psi = B.sum(axis=1)
    scale = magnitude(psi) or 1.0
    C_hat, psi_hat = C / scale, psi / scale
    try:
        found = _max_smallest(-C_hat[off, :], C_hat[rows, :], psi_hat[rows], h=-psi_hat[off])
    except NonConvergenceError:
        return None
    if found is None or found[0] <= BASE_TOL:
        return None
    return found[1]


def _max_smallest(G, A_eq, b_eq, h=None):
    """``(t, x)`` maximizing ``t`` subject to ``G @ x >= h + t``,
    ``A_eq @ x = b_eq``, ``x >= 0`` and ``0 <= t <= 1`` (``h`` defaults to
    zero), by one linear program; None when it is infeasible.

    The data must be dimensionless: the feasibility tolerance is ``BASE_TOL``
    on every row. Raises ``NonConvergenceError`` when the program ends other
    than optimal or infeasible.
    """
    m, k = G.shape
    # Variables (x_1..x_k, t); maximize t.
    cost = np.zeros(k + 1)
    cost[-1] = -1.0
    x = linprog(cost, np.hstack([A_eq, np.zeros((A_eq.shape[0], 1))]), b_eq,
                A_ub=np.hstack([-G, np.ones((m, 1))]), b_ub=np.zeros(m) if h is None else -h,
                upper=np.append(np.full(k, np.inf), 1.0), feasibility_tol=BASE_TOL)
    return None if x is None else (x[-1], x[:-1])


def solve_D(fact: Factorization, y=None) -> DVector:
    """Strictly positive d with ``B1.T @ d = y * d`` (componentwise).

    ``y`` defaults to the factor's row sums. ``d`` is found by one linear
    program: among ``d >= 0`` with ``(B1.T - diag(y)) @ d = 0`` and
    ``sum(d) = l``, the one whose smallest entry is largest. The same program
    serves an eigen-space of any dimension (a decomposable factor, or one
    with negative entries, may have more than one), and its residual is
    verified. Raises ``InfeasibleError`` when the eigen-system has no
    strictly positive solution.
    """
    B1 = np.asarray(fact.B1, dtype=float)
    if y is None:
        y = np.asarray(fact.row_sums, dtype=float)
    else:
        y = as_vector(y, "y", length=B1.shape[0])
    bad = np.where(y <= 0)[0]
    if bad.size:
        raise DivisionGuardError(
            f"row sum y[{bad[0]}] = {y[bad[0]]:.6g} is not positive; the "
            "eigen-system ratio is undefined",
            agent=int(bad[0]),
        )
    return DVector(d=_eigen_space(B1, y))


def _eig_residual(B1, y, d):
    rhs = y * d  # y and d are dimensionless
    return magnitude(B1.T @ d - rhs) / max(1.0, magnitude(rhs))


def _eigen_space(B1, y):
    """A verified strictly positive ``d`` with ``B1.T @ d = y * d`` and
    ``sum(d) = l``; ``B1`` and ``y`` are dimensionless."""
    l = B1.shape[0]
    found = _max_smallest(np.eye(l), np.vstack([B1.T - np.diag(y), np.ones(l)]),
                          np.append(np.zeros(l), float(l)))
    if found is None or found[0] <= ROUNDING:
        raise InfeasibleError("the eigen-system has no strictly positive solution")
    d = found[1]

    residual = _eig_residual(B1, y, d)
    if residual > EIG_TOL:
        raise NonConvergenceError(
            f"eigen-system residual {residual:.3e} exceeds {EIG_TOL:g}",
            residual=residual,
        )
    if np.any(d <= 0):
        raise InfeasibleError(
            "eigen-system solution is not strictly positive",
            detail={"d": d},
        )
    return d


def price_from_D(C, d) -> PriceRecovery:
    """Nonnegative p with ``C.T @ p = d``, or a separation certificate.

    The certificate ``w`` (when recovery fails) has ``<w, d> > 0`` while
    ``<w, row_k(C)> <= 0`` for every row, witnessing that ``d`` lies outside
    the cone of the rows of ``C``.
    """
    C = as_matrix(C, "C")
    d = as_vector(d, "d")
    if np.any(d <= 0):
        raise PreconditionError(
            "d must be strictly positive", condition="d_strictly_positive"
        )
    p, _ = nnls_solve(C.T, d)
    residual = magnitude(C.T @ p - d)
    if residual <= RESIDUAL_TOL * magnitude(d):
        return PriceRecovery(p0=p, residual=residual)
    certificate = d - C.T @ p
    return PriceRecovery(p0=None, residual=residual, certificate=certificate)


def check_ideal(C, B, p) -> IdealCheck:
    """Is every agent's trade balance zero at prices ``p``?

    Balances are compared against ``RESIDUAL_TOL * <p, C_i>``; a nonpositive
    demand cost for any agent disqualifies the state.
    """
    C, B, p = as_economy(C, B, p)
    if np.any(p < 0) or not np.any(p > 0):
        raise ValueError("p must be nonnegative and nonzero")
    demand_cost = C.T @ p
    balances = B.T @ p - demand_cost
    rel = np.abs(balances) - RESIDUAL_TOL * demand_cost
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

    Requires the aggregate balance to vanish. One linear program on ``C`` and
    ``B`` divided by their magnitude, so that the verdict does not depend on
    the currency unit, looks for ``p >= 0`` with ``B.T @ p = C.T @ p`` and
    ``sum(C.T @ p) = l`` that maximizes the smallest demand cost; an ideal
    equilibrium exists when that cost is positive and the prices found pass
    :func:`check_ideal`. ``d = C.T @ p0`` then solves ``B1.T @ d = d`` for
    every factor ``B = C @ B1`` with unit row sums. No verdict raises.
    """
    C, B = as_economy(C, B)
    supply, demand = B.sum(axis=1), C.sum(axis=1)
    gap = magnitude(supply - demand)
    if gap > BASE_TOL * magnitude(supply, demand):
        raise PreconditionError(
            "aggregate supply minus aggregate demand must vanish "
            f"(worst gap {gap:.3e})",
            condition="zero_aggregate_balance",
        )
    l = C.shape[1]
    scale = magnitude(C, B) or 1.0
    C_hat, B_hat = C / scale, B / scale
    # The smallest demand cost C.T @ p is maximized.
    try:
        found = _max_smallest(C_hat.T, np.vstack([(B_hat - C_hat).T, C_hat.sum(axis=1)]),
                              np.append(np.zeros(l), float(l)))
    except NonConvergenceError as exc:
        return IdealExistence(False, None, None, f"price program failed: {exc}")
    if found is None or found[0] <= BASE_TOL:
        return IdealExistence(False, None, None, "no nonnegative prices zero every "
                              "balance at positive demand costs")
    p0 = np.maximum(found[1], 0.0) / scale
    d = C.T @ p0
    verdict = check_ideal(C, B, p0)
    if not verdict.ideal:
        return IdealExistence(False, p0, d, f"program prices leave agent {verdict.worst_agent} "
                              f"with balance {verdict.worst_balance:.3e}")
    return IdealExistence(True, p0, d, None)


def construct_supply(C, F, a=None):
    """Supply matrix ``B`` with columns ``b_i = a * sum_s C_s (F_si - delta_si y_i) + C_i``.

    ``y`` is the vector of row sums of ``F``. When ``a`` is omitted, the
    largest magnitude preserving ``B >= 0`` is found by ratio test (the
    positive direction wins ties; an unconstrained direction uses a = 1).
    Returns ``(B, a)``.
    """
    C = as_matrix(C, "C")
    F = as_matrix(F, "F")
    n, l = C.shape
    if F.shape != (l, l):
        raise ValueError(f"F must be {l}x{l}, got {F.shape}")
    y = F.sum(axis=1)
    G = C @ (F - np.diag(y))
    tiny = ROUNDING * magnitude(C, G)

    if a is None:
        neg = G < -tiny
        pos = G > tiny
        bound_plus = float(np.min(C[neg] / -G[neg])) if neg.any() else np.inf
        bound_minus = float(np.min(C[pos] / G[pos])) if pos.any() else np.inf
        if not neg.any() and not pos.any():
            a = 1.0  # the perturbation vanishes; any a works
        elif bound_plus >= bound_minus:
            a = bound_plus if np.isfinite(bound_plus) else 1.0
        else:
            a = -bound_minus if np.isfinite(bound_minus) else -1.0
        if a == 0.0:
            blockers = np.argwhere((C <= tiny) & (neg | pos))
            k, i = (int(v) for v in blockers[0])
            raise InfeasibleError(
                f"no nonzero a keeps supply nonnegative: entry (good {k}, "
                f"agent {i}) has zero demand but a nonzero perturbation",
                detail={"entry": (k, i)},
            )

    B = C + a * G
    if float(B.min()) < -tiny:
        k, i = (int(v) for v in np.argwhere(B < -tiny)[0])
        raise InfeasibleError(
            f"a = {a:.6g} drives supply negative at (good {k}, agent {i}): "
            f"B[{k},{i}] = {B[k, i]:.6g}",
            detail={"entry": (k, i), "value": float(B[k, i])},
        )
    return np.maximum(B, 0.0), float(a)


def construct_ideal_supply(C, d, F1):
    """Supply matrix ``B = C @ F1 + C`` admitting an ideal equilibrium.

    Preconditions (each reported by name): ``d`` strictly positive and in
    the cone of the rows of ``C``; every column of ``F1`` orthogonal to
    ``d``; every row of ``F1`` summing to zero; and the resulting supply
    nonnegative.
    """
    C = as_matrix(C, "C")
    d = as_vector(d, "d")
    F1 = as_matrix(F1, "F1")
    n, l = C.shape
    if F1.shape != (l, l):
        raise ValueError(f"F1 must be {l}x{l}, got {F1.shape}")
    if d.shape[0] != l:
        raise ValueError(f"d must have length {l}, got {d.shape[0]}")
    if np.any(d <= 0):
        raise PreconditionError(
            "d must be strictly positive", condition="d_strictly_positive"
        )
    recovery = price_from_D(C, d)
    if not recovery:
        raise PreconditionError(
            "d lies outside the cone of the rows of C",
            condition="d_in_row_cone",
        )
    tol = BASE_TOL * magnitude(F1)
    if magnitude(F1.T @ d) > tol * magnitude(d):
        raise PreconditionError(
            "columns of F1 must be orthogonal to d",
            condition="columns_orthogonal_to_d",
        )
    if magnitude(F1.sum(axis=1)) > tol:
        raise PreconditionError(
            "rows of F1 must sum to zero", condition="rows_sum_zero"
        )
    B = C @ F1 + C
    tiny = ROUNDING * magnitude(B)
    if float(B.min()) < -tiny:
        k, i = (int(v) for v in np.argwhere(B < -tiny)[0])
        raise PreconditionError(
            f"C @ F1 + C is negative at (good {k}, agent {i}): {B[k, i]:.6g}",
            condition="supply_nonnegative",
        )
    return np.maximum(B, 0.0)
