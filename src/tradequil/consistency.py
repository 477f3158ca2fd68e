"""Supply/demand structure: factorizations B = C @ B1 and what follows.

A supply structure agrees with a demand structure when the supply matrix
factors through the demand matrix, ``B = C @ B1``. The quality of the
factor (nonnegative and indecomposable, or merely with nonnegative row
sums) decides whether a market-clearing price vector exists; the route to
that price runs through a strictly positive eigenvector ``d`` of the
factor and a nonnegative solve of ``C.T @ p = d``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from . import cone_geometry
from ._numerics import BASE_TOL, as_matrix, as_vector, nnls_solve, numerical_rank
from .cone_geometry import Membership, classify_membership
from .errors import (
    DegenerateTargetError,
    DivisionGuardError,
    InfeasibleError,
    NonConvergenceError,
    PreconditionError,
    RankDeficiencyError,
)

_FACTOR_TOL = 1e-8
_EIG_TOL = 1e-10
_POWER_STEP_TOL = 1e-12
_POWER_CAP = 100_000


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
    in_cone_certificate: np.ndarray | None = None


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


def _support_strongly_connected(B1, tol):
    l = B1.shape[0]
    if l == 1:
        return bool(B1[0, 0] > tol)
    support = csr_matrix((np.abs(B1) > tol).astype(np.int8))
    n_comp, _ = connected_components(support, directed=True, connection="strong")
    return n_comp == 1


def _classify_factor(C, B, B1):
    B1 = np.asarray(B1, dtype=float)
    residual = float(np.abs(B - C @ B1).max(initial=0.0))
    tol = BASE_TOL * (1.0 + float(np.abs(B1).max(initial=0.0)))  # B1 is dimensionless
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


def factor_supply(C, B, rank_subset=None) -> Factorization:
    """Factor ``B = C @ B1`` through the general solution of ``C x = b_i``.

    Requires ``rank(C) = n <= l`` and the aggregate supply interior to the
    subcone of ``n`` independent columns (found automatically unless
    ``rank_subset`` is given). Free coordinates are filled with a uniform
    positive budget small enough to keep every row sum of ``B1`` positive.
    """
    C = as_matrix(C, "C")
    B = as_matrix(B, "B")
    if C.shape != B.shape:
        raise ValueError(f"C shape {C.shape} != B shape {B.shape}")
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

    psi = B.sum(axis=1)
    if rank_subset is not None:
        subset = tuple(int(i) for i in rank_subset)
        if len(subset) != n:
            raise ValueError(f"rank_subset must list {n} columns, got {len(subset)}")
        res = classify_membership(C[:, subset].T, psi)
        if res.verdict is not Membership.INTERIOR:
            raise DegenerateTargetError(
                f"aggregate supply is not interior to the subcone {subset}",
                certificate=res.alpha,
            )
    else:
        subset, _ = cone_geometry.interior_subset(C, psi)
        if subset is None:
            raise DegenerateTargetError(
                "aggregate supply is not interior to any full-rank column subcone"
            )

    subset = tuple(subset)
    free = tuple(i for i in range(l) if i not in set(subset))
    Cm = C[:, subset]
    B1 = np.zeros((l, l))
    if free:
        reduced_free = np.linalg.solve(Cm, C[:, free])  # columns Cm^-1 C_s
        a_hat = float(np.abs(reduced_free).max())
        b_hat = float(np.linalg.solve(Cm, psi).min())
        if a_hat <= 0:
            epsilon = b_hat  # free columns vanish in the reduced system
        else:
            epsilon = 0.5 * b_hat / ((l - n) * a_hat)
        share = epsilon / l
        shift = share * C[:, free].sum(axis=1)
        head = np.linalg.solve(Cm, B - shift[:, None])
        B1[list(subset), :] = head
        B1[list(free), :] = share
    else:
        B1[list(subset), :] = np.linalg.solve(Cm, B)

    fact = _classify_factor(C, B, B1)
    if not _residual_ok(fact, B):
        raise NonConvergenceError(
            f"factor residual {fact.residual:.3e} exceeds tolerance",
            residual=fact.residual,
        )
    return fact


def _residual_ok(fact, B):
    return fact.residual <= _FACTOR_TOL * (1.0 + float(np.abs(B).max(initial=0.0)))


def _span_factor(C, B, tol):
    """Least-squares factor, or None when some supply column leaves span(C)."""
    B1, *_ = np.linalg.lstsq(C, B, rcond=None)
    if float(np.abs(B - C @ B1).max(initial=0.0)) > tol:
        return None
    return B1


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
    """Columnwise nonnegative factor, or None at the first column outside
    the cone of the columns of ``C``."""
    l = C.shape[1]
    B1 = np.zeros((l, l))
    for i in range(l):
        column = _nonneg_solution(C, B[:, i])
        if column is None:
            return None
        B1[:, i] = column
    return B1


def _with_row_sums(C, B1, target):
    """Shift a factor along null(C) so its row sums hit ``target`` exactly."""
    v = target - B1.sum(axis=1)
    if np.abs(v).max(initial=0.0) == 0.0:
        return B1
    return B1 + np.outer(v, np.full(B1.shape[1], 1.0 / B1.shape[1]))


def _side_margin(C, B, I, y):
    """Worst slack of the strict inequalities on goods outside I."""
    off = [k for k in range(C.shape[0]) if k not in set(I)]
    if not off:
        return np.inf
    slack = B[off, :].sum(axis=1) - C[off, :] @ y
    return float(slack.min())


def _strict_notes(fact):
    if fact.strictly_positive:
        return ()
    return ("factor is indecomposable but not strictly positive",)


def _side_tol(B):
    return 1e-9 * (1.0 + float(B.sum(axis=1).max(initial=0.0)))


def certify_consistency(C, B, I=None) -> ConsistencyCertificate:
    """Strongest certifiable agreement between supply and demand structure.

    Tries, in order: strict on all goods, strict of rank ``|I|``, weak on
    all goods, weak of rank ``|I|``. The rank-``|I|`` labels additionally
    require strict inequalities (demand below supply) on the goods outside
    ``I``. Every certified factor has its residual verified. ``none`` is a
    valid outcome, not an error.
    """
    C = as_matrix(C, "C")
    B = as_matrix(B, "B")
    if C.shape != B.shape:
        raise ValueError(f"C shape {C.shape} != B shape {B.shape}")
    n, l = C.shape
    tol = _FACTOR_TOL * (1.0 + float(np.abs(B).max(initial=0.0)))
    if I is not None:
        I = tuple(sorted(int(k) for k in I))
        if not I:
            raise ValueError("clearing subset I must be nonempty")
        if I[0] < 0 or I[-1] >= n:
            raise ValueError(f"clearing subset {I} out of range for {n} goods")

    B1 = _nonneg_factor(C, B)
    if B1 is not None:
        fact = _classify_factor(C, B, B1)
        if fact.mode == "strict" and _residual_ok(fact, B):
            return ConsistencyCertificate(
                "strict", fact, clearing_set=tuple(range(n)), notes=_strict_notes(fact)
            )

    if I is not None and len(I) < n:
        sub = _certify_rows(C, B, I, want_strict=True)
        if sub is not None:
            return sub

    span = _span_factor(C, B, tol)
    if span is not None:
        y = _nonneg_solution(C, B.sum(axis=1))
        if y is not None:
            fact = _classify_factor(C, B, _with_row_sums(C, span, y))
            if fact.mode in ("strict", "weak") and _residual_ok(fact, B):
                return ConsistencyCertificate("weak", fact, clearing_set=tuple(range(n)))

    if I is not None and len(I) < n:
        sub = _certify_rows(C, B, I, want_strict=False)
        if sub is not None:
            return sub

    return ConsistencyCertificate("none", None)


def _certify_rows(C, B, I, want_strict):
    """Rank-|I| certification on the row block I with off-I side inequalities."""
    rows = list(I)
    CI, BI = C[rows, :], B[rows, :]
    tol = _FACTOR_TOL * (1.0 + float(np.abs(BI).max(initial=0.0)))
    side_tol = _side_tol(B)

    if want_strict:
        B1 = _nonneg_factor(CI, BI)
        if B1 is None:
            return None
        fact = _classify_factor(CI, BI, B1)
        if fact.mode != "strict" or not _residual_ok(fact, BI):
            return None
        margin = _side_margin(C, B, I, fact.row_sums)
        if margin <= side_tol:
            return None
        return ConsistencyCertificate(
            "strict-of-rank-|I|", fact, clearing_set=tuple(I),
            side_margin=margin, notes=_strict_notes(fact),
        )

    span = _span_factor(CI, BI, tol)
    if span is None:
        return None
    y = _clearing_row_sums(C, B, I)
    if y is None:
        return None
    fact = _classify_factor(CI, BI, _with_row_sums(CI, span, y))
    if fact.mode not in ("strict", "weak") or not _residual_ok(fact, BI):
        return None
    margin = _side_margin(C, B, I, fact.row_sums)
    if margin <= side_tol:
        return None
    return ConsistencyCertificate(
        "weak-of-rank-|I|", fact, clearing_set=tuple(I), side_margin=margin
    )


def _clearing_row_sums(C, B, I):
    """y >= 0 with C_I y = psi_I and maximal slack on the off-I inequalities."""
    n, l = C.shape
    rows = list(I)
    off = [k for k in range(n) if k not in set(I)]
    psi = B.sum(axis=1)
    # Variables (y_1..y_l, margin); maximize margin.
    c = np.zeros(l + 1)
    c[-1] = -1.0
    A_eq = np.hstack([C[rows, :], np.zeros((len(rows), 1))])
    b_eq = psi[rows]
    if off:
        A_ub = np.hstack([C[off, :], np.ones((len(off), 1))])
        b_ub = psi[off]
    else:
        A_ub, b_ub = None, None
    bounds = [(0, None)] * l + [(0, None)]
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds,
                  method="highs")
    if not res.success or res.x is None:
        return None
    y, margin = res.x[:-1], res.x[-1]
    if margin <= _side_tol(B):
        return None
    return y


def solve_D(fact: Factorization, y=None) -> DVector:
    """Strictly positive d with ``B1.T @ d = y * d`` (componentwise).

    ``y`` defaults to the factor's row sums. Nonnegative factors are solved
    by averaged power iteration on the row-normalized transpose; factors
    with negative entries (arising for balanced-trade constructions) fall
    back to a null-space search for a positive vector.
    """
    B1 = np.asarray(fact.B1, dtype=float)
    l = B1.shape[0]
    if y is None:
        y = np.asarray(fact.row_sums, dtype=float)
    else:
        y = as_vector(y, "y")
    bad = np.where(y <= 0)[0]
    if bad.size:
        raise DivisionGuardError(
            f"row sum y[{bad[0]}] = {y[bad[0]]:.6g} is not positive; the "
            "eigen-system ratio is undefined",
            agent=int(bad[0]),
        )

    if fact.nonnegative:
        d = _power_iteration(B1, y)
    else:
        d = _nullspace_positive(B1, y)

    residual = _eig_residual(B1, y, d)
    if residual > _EIG_TOL:
        raise NonConvergenceError(
            f"eigen-system residual {residual:.3e} exceeds {_EIG_TOL:g}",
            residual=residual,
        )
    if np.any(d <= 0):
        raise InfeasibleError(
            "eigen-system solution is not strictly positive",
            detail={"d": d},
        )
    return DVector(d=d)


def _eig_residual(B1, y, d):
    lhs = B1.T @ d
    rhs = y * d
    scale = max(1.0, float(np.abs(rhs).max(initial=0.0)))
    return float(np.abs(lhs - rhs).max(initial=0.0)) / scale


def _power_iteration(B1, y):
    l = B1.shape[0]
    M = B1.T / y[:, None]
    d = np.ones(l)
    for _ in range(_POWER_CAP):
        # Averaging with the identity removes periodic oscillation without
        # moving the fixed points.
        d_new = 0.5 * (M @ d) + 0.5 * d
        total = d_new.sum()
        if total <= 0:
            raise NonConvergenceError("power iteration collapsed to zero")
        d_new *= l / total
        if np.abs(d_new - d).max() <= _POWER_STEP_TOL:
            return d_new
        d = d_new
    raise NonConvergenceError(
        f"power iteration did not converge in {_POWER_CAP} steps",
        residual=_eig_residual(B1, y, d),
        iterations=_POWER_CAP,
    )


def near_kernel(A, scale=1.0):
    """Orthonormal basis of the numerical kernel with an absolute cutoff.

    A relative cutoff fails when ``A`` itself is numerical noise (for
    example a factor that is the identity up to roundoff); singular values
    below ``1e-12 * max(1, scale)`` count as zero.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    _, s, vt = np.linalg.svd(A)
    cutoff = 1e-12 * max(1.0, float(scale))
    rank = int(np.sum(s > cutoff))
    return vt[rank:].T


def _nullspace_positive(B1, y):
    l = B1.shape[0]
    scale = max(float(np.abs(B1).max()), float(np.abs(y).max()))
    kernel = near_kernel(B1.T - np.diag(y), scale)
    if kernel.size == 0:
        raise InfeasibleError("the eigen-system has no nonzero solution")
    if kernel.shape[1] == 1:
        d = kernel[:, 0]
        if d.sum() < 0:
            d = -d
        if np.all(d > 0):
            return d * (l / d.sum())
        raise InfeasibleError(
            "the one-dimensional eigen-space contains no positive vector",
            detail={"kernel": kernel},
        )
    # Maximize the smallest component over the kernel, normalized to sum l.
    dim = kernel.shape[1]
    c = np.zeros(dim + 1)
    c[-1] = -1.0
    A_ub = np.hstack([-kernel, np.ones((l, 1))])
    b_ub = np.zeros(l)
    A_eq = np.hstack([kernel.sum(axis=0)[None, :], np.zeros((1, 1))])
    b_eq = np.array([float(l)])
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=[(None, None)] * dim + [(0, None)], method="highs")
    if not res.success or res.x is None or res.x[-1] <= 0:
        raise InfeasibleError(
            "the eigen-space contains no strictly positive vector",
            detail={"kernel": kernel},
        )
    d = kernel @ res.x[:-1]
    return d * (l / d.sum())


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
    residual = float(np.abs(C.T @ p - d).max(initial=0.0))
    tol = _FACTOR_TOL * (1.0 + float(np.abs(d).max()))
    if residual <= tol:
        return PriceRecovery(p0=p, residual=residual)
    certificate = d - C.T @ p
    return PriceRecovery(p0=None, residual=residual, certificate=certificate)


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
    scale = 1.0 + float(np.abs(C).max(initial=0.0))
    tiny = 1e-12 * (scale + float(np.abs(G).max(initial=0.0)))

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
    scale = 1e-9 * (1.0 + float(np.abs(F1).max(initial=0.0))) * (
        1.0 + float(np.abs(d).max())
    )
    if float(np.abs(F1.T @ d).max(initial=0.0)) > scale:
        raise PreconditionError(
            "columns of F1 must be orthogonal to d",
            condition="columns_orthogonal_to_d",
        )
    if float(np.abs(F1.sum(axis=1)).max(initial=0.0)) > scale:
        raise PreconditionError(
            "rows of F1 must sum to zero", condition="rows_sum_zero"
        )
    B = C @ F1 + C
    tiny = 1e-12 * (1.0 + float(np.abs(B).max(initial=0.0)))
    if float(B.min()) < -tiny:
        k, i = (int(v) for v in np.argwhere(B < -tiny)[0])
        raise PreconditionError(
            f"C @ F1 + C is negative at (good {k}, agent {i}): {B[k, i]:.6g}",
            condition="supply_nonnegative",
        )
    return np.maximum(B, 0.0)
