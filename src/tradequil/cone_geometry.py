"""Polyhedral-cone primitives.

Everything here works with finitely generated nonnegative cones
``{sum_i alpha_i a_i : alpha_i >= 0}``. The central objects are biorthogonal
dual systems (used as membership certificates), generating subsets, and the
full parametrization of the strictly positive solutions of ``C @ y = psi``
when ``psi`` lies in the interior of a full-rank subcone of the columns of
``C``. Whether a strictly positive solution exists, and which subcone holds
``psi`` in its interior, are decided by HiGHS linear programs. Decisions use
unit-normalized generators, a target of unit max-norm and the dimensionless
``BASE_TOL``, so verdicts do not depend on the currency unit.

Conventions: functions that take "a set of vectors" expect an array whose
*rows* are the vectors; the matrix ``C`` of a linear system keeps its
generators in *columns*.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ._numerics import (
    BASE_TOL,
    ROUNDING,
    as_matrix,
    as_vector,
    linprog,
    magnitude,
    nnls_solve,
    numerical_rank,
    require_independent,
    unit_columns,
)
from .errors import (
    DegenerateTargetError,
    EmptyMatrixError,
    InfeasibleError,
    NonConvergenceError,
    OutsideConeError,
    RankDeficiencyError,
)

# Cap on the number of column subsets examined while searching for a
# full-rank subcone; generous for the intended problem sizes (l <= ~20).
_MAX_SUBSETS = 2_000_000


class Membership(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class BiorthogonalSystem:
    """Full primal basis and its dual with ``<primal_i, dual_j> = delta_ij``.

    The first ``base_size`` primal rows are the caller's vectors; the rest
    are coordinate axes chosen by greedy pivoting.
    """

    primal: np.ndarray
    dual: np.ndarray
    base_size: int

    def coefficients(self, b):
        """Dual products ``<f_i, b>`` for i = 1..n."""
        return self.dual @ as_vector(b, "b")


@dataclass(frozen=True)
class MembershipResult:
    verdict: Membership
    alpha: np.ndarray  # full dual certificate <f_i, b>, length n

    def __bool__(self):
        return self.verdict is not Membership.OUTSIDE


@dataclass(frozen=True)
class GammaPolytope:
    """Constraint data for the weight vector ``gamma`` of a solution family.

    ``gamma`` has one entry per family member, base member first. Interior
    points satisfy ``sum(gamma) == 1``, ``gamma[1:] > 0`` and the strict
    inequalities ``A @ gamma[1:] < b`` componentwise.
    """

    A: np.ndarray  # (r, nfree)
    b: np.ndarray  # (r,)

    @property
    def n_free(self):
        return self.A.shape[1]

    def contains(self, gamma, margin=0.0):
        gamma = as_vector(gamma, "gamma")
        if gamma.shape[0] != self.n_free + 1:
            raise ValueError(
                f"gamma must have length {self.n_free + 1}, got {gamma.shape[0]}"
            )
        if abs(gamma.sum() - 1.0) > ROUNDING:
            return False
        free = gamma[1:]
        if self.n_free == 0:
            return True
        scale = 1.0 + magnitude(self.b)  # b holds dimensionless coordinates
        return bool(
            np.all(free > margin) and np.all(self.A @ free < self.b - margin * scale)
        )


@dataclass(frozen=True)
class PositiveSolutionFamily:
    """All strictly positive solutions of ``C @ y = psi``.

    ``z`` stacks the extreme solutions as rows: ``z[0]`` is supported on the
    chosen independent column subset, ``z[1 + j]`` additionally uses free
    column ``free[j]`` with weight ``ystar[j]``. Strictly positive solutions
    are exactly ``z.T @ gamma`` for ``gamma`` interior to
    ``gamma_constraints``.
    """

    z: np.ndarray
    ystar: np.ndarray
    gamma_constraints: GammaPolytope
    base_point: np.ndarray
    subset: tuple
    free: tuple
    duals: np.ndarray = field(repr=False)

    def member(self, gamma):
        gamma = as_vector(gamma, "gamma")
        if gamma.shape[0] != self.z.shape[0]:
            raise ValueError(
                f"gamma must have length {self.z.shape[0]}, got {gamma.shape[0]}"
            )
        return self.z.T @ gamma


def biorthogonal_system(vectors):
    """Extend independent vectors to a basis and build the dual system.

    The extension picks coordinate axes greedily (largest residual after
    projection onto the current span), which keeps the primal matrix well
    conditioned. The dual rows ``f_j`` solve ``<a_i, f_j> = delta_ij``.
    """
    v = np.atleast_2d(np.asarray(vectors, dtype=float))
    v = require_independent(as_matrix(v, "vectors"), "input vectors")
    m, n = v.shape
    if m > n:
        raise ValueError(f"cannot have {m} independent vectors in dimension {n}")

    primal = np.empty((n, n))
    primal[:m] = v
    # Orthonormal basis of the current span, grown one axis at a time.
    q, _ = np.linalg.qr(v.T) if m else (np.empty((n, 0)), None)
    basis = q[:, :m]
    for k in range(m, n):
        residual = np.eye(n) - basis @ basis.T
        scores = np.linalg.norm(residual, axis=0)
        j = int(np.argmax(scores))
        primal[k] = np.zeros(n)
        primal[k, j] = 1.0
        newdir = residual[:, j] / scores[j]
        basis = np.column_stack([basis, newdir])

    dual = np.linalg.solve(primal, np.eye(n)).T
    defect = float(np.abs(primal @ dual.T - np.eye(n)).max())
    if defect > BASE_TOL:
        raise RankDeficiencyError(
            f"biorthogonality defect {defect:.3e} exceeds {BASE_TOL:g}; "
            "input vectors are too close to dependent",
            numerical_rank=numerical_rank(v),
            expected=m,
        )
    return BiorthogonalSystem(primal=primal, dual=dual, base_size=m)


def classify_membership(vectors, b):
    """Classify ``b`` against the cone of the independent rows of ``vectors``.

    The verdict compares ``BASE_TOL`` with the coordinates of ``b / max|b|``
    in unit-normalized generators, so it does not depend on the units of
    either. Returns a :class:`MembershipResult` whose ``alpha`` holds every
    dual product ``<f_i, b>`` in the caller's units; for an interior verdict
    the first ``m`` entries are the (strictly positive) cone coordinates of
    ``b``.
    """
    v = np.atleast_2d(np.asarray(vectors, dtype=float))
    b = as_vector(b, "b")
    units, norms = unit_columns(v.T)
    system = biorthogonal_system(units.T)
    scale = float(np.abs(b).max(initial=0.0)) or 1.0
    coords = system.coefficients(b / scale)
    m = system.base_size
    alpha = coords * scale
    alpha[:m] /= norms
    if np.any(np.abs(coords[m:]) > BASE_TOL):
        return MembershipResult(Membership.OUTSIDE, alpha)
    head = coords[:m]
    if np.all(head > BASE_TOL):
        return MembershipResult(Membership.INTERIOR, alpha)
    if np.all(head >= -BASE_TOL):
        return MembershipResult(Membership.BOUNDARY, alpha)
    return MembershipResult(Membership.OUTSIDE, alpha)


def in_cone(vectors, b):
    """Nonnegative-combination membership in a general finite cone.

    Unlike :func:`classify_membership` the rows of ``vectors`` need not be
    independent. Returns ``(member, coefficients)`` where ``coefficients``
    solve the nonnegative least-squares problem; ``b`` is a member when the
    residual is at most ``BASE_TOL`` times ``||b||``.
    """
    v = np.atleast_2d(np.asarray(vectors, dtype=float))
    b = as_vector(b, "b")
    coeff, rnorm = nnls_solve(v.T, b)
    return bool(rnorm <= BASE_TOL * np.linalg.norm(b)), coeff


def _separation(C, psi):
    """``(w, argmax|w|)`` for the NNLS residual ``w = psi - C @ x``, which has
    ``<w, C_j> <= 0`` for all j and ``<w, psi> = |w|^2 > 0`` outside the cone."""
    x, _ = nnls_solve(C, psi)
    w = psi - C @ x
    return w, int(np.argmax(np.abs(w)))


def generating_set(cone):
    """Indices of a generating subset of the cone's vectors.

    No member of the result lies in the cone of the other members, and the
    generated cone is unchanged. Positively proportional duplicates keep the
    lowest index.
    """
    v = as_matrix(np.atleast_2d(np.asarray(cone, dtype=float)), "generators")
    t = v.shape[0]
    norms = np.linalg.norm(v, axis=1)
    if not np.any(norms > 0):
        raise EmptyMatrixError("all generators are zero", which="generators")

    alive = [i for i in range(t) if norms[i] > BASE_TOL * norms.max()]
    # Drop positively proportional duplicates first so ties resolve to the
    # lowest index rather than to elimination order.
    units = {i: v[i] / norms[i] for i in alive}
    kept = []
    for i in alive:
        if any(np.linalg.norm(units[i] - units[j]) <= BASE_TOL for j in kept):
            continue
        kept.append(i)
    alive = kept

    # Dropping a member only shrinks the cone of the others, so a member
    # found irredundant stays irredundant and one pass suffices.
    for i in alive[::-1]:
        others = [j for j in alive if j != i]
        if others and in_cone(v[others], v[i])[0]:
            alive.remove(i)
    return tuple(alive)


def interior_subset(C, psi):
    """Independent columns of ``C`` whose subcone has ``psi`` in its interior.

    Tries the support of a simplex vertex of ``{z >= 0 : A z = psi / max|psi|}``
    (``A`` the unit-normalized columns of ``C``), unless that program fails
    to end optimal or infeasible, then every ``rank(C)``-subset
    of the columns in lexicographic order, in one loop: a candidate of the
    wrong size, or one that :func:`classify_membership` finds dependent, is
    skipped. Returns ``(subset, result)``, or ``(None, best)`` with ``best``
    the first boundary verdict met (None when ``psi`` is outside the cone).
    Raises :class:`InfeasibleError` beyond ``_MAX_SUBSETS`` candidates.
    """
    C = as_matrix(C, "C")
    psi = as_vector(psi, "psi")
    r = numerical_rank(C)
    A, _ = unit_columns(C)
    scale = float(np.abs(psi).max(initial=0.0)) or 1.0
    candidates = itertools.combinations(range(C.shape[1]), r)
    try:
        vertex = linprog(np.ones(C.shape[1]), A, psi / scale)
    except NonConvergenceError:
        pass  # no vertex: the enumeration decides
    else:
        if vertex is None:
            return None, None
        # Basic coordinates of the vertex are cone coordinates in exactly the
        # normalization classify_membership decides on.
        support = tuple(int(j) for j in np.flatnonzero(vertex > BASE_TOL))
        candidates = itertools.chain([support], candidates)
    best = None
    for count, subset in enumerate(candidates, start=1):
        if count > _MAX_SUBSETS:
            raise InfeasibleError(
                f"column-subset enumeration exceeded {_MAX_SUBSETS} candidates"
            )
        if len(subset) != r:
            continue
        try:
            res = classify_membership(C[:, subset].T, psi)
        except RankDeficiencyError:
            continue
        if res.verdict is Membership.INTERIOR:
            return subset, res
        if res.verdict is Membership.BOUNDARY and best is None:
            best = res
    return None, best


def positive_solution_family(C, psi):
    """Parametrize the strictly positive solutions of ``C @ y = psi``.

    Requires ``psi`` interior to the subcone of some full-rank column subset,
    the one :func:`interior_subset` finds. The family is built from the
    biorthogonal system of that subset: one extreme solution per free
    column, and weights ``gamma`` interior to a polytope. Raises
    :class:`OutsideConeError` when ``psi`` is not in the cone and
    :class:`DegenerateTargetError` when it is interior to no full-rank
    subcone; :func:`strictly_positive_solution` still decides such targets.
    """
    C = as_matrix(C, "C")
    psi = as_vector(psi, "psi")
    n, l = C.shape
    if psi.shape[0] != n:
        raise ValueError(f"psi has length {psi.shape[0]}, expected {n}")
    r = numerical_rank(C)

    subset, res = interior_subset(C, psi)
    if subset is None and res is None:
        certificate, index = _separation(C, psi)
        raise OutsideConeError(
            "psi lies outside the cone of the columns of C",
            certificate=certificate,
            dual_index=index,
        )
    if subset is None:
        raise DegenerateTargetError(
            "psi touches only the boundary of every full-rank subcone",
            dual_index=_first_violated(res, r),
            certificate=res.alpha,
        )

    free = tuple(i for i in range(l) if i not in set(subset))
    system = biorthogonal_system(C[:, subset].T)
    F = system.dual[:r]  # rows f_1..f_r
    alpha = F @ psi  # <psi, f_k>, strictly positive
    tol = BASE_TOL * alpha  # roundoff in each coordinate, in its own units

    nfree = len(free)
    z = np.zeros((nfree + 1, l))
    z[0, list(subset)] = alpha
    ystar = np.zeros(nfree)
    A = np.zeros((r, nfree))
    for j, i in enumerate(free):
        ci = F @ C[:, i]  # <C_i, f_k>
        # Coordinate k runs out at weight alpha_k / ci_k; rates below
        # BASE_TOL of the fastest one are roundoff.
        rate = ci / alpha
        positive = rate > BASE_TOL * float(np.abs(rate).max())
        if positive.any():
            ystar[j] = float(np.min(alpha[positive] / ci[positive]))
        else:
            ystar[j] = 1.0
        row = alpha - ci * ystar[j]
        # The binding ratio lands on exactly zero up to roundoff.
        row[(row < 0) & (row >= -tol)] = 0.0
        if np.any(row < 0):
            raise AssertionError("negative component in extreme solution")
        z[j + 1, list(subset)] = row
        z[j + 1, i] = ystar[j]
        A[:, j] = ci * ystar[j]

    polytope = GammaPolytope(A=A, b=alpha.copy())
    base_gamma = _interior_gamma(polytope)
    base_point = z.T @ base_gamma
    return PositiveSolutionFamily(
        z=z,
        ystar=ystar,
        gamma_constraints=polytope,
        base_point=base_point,
        subset=subset,
        free=free,
        duals=system.dual,
    )


def _first_violated(result, m):
    head = result.alpha[:m]
    bad = np.where(head <= 0)[0]
    return int(bad[0]) if bad.size else int(np.argmin(head))


def _interior_gamma(polytope):
    """A strictly interior gamma: uniform weights, shrunk toward the base
    vertex by bisection when the uniform point violates a constraint."""
    nfree = polytope.n_free
    if nfree == 0:
        return np.array([1.0])

    def at(t):
        gamma = np.empty(nfree + 1)
        gamma[1:] = t / (nfree + 1)
        gamma[0] = 1.0 - gamma[1:].sum()
        return gamma

    if polytope.contains(at(1.0), margin=ROUNDING):
        return at(1.0)
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if polytope.contains(at(mid), margin=ROUNDING):
            lo = mid
        else:
            hi = mid
    if lo == 0.0:
        raise InfeasibleError("gamma polytope has empty interior")
    return at(0.5 * lo)


def max_margin(C, psi):
    """``(t, y)`` maximizing ``t`` s.t. ``C @ y = psi``, ``y >= t``, ``t <= 1``,
    or None when ``psi`` lies outside the column cone.

    One HiGHS linear program on unit-normalized columns and a target of unit
    max-norm, so ``t`` is unit-free; ``y`` (nonnegative, strictly positive
    iff ``t > 0``) is rescaled to the caller's units. Raises
    :class:`NonConvergenceError` when HiGHS fails or ``y`` fails the residual
    check at the feasibility tolerance HiGHS was given, ``BASE_TOL``.
    """
    C = as_matrix(C, "C")
    psi = as_vector(psi, "psi")
    n, l = C.shape
    if psi.shape[0] != n:
        raise ValueError(f"psi has length {psi.shape[0]}, expected {n}")
    A, norms = unit_columns(C)
    scale = float(np.abs(psi).max(initial=0.0)) or 1.0
    b = psi / scale
    # With z = w + t and w >= 0 the bounds z >= t become column sums.
    cost = np.zeros(l + 1)
    cost[-1] = -1.0
    x = linprog(cost, np.hstack([A, A.sum(axis=1, keepdims=True)]), b,
                upper=np.append(np.full(l, np.inf), 1.0), feasibility_tol=BASE_TOL)
    if x is None:
        return None
    t = float(x[-1])
    z = np.maximum(x[:-1], 0.0) + t
    residual = float(np.abs(A @ z - b).max())
    if residual > BASE_TOL * max(1.0, float(z.max())):  # A, b, z are unit-free
        raise NonConvergenceError(
            f"cone linear program residual {residual:.3e} exceeds tolerance",
            residual=residual,
        )
    return t, z * (scale / norms)


def strictly_positive_solution(C, psi):
    """A strictly positive ``y`` with ``C @ y = psi``, from :func:`max_margin`.

    Raises :class:`InfeasibleError` when ``psi`` lies outside the column
    cone (``detail["status"] == "outside"``, with a separating
    ``"certificate"`` and its largest entry ``"dual_index"``) or when the
    optimal margin ``t`` does not exceed ``BASE_TOL`` (``"boundary"``, with
    ``"t"``). Every returned solution has its residual verified.
    """
    C = as_matrix(C, "C")
    psi = as_vector(psi, "psi")
    found = max_margin(C, psi)
    if found is None:
        certificate, index = _separation(C, psi)
        raise InfeasibleError(
            "no strictly positive solution: psi lies outside the column cone",
            detail={"status": "outside", "certificate": certificate,
                    "dual_index": index},
        )
    t, y = found
    if t <= BASE_TOL:
        raise InfeasibleError(
            "no strictly positive solution: psi lies on the boundary of the "
            "column cone",
            detail={"status": "boundary", "t": t},
        )
    return y
