"""Small shared numerical helpers: the tolerance policy, array coercion, rank,
and the package's only entry points into scipy.

Every scipy routine the package calls goes through a function here that
imports it on its first call. Importing ``scipy.optimize`` takes most of the
start-up time of the CLI, yet ``ingest``, ``shares``, ``solve`` and ``report``
never call scipy; loaded lazily, scipy is paid for only by the structure
analyses that use it. Callers bind these names at module level
(``from ._numerics import linprog``), so tests and tracing can rebind them per
module.

Linear programs skip ``scipy.optimize.linprog`` and call HiGHS through the
binding scipy ships with it, on one HiGHS instance per thread that every call
reuses; ``linprog`` returns the checked optimum, None for an infeasible
program, and raises for anything else. The cone LPs are small: on the 4,065
LPs of the benchmark's structure analyses (seeds 501-510) a call took on
average 1.41 ms through ``scipy.optimize.linprog`` and 0.22 ms here, of
which HiGHS's own solve is about 0.10 ms (one process, the two interleaved,
2-vCPU host). The instance keeps scipy's options, and each call sets the
feasibility tolerance and passes a whole new model, so no state carries over
from one LP to the next. The binding runs the same solver with the same
options, ``linprog`` repeats scipy's check of the optimum, and
``tests/test_numerics.py`` checks that the optima agree to the bit, in any
order of calls and from two threads.
"""

from __future__ import annotations

import threading
import numpy as np

from .errors import NonConvergenceError, PreconditionError, RankDeficiencyError

# The tolerance policy. Every tolerance is relative: a quantity that carries
# currency units is compared with ``TOL * magnitude(data it came from)``, never
# with an absolute floor such as ``1 + max|X|``, which turns absolute when the
# currency unit is small; so verdicts do not depend on the unit. A ``1 +`` or
# ``max(1, .)`` floor remains only on dimensionless quantities.
ROUNDING = 1e-12  # identities that are exact in real arithmetic
EIG_TOL = 1e-10  # residual of the factor eigen-system
BASE_TOL = 1e-9  # membership, rank, sign and balance decisions
RESIDUAL_TOL = 1e-8  # residual of a verified solve
DEFAULT_TOL = 1e-6  # equilibrium inequalities and the clearing set
DEFAULT_TOL_INNER = 1e-10  # fixed-point residual of the last solver stage


def magnitude(*arrays):
    """Largest absolute entry over ``arrays`` (0.0 when all are empty)."""
    return max(float(np.abs(a).max(initial=0.0)) for a in arrays)


# The HiGHS instance of each thread, made by its first LP, and HiGHS's
# default feasibility tolerance, read from it then.
_solvers = threading.local()


def linprog(c, A_eq, b_eq, A_ub=None, b_ub=None, upper=None, feasibility_tol=None):
    """``x`` minimizing ``c @ x`` subject to ``A_eq @ x == b_eq``,
    ``A_ub @ x <= b_ub`` and ``0 <= x <= upper`` (no upper bound by
    default), or None when HiGHS finds the program infeasible.

    Solves on this thread's ``_Highs`` instance from scipy's private HiGHS
    binding, ``scipy.optimize._highspy._core``, with the options scipy's
    wrapper sets, so an optimum is bit for bit that of
    ``scipy.optimize.linprog(method="highs")`` whatever was solved before.
    Each call sets only the primal feasibility tolerance, ``feasibility_tol``
    or HiGHS's default, and passes the whole model as arrays. Raises
    ValueError when the shapes disagree or HiGHS refuses ``feasibility_tol``,
    and NonConvergenceError when HiGHS refuses the model, the program ends
    other than optimal or infeasible (a limit, unbounded), or the optimum
    misses a bound or a row by more than scipy's check of ``10 * sqrt(1e-9)``.
    """
    from scipy.optimize._highspy._core import HighsModelStatus, HighsStatus, _Highs

    c = np.asarray(c, dtype=float).ravel()
    n = c.shape[0]
    b_eq = np.asarray(b_eq, dtype=float).ravel()
    b_ub = np.empty(0) if b_ub is None else np.asarray(b_ub, dtype=float).ravel()
    A = np.asarray(A_eq, dtype=float)
    if A_ub is not None:  # rows in scipy's order, inequalities first
        A = np.vstack([np.asarray(A_ub, dtype=float), A])
    m_ub = b_ub.shape[0]
    upper = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
    # HiGHS reads n upper bounds whatever the length of the array.
    if A.shape != (m_ub + b_eq.shape[0], n) or upper.shape != (n,):
        raise ValueError(f"constraint matrix of shape {A.shape} and upper bounds of shape "
                         f"{upper.shape} do not match {m_ub} + {b_eq.shape[0]} rows and "
                         f"{n} columns")
    rhs = np.concatenate([b_ub, b_eq])
    # The nonzeros column by column, as scipy's csc_array stores them.
    cols, rows = np.nonzero(A.T)

    highs = getattr(_solvers, "highs", None)
    if highs is None:
        highs = _solvers.highs = _Highs()
        # scipy's settings: presolve on, dual simplex, no output.
        for key, value in (("presolve", "on"), ("simplex_strategy", 1),
                           ("output_flag", False), ("log_to_console", False),
                           ("highs_debug_level", 0)):
            highs.setOptionValue(key, value)
        _solvers.default_tol = highs.getOptionValue("primal_feasibility_tolerance")[1]
    tol = _solvers.default_tol if feasibility_tol is None else feasibility_tol
    if highs.setOptionValue("primal_feasibility_tolerance", tol) == HighsStatus.kError:
        raise ValueError(f"HiGHS refused the feasibility tolerance {tol!r}")
    if highs.passModel(
            n, A.shape[0], rows.shape[0], 1, 1, 0.0,  # column-wise, minimize
            c, np.zeros(n), upper,
            np.concatenate([np.full(m_ub, -np.inf), b_eq]), rhs,
            np.searchsorted(cols, np.arange(n)).astype(np.int32),
            rows.astype(np.int32), A[rows, cols],
            np.zeros(n, np.int32)) == HighsStatus.kError:
        raise NonConvergenceError("HiGHS refused the linear program")
    highs.run()
    status = highs.getModelStatus()
    if status == HighsModelStatus.kInfeasible:
        return None
    if status != HighsModelStatus.kOptimal:
        raise NonConvergenceError(f"linear program ended {highs.modelStatusToString(status)} "
                                  f"(HiGHS model status {int(status)})")
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    # scipy's _check_result; a nan anywhere fails it too.
    check = 10 * np.sqrt(1e-9)
    slack = rhs - np.array(solution.row_value)
    if not (np.all((x >= -check) & (x <= upper + check))
            and np.all(slack[:m_ub] >= -check)
            and np.all(np.abs(slack[m_ub:]) <= check)):
        raise NonConvergenceError(
            f"the optimum misses a bound or a row by more than {check:.2e}")
    return x


def nnls_solve(A, b):
    """Nonnegative least squares ``argmin_{x>=0} ||A x - b||_2``.

    Returns ``(x, residual_2norm)`` with the residual recomputed from the
    solution (scipy's ``nnls`` misreports both on some inputs; BVLS is an
    exact active-set method for these small dense problems).
    """
    from scipy.optimize import lsq_linear

    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2:
        raise ValueError("A must be a matrix")
    res = lsq_linear(A, b, bounds=(0.0, np.inf), method="bvls")
    x = np.maximum(res.x, 0.0)
    return x, float(np.linalg.norm(A @ x - b))


def as_matrix(a, name="matrix"):
    """``a`` as a finite float matrix in C order: the solver's products, and so
    its results, depend on the memory layout of its inputs."""
    m = np.asarray(a, dtype=float, order="C")
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_vector(a, name="vector", length=None):
    """``a`` as a finite float vector; with ``length``, of that many entries
    (a ValueError names both lengths otherwise)."""
    v = np.asarray(a, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {v.shape}")
    if length is not None and v.shape[0] != length:
        raise ValueError(f"{name} has length {v.shape[0]}, expected {length}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def clearing_subset(I, n):
    """The clearing subset ``I`` of ``n`` goods as a sorted tuple of indices.

    Raises PreconditionError (a ValueError) when ``I`` is empty, and
    ValueError when it names a good outside ``range(n)`` or a good twice.
    """
    idx = tuple(sorted(int(k) for k in I))
    if not idx:
        raise PreconditionError("clearing set must be nonempty", condition="nonempty_I")
    if idx[0] < 0 or idx[-1] >= n:
        raise ValueError(f"clearing set {idx} out of range for {n} goods")
    if len(set(idx)) < len(idx):
        raise ValueError(f"clearing set {idx} names a good more than once")
    return idx


def as_economy(C, B, p=None):
    """``(C, B)``, or ``(C, B, p)`` when prices are given: both matrices through
    :func:`as_matrix` and of one shape, ``p`` (or a price object's ``p``)
    through :func:`as_vector` with one price per good. Raises ValueError
    naming the shapes that disagree."""
    C, B = as_matrix(C, "C"), as_matrix(B, "B")
    if C.shape != B.shape:
        raise ValueError(f"C shape {C.shape} != B shape {B.shape}")
    if p is None:
        return C, B
    p = as_vector(getattr(p, "p", p), "p")
    if p.shape[0] != C.shape[0]:
        raise ValueError(f"p has length {p.shape[0]}, expected {C.shape[0]} "
                         f"goods for C and B of shape {C.shape}")
    return C, B, p


def unit_columns(a):
    """``(a / norms, norms)`` with every nonzero column of ``a`` scaled to unit
    2-norm; zero columns are left as they are (their norm is reported as 1)."""
    norms = np.linalg.norm(a, axis=0)
    norms[norms == 0.0] = 1.0
    return a / norms, norms


def numerical_rank(a):
    """Number of singular values above ``BASE_TOL`` times the largest, so that
    ``rank(s * a) == rank(a)`` for every ``s > 0``."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(s > BASE_TOL * float(s[0])))


def require_independent(vectors, name="vectors"):
    """Raise RankDeficiencyError unless the rows of ``vectors`` are independent."""
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    r = numerical_rank(vectors)
    if r < vectors.shape[0]:
        raise RankDeficiencyError(
            f"{name} are linearly dependent: numerical rank {r} < {vectors.shape[0]}",
            numerical_rank=r,
            expected=vectors.shape[0],
        )
    return vectors

