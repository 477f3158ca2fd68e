"""Small shared numerical helpers: the tolerance policy, array coercion, rank,
and the package's only entry points into scipy.

Every scipy routine the package calls goes through a function here that
imports it on its first call. Importing ``scipy.optimize`` takes most of the
start-up time of the CLI, yet ``ingest``, ``shares`` and ``report`` never
call scipy, and ``solve`` calls it only in the root-finding fallback; loaded
lazily, scipy is paid for only by the calls that use it. Callers bind these
names at module level (``from ._numerics import linprog``), so tests and
tracing can rebind them per module.
"""

from __future__ import annotations

import numpy as np

from .errors import RankDeficiencyError

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
LOG_FLOOR = 1e-18  # floor on a price before its log; hybr's outcome moves with it


def magnitude(*arrays):
    """Largest absolute entry over ``arrays`` (0.0 when all are empty)."""
    return max(float(np.abs(a).max(initial=0.0)) for a in arrays)


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, loaded on first use."""
    from scipy import optimize

    return optimize.linprog(*args, **kwargs)


def root(*args, **kwargs):
    """``scipy.optimize.root``, loaded on first use."""
    from scipy import optimize

    return optimize.root(*args, **kwargs)


def strong_components(adjacency):
    """Number of strongly connected components of the directed graph with an
    edge ``i -> j`` wherever ``adjacency[i, j]`` is nonzero."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    count, _ = connected_components(csr_matrix(adjacency), directed=True,
                                    connection="strong")
    return count


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


def as_vector(a, name="vector"):
    v = np.asarray(a, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def unit_columns(a):
    """``(a / norms, norms)`` with every nonzero column of ``a`` scaled to unit
    2-norm; zero columns are left as they are (their norm is reported as 1)."""
    norms = np.linalg.norm(a, axis=0)
    norms[norms == 0.0] = 1.0
    return a / norms, norms


def numerical_rank(a, tol=None):
    """Number of singular values above ``tol``, by default ``BASE_TOL`` times
    the largest, so that ``rank(s * a) == rank(a)`` for every ``s > 0``."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if tol is None:
        tol = BASE_TOL * float(s[0])
    return int(np.sum(s > tol))


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

