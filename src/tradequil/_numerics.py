"""Small shared numerical helpers: array coercion, tolerances, rank."""

from __future__ import annotations

import numpy as np
from scipy.optimize import lsq_linear

from .errors import RankDeficiencyError

# Relative tolerance for membership and rank decisions: it is compared only
# with dimensionless quantities (coordinates of unit-normalized data, or
# singular values over the largest one).
BASE_TOL = 1e-9


def nnls_solve(A, b):
    """Nonnegative least squares ``argmin_{x>=0} ||A x - b||_2``.

    Returns ``(x, residual_2norm)`` with the residual recomputed from the
    solution (scipy's ``nnls`` misreports both on some inputs; BVLS is an
    exact active-set method for these small dense problems).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2:
        raise ValueError("A must be a matrix")
    res = lsq_linear(A, b, bounds=(0.0, np.inf), method="bvls")
    x = np.maximum(res.x, 0.0)
    return x, float(np.linalg.norm(A @ x - b))


def as_matrix(a, name="matrix"):
    m = np.asarray(a, dtype=float)
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

