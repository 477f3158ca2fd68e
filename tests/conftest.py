"""Shared instance generators and independent oracles for the test suite."""

import itertools
from fractions import Fraction

import numpy as np
import pytest


# ---------------------------------------------------------------------------
# Exact-arithmetic oracle for membership against an independent vector set.
# Solves V.T x = b over the rationals: unique representation if consistent.
# ---------------------------------------------------------------------------

def exact_solve(columns, rhs):
    """Gaussian elimination over Fractions.

    ``columns`` is a list of length-n tuples (the generators), ``rhs`` a
    length-n tuple. Returns the coefficient list when ``rhs`` lies in the
    span and the representation is unique, ``None`` when inconsistent.
    Requires the columns to be linearly independent (checked).
    """
    m = len(columns)
    n = len(rhs)
    aug = [
        [Fraction(columns[j][i]) for j in range(m)] + [Fraction(rhs[i])]
        for i in range(n)
    ]
    pivot_rows = []
    row = 0
    for col in range(m):
        pivot = next((r for r in range(row, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("columns are linearly dependent")
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = aug[row][col]
        aug[row] = [v / inv for v in aug[row]]
        for r in range(n):
            if r != row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[row])]
        pivot_rows.append(row)
        row += 1
    for r in range(row, n):
        if aug[r][m] != 0:
            return None  # rhs outside the span
    return [aug[r][m] for r in pivot_rows]


def exact_membership(columns, rhs):
    """'interior' / 'boundary' / 'outside' for independent generators."""
    coeff = exact_solve(columns, rhs)
    if coeff is None or any(c < 0 for c in coeff):
        return "outside"
    if all(c > 0 for c in coeff):
        return "interior"
    return "boundary"


def exact_rank(rows):
    """Rank over the rationals of a list of tuples."""
    matrix = [list(map(Fraction, r)) for r in rows]
    rank = 0
    cols = len(matrix[0]) if matrix else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col] != 0), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = matrix[rank][col]
        matrix[rank] = [v / inv for v in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col] != 0:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[rank])]
        rank += 1
    return rank


def exact_strictly_positive_exists(columns, rhs):
    """Whether ``C y = rhs`` has a solution with every ``y_j > 0``, exactly.

    ``columns`` lists the columns of ``C``. Such a solution exists iff
    ``rhs - eps * sum_j C_j`` lies in the cone of the columns for some
    ``eps > 0``. By Caratheodory that cone is the union of the cones of the
    bases of the column span; with ``alpha`` the coordinates of ``rhs`` and
    ``beta`` those of ``sum_j C_j`` in one basis, small ``eps`` stay inside
    its cone iff every ``alpha_k > 0``, or ``alpha_k = 0`` and ``beta_k <= 0``.
    """
    cols = [tuple(map(Fraction, c)) for c in columns]
    rhs = tuple(map(Fraction, rhs))
    total = tuple(sum(c[k] for c in cols) for k in range(len(rhs)))
    r = exact_rank(cols)
    if r == 0:
        return not any(rhs)
    for subset in itertools.combinations(range(len(cols)), r):
        basis = [cols[j] for j in subset]
        if exact_rank(basis) < r:
            continue
        alpha = exact_solve(basis, rhs)
        if alpha is None:
            return False  # every basis spans the same space
        beta = exact_solve(basis, total)
        if all(a > 0 or (a == 0 and b <= 0) for a, b in zip(alpha, beta)):
            return True
    return False


# ---------------------------------------------------------------------------
# Random-instance generators.
# ---------------------------------------------------------------------------

def random_economy(rng, n_max=8, l_max=8):
    """C uniform in [0.1, 1], B nonnegative with matching aggregate scale."""
    n = int(rng.integers(1, n_max + 1))
    l = int(rng.integers(1, l_max + 1))
    C = rng.uniform(0.1, 1.0, (n, l))
    B = rng.uniform(0.0, 1.0, (n, l))
    total = B.sum()
    if total <= 0:
        B = np.full((n, l), C.sum() / (n * l))
    else:
        B = B * (C.sum() / total)
    if np.any(B.sum(axis=1) <= 0):
        B = B + C.mean() * 0.01
    return C, B


def random_strict_instance(rng, n_max=8, l_max=6):
    """Economy certified strict by construction, with d in the row cone.

    Builds a strictly positive factor, takes its eigen-direction d, and
    rescales a positive demand matrix so that d = C.T p for a chosen
    positive p. Uses n >= l so the factorization is unique.
    """
    l = int(rng.integers(2, l_max + 1))
    n = int(rng.integers(l, n_max + 1))
    B1 = rng.uniform(0.2, 1.0, (l, l))
    y = B1.sum(axis=1)
    M = B1.T / y[:, None]
    # Dense eigensolve for the eigenvalue-1 direction (independent of the
    # package's iteration).
    vals, vecs = np.linalg.eig(M)
    k = int(np.argmin(np.abs(vals - 1.0)))
    d = np.real(vecs[:, k])
    if d.sum() < 0:
        d = -d
    assert np.all(d > 0)
    d = d * (l / d.sum())
    p = rng.uniform(0.5, 1.5, n)
    raw = rng.uniform(0.2, 1.0, (n, l))
    scale = d / (raw.T @ p)
    C = raw * scale[None, :]
    B = C @ B1
    return C, B, B1, d, p


def random_ideal_triple(rng, n_max=6, l_max=6):
    """(C, d, F1) satisfying the ideal-construction preconditions."""
    n = int(rng.integers(2, n_max + 1))
    l = int(rng.integers(n, l_max + 1))
    C = rng.uniform(0.2, 1.0, (n, l))
    q = rng.uniform(0.2, 1.0, n)
    d = C.T @ q
    raw = rng.uniform(-1.0, 1.0, (l, l))
    proj_d = np.eye(l) - np.outer(d, d) / float(d @ d)
    center = np.eye(l) - np.full((l, l), 1.0 / l)
    F1 = proj_d @ raw @ center
    # Scale down until the constructed supply stays nonnegative with slack.
    G = C @ F1
    neg = G < 0
    if neg.any():
        bound = float(np.min(C[neg] / -G[neg]))
        F1 = F1 * min(1.0, 0.5 * bound)
    return C, d, F1


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


# ---------------------------------------------------------------------------
# One pass/fail line per acceptance criterion at the end of the run.
# ---------------------------------------------------------------------------

def _criterion_label(nodeid):
    name = nodeid.split("::")[-1]
    return name.removeprefix("test_").replace("_", " ")


def pytest_terminal_summary(terminalreporter):
    lines = []
    for outcome in ("passed", "failed", "skipped"):
        for report in terminalreporter.stats.get(outcome, []):
            if "test_acceptance.py" not in getattr(report, "nodeid", ""):
                continue
            if getattr(report, "when", "call") != "call" and outcome != "skipped":
                continue
            label = _criterion_label(report.nodeid)
            note = ""
            if outcome == "skipped" and report.longrepr is not None:
                note = f" ({report.longrepr[2]})"
            lines.append((label, outcome.upper(), note))
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for label, outcome, note in sorted(lines):
            terminalreporter.write_line(f"{label}: {outcome}{note}")
