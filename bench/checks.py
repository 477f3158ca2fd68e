"""Independent checks of tradequil outputs, in plain numpy.

Every check recomputes from the cost matrices the generator wrote next to
each CSV (``flows.write_panel``), never from the program's own arrays, and
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-6  # the CLI's default --tol
ROUNDING = 1e-12  # slack for recomputing the same sums in another order
WALRAS = 1e-8
FACTOR = 1e-8  # residual of B = C @ B1, relative to 1 + max|B|
IDEAL = 1e-8  # trade balance at ideal prices, relative to <C_i, p>


class Truth:
    """Generated ``C`` and ``B`` of one panel, reordered to the program's labels."""

    def __init__(self, npz_path):
        with np.load(npz_path) as data:
            self.C = data["C"]
            self.B = data["B"]
            self.countries = [str(c) for c in data["countries"]]
            self.goods = [str(g) for g in data["goods"]]
            self.years = [int(y) for y in data["years"]]
            self.rows = int(data["rows"])

    def matrices(self, year, countries, goods):
        if sorted(countries) != sorted(self.countries) or sorted(goods) != sorted(self.goods):
            raise ValueError("labels differ from the generated panel")
        t = self.years.index(int(year))
        cols = [self.countries.index(c) for c in countries]
        rows = [self.goods.index(g) for g in goods]
        return self.C[t][np.ix_(rows, cols)], self.B[t][np.ix_(rows, cols)]


def _scale(values):
    return max(1.0, float(np.abs(values).max(initial=0.0)))


def check_matrices(payload, C, B):
    problems = []
    for name, got, want in (("C", payload["C"], C), ("B", payload["B"], B)):
        got = np.asarray(got, dtype=float)
        if got.shape != want.shape:
            problems.append(f"{name} has shape {got.shape}, expected {want.shape}")
        elif float(np.abs(got - want).max()) > ROUNDING * _scale(want):
            problems.append(f"{name} differs from the generated flows")
    return problems


def check_solution(payload, C, B):
    """Equilibrium inequalities, nonempty clearing set, Walras identity."""
    p = np.asarray(payload["p0"], dtype=float)
    psi = B.sum(axis=1)
    problems = []
    if p.shape != psi.shape or np.any(p < 0) or abs(p.sum() - 1.0) > ROUNDING:
        return ["p0 is not a price vector on the simplex"]
    y = (B.T @ p) / (C.T @ p)
    excess = C @ y - psi
    limit = (TOL + ROUNDING) * np.maximum(1.0, psi)
    if np.any(excess > limit):
        k = int(np.argmax(excess - limit))
        problems.append(f"excess demand {excess[k]:.6g} of good {k + 1} exceeds tol")
    clearing = [int(k) - 1 for k in payload["I"]]
    if not clearing:
        problems.append("clearing set I is empty")
    elif min(clearing) < 0 or max(clearing) >= len(psi):
        problems.append(f"clearing set {payload['I']} out of range")
    elif np.any(np.abs(excess[clearing]) > limit[clearing]):
        problems.append("a good in I does not clear")
    walras = abs(float(p @ (C @ y)) - float(p @ psi))
    if walras > WALRAS * max(1.0, abs(float(p @ psi))):
        problems.append(f"Walras identity violated by {walras:.3e}")
    return problems


def check_recession(payload, solution):
    problems = []
    if not 0.0 <= float(payload["R"]) <= 1.0:
        problems.append(f"recession level R = {payload['R']!r} outside [0, 1]")
    if payload["I"] != solution["I"]:
        problems.append("recession.json and solution.json disagree on I")
    return problems


def check_factor(B1, C, B, rows=None):
    rows = list(range(C.shape[0])) if rows is None else list(rows)
    residual = float(np.abs(B[rows] - C[rows] @ np.asarray(B1)).max())
    if residual > FACTOR * (1.0 + float(np.abs(B[rows]).max())):
        return [f"factor residual {residual:.3e} exceeds the factor tolerance"]
    return []


def check_certificate(certificate, C, B, clearing):
    """A verdict other than ``none`` must carry a factor of its row block."""
    if certificate.label == "none":
        return []
    rows = certificate.clearing_set
    if certificate.label.endswith("of-rank-|I|") and tuple(rows) != tuple(clearing):
        return [f"{certificate.label} certificate is for rows {rows}, not I"]
    return check_factor(certificate.factorization.B1, C, B, rows)


def check_ideal(existence, C, B):
    if not existence.exists:
        return []
    p = np.asarray(existence.p0, dtype=float)
    cost = C.T @ p
    balance = B.T @ p - cost
    if np.any(cost <= 0) or np.any(np.abs(balance) > (IDEAL + ROUNDING) * cost):
        return ["ideal prices leave a nonzero trade balance"]
    return []
