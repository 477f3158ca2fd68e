"""Equilibrium quality: degeneracy multiplicity and the recession level.

A converged equilibrium usually clears only a subset ``I`` of goods. The
prices of the remaining goods are left free by the clearing equations
(degeneracy of multiplicity ``n - |I|``); the share of their supply that
finds no consumer is the recession level ``R``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._numerics import (
    RESIDUAL_TOL,
    ROUNDING,
    as_economy,
    as_matrix,
    as_vector,
    clearing_subset,
    magnitude,
)
from .equilibrium_solver import (
    EquilibriumSolution,
    PriceVector,
    demand_weights,
    is_equilibrium_unchecked,
)
from .errors import DivisionGuardError, PreconditionError


@dataclass(frozen=True)
class RecessionReport:
    """Clearing set, degeneracy, real consumption, and recession level."""

    clearing_set: tuple
    multiplicity: int
    psi_bar: np.ndarray
    B0: np.ndarray
    p1: PriceVector
    R: float

    def to_dict(self):
        return {
            "schema_version": 1,
            "I": [k + 1 for k in self.clearing_set],
            "multiplicity": self.multiplicity,
            "psi_bar": self.psi_bar.tolist(),
            "B0": self.B0.tolist(),
            "p1": self.p1.p.tolist(),
            "R": self.R,
        }

    CSV_HEADER = ("scenario", "goods", "clearing_set", "multiplicity", "R")

    def csv_row(self, scenario):
        return (
            str(scenario),
            str(len(self.psi_bar)),
            ";".join(str(k + 1) for k in self.clearing_set),
            str(self.multiplicity),
            repr(self.R),
        )


def real_consumption(C, y):
    """Demand actually realized at satisfaction ratios ``y``: sum_i y_i C_i."""
    C = as_matrix(C, "C")
    return _real_consumption(C, as_vector(y, "y", length=C.shape[1]))


def _real_consumption(C, y):
    if np.any(y < 0) or not np.any(y > 0):
        raise ValueError("y must be nonnegative and nonzero")
    return C @ y


def modified_supply(C, B, y, clearing_set):
    """Supply with off-clearing rows replaced by realized demand.

    Rows in the clearing set keep their supply values; every other row of
    agent ``i`` becomes ``y_i * c_ki``, so incomes are unchanged for any
    price supported on the clearing set.
    """
    C, B = as_economy(C, B)
    y = as_vector(y, "y", length=C.shape[1])
    idx, _ = _split_goods(clearing_set, C.shape[0])
    return _modified_supply(C, B, y, idx)


def _modified_supply(C, B, y, idx):
    B0 = C * y[None, :]
    B0[idx, :] = B[idx, :]
    return B0


def _split_goods(clearing_set, n):
    idx = list(clearing_subset(clearing_set, n))
    chosen = set(idx)
    return idx, [k for k in range(n) if k not in chosen]


def generalized_price(p0, psi, clearing_set) -> PriceVector:
    """Rescale clearing-set prices to preserve clearing cost; ones elsewhere.

    ``p0`` must be supported on the clearing set (mass elsewhere beyond a
    ``RESIDUAL_TOL`` share of the total is an error). On the set, prices are renormalized
    to sum to one and then scaled so that the supply cost over the set is
    unchanged; off the set the price is one, matching current prices.
    """
    psi = as_vector(psi, "psi")
    n = psi.shape[0]
    p0 = as_vector(getattr(p0, "p", p0), "p0", length=n)
    return _generalized_price(p0, psi, *_split_goods(clearing_set, n))


def _generalized_price(p0, psi, idx, off):
    total = float(p0.sum())
    if total <= 0:
        raise ValueError("p0 must have positive total mass")
    if off and float(p0[off].sum()) > RESIDUAL_TOL * total:
        raise PreconditionError(
            f"p0 has {float(p0[off].sum()):.3e} of its mass off the clearing "
            "set; a supported price vector is required",
            condition="p0_supported_on_I",
        )
    psi_on, p0_on = psi[idx], p0[idx]
    if np.any(psi_on <= 0):
        bad = idx[int(np.argmax(psi_on <= 0))]
        raise DivisionGuardError(
            f"aggregate supply of clearing good {bad} is not positive",
            agent=bad,
        )
    on = p0_on / float(p0_on.sum())  # renormalized: sum over I is one
    tau = float(psi_on.sum()) / float(psi_on @ on)
    p1 = np.ones(len(p0))
    p1[idx] = tau * on
    return PriceVector.clearing_cost(p1, psi, idx)


def recession_level(psi, psi_bar, clearing_set, p1) -> float:
    """Cost share of off-clearing supply that finds no consumer.

    With real consumption snapped to supply on the clearing set, the
    inner-product form ``<psi - psi_bar, p1>`` reduces exactly to the sum
    over the off-clearing goods because the generalized price is one
    there; both evaluations are computed and must agree to ``ROUNDING``
    times the off-clearing supply.
    """
    psi = as_vector(psi, "psi")
    n = psi.shape[0]
    psi_bar = as_vector(psi_bar, "psi_bar", length=n)
    p1 = as_vector(getattr(p1, "p", p1), "p1", length=n)
    return _recession_level(psi, psi_bar, p1, *_split_goods(clearing_set, n))


def _recession_level(psi, psi_bar, p1, idx, off):
    if not off:
        return 0.0
    psi_off = psi[off]
    if np.any(psi_off <= 0):
        bad = off[int(np.argmax(psi_off <= 0))]
        raise DivisionGuardError(
            f"aggregate supply of good {bad} is not positive; the recession "
            "denominator needs positive supply",
            agent=bad,
        )
    snapped = psi_bar.copy()
    snapped[idx] = psi[idx]
    shortfall = psi - snapped  # exactly zero on the clearing set
    numerator = float(shortfall[off].sum())
    inner = float(shortfall @ p1)
    denominator = float(psi_off.sum())
    if abs(inner - numerator) > ROUNDING * denominator:
        raise AssertionError(
            "inner-product and reduced recession forms disagree: "
            f"{inner!r} vs {numerator!r}"
        )
    return numerator / denominator


@functools.cache
def _off_price_factors(m):
    """Factors for ``m`` off-clearing prices in each of three spot checks,
    from a fixed seed so that every report is deterministic (read-only)."""
    factors = np.random.default_rng(0).uniform(0.5, 2.0, size=(3, m))
    factors.flags.writeable = False
    return factors


def degeneracy_report(solution: EquilibriumSolution, C, B) -> RecessionReport:
    """Assemble the full degeneracy picture for a converged solution.

    Verifies the solution still passes the equilibrium check at its own
    ``tol`` and that its clearing set is the one that check finds at
    ``p0``, rebuilds the satisfaction ratios from the clearing-supported
    price, and spot-checks that prices off the clearing set leave the
    modified-supply market unchanged (the degeneracy freedom that
    motivates the multiplicity). ``C``, ``B`` and ``p0`` are checked once,
    here; the steps after that are the cores of :func:`real_consumption`,
    :func:`modified_supply`, :func:`generalized_price` and
    :func:`recession_level`.
    """
    C, B, p = as_economy(C, B, solution.p0)
    check = is_equilibrium_unchecked(C, B, p, tol=solution.tol)
    if not check.ok:
        raise PreconditionError(
            "solution no longer passes the equilibrium check against C, B "
            + check.worst_violation(B.sum(axis=1), solution.tol),
            condition="solution_is_equilibrium",
        )
    if tuple(solution.clearing_set) != check.clearing_set:
        raise PreconditionError(
            f"solution clearing set {tuple(solution.clearing_set)} is not the "
            f"clearing set {check.clearing_set} found at its prices",
            condition="clearing_set_at_p0",
        )
    n = C.shape[0]
    idx, off = _split_goods(check.clearing_set, n)

    # Price supported exactly on the clearing set; the solver leaves at
    # most a vanishing mass elsewhere.
    p_support = np.zeros(n)
    p_support[idx] = p[idx]
    total = p_support.sum()
    if total <= 0:
        raise PreconditionError(
            "solution price has no mass on the clearing set",
            condition="p0_supported_on_I",
        )
    p_support /= total

    y = demand_weights(C, B, p_support)
    psi = B.sum(axis=1)
    psi_bar = _real_consumption(C, y)
    B0 = _modified_supply(C, B, y, idx)
    p1 = _generalized_price(p_support, psi, idx, off)
    R = _recession_level(psi, psi_bar, p1.p, idx, off)

    if off:
        # p1 and three draws of its off-clearing prices, one row each, priced
        # by one product. Supply does not move with prices, so the drift of
        # excess demand is the drift of demand.
        prices = np.repeat(p1.p[None, :], 4, axis=0)
        prices[1:, off] *= _off_price_factors(len(off))
        demand = C @ demand_weights(C, B0, prices.T)
        drift = float(np.abs(demand[:, 1:] - demand[:, :1]).max())
        if drift > ROUNDING * magnitude(psi):
            raise PreconditionError(
                f"off-clearing prices moved the modified-supply market by "
                f"{drift:.3e}; the clearing equations are not degenerate here",
                condition="degeneracy_freedom",
            )

    return RecessionReport(
        clearing_set=tuple(idx),
        multiplicity=n - len(idx),
        psi_bar=psi_bar,
        B0=B0,
        p1=p1,
        R=R,
    )
