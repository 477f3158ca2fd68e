"""Acceptance criteria, one test per criterion at its stated tolerance.

A one-line verdict per criterion is printed in the terminal summary (see
conftest). The G20 regression runs only when a dataset directory is
supplied via the TRADEQUIL_G20_DIR environment variable.
"""

import json
import os
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    exact_strictly_positive_exists,
    random_economy,
    random_ideal_triple,
    random_strict_instance,
)
from test_cone_geometry import lp_strictly_positive_exists
from tradequil import (
    DegenerateTargetError,
    InfeasibleError,
    OutsideConeError,
    certify_consistency,
    check_ideal,
    construct_ideal_supply,
    degeneracy_report,
    evaluate_solution,
    excess_demand,
    exists_ideal,
    is_equilibrium,
    positive_solution_family,
    price_from_D,
    solve_D,
    solve_fixed_point,
    strictly_positive_solution,
)
from tradequil.consistency import Factorization
from tradequil.trade_data import TradeFlowTensor, build_cost_matrices, shares


def test_equilibrium_contract():
    """200 random solves: per-component excess within tolerance, < 1 s each."""
    rng = np.random.default_rng(1)
    solved = 0
    while solved < 200:
        C, B = random_economy(rng)
        psi = B.sum(axis=1)
        if np.any(psi <= 0):
            continue
        start = time.perf_counter()
        solution = solve_fixed_point(C, B)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"solve took {elapsed:.2f}s"
        check = is_equilibrium(C, B, solution.p0.p, tol=1e-6)
        assert check.ok, f"excess violation {check.violations}"
        assert np.all(solution.excess <= 1e-6 * np.maximum(1.0, psi))
        solved += 1


def test_walras_identity():
    """|<psi_bar, p0> - <psi, p0>| <= 1e-8 <psi, p0> on every converged solve."""
    rng = np.random.default_rng(2)
    solved = 0
    while solved < 100:
        C, B = random_economy(rng)
        if np.any(B.sum(axis=1) <= 0):
            continue
        solution = solve_fixed_point(C, B)
        psi = B.sum(axis=1)
        psi_bar = C @ solution.y
        p0 = solution.p0.p
        assert abs(psi_bar @ p0 - psi @ p0) <= 1e-8 * abs(psi @ p0)
        solved += 1


def test_ideal_round_trip():
    """100 constructed ideal economies: existence, ideal check, and R = 0."""
    rng = np.random.default_rng(3)
    for _ in range(100):
        C, d, F1 = random_ideal_triple(rng)
        B = construct_ideal_supply(C, d, F1)
        result = exists_ideal(C, B)
        assert result.exists, result.reason
        assert check_ideal(C, B, result.p0).ideal
        solution = evaluate_solution(C, B, result.p0)
        report = degeneracy_report(solution, C, B)
        assert abs(report.R) <= 1e-10
        assert report.multiplicity == 0


def _rational_matrix(rng, n, l):
    return rng.integers(0, 9, size=(n, l)).astype(float) / 4.0


def test_positive_solution_family_vs_oracle():
    """50 rational instances: members solve the system; positivity matches
    the exact rational oracle (and the LP oracle agrees with it)."""
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 50:
        n = int(rng.integers(1, 4))
        l = int(rng.integers(1, 5))
        C = _rational_matrix(rng, n, l)
        if not C.any():
            continue
        if rng.uniform() < 0.7:
            psi = C @ (rng.integers(1, 5, size=l).astype(float) / 2.0)
        else:
            psi = rng.integers(0, 7, size=n).astype(float) / 2.0
        oracle = exact_strictly_positive_exists(
            [tuple(C[:, j]) for j in range(l)], tuple(psi))
        assert lp_strictly_positive_exists(C, psi) == oracle
        try:
            family = positive_solution_family(C, psi)
        except (DegenerateTargetError, OutsideConeError, InfeasibleError):
            family = None
        if family is not None:
            assert oracle, "family built where the exact oracle finds none"
            scale = 1.0 + np.abs(psi).max()
            for gamma in _gamma_samples(family, rng, count=5):
                member = family.member(gamma)
                assert np.all(member > 0)
                assert np.abs(C @ member - psi).max() <= 1e-8 * scale
        else:
            # The linear-program route must agree with the oracle exactly.
            try:
                y = strictly_positive_solution(C, psi)
                ours = bool(
                    np.all(y > 0)
                    and np.abs(C @ y - psi).max() <= 1e-8 * (1 + np.abs(psi).max())
                )
            except (InfeasibleError, ValueError):
                ours = False
            assert ours == oracle
        checked += 1

    # The worked three-column parametrization is reproduced exactly.
    C = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    family = positive_solution_family(C, np.array([2.0, 2.0]))
    np.testing.assert_array_equal(family.z, [[2.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
    np.testing.assert_array_equal(family.ystar, [2.0])
    np.testing.assert_array_equal(family.gamma_constraints.A, [[2.0], [2.0]])
    np.testing.assert_array_equal(family.gamma_constraints.b, [2.0, 2.0])


def _gamma_samples(family, rng, count):
    poly = family.gamma_constraints
    nfree = poly.n_free
    if nfree == 0:
        return [np.array([1.0])]
    samples = []
    tries = 0
    while len(samples) < count and tries < 500:
        tries += 1
        free = rng.uniform(0.0, 1.0, nfree)
        total = rng.uniform(0.05, 1.0)
        s = free.sum()
        if s <= 0:
            continue
        free = free / s * total
        gamma = np.concatenate([[1.0 - free.sum()], free])
        if poly.contains(gamma, margin=1e-12):
            samples.append(gamma)
    if not samples:
        samples.append(_family_base_gamma(family))
    return samples


def _family_base_gamma(family):
    # Recover gamma for the base point from the z-stack (least squares).
    gamma, *_ = np.linalg.lstsq(family.z.T, family.base_point, rcond=None)
    return gamma


def test_d_eigenproblem():
    """100 strictly positive factors up to 8x8 against a dense eigensolver."""
    rng = np.random.default_rng(5)
    for _ in range(100):
        l = int(rng.integers(1, 9))
        B1 = rng.uniform(0.05, 1.0, (l, l))
        y = B1.sum(axis=1)
        fact = Factorization(
            B1=B1,
            row_sums=y,
            mode="strict",
            residual=0.0,
            nonnegative=True,
            indecomposable=True,
            strictly_positive=True,
        )
        d = solve_D(fact).d
        assert np.all(d > 0)
        resid = np.abs(B1.T @ d - y * d).max() / max(1.0, np.abs(y * d).max())
        assert resid <= 1e-10
        M = B1.T / y[:, None]
        vals, vecs = np.linalg.eig(M)
        k = int(np.argmin(np.abs(vals - 1.0)))
        oracle = np.real(vecs[:, k])
        oracle *= l / oracle.sum()
        assert np.abs(d - oracle).max() <= 1e-8 * max(1.0, np.abs(oracle).max())


def test_consistency_sufficiency():
    """Strict certification with d in the row cone implies full clearing."""
    rng = np.random.default_rng(6)
    for _ in range(50):
        C, B, _, _, _ = random_strict_instance(rng)
        cert = certify_consistency(C, B)
        assert cert.label == "strict"
        dvec = solve_D(cert.factorization)
        recovery = price_from_D(C, dvec.d)
        assert recovery, "d lies in the row cone by construction"
        p0 = recovery.p0
        ratios = (B.T @ p0) / (C.T @ p0)
        psi = B.sum(axis=1)
        residual = np.abs(C @ ratios - psi) / np.maximum(1.0, psi)
        assert residual.max() <= 1e-6


def test_recession_worked_instance():
    """C=(1,1), B=(2,1): I={2}, multiplicity 1, psi_bar=(1,1), R=0.5."""
    C = np.array([[1.0], [1.0]])
    B = np.array([[2.0], [1.0]])
    solution = solve_fixed_point(C, B)
    report = degeneracy_report(solution, C, B)
    assert report.clearing_set == (1,)
    assert report.multiplicity == 1
    np.testing.assert_allclose(report.psi_bar, [1.0, 1.0], atol=1e-8)
    assert report.R == 0.5


def test_degeneracy_freedom():
    """Perturbing p1 off the clearing set moves the modified market <= 1e-10."""
    rng = np.random.default_rng(7)
    reports = 0
    while reports < 100:
        C, B = random_economy(rng, n_max=6, l_max=6)
        if np.any(B.sum(axis=1) <= 0):
            continue
        B = B.copy()
        row = int(rng.integers(0, C.shape[0]))
        B[row] *= 1.0 + 2.0 * rng.uniform()
        solution = solve_fixed_point(C, B)
        report = degeneracy_report(solution, C, B)
        off = [k for k in range(C.shape[0]) if k not in report.clearing_set]
        base = excess_demand(C, report.B0, report.p1.p)
        perturbed = report.p1.p.copy()
        if off:
            perturbed[off] *= rng.uniform(0.25, 4.0, size=len(off))
        drift = np.abs(excess_demand(C, report.B0, perturbed) - base).max()
        assert drift <= 1e-10
        reports += 1


def test_data_layer():
    """Random integer flow tensors: exact zero balances, unit share sums."""
    rng = np.random.default_rng(8)
    for _ in range(50):
        m = int(rng.integers(2, 21))
        n = int(rng.integers(1, 17))
        flow = rng.integers(0, 10_000, size=(m, m, n)).astype(float)
        flow[np.arange(m), np.arange(m), :] = 0.0
        tensor = TradeFlowTensor(
            countries=tuple(f"c{i}" for i in range(m)),
            goods=tuple(f"g{s}" for s in range(n)),
            flow=flow,
        )
        cm = build_cost_matrices(tensor)
        assert cm.balances.sum() == 0.0
        if cm.C.sum() > 0 and cm.B.sum() > 0:
            report = shares(cm)
            for vector in (
                report.country_demand,
                report.country_supply,
                report.goods_demand,
                report.goods_supply,
            ):
                assert abs(vector.sum() - 1.0) <= 1e-12


PUBLISHED_G20 = {
    2016: ((4, 5, 14), 0.1154218242887561),
    2017: ((4, 5, 14), 0.0964662047894453),
    2018: ((4, 5, 14), 0.08312669207435437),
    2019: ((5, 6, 14), 0.07844142458650168),
}


def test_g20_regression():
    """Published clearing sets and recession levels, when data is supplied."""
    data_dir = os.environ.get("TRADEQUIL_G20_DIR")
    if not data_dir:
        pytest.skip(
            "G20 dataset not supplied; set TRADEQUIL_G20_DIR to a directory "
            "with matrices_<year>.json or flows_<year>.csv for 2016-2019"
        )
    from tradequil.trade_data import CostMatrices, read_flows_csv

    for year, (clearing, published_r) in PUBLISHED_G20.items():
        matrices = Path(data_dir) / f"matrices_{year}.json"
        flows = Path(data_dir) / f"flows_{year}.csv"
        if matrices.exists():
            cm = CostMatrices.from_dict(json.loads(matrices.read_text()))
        elif flows.exists():
            tensors = read_flows_csv(flows, year=year)
            cm = build_cost_matrices(tensors[year])
        else:
            pytest.skip(f"no dataset for {year} in {data_dir}")
        solution = solve_fixed_point(cm.C, cm.B)
        report = degeneracy_report(solution, cm.C, cm.B)
        assert tuple(k + 1 for k in report.clearing_set) == clearing
        assert abs(report.R - published_r) <= 1e-3
