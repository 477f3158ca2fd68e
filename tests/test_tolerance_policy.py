"""Verdicts do not depend on the currency unit or on the memory layout.

Each row of ``TestUnitInvariance`` is one decision that used to compare a
quantity in currency units with an absolute floor (``1 + max|X|`` or
``max(1, .)``) and so changed its verdict when the unit was small or large.
"""

import numpy as np
import pytest

from conftest import random_economy
from tradequil import (
    CostMatrices,
    NonConvergenceError,
    PreconditionError,
    certify_consistency,
    construct_ideal_supply,
    degeneracy_report,
    is_equilibrium,
    price_from_D,
    solve_fixed_point,
)

SCALES = (1e-12, 1e-9, 1.0, 1e9, 1e12)

# Supply columns leave span(C) although their sum is inside its column cone:
# no factor B = C @ B1 exists.
SPLIT_C = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
SPLIT_B = np.array([[0.6, 0.4], [0.6, 0.4], [0.9, 1.1]])
SWAP_C = np.array([[2.0, 1.0], [1.0, 2.0]])
SWAP_B = np.array([[1.0, 2.0], [2.0, 1.0]])
BOUNDARY_C = np.array([[1.0], [1.0]])
BOUNDARY_B = np.array([[2.0], [1.0]])
IDEAL_D = np.array([3.0, 3.0])  # SWAP_C.T @ (1, 1)


@pytest.mark.parametrize("s", SCALES)
class TestUnitInvariance:
    def test_inconsistent_structure_is_labelled_none(self, s):
        assert certify_consistency(s * SPLIT_C, s * SPLIT_B).label == "none"

    def test_price_with_a_large_residual_is_not_recovered(self, s):
        # The best nonnegative p = 1.5 leaves a residual of half of d_1.
        recovery = price_from_D(s * np.array([[1.0, 1.0]]), s * np.array([1.0, 2.0]))
        assert not recovery
        assert recovery.residual == pytest.approx(0.5 * s)

    def test_ten_percent_imbalance_is_rejected(self, s):
        with pytest.raises(ValueError, match="aggregate trade balance"):
            CostMatrices.from_supply_demand(s * np.array([[1.0, 1.0]]),
                                            s * np.array([[1.1, 1.1]]))

    def test_off_equilibrium_price_violates(self, s):
        # At p = (1, 0) demand for good 2 exceeds its supply by half.
        check = is_equilibrium(s * SWAP_C, s * SWAP_B, np.array([1.0, 0.0]))
        assert not check.ok
        assert check.clearing_set == (0,)
        assert [k for k, _ in check.violations] == [1]

    def test_factor_rows_must_sum_to_zero(self, s):
        F1 = np.array([[0.1, -0.1], [-0.1, 0.1]])
        B = construct_ideal_supply(s * SWAP_C, s * IDEAL_D, F1)
        np.testing.assert_allclose(B, s * (SWAP_C @ F1 + SWAP_C), rtol=1e-12)
        F1 += [[0.01, 0.01], [-0.01, -0.01]]  # rows now sum to +-0.02
        with pytest.raises(PreconditionError, match="rows of F1"):
            construct_ideal_supply(s * SWAP_C, s * IDEAL_D, F1)

    def test_degeneracy_report_keeps_clearing_set_and_recession(self, s):
        C, B = s * BOUNDARY_C, s * BOUNDARY_B
        report = degeneracy_report(solve_fixed_point(C, B), C, B)
        assert report.clearing_set == (1,)
        assert report.R == pytest.approx(0.5, rel=1e-12)

    def test_solve_keeps_clearing_set_and_recession(self, s):
        # The regularization weights scale with the data, so the solve ends
        # at the same equilibrium in any unit, up to rounding.
        rng = np.random.default_rng(2024)
        for _ in range(40):
            C, B = random_economy(rng)
            unit = solve_fixed_point(C, B)
            scaled = solve_fixed_point(s * C, s * B)
            assert scaled.clearing_set == unit.clearing_set
            assert degeneracy_report(scaled, s * C, s * B).R == pytest.approx(
                degeneracy_report(unit, C, B).R, rel=0, abs=1e-9)


@pytest.mark.parametrize("j", [-40, -20, 20, 40])
def test_solve_at_a_power_of_two_scale_is_bit_identical(j):
    # Multiplying by 2**j is exact in floats, and so is every step of the
    # solve on the scaled data: the same prices, the same path.
    rng = np.random.default_rng(2024)
    for _ in range(40):
        C, B = random_economy(rng)
        unit = solve_fixed_point(C, B)
        scaled = solve_fixed_point(np.ldexp(C, j), np.ldexp(B, j))
        assert scaled.p0.p.tobytes() == unit.p0.p.tobytes()
        assert scaled.iterations == unit.iterations
        np.testing.assert_array_equal(scaled.excess, np.ldexp(unit.excess, j))


def test_solve_does_not_depend_on_memory_layout():
    def outcome(C, B):
        try:
            solution = solve_fixed_point(C, B)
        except NonConvergenceError as exc:
            return str(exc)
        return solution.p0.p.tobytes(), solution.iterations, solution.clearing_set

    rng = np.random.default_rng(0)
    for _ in range(40):
        C, B = random_economy(rng)
        assert outcome(C, B) == outcome(np.asfortranarray(C), np.asfortranarray(B))
