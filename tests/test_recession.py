from dataclasses import replace

import numpy as np
import pytest

from conftest import random_economy
from tradequil import recession
from tradequil import (
    DivisionGuardError,
    PreconditionError,
    excess_demand,
    degeneracy_report,
    factor_supply,
    generalized_price,
    modified_supply,
    real_consumption,
    recession_level,
    solve_D,
    solve_fixed_point,
)
from tradequil.equilibrium_solver import demand_weights

BOUNDARY_C = np.array([[1.0], [1.0]])
BOUNDARY_B = np.array([[2.0], [1.0]])


@pytest.mark.parametrize("call, lengths", [
    (lambda: solve_D(factor_supply(np.eye(2), np.eye(2)), y=[1.0]),
     "y has length 1, expected 2"),
    (lambda: solve_D(factor_supply(np.eye(2), np.eye(2)), y=np.ones(4)),
     "y has length 4, expected 2"),
    (lambda: modified_supply(np.eye(2), np.eye(2), [1.0], (0,)), "y has length 1, expected 2"),
    (lambda: recession_level([1.0, 1.0], [1.0], (0,), [1.0, 1.0]),
     "psi_bar has length 1, expected 2"),
    (lambda: recession_level([1.0, 1.0], [1.0, 1.0], (0,), [1.0, 1.0, 1.0]),
     "p1 has length 3, expected 2"),
], ids=["solve_D-short-y", "solve_D-long-y", "modified_supply-y", "recession-psi_bar",
        "recession-p1"])
def test_wrong_lengths_are_named(call, lengths):
    with pytest.raises(ValueError, match=lengths):
        call()


class TestRealConsumption:
    def test_all_ones_gives_row_sums(self):
        C = np.array([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_array_equal(real_consumption(C, [1.0, 1.0]), [3.0, 3.0])

    def test_single_column(self):
        np.testing.assert_array_equal(
            real_consumption(np.array([[1.0], [1.0]]), [1.0]), [1.0, 1.0]
        )

    def test_hand_sum(self):
        C = np.array([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(
            real_consumption(C, [0.5, 2.0]), [3.0, 4.5], atol=1e-15
        )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            real_consumption(np.eye(2), [1.0, 1.0, 1.0])


class TestModifiedSupply:
    def test_full_clearing_returns_supply(self):
        C = np.array([[2.0, 1.0], [1.0, 2.0]])
        B = np.array([[1.0, 2.0], [2.0, 1.0]])
        np.testing.assert_array_equal(
            modified_supply(C, B, [1.0, 1.0], (0, 1)), B
        )

    def test_boundary_instance_substitution(self):
        B0 = modified_supply(BOUNDARY_C, BOUNDARY_B, [1.0], (1,))
        np.testing.assert_array_equal(B0, [[1.0], [1.0]])

    def test_clearing_rows_copied(self, rng):
        C = rng.uniform(0.1, 1.0, (4, 3))
        B = rng.uniform(0.1, 1.0, (4, 3))
        y = rng.uniform(0.5, 1.5, 3)
        B0 = modified_supply(C, B, y, (1, 3))
        np.testing.assert_array_equal(B0[[1, 3]], B[[1, 3]])
        np.testing.assert_array_equal(B0[[0, 2]], (C * y)[[0, 2]])

    def test_repeated_clearing_good_rejected(self):
        with pytest.raises(ValueError, match="more than once"):
            modified_supply(np.eye(2), np.eye(2), [1.0, 1.0], (0, 0))

    def test_empty_clearing_set_rejected(self):
        with pytest.raises(PreconditionError):
            modified_supply(BOUNDARY_C, BOUNDARY_B, [1.0], ())


class TestGeneralizedPrice:
    def test_single_clearing_good_gives_all_ones(self):
        p1 = generalized_price([0.0, 1.0], [2.0, 1.0], (1,))
        np.testing.assert_array_equal(p1.p, [1.0, 1.0])

    def test_three_good_substitution(self):
        # tau = (1+1) / (1*3/4 + 1*1/4) = 2.
        p1 = generalized_price([0.75, 0.25, 0.0], [1.0, 1.0, 1.0], (0, 1))
        np.testing.assert_allclose(p1.p, [1.5, 0.5, 1.0], atol=1e-15)

    def test_full_clearing_uniform_is_all_ones(self):
        p1 = generalized_price([0.25, 0.25, 0.25, 0.25], np.ones(4), (0, 1, 2, 3))
        np.testing.assert_array_equal(p1.p, [1.0, 1.0, 1.0, 1.0])

    def test_clearing_cost_identity_holds(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            size = int(rng.integers(1, n + 1))
            idx = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
            psi = rng.uniform(0.5, 3.0, n)
            p0 = np.zeros(n)
            p0[list(idx)] = rng.uniform(0.1, 1.0, size)
            p1 = generalized_price(p0, psi, idx)
            lhs = float(psi[list(idx)] @ p1.p[list(idx)])
            rhs = float(psi[list(idx)].sum())
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)

    def test_mass_off_clearing_set_rejected(self):
        with pytest.raises(PreconditionError):
            generalized_price([0.5, 0.5], [1.0, 1.0], (0,))

    def test_nonpositive_supply_rejected(self):
        with pytest.raises(DivisionGuardError):
            generalized_price([1.0, 0.0], [0.0, 1.0], (0,))


class TestRecessionLevel:
    def test_full_clearing_is_zero(self):
        assert recession_level([1.0, 2.0], [1.0, 2.0], (0, 1), [1.0, 1.0]) == 0.0

    def test_worked_instance(self):
        R = recession_level([2.0, 1.0], [1.0, 1.0], (1,), [1.0, 1.0])
        assert R == 0.5

    def test_nonpositive_supply_in_denominator(self):
        with pytest.raises(DivisionGuardError):
            recession_level([0.0, 1.0], [0.0, 1.0], (1,), [1.0, 1.0])


class TestDegeneracyReport:
    def test_identical_supply_demand(self, rng):
        C = np.array([[2.0, 1.0], [1.0, 2.0]])
        solution = solve_fixed_point(C, C.copy())
        report = degeneracy_report(solution, C, C.copy())
        assert report.multiplicity == 0
        assert report.R == 0.0
        np.testing.assert_allclose(report.p1.p, 1.0, atol=1e-8)

    def test_identical_random_instances_have_zero_recession(self, rng):
        C = rng.uniform(0.2, 1.0, (4, 5))
        solution = solve_fixed_point(C, C.copy())
        report = degeneracy_report(solution, C, C.copy())
        assert report.multiplicity == 0
        assert report.R == 0.0

    def test_boundary_worked_instance(self):
        solution = solve_fixed_point(BOUNDARY_C, BOUNDARY_B)
        report = degeneracy_report(solution, BOUNDARY_C, BOUNDARY_B)
        assert report.clearing_set == (1,)
        assert report.multiplicity == 1
        np.testing.assert_allclose(report.psi_bar, [1.0, 1.0], atol=1e-8)
        assert report.R == pytest.approx(0.5, abs=1e-9)
        np.testing.assert_array_equal(report.B0, [[1.0], [1.0]])

    def test_perturbation_freedom(self, rng):
        for _ in range(10):
            C, B = random_economy(rng, n_max=5, l_max=5)
            B = B.copy()
            # Push some rows into oversupply so clearing is partial.
            k = int(rng.integers(0, C.shape[0]))
            B[k] *= 3.0
            solution = solve_fixed_point(C, B)
            report = degeneracy_report(solution, C, B)
            off = [k for k in range(C.shape[0]) if k not in report.clearing_set]
            base = excess_demand(C, report.B0, report.p1.p)
            for _ in range(5):
                p = report.p1.p.copy()
                if off:
                    p[off] *= rng.uniform(0.2, 5.0, len(off))
                drift = np.abs(excess_demand(C, report.B0, p) - base).max()
                assert drift <= 1e-10

    def test_report_serialization_one_based(self):
        solution = solve_fixed_point(BOUNDARY_C, BOUNDARY_B)
        report = degeneracy_report(solution, BOUNDARY_C, BOUNDARY_B)
        payload = report.to_dict()
        assert payload["I"] == [2]
        assert payload["multiplicity"] == 1
        row = report.csv_row(2016)
        assert row[0] == "2016"
        assert row[2] == "2"

    @pytest.mark.parametrize("clearing_set", [(1, 1), (0, 1), (0,)],
                             ids=["repeated", "every-good", "wrong-good"])
    def test_clearing_set_must_be_the_one_found_at_p0(self, clearing_set):
        # Good 0 is oversupplied at p0, so only good 1 clears. A repeated
        # good once gave multiplicity 0, and listing good 0 gave R = 0.
        solution = solve_fixed_point(BOUNDARY_C, BOUNDARY_B)
        tampered = replace(solution, clearing_set=clearing_set)
        with pytest.raises(PreconditionError, match="clearing set") as err:
            degeneracy_report(tampered, BOUNDARY_C, BOUNDARY_B)
        assert err.value.condition == "clearing_set_at_p0"

    def test_requires_equilibrium_solution(self):
        solution = solve_fixed_point(BOUNDARY_C, BOUNDARY_B)
        wrong_B = np.array([[0.5], [1.0]])  # good 1 now undersupplied
        with pytest.raises(PreconditionError):
            degeneracy_report(solution, BOUNDARY_C, wrong_B)

    def test_report_equals_the_public_helpers_chained(self, rng):
        # The report skips the helpers' input checks but not their formulas.
        partial = 0
        for trial in range(12):
            C, B = random_economy(rng, n_max=6, l_max=6)
            if trial % 2:
                B = B.copy()
                B[int(rng.integers(0, C.shape[0]))] *= 3.0  # partial clearing
            solution = solve_fixed_point(C, B)
            report = degeneracy_report(solution, C, B)
            idx = list(report.clearing_set)
            p = np.zeros(C.shape[0])
            p[idx] = solution.p0.p[idx]
            p /= p.sum()
            y = demand_weights(C, B, p)
            psi = B.sum(axis=1)
            psi_bar = real_consumption(C, y)
            p1 = generalized_price(p, psi, idx)
            np.testing.assert_array_equal(report.psi_bar, psi_bar)
            np.testing.assert_array_equal(report.B0, modified_supply(C, B, y, idx))
            np.testing.assert_array_equal(report.p1.p, p1.p)
            assert report.R == recession_level(psi, psi_bar, idx, p1)
            partial += report.multiplicity > 0
        assert partial >= 3

    def test_freedom_check_refuses_a_non_degenerate_supply(self, monkeypatch):
        # With the supply left as it is, the price of the oversupplied good 0
        # moves the single agent's demand, so the clearing equations are not
        # degenerate and the spot checks must say so.
        solution = solve_fixed_point(BOUNDARY_C, BOUNDARY_B)
        monkeypatch.setattr(recession, "_modified_supply", lambda C, B, y, idx: B.copy())
        with pytest.raises(PreconditionError, match="not degenerate") as err:
            degeneracy_report(solution, BOUNDARY_C, BOUNDARY_B)
        assert err.value.condition == "degeneracy_freedom"
