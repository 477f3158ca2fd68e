import numpy as np
import pytest

from conftest import random_economy, random_ideal_triple
from tradequil import (
    DivisionGuardError,
    EpsilonSchedule,
    EquilibriumSolution,
    NonConvergenceError,
    PreconditionError,
    PriceVector,
    check_ideal,
    construct_ideal_supply,
    excess_demand,
    exists_ideal,
    is_equilibrium,
    solve_fixed_point,
)
from tradequil import consistency
from tradequil.equilibrium_solver import MAX_INNER_ITERATIONS, _softmax, _stage_map

SWAP_C = np.array([[2.0, 1.0], [1.0, 2.0]])
SWAP_B = np.array([[1.0, 2.0], [2.0, 1.0]])


class TestPriceVector:
    def test_simplex_validation(self):
        PriceVector(np.array([0.25, 0.75]), "simplex")
        with pytest.raises(ValueError):
            PriceVector(np.array([0.5, 0.75]), "simplex")

    def test_nonnegative_nonzero(self):
        with pytest.raises(ValueError):
            PriceVector(np.array([-0.1, 1.1]), "raw")
        with pytest.raises(ValueError):
            PriceVector(np.array([0.0, 0.0]), "raw")

    def test_clearing_cost_validation(self):
        psi = np.array([2.0, 1.0, 4.0])
        PriceVector.clearing_cost(np.array([1.0, 1.0, 1.0]), psi, (0, 1, 2))
        with pytest.raises(ValueError):
            PriceVector.clearing_cost(np.array([2.0, 1.0, 1.0]), psi, (0, 1))


class TestExcessDemand:
    def test_identical_supply_and_demand(self):
        excess = excess_demand(SWAP_C, SWAP_C, np.array([0.3, 0.7]))
        np.testing.assert_allclose(excess, 0.0, atol=1e-12)

    def test_swap_instance_at_uniform_prices(self):
        excess = excess_demand(SWAP_C, SWAP_B, np.array([1.0, 1.0]))
        np.testing.assert_allclose(excess, 0.0, atol=1e-12)

    def test_single_agent_arithmetic(self):
        C = np.array([[1.0], [1.0]])
        B = np.array([[2.0], [1.0]])
        excess = excess_demand(C, B, np.array([0.0, 1.0]))
        np.testing.assert_allclose(excess, [-1.0, 0.0], atol=1e-15)

    def test_zero_demand_cost_names_agent(self):
        C = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DivisionGuardError) as err:
            excess_demand(C, C, np.array([1.0, 0.0]))
        assert err.value.agent == 1

    def test_scale_invariance_exact_for_power_of_two(self):
        p = np.array([0.375, 0.625])
        a = excess_demand(SWAP_C, SWAP_B, p)
        b = excess_demand(SWAP_C, SWAP_B, 2.0 * p)
        np.testing.assert_array_equal(a, b)

    def test_scale_invariance_numerical(self):
        p = np.array([0.31, 0.69])
        a = excess_demand(SWAP_C, SWAP_B, p)
        b = excess_demand(SWAP_C, SWAP_B, 3.0 * p)
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestIsEquilibrium:
    def test_identical_clears_everything(self):
        check = is_equilibrium(SWAP_C, SWAP_C, np.array([0.5, 0.5]))
        assert check.ok
        assert check.clearing_set == (0, 1)

    def test_swap_at_uniform_full_clearing(self):
        check = is_equilibrium(SWAP_C, SWAP_B, np.array([1.0, 1.0]))
        assert check.ok
        assert check.clearing_set == (0, 1)

    def test_degenerate_price_violates_good_two(self):
        # Ratios are (1/2, 2); good 1 demand = 3 = psi, good 2 = 4.5 > 3.
        check = is_equilibrium(SWAP_C, SWAP_B, np.array([1.0, 0.0]))
        assert not check.ok
        assert check.clearing_set == (0,)
        assert check.violations[0][0] == 1
        assert check.violations[0][1] == pytest.approx(1.5)


class TestSolveFixedPoint:
    def test_identical_supply_demand_is_ideal_case(self, rng):
        C = rng.uniform(0.2, 1.0, (3, 4))
        solution = solve_fixed_point(C, C.copy())
        assert is_equilibrium(C, C, solution.p0.p).ok
        np.testing.assert_allclose(solution.excess, 0.0, atol=1e-9)
        assert solution.clearing_set == (0, 1, 2)

    def test_swap_instance_reaches_uniform_fixed_point(self):
        solution = solve_fixed_point(SWAP_C, SWAP_B)
        # (1/2, 1/2) is a fixed point of the map for every epsilon; the
        # solver must land on an equilibrium either way.
        np.testing.assert_allclose(solution.p0.p, [0.5, 0.5], atol=1e-8)
        assert is_equilibrium(SWAP_C, SWAP_B, solution.p0.p).ok

    def test_boundary_instance_concentrates_price(self):
        C = np.array([[1.0], [1.0]])
        B = np.array([[2.0], [1.0]])
        solution = solve_fixed_point(C, B)
        np.testing.assert_allclose(solution.p0.p, [0.0, 1.0], atol=1e-6)
        assert solution.clearing_set == (1,)
        np.testing.assert_allclose(solution.y, [1.0], atol=1e-8)

    def test_returned_solution_passes_own_check(self, rng):
        for _ in range(10):
            C, B = random_economy(rng, n_max=6, l_max=6)
            solution = solve_fixed_point(C, B)
            check = is_equilibrium(C, B, solution.p0.p)
            assert check.ok
            assert check.clearing_set == solution.clearing_set
            assert len(solution.clearing_set) >= 1

    def test_walras_identity_on_converged_solves(self, rng):
        for _ in range(10):
            C, B = random_economy(rng, n_max=6, l_max=6)
            solution = solve_fixed_point(C, B)
            psi = B.sum(axis=1)
            psi_bar = C @ solution.y
            gap = abs(psi_bar @ solution.p0.p - psi @ solution.p0.p)
            assert gap <= 1e-8 * abs(psi @ solution.p0.p)

    def test_fixed_point_residual_below_inner_tolerance(self):
        solution = solve_fixed_point(SWAP_C, SWAP_B, tol_inner=1e-11)
        assert solution.residual <= 1e-11

    def test_deterministic(self):
        a = solve_fixed_point(SWAP_C, SWAP_B)
        b = solve_fixed_point(SWAP_C, SWAP_B)
        np.testing.assert_array_equal(a.p0.p, b.p0.p)
        assert a.iterations == b.iterations

    def test_zero_aggregate_supply_rejected(self):
        C = np.array([[1.0], [1.0]])
        B = np.array([[1.0], [0.0]])
        with pytest.raises(PreconditionError):
            solve_fixed_point(C, B)

    def test_zero_demand_entries_warn(self):
        C = np.array([[1.0, 0.0], [0.0, 1.0]])
        B = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.warns(UserWarning, match="zero entries"):
            solve_fixed_point(C, B)

    def test_unreachable_tolerance_reports_nonconvergence(self):
        # No point satisfies a 1e-30 fixed-point residual in floats, so the
        # solver must surface a non-convergence report, not a wrong answer.
        C = np.array([[1.0], [1.0]])
        B = np.array([[2.0], [1.0]])
        with pytest.raises(NonConvergenceError) as err:
            solve_fixed_point(C, B, tol_inner=1e-30, max_inner=3000)
        assert err.value.residual is not None
        assert err.value.epsilon is not None

    def test_stall_exit_is_reported_as_a_stall(self):
        # The 1e-30 residual is out of reach, so the best residual stops
        # improving and the stage leaves through its stall exit long before
        # the evaluation cap; the error must say so, not blame the cap.
        C = np.array([[1.0], [1.0]])
        B = np.array([[2.0], [1.0]])
        with pytest.raises(NonConvergenceError,
                           match=r"stalled after \d+ map evaluations") as err:
            solve_fixed_point(C, B, tol_inner=1e-30)
        assert "cap" not in str(err.value)
        assert err.value.iterations < MAX_INNER_ITERATIONS

    def test_cap_exit_is_reported_as_the_cap(self):
        C = np.array([[1.0], [1.0]])
        B = np.array([[2.0], [1.0]])
        with pytest.raises(NonConvergenceError,
                           match=r"hit the 50-evaluation cap after \d+ map evaluations"):
            solve_fixed_point(C, B, tol_inner=1e-30, max_inner=50)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            EpsilonSchedule(start=1e-2, ratio=0.5, steps=3)

    def test_softmax_reports_overflow_instead_of_warning(self):
        # exp(-800) underflowing to zero is harmless (numpy's default ignores
        # underflow); exp(800) overflows and must give None, not a warning.
        with np.errstate(all="raise", under="ignore"):
            assert _softmax(np.array([800.0, 0.0, -800.0])) is None
            q = _softmax(np.array([700.0, 0.0, -800.0]))
        assert q[0] == 1.0 and q[2] == 0.0
        # In range the result is the plain formula, bit for bit: the Newton
        # stage's root finder can change its outcome on a last-bit change.
        v = np.array([1.73, 4.11, 1.65, 0.0])
        np.testing.assert_array_equal(_softmax(v), np.exp(v) / np.exp(v).sum())

    @pytest.mark.parametrize("epsilon", [1e-2, 1e-5, 0.0])
    def test_stage_map_is_the_written_out_map(self, rng, epsilon):
        # Bit for bit, for the same reason as the softmax above.
        C = rng.uniform(1e6, 1e9, (5, 7))
        B = rng.uniform(1e6, 1e9, (5, 7))
        psi = B.sum(axis=1)
        p = rng.dirichlet(np.ones(5))
        w = (B.T @ p) / (C.T @ p + 5 * epsilon)
        f = (p * (C @ w) + epsilon * w.sum()) / psi
        np.testing.assert_array_equal(_stage_map(C, B, psi, epsilon)(p), f / f.sum())

    @pytest.mark.parametrize("name", ["tol", "tol_inner"])
    def test_nonpositive_tolerance_rejected(self, name):
        with pytest.raises(ValueError, match="must be positive"):
            solve_fixed_point(SWAP_C, SWAP_B, **{name: 0.0})

    def test_from_dict_inverts_to_dict(self, rng):
        # Six uniform prices sum to 1 + 2.2e-16 in floats; dividing them by
        # that sum again would change them, so p0 must be read as written.
        economies = [(np.ones((6, 2)), np.ones((6, 2)))]
        economies += [random_economy(rng, n_max=6, l_max=6) for _ in range(5)]
        for C, B in economies:
            payload = solve_fixed_point(C, B).to_dict()
            assert EquilibriumSolution.from_dict(payload).to_dict() == payload

    def test_json_round_trip_uses_one_based_clearing_set(self):
        solution = solve_fixed_point(SWAP_C, SWAP_B)
        payload = solution.to_dict()
        assert payload["I"] == [1, 2]
        assert payload["schema_version"] == 1
        assert set(payload) >= {"p0", "I", "y", "excess", "residual",
                                "iterations", "epsilon"}


class TestCheckIdeal:
    def test_identical_is_ideal(self):
        assert check_ideal(SWAP_C, SWAP_C, np.full(2, 0.5)).ideal

    def test_swap_at_uniform_is_ideal(self):
        assert check_ideal(SWAP_C, SWAP_B, np.array([1.0, 1.0])).ideal

    def test_boundary_price_balances_vanish(self):
        # Balance <p, b - C> = 0 even though good 1 is in excess supply.
        C = np.array([[1.0], [1.0]])
        B = np.array([[2.0], [1.0]])
        verdict = check_ideal(C, B, np.array([0.0, 1.0]))
        assert verdict.ideal
        np.testing.assert_allclose(verdict.balances, [0.0], atol=1e-15)

    def test_not_ideal_reports_worst_agent(self):
        verdict = check_ideal(SWAP_C, SWAP_B, np.array([1.0, 0.0]))
        assert not verdict.ideal
        assert verdict.worst_balance != 0.0


class TestExistsIdeal:
    def test_identical_supply_demand(self, rng):
        C = rng.uniform(0.2, 1.0, (3, 3))
        result = exists_ideal(C, C.copy())
        assert result.exists
        assert check_ideal(C, C, result.p0).ideal

    def test_constructed_ideal_round_trip(self):
        C = np.array([[2.0, 1.0], [1.0, 2.0]])
        B = construct_ideal_supply(C, np.array([3.0, 3.0]),
                                   np.array([[1.0, -1.0], [-1.0, 1.0]]))
        result = exists_ideal(C, B)
        assert result.exists
        assert result.p0[0] == pytest.approx(result.p0[1])

    def test_aggregate_mismatch_rejected(self):
        C = np.array([[2.0, 1.0], [1.0, 2.0]])
        B = np.array([[2.0, 1.0], [2.0, 2.0]])  # column sums (3, 4) != (3, 3)
        with pytest.raises(PreconditionError):
            exists_ideal(C, B)

    def test_balanced_but_not_ideal_instance(self):
        # Agent 1's surplus is strictly positive in every good, so no
        # nonzero nonnegative price can zero its balance even though the
        # aggregates match.
        C = np.array([[2.0, 1.0], [1.0, 2.0]])
        B = np.array([[3.0, 0.0], [2.0, 1.0]])
        result = exists_ideal(C, B)
        assert not result.exists
        assert result.reason is not None

    def test_slowly_mixing_factor_admits_ideal(self):
        # With C = I the factor is B itself, whose eigen-system gives
        # d = (4/3, 2/3); p = d zeroes both balances.
        B = np.array([[1.0 - 1e-4, 1e-4], [2e-4, 1.0 - 2e-4]])
        result = exists_ideal(np.eye(2), B)
        assert result.exists
        assert result.p0[0] / result.p0[1] == pytest.approx(2.0, rel=1e-10)

    def test_one_dimensional_eigen_space_runs_no_program(self, monkeypatch):
        # One good, bought 1:3 and sold 2:2. The factor pinned to unit row
        # sums is the all-0.5 matrix, whose eigen-space is spanned by
        # (1, 1); that d is not a multiple of the row (1, 3) of C.
        calls = []
        real = consistency.linprog

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(consistency, "linprog", counted)
        result = exists_ideal(np.array([[1.0, 3.0]]), np.array([[2.0, 2.0]]))
        assert not result.exists
        assert result.reason == "d lies outside the cone of the rows of C"
        np.testing.assert_allclose(result.d, [1.0, 1.0], atol=1e-12)
        assert calls == []

    def test_random_ideal_triples(self, rng):
        for _ in range(10):
            C, d, F1 = random_ideal_triple(rng)
            B = construct_ideal_supply(C, d, F1)
            result = exists_ideal(C, B)
            assert result.exists
            assert check_ideal(C, B, result.p0).ideal
