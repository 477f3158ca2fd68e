import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from conftest import exact_membership, exact_rank, exact_strictly_positive_exists
from tradequil import (
    DegenerateTargetError,
    EmptyMatrixError,
    InfeasibleError,
    Membership,
    NonConvergenceError,
    OutsideConeError,
    RankDeficiencyError,
    biorthogonal_system,
    classify_membership,
    generating_set,
    interior_subset,
    positive_solution_family,
    strictly_positive_solution,
)
from tradequil import cone_geometry
from tradequil._numerics import numerical_rank
from tradequil.cone_geometry import in_cone, max_margin


def lp_strictly_positive_exists(C, psi):
    """LP oracle: does C @ y = psi admit a strictly positive solution?

    Maximizes the smallest component; strictly positive iff the optimum is
    positive (bounded above by 1 to keep the program finite).
    """
    n, l = C.shape
    cost = np.zeros(l + 1)
    cost[-1] = -1.0
    A_eq = np.hstack([C, np.zeros((n, 1))])
    A_ub = np.hstack([-np.eye(l), np.ones((l, 1))])
    res = linprog(
        cost,
        A_ub=A_ub,
        b_ub=np.zeros(l),
        A_eq=A_eq,
        b_eq=psi,
        bounds=[(0, None)] * l + [(0, 1)],
        method="highs",
    )
    return bool(res.success and res.x is not None and res.x[-1] > 1e-9)


class TestBiorthogonal:
    def test_standard_basis_self_dual(self):
        system = biorthogonal_system(np.eye(2))
        np.testing.assert_array_equal(system.dual, np.eye(2))

    def test_diagonal_scaling(self):
        system = biorthogonal_system(np.array([[2.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(system.dual, [[0.5, 0.0], [0.0, 1.0]], atol=1e-15)

    def test_hand_solved_two_by_two(self):
        # <a_i, f_j> = delta_ij with a_1 = (1,1), a_2 = (0,1) gives
        # f_1 = (1,0), f_2 = (-1,1).
        system = biorthogonal_system(np.array([[1.0, 1.0], [0.0, 1.0]]))
        np.testing.assert_allclose(system.dual, [[1.0, 0.0], [-1.0, 1.0]], atol=1e-15)

    def test_extension_and_delta_property(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, n + 1))
            v = rng.normal(size=(m, n))
            system = biorthogonal_system(v)
            gram = system.primal @ system.dual.T
            assert np.abs(gram - np.eye(n)).max() <= 1e-9
            np.testing.assert_array_equal(system.primal[:m], v)

    def test_dependent_input_reports_rank(self):
        v = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(RankDeficiencyError) as err:
            biorthogonal_system(v)
        assert err.value.numerical_rank == 1


class TestClassifyMembership:
    def test_interior(self):
        res = classify_membership(np.eye(2), [1.0, 1.0])
        assert res.verdict is Membership.INTERIOR
        np.testing.assert_array_equal(res.alpha, [1.0, 1.0])

    def test_boundary(self):
        assert classify_membership(np.eye(2), [1.0, 0.0]).verdict is Membership.BOUNDARY

    def test_outside(self):
        assert classify_membership(np.eye(2), [-1.0, 1.0]).verdict is Membership.OUTSIDE

    def test_off_span_is_outside(self):
        res = classify_membership(np.array([[1.0, 0.0, 0.0]]), [0.5, 0.0, 0.1])
        assert res.verdict is Membership.OUTSIDE

    def test_interior_certificate_reconstructs(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, n + 1))
            v = rng.uniform(0.0, 1.0, (m, n)) + np.eye(m, n)
            coeff = rng.uniform(0.2, 2.0, m)
            b = v.T @ coeff
            res = classify_membership(v, b)
            assert res.verdict is Membership.INTERIOR
            rebuilt = v.T @ res.alpha[:m]
            assert np.abs(rebuilt - b).max() <= 1e-8 * (1 + np.abs(b).max())


@st.composite
def independent_generators_and_target(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, n))
    rows = draw(
        st.lists(
            st.tuples(*[st.integers(0, 3) for _ in range(n)]),
            min_size=m,
            max_size=m,
        )
    )
    assume(exact_rank(rows) == m)
    kind = draw(st.sampled_from(["raw", "combination"]))
    if kind == "raw":
        target = draw(st.tuples(*[st.integers(-2, 4) for _ in range(n)]))
    else:
        coeffs = draw(
            st.lists(st.sampled_from([0, 1, 2, Fraction(1, 2)]), min_size=m, max_size=m)
        )
        target = tuple(
            sum(Fraction(rows[i][k]) * coeffs[i] for i in range(m)) for k in range(n)
        )
    return rows, target


class TestMembershipAgainstExactOracle:
    @given(independent_generators_and_target())
    @settings(max_examples=150, deadline=None)
    def test_verdicts_match(self, case):
        rows, target = case
        v = np.array(rows, dtype=float)
        b = np.array([float(t) for t in target])
        try:
            res = classify_membership(v, b)
        except RankDeficiencyError:
            assume(False)  # float rank disagreed at tolerance; not a verdict case
        assert res.verdict.value == exact_membership(rows, target)


class TestGeneratingSet:
    def test_drops_interior_vector(self):
        idx = generating_set(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        assert idx == (0, 1)

    def test_single_vector(self):
        assert generating_set(np.array([[1.0, 0.0]])) == (0,)

    def test_proportional_tie_break_keeps_lowest_index(self):
        assert generating_set(np.array([[1.0, 0.0], [2.0, 0.0]])) == (0,)

    def test_all_zero_rejected(self):
        with pytest.raises(EmptyMatrixError):
            generating_set(np.zeros((3, 2)))

    def test_definition_conditions(self, rng):
        # Each kept vector is outside the cone of the others; each dropped
        # vector is inside the cone of the kept ones.
        for _ in range(15):
            t = int(rng.integers(2, 7))
            n = int(rng.integers(2, 4))
            v = rng.uniform(0.0, 1.0, (t, n))
            kept = generating_set(v)
            kept_rows = v[list(kept)]
            for pos, g in enumerate(kept):
                others = np.delete(kept_rows, pos, axis=0)
                if others.size == 0:
                    continue
                member, _ = in_cone(others, v[g])
                assert not member
            for dropped in set(range(t)) - set(kept):
                member, _ = in_cone(kept_rows, v[dropped])
                assert member


class TestInteriorSubset:
    def test_against_exact_subcone_oracle(self, rng):
        # Whatever subset the LP vertex (or the enumeration behind it) picks
        # must have psi exactly interior, and None must mean that no
        # independent subset of rank(C) columns has psi interior.
        found = 0
        for _ in range(60):
            n = int(rng.integers(1, 4))
            l = int(rng.integers(n, 6))
            C = rng.integers(0, 4, size=(n, l)).astype(float)
            if not C.any():
                continue
            if rng.uniform() < 0.7:
                psi = C @ rng.integers(0, 3, size=l).astype(float)
            else:
                psi = rng.integers(0, 5, size=n).astype(float)
            cols = [tuple(C[:, j]) for j in range(l)]
            r = exact_rank(cols)
            subset, res = interior_subset(C, psi)
            if subset is not None:
                assert len(subset) == r
                assert exact_membership([cols[j] for j in subset], tuple(psi)) == "interior"
                assert res.verdict is Membership.INTERIOR
                found += 1
            else:
                for cand in itertools.combinations(range(l), r):
                    basis = [cols[j] for j in cand]
                    if exact_rank(basis) == r:
                        assert exact_membership(basis, tuple(psi)) != "interior"
        assert found >= 20

    def test_outside_target_has_no_subset(self):
        assert interior_subset(np.eye(2), np.array([-1.0, 1.0])) == (None, None)

    def test_short_vertex_support_falls_back_to_the_enumeration(self, monkeypatch):
        # The LP vertex is (1, 1) on columns (2, 3), one column short of
        # rank 3, so it is not classified; the first 3-subset in
        # lexicographic order holds psi in its interior.
        C = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0]])
        psi = np.ones(3)
        vertex = cone_geometry.linprog(np.ones(4), C / np.linalg.norm(C, axis=0), psi)
        assert tuple(np.flatnonzero(vertex > 1e-9)) == (2, 3)
        classified = []
        real = cone_geometry.classify_membership

        def recorded(vectors, b):
            classified.append(vectors.copy())
            return real(vectors, b)

        monkeypatch.setattr(cone_geometry, "classify_membership", recorded)
        subset, res = interior_subset(C, psi)
        assert subset == (0, 1, 2)
        assert res.verdict is Membership.INTERIOR
        np.testing.assert_allclose(res.alpha, [1.0, 1.0, 1.0])
        assert len(classified) == 1
        np.testing.assert_array_equal(classified[0], C[:, [0, 1, 2]].T)
        fam = positive_solution_family(C, psi)
        assert (fam.subset, fam.free) == ((0, 1, 2), (3,))

    def test_failed_vertex_program_falls_back_to_the_enumeration(self, monkeypatch, rng):
        # A program that ends other than optimal or infeasible gives no vertex
        # and no verdict; the enumeration alone finds an interior subset.
        C = rng.uniform(0.1, 1.0, (3, 6))
        psi = C @ rng.uniform(0.5, 1.0, 6)
        calls = []

        def failing(*args, **kwargs):
            calls.append(1)
            raise NonConvergenceError("iteration limit reached")

        monkeypatch.setattr(cone_geometry, "linprog", failing)
        subset, res = interior_subset(C, psi)
        assert calls == [1]
        assert len(subset) == 3 and res.verdict is Membership.INTERIOR
        np.testing.assert_allclose(C[:, list(subset)] @ res.alpha, psi, rtol=1e-12)
        with pytest.raises(NonConvergenceError, match="iteration limit"):
            max_margin(C, psi)


class TestNumericalRank:
    def test_rank_ignores_units(self, rng):
        for _ in range(20):
            n, l = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            k = int(rng.integers(1, min(n, l) + 1))
            A = rng.uniform(0.1, 1.0, (n, k)) @ rng.uniform(0.1, 1.0, (k, l))
            rank = numerical_rank(A)
            assert rank == k
            for s in (1e-12, 1e-9, 1e-3, 1e6, 1e12):
                assert numerical_rank(s * A) == rank


class TestPositiveSolutionFamily:
    def test_worked_parametrization_exact(self):
        C = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        psi = np.array([2.0, 2.0])
        fam = positive_solution_family(C, psi)
        assert fam.subset == (0, 1)
        assert fam.free == (2,)
        np.testing.assert_array_equal(fam.z, [[2.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
        np.testing.assert_array_equal(fam.ystar, [2.0])
        np.testing.assert_array_equal(fam.gamma_constraints.A, [[2.0], [2.0]])
        np.testing.assert_array_equal(fam.gamma_constraints.b, [2.0, 2.0])
        # Members are y = (2 - 2g, 2 - 2g, 2g) for g in (0, 1).
        for g in (0.25, 0.5, 0.75):
            member = fam.member([1.0 - g, g])
            np.testing.assert_allclose(member, [2 - 2 * g, 2 - 2 * g, 2 * g])
            assert np.abs(C @ member - psi).max() <= 1e-12

    def test_square_invertible_single_member(self):
        fam = positive_solution_family(np.eye(2), np.array([1.0, 2.0]))
        assert fam.z.shape == (1, 2)
        np.testing.assert_array_equal(fam.base_point, [1.0, 2.0])

    def test_boundary_target_raises_degenerate(self):
        with pytest.raises(DegenerateTargetError):
            positive_solution_family(np.eye(2), np.array([1.0, 0.0]))

    def test_outside_target_raises(self):
        with pytest.raises(OutsideConeError):
            positive_solution_family(np.eye(2), np.array([-1.0, 1.0]))

    def test_members_solve_and_are_positive(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 4))
            l = int(rng.integers(n, 5))
            C = rng.uniform(0.1, 1.0, (n, l))
            psi = C @ rng.uniform(0.5, 1.5, l)
            fam = positive_solution_family(C, psi)
            poly = fam.gamma_constraints
            for _ in range(5):
                gamma = _sample_gamma(poly, rng)
                y = fam.member(gamma)
                assert np.all(y > 0)
                assert np.abs(C @ y - psi).max() <= 1e-8 * (1 + np.abs(psi).max())


def _sample_gamma(poly, rng):
    nfree = poly.n_free
    if nfree == 0:
        return np.array([1.0])
    for _ in range(200):
        free = rng.uniform(0.0, 1.0, nfree)
        total = rng.uniform(0.05, 1.0)
        free = free / free.sum() * total
        gamma = np.concatenate([[1.0 - free.sum()], free])
        gamma[0] = 1.0 - gamma[1:].sum()  # exact affine constraint
        if poly.contains(gamma, margin=1e-12):
            return gamma
    pytest.skip("could not sample an interior gamma")


class TestStrictlyPositiveSolution:
    def test_delegates_to_family_when_possible(self):
        C = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        psi = np.array([2.0, 2.0])
        y = strictly_positive_solution(C, psi)
        assert np.all(y > 0)
        assert np.abs(C @ y - psi).max() <= 1e-8

    def test_worked_four_column_instance_against_grid_oracle(self):
        C = np.array([[1.0, 1.0, 0.0, 2.0], [0.0, 1.0, 1.0, 1.0]])
        psi = np.array([3.0, 2.0])
        # Grid oracle: sweep (y3, y4), solve the remaining 2x2 system
        # exactly, and look for a strictly positive 4-vector in [0.01, 3].
        grid = np.linspace(0.01, 3.0, 300)
        head = np.array([[1.0, 1.0], [0.0, 1.0]])
        found = False
        for y3 in grid:
            for y4 in grid:
                rhs = psi - np.array([0.0 * y3 + 2.0 * y4, 1.0 * y3 + 1.0 * y4])
                y12 = np.linalg.solve(head, rhs)
                if np.all(y12 >= 0.01) and np.all(y12 <= 3.0):
                    found = True
                    break
            if found:
                break
        assert found, "oracle: no strictly positive solution on the grid"
        y = strictly_positive_solution(C, psi)
        assert np.all(y > 0)
        assert np.abs(C @ y - psi).max() <= 1e-8

    def test_square_cone_needs_decomposition(self):
        # Cone over the unit square: psi is interior to the full cone but
        # on the common facet of every full-rank subcone.
        cols = np.array(
            [[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0]]
        ).T
        psi = np.array([0.5, 0.5, 1.0])
        with pytest.raises(DegenerateTargetError):
            positive_solution_family(cols, psi)
        y = strictly_positive_solution(cols, psi)
        assert np.all(y > 0)
        assert np.abs(cols @ y - psi).max() <= 1e-8

    def test_outside_cone_infeasible(self):
        with pytest.raises(InfeasibleError):
            strictly_positive_solution(np.eye(2), np.array([-1.0, 1.0]))

    def test_true_boundary_infeasible(self):
        with pytest.raises(InfeasibleError):
            strictly_positive_solution(np.eye(2), np.array([1.0, 0.0]))

    def test_boundary_target_decided_by_one_program(self, monkeypatch):
        # psi = 3 C_0 on an extreme ray of a positive 6x10 cone: the only
        # nonnegative solution is 3 e_0. The generating-set check (least
        # squares, no LP) confirms that C_0 is extreme.
        C = np.random.default_rng(0).uniform(0.1, 1.0, (6, 10))
        assert 0 in generating_set(C.T)
        calls = []
        real = cone_geometry.linprog

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(cone_geometry, "linprog", counted)
        for scale in (1.0, 1e9):
            calls.clear()
            with pytest.raises(InfeasibleError) as err:
                strictly_positive_solution(scale * C, 3 * scale * C[:, 0])
            assert len(calls) <= 2
            assert err.value.detail["status"] == "boundary"
            t, y = max_margin(scale * C, 3 * scale * C[:, 0])
            assert t <= 1e-9
            np.testing.assert_allclose(y, 3 * np.eye(10)[0], atol=1e-9)

    def test_outside_target_carries_a_separating_certificate(self, rng):
        for _ in range(20):
            C = rng.uniform(0.0, 1.0, (3, 5))
            psi = -rng.uniform(0.1, 1.0, 3)
            psi[0] = 1.0
            with pytest.raises(InfeasibleError) as err:
                strictly_positive_solution(C, psi)
            detail = err.value.detail
            assert detail["status"] == "outside"
            w = detail["certificate"]
            assert w @ psi > 0
            assert np.all(C.T @ w <= 1e-12 * np.abs(w).max())
            assert detail["dual_index"] == int(np.argmax(np.abs(w)))

    def test_unverified_program_answer_is_not_returned(self, monkeypatch):
        # A HiGHS answer whose residual fails the check is a solver failure,
        # never a solution or an infeasibility verdict.
        real = cone_geometry.linprog

        def perturbed(*args, **kwargs):
            x = real(*args, **kwargs)
            x[0] += 1e-6
            return x

        monkeypatch.setattr(cone_geometry, "linprog", perturbed)
        with pytest.raises(NonConvergenceError):
            strictly_positive_solution(np.eye(2), np.array([1.0, 1.0]))

    def test_agreement_with_lp_oracle(self, rng):
        # The implementation is itself an LP, so the exact rational oracle
        # is the independent check; the LP oracle must agree with it too.
        agree = 0
        for _ in range(40):
            n = int(rng.integers(1, 4))
            l = int(rng.integers(1, 5))
            C = rng.integers(0, 4, size=(n, l)).astype(float) / 2.0
            if not C.any():
                continue
            if rng.uniform() < 0.7:
                psi = C @ (rng.integers(1, 4, size=l).astype(float) / 2.0)
            else:
                psi = rng.integers(0, 6, size=n).astype(float)
            exact = exact_strictly_positive_exists(
                [tuple(C[:, j]) for j in range(l)], tuple(psi))
            assert lp_strictly_positive_exists(C, psi) == exact
            try:
                y = strictly_positive_solution(C, psi)
                ours = bool(np.all(y > 0) and np.abs(C @ y - psi).max() <= 1e-8)
            except (InfeasibleError, ValueError):
                ours = False
            assert ours == exact
            agree += 1
        assert agree >= 20
