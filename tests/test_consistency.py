import numpy as np
import pytest

from conftest import random_economy, random_strict_instance
from tradequil import (
    DegenerateTargetError,
    DivisionGuardError,
    Factorization,
    InfeasibleError,
    PreconditionError,
    RankDeficiencyError,
    certify_consistency,
    classify_membership,
    construct_ideal_supply,
    construct_supply,
    factor_supply,
    price_from_D,
    solve_D,
    strictly_positive_solution,
)
from tradequil import cone_geometry


def make_fact(B1, **overrides):
    B1 = np.asarray(B1, dtype=float)
    fields = dict(
        B1=B1,
        row_sums=B1.sum(axis=1),
        mode="strict",
        residual=0.0,
        nonnegative=bool(B1.min() >= 0),
        indecomposable=True,
        strictly_positive=bool(B1.min() > 0),
    )
    fields.update(overrides)
    return Factorization(**fields)


class TestFactorSupply:
    def test_square_identity(self):
        C = np.array([[2.0, 1.0], [1.0, 2.0]])
        fact = factor_supply(C, C.copy())
        np.testing.assert_allclose(fact.B1, np.eye(2), atol=1e-12)

    def test_one_good_two_agents_general_solution(self):
        # By substitution: 2*b11 + b21 = 1 and 2*b12 + b22 = 3, with every
        # row sum of the factor positive.
        C = np.array([[2.0, 1.0]])
        B = np.array([[1.0, 3.0]])
        fact = factor_supply(C, B)
        B1 = fact.B1
        assert abs(2 * B1[0, 0] + B1[1, 0] - 1.0) <= 1e-12
        assert abs(2 * B1[0, 1] + B1[1, 1] - 3.0) <= 1e-12
        assert np.all(fact.row_sums > 0)
        assert fact.residual <= 1e-8 * (1 + np.abs(B).max())

    def test_interior_columns_give_positive_factor(self, rng):
        # Supply columns interior to the demand cone admit a strictly
        # positive factor.
        C = rng.uniform(0.2, 1.0, (3, 4))
        W = rng.uniform(0.2, 1.0, (4, 4))
        B = C @ W
        fact = factor_supply(C, B)
        assert np.abs(B - C @ fact.B1).max() <= 1e-8 * (1 + np.abs(B).max())
        assert np.all(fact.row_sums > 0)

    def test_rank_deficient_demand_instructs_row_drop(self):
        C = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(RankDeficiencyError, match="drop dependent rows"):
            factor_supply(C, C.copy())

    def test_bad_rank_subset_rejected(self):
        C = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0]])
        B = C @ np.full((3, 3), 1.0 / 3.0)
        with pytest.raises(DegenerateTargetError):
            # psi = (4/3)*(C_0 + C_1 + C_2)/... is interior to cone{C_0, C_1}
            # but we request a subcone that misses it.
            factor_supply(np.array([[2.0, 0.0, 1.0], [0.0, 0.0, 1.0]]),
                          np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 2.0]]),
                          rank_subset=(0, 2))


class TestCertifyConsistency:
    def test_identity_factor_is_weak_not_strict(self):
        # The only factor of B = C (invertible C) is the identity, which is
        # nonnegative but decomposable.
        C = np.array([[2.0, 1.0], [1.0, 2.0]])
        cert = certify_consistency(C, C.copy())
        assert cert.label == "weak"
        assert cert.factorization.nonnegative
        assert not cert.factorization.indecomposable

    def test_positive_factor_is_strict(self, rng):
        C = rng.uniform(0.2, 1.0, (3, 3))
        B = C @ np.full((3, 3), 1.0 / 3.0)
        cert = certify_consistency(C, B)
        assert cert.label == "strict"
        assert cert.factorization.strictly_positive

    def test_rank_subset_label(self):
        # Rows {0, 1} factor with an indecomposable permutation; row 2 has
        # supply strictly above any demand combination with those ratios.
        C = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        B = np.array([[0.0, 1.0], [1.0, 0.0], [1.5, 1.5]])
        cert = certify_consistency(C, B, I=(0, 1))
        assert cert.label == "strict-of-rank-|I|"
        assert cert.clearing_set == (0, 1)
        assert cert.side_margin == pytest.approx(1.0)

    def test_none_label_when_nothing_factors(self):
        C = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        B = np.array([[0.0, 1.0], [1.0, 0.0], [3.0, 3.0]])
        cert = certify_consistency(C, B)
        assert cert.label == "none"

    def test_weak_of_rank_label(self):
        # The unique factor on rows {0, 1} is the identity: nonnegative but
        # decomposable, so only the weak rank label is certifiable; row 2
        # keeps strict slack, and the full-matrix factor does not exist.
        C = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        B = np.array([[1.0, 0.0], [0.0, 1.0], [1.5, 1.5]])
        cert = certify_consistency(C, B, I=(0, 1))
        assert cert.label == "weak-of-rank-|I|"
        assert cert.side_margin == pytest.approx(1.0)


class TestSolveD:
    def test_doubly_stochastic(self):
        fact = make_fact([[0.5, 0.5], [0.5, 0.5]])
        d = solve_D(fact).d
        np.testing.assert_allclose(d, [1.0, 1.0], atol=1e-12)

    def test_periodic_two_by_two_hand_solution(self):
        # y = (1, 2); equations 2 d2 = d1 and d1 = 2 d2 give d = (2, 1) s.
        fact = make_fact([[0.0, 1.0], [2.0, 0.0]], strictly_positive=False)
        d = solve_D(fact).d
        assert d[0] / d[1] == pytest.approx(2.0, abs=1e-12)
        assert d.sum() == pytest.approx(2.0)

    def test_random_positive_matches_dense_eigensolver(self, rng):
        for _ in range(25):
            l = int(rng.integers(2, 9))
            B1 = rng.uniform(0.05, 1.0, (l, l))
            fact = make_fact(B1)
            d = solve_D(fact).d
            y = fact.row_sums
            resid = np.abs(B1.T @ d - y * d).max() / max(1.0, np.abs(y * d).max())
            assert resid <= 1e-10
            assert np.all(d > 0)
            # Dense oracle: eigenvector of eigenvalue 1 of B1^T / y.
            M = B1.T / y[:, None]
            vals, vecs = np.linalg.eig(M)
            k = int(np.argmin(np.abs(vals - 1.0)))
            oracle = np.real(vecs[:, k])
            oracle *= l / oracle.sum()
            assert np.abs(d - oracle).max() <= 1e-8 * max(1.0, np.abs(oracle).max())

    def test_homogeneity_degree_one(self):
        fact = make_fact([[0.3, 0.7], [0.6, 0.4]])
        d = solve_D(fact).d
        y = fact.row_sums
        doubled = 2.0 * d
        assert np.abs(fact.B1.T @ doubled - y * doubled).max() <= 1e-10 * np.abs(
            y * doubled
        ).max()

    def test_zero_row_sum_rejected(self):
        fact = make_fact([[0.0, 0.0], [1.0, 1.0]], mode="weak", indecomposable=False)
        with pytest.raises(DivisionGuardError) as err:
            solve_D(fact)
        assert err.value.agent == 0


class TestPriceFromD:
    def test_identity(self):
        rec = price_from_D(np.eye(2), np.array([1.0, 2.0]))
        assert rec
        np.testing.assert_allclose(rec.p0, [1.0, 2.0], atol=1e-10)

    def test_hand_solved_two_by_two(self):
        rec = price_from_D(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([3.0, 3.0]))
        np.testing.assert_allclose(rec.p0, [1.0, 1.0], atol=1e-10)

    def test_absence_certificate_separates(self):
        C = np.array([[1.0, 1.0]])  # rows of C span only the diagonal
        rec = price_from_D(C, np.array([1.0, 2.0]))
        assert not rec
        w = rec.certificate
        assert w @ np.array([1.0, 2.0]) > 0
        assert w @ np.array([1.0, 1.0]) <= 1e-12

    def test_requires_positive_d(self):
        with pytest.raises(PreconditionError):
            price_from_D(np.eye(2), np.array([1.0, 0.0]))


class TestConstructSupply:
    def test_diagonal_perturbation_vanishes(self, rng):
        C = rng.uniform(0.1, 1.0, (2, 3))
        F = np.diag(rng.uniform(0.5, 2.0, 3))
        B, a = construct_supply(C, F, a=5.0)
        np.testing.assert_allclose(B, C, atol=1e-12)

    def test_swap_instance_by_substitution(self):
        C = np.array([[2.0, 1.0], [1.0, 2.0]])
        F = np.array([[0.0, 1.0], [1.0, 0.0]])
        B, a = construct_supply(C, F, a=1.0)
        np.testing.assert_allclose(B, [[1.0, 2.0], [2.0, 1.0]], atol=1e-12)

    def test_ratio_bound_exceeded_names_entry(self):
        C = np.array([[2.0, 1.0], [1.0, 2.0]])
        F = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(InfeasibleError) as err:
            construct_supply(C, F, a=10.0)
        assert err.value.detail["entry"] == (0, 0)

    def test_automatic_ratio_test_is_maximal(self):
        C = np.array([[2.0, 1.0], [1.0, 2.0]])
        F = np.array([[0.0, 1.0], [1.0, 0.0]])
        B, a = construct_supply(C, F)
        assert a == pytest.approx(2.0)  # C + aG >= 0 binds at entry (0,0)
        assert B.min() == pytest.approx(0.0, abs=1e-12)

    def test_zero_demand_blocks_any_nonzero_a(self):
        # Zero demand entries meet nonzero perturbations of both signs, so
        # the ratio test pins a to zero in both directions.
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        F = np.array([[0.0, -1.0], [2.0, 0.0]])
        with pytest.raises(InfeasibleError):
            construct_supply(C, F)


class TestConstructIdealSupply:
    def test_zero_perturbation_returns_demand(self, rng):
        C = rng.uniform(0.2, 1.0, (2, 2))
        d = C.T @ np.array([1.0, 1.0])
        B = construct_ideal_supply(C, d, np.zeros((2, 2)))
        np.testing.assert_allclose(B, C, atol=1e-12)

    def test_worked_instance(self):
        C = np.array([[2.0, 1.0], [1.0, 2.0]])
        B = construct_ideal_supply(C, np.array([3.0, 3.0]),
                                   np.array([[1.0, -1.0], [-1.0, 1.0]]))
        np.testing.assert_allclose(B, [[3.0, 0.0], [0.0, 3.0]], atol=1e-12)
        # Balances vanish at p = (1, 1).
        p = np.array([1.0, 1.0])
        np.testing.assert_allclose(B.T @ p, C.T @ p, atol=1e-12)

    def test_scaled_perturbation_violates_nonnegativity(self):
        C = np.array([[2.0, 1.0], [1.0, 2.0]])
        with pytest.raises(PreconditionError) as err:
            construct_ideal_supply(C, np.array([3.0, 3.0]),
                                   np.array([[2.0, -2.0], [-2.0, 2.0]]))
        assert err.value.condition == "supply_nonnegative"

    def test_named_condition_errors(self):
        C = np.array([[2.0, 1.0], [1.0, 2.0]])
        with pytest.raises(PreconditionError) as err:
            construct_ideal_supply(C, np.array([3.0, 3.0]),
                                   np.array([[1.0, -1.0], [-0.5, 0.5]]))
        assert err.value.condition == "columns_orthogonal_to_d"
        with pytest.raises(PreconditionError) as err:
            construct_ideal_supply(C, np.array([3.0, 3.0]),
                                   np.array([[1.0, -0.5], [-1.0, 0.5]]))
        assert err.value.condition == "rows_sum_zero"


class TestStrictSufficiency:
    def test_clearing_from_certified_strict_instances(self, rng):
        # The sufficiency route: certified strict + d in the row cone means
        # the recovered prices clear every market.
        done = 0
        for _ in range(15):
            C, B, B1, d_true, p_true = random_strict_instance(rng)
            cert = certify_consistency(C, B)
            assert cert.label == "strict"
            dvec = solve_D(cert.factorization)
            rec = price_from_D(C, dvec.d)
            assert rec, "d must lie in the row cone by construction"
            p0 = rec.p0
            ratios = (B.T @ p0) / (C.T @ p0)
            clearing = np.abs(C @ ratios - B.sum(axis=1))
            assert clearing.max() <= 1e-6 * max(1.0, B.sum(axis=1).max())
            done += 1
        assert done == 15


def _factor_residual_ok(cert, C, B):
    rows = list(cert.clearing_set)
    residual = np.abs(B[rows] - C[rows] @ cert.factorization.B1).max()
    return residual <= 1e-8 * (1.0 + np.abs(B[rows]).max())


class TestCertifiedResiduals:
    def test_dollar_scale_instance(self):
        # At 1e9 this economy used to be certified weak with a factor whose
        # residual was 1.8 % of max|B|: the row-sum target was accepted with
        # a tolerance scaled twice. At unit scale it is certified none.
        rng = np.random.default_rng(0)
        C = rng.uniform(0.1, 1.0, (3, 4))
        B = rng.uniform(0.0, 1.0, (3, 4))
        B *= C.sum() / B.sum()
        cert = certify_consistency(1e9 * C, 1e9 * B)
        assert cert.label == certify_consistency(C, B).label
        if cert.factorization is not None:
            assert _factor_residual_ok(cert, 1e9 * C, 1e9 * B)

    def test_every_certified_factor_solves_its_block(self, rng):
        for _ in range(40):
            C, B = random_economy(rng, n_max=4, l_max=5)
            I = tuple(range(max(1, C.shape[0] - 1)))
            for scale in (1.0, 1e9):
                for clearing in (None, I):
                    cert = certify_consistency(scale * C, scale * B, clearing)
                    if cert.factorization is not None:
                        assert _factor_residual_ok(cert, scale * C, scale * B)


class TestUnverifiedFactor:
    def test_ill_conditioned_demand_is_certified_or_declined(self, rng):
        # Nearly parallel columns: the cone programs must neither raise nor
        # let an inaccurate factor through.
        for _ in range(20):
            C = rng.uniform(0.1, 1.0, (3, 5))
            C[:, 3] = C[:, 0] * (1.0 + 1e-9 * rng.uniform(-1.0, 1.0, 3))
            C[:, 4] = C[:, 1] + 1e-7 * C[:, 2]
            B = rng.uniform(0.0, 1.0, (3, 5))
            B *= C.sum() / B.sum()
            for scale in (1.0, 1e9):
                for clearing in (None, (0, 1)):
                    cert = certify_consistency(scale * C, scale * B, clearing)
                    if cert.factorization is not None:
                        assert _factor_residual_ok(cert, scale * C, scale * B)

    def test_unverified_program_answer_downgrades_the_label(self, monkeypatch):
        # The diagonal economy is strict; when every cone program answer
        # fails its residual check, no factor may be certified from it and
        # certify_consistency still returns a label instead of raising.
        C = np.array([[2.0, 0.0], [0.0, 3.0]])
        B = np.array([[1.0, 1.0], [1.0, 2.0]])
        assert certify_consistency(C, B).label == "strict"
        real = cone_geometry.linprog

        def perturbed(*args, **kwargs):
            res = real(*args, **kwargs)
            res.x[0] += 1e-6
            return res

        monkeypatch.setattr(cone_geometry, "linprog", perturbed)
        assert certify_consistency(C, B).label == "none"


def _outcome(fn):
    """Return value, or the class name of the typed error raised."""
    try:
        return fn()
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__


class TestUnitInvariance:
    SCALES = (1e-3, 1e6, 1e12)

    def test_verdicts_do_not_depend_on_the_currency_unit(self, rng):
        for _ in range(30):
            C, B = random_economy(rng, n_max=6, l_max=8)
            n, l = C.shape
            psi = B.sum(axis=1)
            m = min(n, l)

            def verdicts(s):
                member = _outcome(lambda: classify_membership(s * C[:, :m].T, s * psi))
                positive = _outcome(lambda: strictly_positive_solution(s * C, s * psi))
                factor = _outcome(lambda: factor_supply(s * C, s * B))
                label = certify_consistency(s * C, s * B).label
                return member, positive, factor, label

            base = verdicts(1.0)
            for s in self.SCALES:
                got = verdicts(s)
                if isinstance(base[0], str):
                    assert got[0] == base[0]
                else:
                    # Cone coordinates are unit-free; off-span coefficients
                    # of the axes carry the unit of psi.
                    assert got[0].verdict is base[0].verdict
                    np.testing.assert_allclose(got[0].alpha[:m], base[0].alpha[:m],
                                               rtol=1e-9, atol=1e-12)
                    np.testing.assert_allclose(got[0].alpha[m:], s * base[0].alpha[m:],
                                               rtol=1e-9, atol=1e-12 * s)
                if isinstance(base[1], str):
                    assert got[1] == base[1]
                else:
                    np.testing.assert_allclose(got[1], base[1], rtol=1e-6)
                if isinstance(base[2], str):
                    assert got[2] == base[2]
                else:
                    assert got[2].mode == base[2].mode
                assert got[3] == base[3]
