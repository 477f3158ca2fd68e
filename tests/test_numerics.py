"""``_numerics.linprog`` against ``scipy.optimize.linprog(method="highs")``.

The package calls HiGHS through scipy's binding directly; scipy's public
wrapper runs the same solver with the same options, so on every LP shape the
package uses both must report the same status and the same ``x``, bit for bit.
``linprog`` reuses one HiGHS instance per thread, so this must also hold
whatever LPs, options and errors came before, and from two threads at once.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import optimize

from tradequil._numerics import BASE_TOL, linprog, unit_columns


def assert_same(**problem):
    mine = linprog(**problem)
    ref = optimize.linprog(method="highs", **problem)
    assert mine.status == ref.status
    assert mine.success == ref.success == (mine.status == 0)
    if ref.x is None:
        assert mine.x is None
    else:
        assert np.array_equal(mine.x, ref.x)
    return mine


def sparse_uniform(rng, shape, zeros=0.3):
    """Uniform entries in [0.1, 1) with about a share ``zeros`` set to zero."""
    a = rng.uniform(0.1, 1.0, shape)
    a[rng.uniform(size=shape) < zeros] = 0.0
    return a


def price_program(rng, n, l):
    """exists_ideal's LP on a balanced economy: p >= 0 and 0 <= t <= 1,
    maximize t subject to (B - C).T p = 0, sum(C.T p) = l and C.T p >= t."""
    C = sparse_uniform(rng, (n, l))
    B = sparse_uniform(rng, (n, l)) + 1e-3
    B = B * (C.sum(axis=1) / B.sum(axis=1))[:, None]
    scale = max(C.max(), B.max())
    C, B = C / scale, B / scale
    A_eq = np.vstack([np.hstack([(B - C).T, np.zeros((l, 1))]),
                      np.append(C.sum(axis=1), 0.0)])
    return dict(c=np.append(np.zeros(n), -1.0),
                A_ub=np.hstack([-C.T, np.ones((l, 1))]), b_ub=np.zeros(l),
                A_eq=A_eq, b_eq=np.append(np.zeros(l), float(l)),
                bounds=[(0, None)] * n + [(0, 1)],
                options={"primal_feasibility_tolerance": BASE_TOL})


class TestAgreesWithScipy:
    def test_equality_rows_with_nonnegative_columns(self, rng):
        # interior_subset: a vertex of {z >= 0 : A z = b}, some b outside the cone.
        statuses = set()
        for _ in range(40):
            n, l = rng.integers(2, 7), rng.integers(2, 10)
            A, _ = unit_columns(sparse_uniform(rng, (n, l)))
            b = A @ rng.uniform(0.0, 1.0, l) - (rng.uniform() < 0.3) * rng.uniform(0.0, 1.0, n)
            res = assert_same(c=np.ones(l), A_eq=A, b_eq=b / np.abs(b).max(),
                              bounds=(0, None))
            statuses.add(res.status)
        assert statuses == {0, 2}

    def test_max_margin_shape(self, rng):
        # max t subject to A (w + t) = b, w >= 0, 0 <= t <= 1.
        statuses = set()
        for _ in range(40):
            n, l = rng.integers(2, 7), rng.integers(2, 10)
            A, _ = unit_columns(sparse_uniform(rng, (n, l)))
            b = A @ (rng.uniform(0.0, 1.0, l) * (rng.uniform(size=l) < 0.7))
            if rng.uniform() < 0.2:
                b[0] = -1.0
            cost = np.zeros(l + 1)
            cost[-1] = -1.0
            res = assert_same(c=cost, A_eq=np.hstack([A, A.sum(axis=1, keepdims=True)]),
                              b_eq=b / (np.abs(b).max() or 1.0),
                              bounds=[(0, None)] * l + [(0, 1)],
                              options={"primal_feasibility_tolerance": BASE_TOL})
            statuses.add(res.status)
        assert statuses == {0, 2}

    def test_mixed_rows_with_free_columns(self, rng):
        # Free columns w next to nonnegative ones p, coupled by equality rows:
        # maximize mu >= 0 subject to mu <= kernel @ w, C.T p = kernel @ w and
        # sum(kernel @ w) = l: a positive vector of a subspace given by a
        # basis, which is also a price image C.T p.
        for _ in range(40):
            n, l, dim = rng.integers(2, 6), rng.integers(2, 8), rng.integers(1, 3)
            C = sparse_uniform(rng, (n, l))
            kernel = rng.normal(size=(l, dim))
            cost = np.zeros(n + dim + 1)
            cost[-1] = -1.0
            A_eq = np.vstack([np.hstack([C.T, -kernel, np.zeros((l, 1))]),
                              np.hstack([np.zeros(n), kernel.sum(axis=0), np.zeros(1)])])
            assert_same(c=cost, A_ub=np.hstack([np.zeros((l, n)), -kernel, np.ones((l, 1))]),
                        b_ub=np.zeros(l), A_eq=A_eq, b_eq=np.append(np.zeros(l), float(l)),
                        bounds=[(0, None)] * n + [(None, None)] * dim + [(0, None)])

    def test_price_program_shape(self, rng):
        statuses = set()
        for _ in range(40):
            n, l = rng.integers(1, 5), rng.integers(2, 7)
            statuses.add(assert_same(**price_program(rng, n, l)).status)
        assert statuses == {0, 2}

    def test_inequality_rows_only(self, rng):
        for _ in range(20):
            A = sparse_uniform(rng, (4, 6))
            assert_same(c=-rng.uniform(0.1, 1.0, 6), A_ub=A, b_ub=rng.uniform(0.5, 1.0, 4))

    def test_feasibility_tolerance_reaches_highs(self):
        # Rows 0 and 1 fix x = (1, 1); row 2 misses it by 5e-8, inside HiGHS's
        # default tolerance of 1e-7 but not inside BASE_TOL.
        problem = dict(c=[1.0, 1.0], A_eq=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                       b_eq=[1.0, 1.0, 2.0 + 5e-8], bounds=(0, None))
        assert assert_same(**problem).status == 0
        tight = assert_same(**problem, options={"primal_feasibility_tolerance": BASE_TOL})
        assert tight.status == 2

    @pytest.mark.parametrize("miss", ["row", "inequality", "bound"])
    def test_optimum_outside_scipys_check_is_status_4(self, miss):
        # A loose feasibility tolerance lets HiGHS accept x = (1, 1), which
        # misses a row or a bound by 1e-3, more than scipy's check allows.
        problem = dict(c=[1.0, 1.0], A_eq=[[1.0, 0.0], [0.0, 1.0]], b_eq=[1.0, 1.0],
                       options={"primal_feasibility_tolerance": 1e-2})
        if miss == "row":
            problem.update(A_eq=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], b_eq=[1.0, 1.0, 2.001])
        elif miss == "inequality":
            problem.update(A_ub=[[1.0, 1.0]], b_ub=[1.999])
        else:
            problem.update(bounds=[(0, None), (0, 0.999)])
        res = assert_same(**problem)
        assert res.status == 4 and not res.success and res.x is not None

    def test_infeasible(self):
        res = assert_same(c=[1.0, 1.0], A_eq=[[1.0, 1.0]], b_eq=[-1.0], bounds=(0, None))
        assert res.status == 2 and res.x is None

    def test_unbounded(self):
        res = assert_same(c=[-1.0, 0.0], A_eq=[[1.0, -1.0]], b_eq=[0.0], bounds=(0, None))
        assert res.status == 3 and res.x is None


def test_mismatched_shapes_raise():
    with pytest.raises(ValueError, match="does not match"):
        linprog([1.0, 1.0], A_eq=[[1.0, 1.0]], b_eq=[1.0, 2.0])


# Rows 0 and 1 fix x = (1, 1), which row 2 misses by 5e-8 (status 0, and 2 at
# BASE_TOL) or by 1e-3 (status 2, and 4 at a tolerance of 1e-2).
NEAR = dict(c=[1.0, 1.0], A_eq=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], b_eq=[1.0, 1.0, 2.0 + 5e-8])
MISSED = dict(NEAR, b_eq=[1.0, 1.0, 2.001])


def mixed_problems():
    """LPs whose answers move if a previous call's options or model leak: each
    tolerance-sensitive instance comes with and without its option."""
    rng = np.random.default_rng(16)
    problems = []
    for _ in range(3):  # max_margin at BASE_TOL
        A, _ = unit_columns(sparse_uniform(rng, (4, 6)))
        problems.append(dict(c=np.append(np.zeros(6), -1.0),
                             A_eq=np.hstack([A, A.sum(axis=1, keepdims=True)]),
                             b_eq=A @ rng.uniform(0.0, 1.0, 6), bounds=[(0, None)] * 6 + [(0, 1)],
                             options={"primal_feasibility_tolerance": BASE_TOL}))
    problems += [NEAR, dict(NEAR, options={"primal_feasibility_tolerance": BASE_TOL}),
                 dict(MISSED, options={"primal_feasibility_tolerance": 1e-2}), MISSED]
    problems.append(dict(c=[1.0, 1.0], A_eq=[[1.0, 1.0]], b_eq=[-1.0]))  # infeasible
    problems.append(dict(c=[-1.0, 0.0], A_eq=[[1.0, -1.0]], b_eq=[0.0]))  # unbounded
    problems.append(price_program(rng, 3, 4))  # equality and inequality rows, bounded t
    n, l = 3, 5  # free columns next to nonnegative ones
    C, kernel = sparse_uniform(rng, (n, l)), rng.normal(size=(l, 2))
    problems.append(dict(
        c=np.append(np.zeros(n + 2), -1.0),
        A_ub=np.hstack([np.zeros((l, n)), -kernel, np.ones((l, 1))]), b_ub=np.zeros(l),
        A_eq=np.vstack([np.hstack([C.T, -kernel, np.zeros((l, 1))]),
                        np.hstack([np.zeros(n), kernel.sum(axis=0), np.zeros(1)])]),
        b_eq=np.append(np.zeros(l), float(l)),
        bounds=[(0, None)] * n + [(None, None)] * 2 + [(0, None)]))
    return problems


class TestReusedSolver:
    @pytest.mark.parametrize("order", ["forward", "reversed"])
    def test_answers_do_not_depend_on_the_calls_before(self, order):
        problems = mixed_problems()
        statuses = [assert_same(**problem).status
                    for problem in (problems if order == "forward" else problems[::-1])]
        assert sorted(set(statuses)) == [0, 2, 3, 4]

    def test_refused_option_does_not_reach_the_next_call(self):
        with pytest.raises(ValueError, match="no_such_option"):
            linprog(**MISSED, options={"primal_feasibility_tolerance": 1e-2,
                                       "no_such_option": 1})
        assert assert_same(**MISSED).status == 2

    def test_two_threads(self):
        problems = mixed_problems()
        halves = [problems[::2], problems[1::2]]

        def solve(half):
            return [assert_same(**problem).status for _ in range(20) for problem in half]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads between calls into HiGHS
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(solve, half) for half in halves]
                statuses = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert [len(s) for s in statuses] == [20 * len(half) for half in halves]
