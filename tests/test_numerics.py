"""``_numerics.linprog`` against ``scipy.optimize.linprog(method="highs")``.

The package calls HiGHS through scipy's binding directly; scipy's public
wrapper runs the same solver with the same options, so on every LP shape the
package uses, ``linprog`` must return scipy's ``x`` bit for bit where scipy's
status is 0 (optimal), None where it is 2 (infeasible), and raise
NonConvergenceError otherwise. ``linprog`` reuses one HiGHS instance per
thread and sets only the feasibility tolerance on each call, so this must
also hold whatever LPs, tolerances and errors came before, and from two
threads at once.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import optimize

from tradequil._numerics import BASE_TOL, linprog, unit_columns
from tradequil.errors import NonConvergenceError


def scipy_linprog(c, A_eq, b_eq, A_ub=None, b_ub=None, upper=None, feasibility_tol=None):
    """The same program through scipy's wrapper: every column at least 0."""
    upper = np.full(len(c), np.inf) if upper is None else upper
    options = {} if feasibility_tol is None else {"primal_feasibility_tolerance": feasibility_tol}
    return optimize.linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                            bounds=[(0.0, u) for u in upper], options=options,
                            method="highs")


def assert_same(**problem):
    """Check ``linprog``'s answer against scipy's; return scipy's status."""
    ref = scipy_linprog(**problem)
    if ref.status == 0:
        assert np.array_equal(linprog(**problem), ref.x)
    elif ref.status == 2:
        assert linprog(**problem) is None
    else:
        with pytest.raises(NonConvergenceError):
            linprog(**problem)
    return ref.status


def sparse_uniform(rng, shape, zeros=0.3):
    """Uniform entries in [0.1, 1) with about a share ``zeros`` set to zero."""
    a = rng.uniform(0.1, 1.0, shape)
    a[rng.uniform(size=shape) < zeros] = 0.0
    return a


def bounded_last(k):
    """Upper bounds of ``k`` unbounded columns and a last one at most 1."""
    return np.append(np.full(k, np.inf), 1.0)


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
                upper=bounded_last(n), feasibility_tol=BASE_TOL)


class TestAgreesWithScipy:
    def test_equality_rows_with_nonnegative_columns(self, rng):
        # interior_subset: a vertex of {z >= 0 : A z = b}, some b outside the cone.
        statuses = set()
        for _ in range(40):
            n, l = rng.integers(2, 7), rng.integers(2, 10)
            A, _ = unit_columns(sparse_uniform(rng, (n, l)))
            b = A @ rng.uniform(0.0, 1.0, l) - (rng.uniform() < 0.3) * rng.uniform(0.0, 1.0, n)
            statuses.add(assert_same(c=np.ones(l), A_eq=A, b_eq=b / np.abs(b).max()))
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
            statuses.add(assert_same(c=cost, A_eq=np.hstack([A, A.sum(axis=1, keepdims=True)]),
                                     b_eq=b / (np.abs(b).max() or 1.0),
                                     upper=bounded_last(l), feasibility_tol=BASE_TOL))
        assert statuses == {0, 2}

    def test_price_program_shape(self, rng):
        statuses = set()
        for _ in range(40):
            n, l = rng.integers(1, 5), rng.integers(2, 7)
            statuses.add(assert_same(**price_program(rng, n, l)))
        assert statuses == {0, 2}

    def test_feasibility_tolerance_reaches_highs(self):
        # Rows 0 and 1 fix x = (1, 1); row 2 misses it by 5e-8, inside HiGHS's
        # default tolerance of 1e-7 but not inside BASE_TOL.
        assert assert_same(**NEAR) == 0
        assert assert_same(**NEAR, feasibility_tol=BASE_TOL) == 2

    @pytest.mark.parametrize("miss", ["row", "inequality", "bound"])
    def test_optimum_outside_scipys_check_raises(self, miss):
        # A loose feasibility tolerance lets HiGHS accept x = (1, 1), which
        # misses a row or a bound by 1e-3, more than scipy's check allows.
        problem = dict(c=[1.0, 1.0], A_eq=[[1.0, 0.0], [0.0, 1.0]], b_eq=[1.0, 1.0],
                       feasibility_tol=1e-2)
        if miss == "row":
            problem.update(A_eq=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], b_eq=[1.0, 1.0, 2.001])
        elif miss == "inequality":
            problem.update(A_ub=[[1.0, 1.0]], b_ub=[1.999])
        else:
            problem.update(upper=[np.inf, 0.999])
        assert assert_same(**problem) == 4
        with pytest.raises(NonConvergenceError, match="misses a bound or a row"):
            linprog(**problem)

    def test_infeasible(self):
        assert assert_same(c=[1.0, 1.0], A_eq=[[1.0, 1.0]], b_eq=[-1.0]) == 2

    def test_unbounded(self):
        assert assert_same(c=[-1.0, 0.0], A_eq=[[1.0, -1.0]], b_eq=[0.0]) == 3
        with pytest.raises(NonConvergenceError, match="[Uu]nbounded"):
            linprog([-1.0, 0.0], [[1.0, -1.0]], [0.0])


@pytest.mark.parametrize("problem", [
    dict(A_eq=[[1.0, 1.0]], b_eq=[1.0, 2.0]),
    dict(A_eq=[[1.0, 1.0]], b_eq=[1.0], upper=[1.0]),
], ids=["rows", "upper"])
def test_mismatched_shapes_raise(problem):
    with pytest.raises(ValueError, match="do not match"):
        linprog([1.0, 1.0], **problem)


# Rows 0 and 1 fix x = (1, 1), which row 2 misses by 5e-8 (status 0, and 2 at
# BASE_TOL) or by 1e-3 (status 2, and 4 at a tolerance of 1e-2).
NEAR = dict(c=[1.0, 1.0], A_eq=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], b_eq=[1.0, 1.0, 2.0 + 5e-8])
MISSED = dict(NEAR, b_eq=[1.0, 1.0, 2.001])


def mixed_problems():
    """LPs whose answers move if a previous call's tolerance or model leaks:
    each tolerance-sensitive instance comes with and without its tolerance,
    the one at HiGHS's default right after a tighter or looser one."""
    rng = np.random.default_rng(16)
    problems = []
    for _ in range(3):  # max_margin at BASE_TOL
        A, _ = unit_columns(sparse_uniform(rng, (4, 6)))
        problems.append(dict(c=np.append(np.zeros(6), -1.0),
                             A_eq=np.hstack([A, A.sum(axis=1, keepdims=True)]),
                             b_eq=A @ rng.uniform(0.0, 1.0, 6), upper=bounded_last(6),
                             feasibility_tol=BASE_TOL))
    problems += [dict(NEAR, feasibility_tol=BASE_TOL), NEAR,
                 dict(MISSED, feasibility_tol=1e-2), MISSED]
    problems.append(dict(c=[1.0, 1.0], A_eq=[[1.0, 1.0]], b_eq=[-1.0]))  # infeasible
    problems.append(dict(c=[-1.0, 0.0], A_eq=[[1.0, -1.0]], b_eq=[0.0]))  # unbounded
    problems.append(price_program(rng, 3, 4))  # equality and inequality rows, bounded t
    return problems


class TestReusedSolver:
    @pytest.mark.parametrize("order", ["forward", "reversed"])
    def test_answers_do_not_depend_on_the_calls_before(self, order):
        problems = mixed_problems()
        statuses = [assert_same(**problem)
                    for problem in (problems if order == "forward" else problems[::-1])]
        assert sorted(set(statuses)) == [0, 2, 3, 4]

    def test_refused_tolerance_does_not_reach_the_next_call(self):
        assert assert_same(**MISSED, feasibility_tol=1e-2) == 4
        with pytest.raises(ValueError, match="feasibility tolerance"):
            linprog(**MISSED, feasibility_tol=1e-12)  # below HiGHS's least, 1e-10
        assert assert_same(**MISSED) == 2

    def test_two_threads(self):
        problems = mixed_problems()
        halves = [problems[::2], problems[1::2]]

        def solve(half):
            return [assert_same(**problem) for _ in range(20) for problem in half]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads between calls into HiGHS
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(solve, half) for half in halves]
                statuses = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert [len(s) for s in statuses] == [20 * len(half) for half in halves]
