import numpy as np
import pytest

from conftest import random_economy, random_ideal_triple
from tradequil import (
    DivisionGuardError,
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
from tradequil import consistency, equilibrium_solver
from tradequil._numerics import DEFAULT_TOL, DEFAULT_TOL_INNER
from tradequil.equilibrium_solver import (
    MAX_INNER_ITERATIONS,
    _run_stage,
    _solve,
    _softmax,
    _stage_map,
)

SWAP_C = np.array([[2.0, 1.0], [1.0, 2.0]])
SWAP_B = np.array([[1.0, 2.0], [2.0, 1.0]])

# Four 6-good, 9-country cuts of G20-shaped trade flows, in dollars.
# TURNING: near each stage's fixed point the orbit turns slowly, so the
# residual keeps reaching new lows, about 18,000 steps a stage.
# DIPPING: an Aitken jump lands good 1's price at 2e-7 while the good is in
# excess demand; the later stages of the run with jumps lift it back to
# 0.021, and the solve clears in 3,516 evaluations.
# DRIFTING: in its seventh stage the orbit rises more than tenfold above its
# lowest residual and must go on from where it is: restarting from the
# lowest point without jumps stalls the stage, and the solve fails.
# STALLING: the run with jumps ends violating the inequalities at good 1;
# without jumps the eighth stage stalls, and root finding from the stage's
# last point (not from its lowest-residual point) finds the equilibrium.
TURNING_C = np.array([
    [10024374209, 9345088293, 1080641814, 2464630271, 1909114902,
     560893360271, 1300781166, 1212967510, 1188876514],
    [45045075473, 148358364097, 7592326282, 13789782681, 4888369525,
     27930804872, 799524180, 4044905428, 2741956714],
    [14080182155, 51291719429, 1433561462, 1935741880, 1778998745,
     35961728649, 293563434, 3931558561, 557557267],
    [20139287896, 16359057572, 1608347685, 16864224140, 2401776113,
     358953210135, 462023205, 910210974, 3577331504],
    [7351105759, 73308956659, 15022204209, 10800515285, 234474389,
     115919523806, 1784728307, 1970059357, 1867989470],
    [9597557260, 416386273219, 11195819005, 49263135875, 15264384336,
     205673294182, 5204149404, 7713925180, 3653747634],
], dtype=float)
TURNING_B = np.array([
    [8789199320, 548138721612, 5371531407, 1454542129, 783168464,
     8891596918, 376415964, 14795577627, 819081509],
    [21190193365, 38444866057, 4638624163, 4316910763, 1594864970,
     170946764072, 1967663752, 476513142, 11614708968],
    [3769614132, 41166980226, 4700290569, 5924493283, 1193760321,
     50777280774, 1624060473, 870279880, 1237851924],
    [2753250017, 371190228466, 9483042332, 11057855368, 1344079628,
     16821091416, 452033874, 3009269282, 5164618841],
    [53282617853, 94058253851, 7975497893, 5308021846, 20778229518,
     42496827495, 1043536232, 1601615822, 1714956731],
    [18938704283, 232068450205, 1894720040, 7917279547, 1280896691,
     438635350631, 7194998467, 14997383552, 1024502679],
], dtype=float)
DIPPING_C = np.array([
    [4349003431, 48700264413, 1190957482, 36057601502, 7336060471,
     1193784295, 2065574568, 479461502, 25230725990],
    [8278473739, 16210557523, 3129197811, 24729928335, 2770639570,
     359400667, 662861631, 327378238, 27068734120],
    [20603289644, 53322227560, 736225010, 15098899527, 24183654258,
     1278123290, 891525700, 380951731, 14062793997],
    [3221722855, 3837365002, 139994582, 2145553520, 4582578413,
     516876878, 545168462, 215540537, 23635466493],
    [3073499699, 4571832327, 7741386054, 10118251887, 2337340975,
     1806123842, 4748503410, 746829033, 45014787244],
    [4436772292, 35897327762, 2313637776, 53412350619, 7431906598,
     1821111013, 1097637567, 641932974, 30394155675],
], dtype=float)
DIPPING_B = np.array([
    [7191158172, 5670013509, 1721608133, 46441311157, 2392456762,
     483770414, 504947488, 755634261, 61442533758],
    [14561387894, 11934097547, 2006280382, 17254018952, 2672583535,
     753191602, 5727716333, 526680933, 28101214456],
    [9229137300, 8580385737, 206616124, 12427690780, 4104348438,
     2427471249, 465585574, 1636976268, 91479479247],
    [2167355406, 15098285116, 32799514, 16259186074, 625559489,
     564229042, 176322395, 968046571, 2948483135],
    [4519761876, 29071892773, 784415642, 29101665399, 581058013,
     1256903166, 244247384, 11437024462, 3161585756],
    [57944937724, 11665357806, 2025772847, 33361343646, 9508885422,
     1067620213, 7479734907, 2493360788, 11899818923],
], dtype=float)


DRIFTING_C = np.array([
    [6028410499, 13435464998, 2944079388, 7759389930, 8460019324,
     9226404636, 780334311, 9508705932, 24479454554],
    [3328210673, 2373464320, 165346357, 240260448, 875317980,
     373605145, 197594530, 1807877565, 1179908228],
    [2063967800, 6231862858, 2359237385, 5061790784, 1462145821,
     1615320500, 228015745, 5610029978, 8388098199],
    [28988551575, 70258888176, 6980220221, 16215749397, 39041172882,
     14127248993, 2208209872, 30833520058, 39733651902],
    [2195469956, 3654910916, 991229006, 2782296195, 1616659892,
     3933163477, 486607750, 3149042953, 20251144762],
    [5252588458, 9103625271, 1570518467, 1589349041, 6295797003,
     2668387330, 92834989, 4567376765, 4143876439],
], dtype=float)
DRIFTING_B = np.array([
    [2202251624, 27490863541, 3864625905, 5452387599, 5361916754,
     6957758871, 2332053065, 10516713310, 18443692903],
    [1613399258, 3599120390, 63602181, 1757999789, 1169495879,
     102522069, 18649569, 780764371, 1436031740],
    [2439567519, 19434861713, 1615453091, 2398735216, 826030224,
     905931208, 63618808, 2057633086, 3278638205],
    [26610732340, 52131937080, 63754310142, 11133013097, 15339974848,
     6304199159, 1054966916, 44400275833, 27657803661],
    [4976236229, 9103246535, 3380843884, 4596010292, 2257538324,
     5971547629, 2581437084, 4615186923, 1578478007],
    [3532220081, 6825897877, 1465549326, 316052764, 8894895525,
     2530177182, 494165449, 5894411489, 5330984070],
], dtype=float)
STALLING_C = np.array([
    [18782448034, 2237222586, 4099413514, 11617501216, 8832895932,
     6202563070, 16386002169, 45600359926, 35632815449],
    [16927552447, 795010093, 636928646, 1913592649, 771882068,
     2628571254, 75534858622, 10153919310, 2482040283],
    [32567722797, 1604259962, 10829179430, 15785674013, 3944183181,
     12238346938, 34388911917, 18474602765, 12894627408],
    [155342288682, 21967422096, 7105489520, 19550674009, 13869727034,
     6307470254, 336085886617, 109228688012, 31124205463],
    [11649347388, 234824920, 374530217, 557327410, 235005603,
     594406787, 1329977415, 34696360528, 1489696583],
    [83103713638, 5706834355, 17102428265, 93559220767, 13287863047,
     44091317821, 156921735845, 341054595346, 36898506777],
], dtype=float)
STALLING_B = np.array([
    [37158636767, 1330414526, 4957491211, 12371099124, 1384847952,
     2413595702, 12921450425, 75481604769, 1372081420],
    [2872947304, 1344837650, 5376616232, 2472348908, 120773722,
     153890200, 16545421850, 82383011999, 574507507],
    [10532432520, 1142104567, 5318000633, 3494863977, 2283375455,
     10123045672, 15431941847, 70146528135, 24255215605],
    [4849416256, 164355909, 5047785656, 30705147581, 1273533730,
     583523448, 89588854787, 560805691929, 7563542391],
    [1883451693, 1049416494, 3488329605, 2739281717, 3994969292,
     1321688594, 30242893409, 5510600404, 930845643],
    [278586525293, 963665027, 4093212052, 17235570104, 6927582822,
     4665747497, 217066212948, 247619276684, 14568423434],
], dtype=float)


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
            solve_fixed_point(C, B, tol_inner=1e-30)
        assert err.value.residual is not None
        assert err.value.epsilon is not None

    def test_stall_exit_is_reported_as_a_stall(self):
        # The 1e-30 residual is out of reach, so the residual stops
        # halving and the stage leaves through its stall exit long before
        # the evaluation cap; the error must say so, not blame the cap.
        C = np.array([[1.0], [1.0]])
        B = np.array([[2.0], [1.0]])
        with pytest.raises(NonConvergenceError,
                           match=r"stalled after \d+ map evaluations") as err:
            solve_fixed_point(C, B, tol_inner=1e-30)
        assert "cap" not in str(err.value)
        assert err.value.iterations < MAX_INNER_ITERATIONS

    def test_cap_exit_is_reported_as_the_cap(self, monkeypatch):
        monkeypatch.setattr(equilibrium_solver, "MAX_INNER_ITERATIONS", 50)
        C = np.array([[1.0], [1.0]])
        B = np.array([[2.0], [1.0]])
        with pytest.raises(NonConvergenceError,
                           match=r"hit the 50-evaluation cap after \d+ map evaluations"):
            solve_fixed_point(C, B, tol_inner=1e-30)

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

    @pytest.mark.parametrize("cap, extrapolate", [
        pytest.param(6, True, id="6"),
        pytest.param(11, True, id="11"),
        pytest.param(16, True, id="16"),
        pytest.param(40, False, id="40-without-jumps"),
    ])
    def test_stage_iterates_the_plain_map(self, rng, cap, extrapolate):
        # Extrapolation first runs at the 16th step, so up to then a stage
        # is the orbit G(G(...G(p0))), bit for bit; without jumps it stays so.
        C = rng.uniform(1e6, 1e9, (5, 7))
        B = rng.uniform(1e6, 1e9, (5, 7))
        G = _stage_map(C, B, B.sum(axis=1), 1e-2)
        p0 = np.full(5, 0.2)
        orbit = [p0]
        for _ in range(cap - 1):
            orbit.append(G(orbit[-1]))
        p, evals, stage_exit = _run_stage(G, p0, 0.0, cap, extrapolate)
        np.testing.assert_array_equal(p, orbit[-1])
        assert (evals, stage_exit) == (cap, "cap")

    def test_slowly_turning_orbit_is_root_found(self):
        # A stage whose residual has not halved in STALL_EVALUATIONS
        # hands over to root finding: 3,872 map evaluations here, against
        # 160,770 when every new low counted as progress.
        solution = solve_fixed_point(TURNING_C, TURNING_B)
        assert solution.clearing_set == (0, 1, 2, 4, 5)
        assert solution.iterations <= 6000

    def test_price_left_near_zero_by_a_jump_is_recovered(self):
        solution = solve_fixed_point(DIPPING_C, DIPPING_B)
        assert solution.clearing_set == (0, 1, 2, 4)
        assert solution.p0.p[0] > 0.02

    def test_drifting_stage_goes_on_from_its_last_point(self):
        # Solved by the run with jumps in 3,132 map evaluations.
        solution = solve_fixed_point(DRIFTING_C, DRIFTING_B)
        assert solution.clearing_set == (1, 3, 4, 5)

    def test_failed_solve_is_repeated_without_jumps(self):
        psi = STALLING_B.sum(axis=1)
        with pytest.raises(NonConvergenceError, match="at good 1 "):
            _solve(STALLING_C, STALLING_B, psi, DEFAULT_TOL, DEFAULT_TOL_INNER, True, 0)
        solution = solve_fixed_point(STALLING_C, STALLING_B)
        assert solution.clearing_set == (0, 1, 2, 3, 4, 5)

    def test_map_evaluation_count(self, rng):
        # Ten fixed random economies take 3,438 map evaluations in all; a
        # step damped by 1/2 roughly doubles that.
        total = sum(solve_fixed_point(*random_economy(rng)).iterations
                    for _ in range(10))
        assert total <= 4300

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
