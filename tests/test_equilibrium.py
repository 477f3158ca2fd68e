import warnings

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
# residual keeps reaching new lows, about 18,000 steps a stage; Newton jumps
# finish it in 611 evaluations.
# DIPPING: a vector-Aitken jump once landed good 1's price at 2e-7 while the
# good was in excess demand; the run with Newton jumps keeps it above 0.005
# and clears in 2,420 evaluations.
# DRIFTING: with Aitken jumps, the seventh stage's orbit rose more than
# tenfold above its lowest residual and had to go on from where it was.
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


# A 14-good, 20-country G20-shaped economy, in dollars: with vector-Aitken
# jumps the stage at eps 1.526e-7 crept, its residual not halving in 2,000
# evaluations, and root finding failed from its last point (residual 8.9e-9).
CREEPING_C = np.array([
    [44308544315, 7335428151, 111955731593, 61887582050, 20692860475,
     35762879640, 371737324855, 9074410944, 2059997910, 28250944038,
     19933338839, 13567662616, 28242499047, 2054804462, 34801780018,
     128505636407, 463879195740, 111995310194, 47482227301, 11776467024],
    [31457770107, 8748400893, 27758887389, 33772820110, 33098274099,
     9490819407, 135105527047, 5056976064, 266476504, 17451434820, 14296944071,
     23761864388, 8100611556, 766393344, 29005458981, 16750359819,
     231253018555, 32848376933, 22993939716, 8161318601],
    [7489991865, 23735792260, 13060868055, 41629818683, 11863705200,
     49044316746, 321319952799, 3234104892, 3920952540, 59923430159,
     53231721647, 29397706535, 38432757729, 640105285, 45029518689,
     32228522459, 157282985489, 49143120130, 200944076971, 33113109750],
    [11727509710, 2007531587, 7997577435, 4559925833, 30646945041, 18931899951,
     118146111753, 2306409392, 165128778, 18339703483, 12680391776,
     16297106623, 9995388566, 100588822, 36061811000, 18671953874, 67138439629,
     30998082590, 31688710056, 6534369697],
    [3031557413, 1937567001, 3098817119, 1987587906, 25663174406, 20348172183,
     171032755112, 5832801796, 418774463, 19799365704, 3210064098, 25725975002,
     588314270, 85810555, 12358777974, 18258940730, 206258721561, 62095175295,
     11056955258, 6433256544],
    [17540604789, 15668028952, 112022056341, 34229093599, 13261003875,
     84480788812, 823723036274, 9932952927, 684648674, 18080110613,
     17609171923, 257739203874, 35409166658, 2873585394, 97389028335,
     138768026352, 320574494061, 96794720737, 213550642554, 1865482553],
    [18725307826, 2319330389, 14607983481, 37015998913, 20398043040,
     3320944270, 149595290567, 6322861568, 1458543522, 14325270543,
     38071890167, 97958747871, 14032539089, 500447454, 30914899009,
     74594493958, 169137205299, 40639494303, 99851790946, 15656004537],
    [26540746101, 2703322931, 11507326528, 2718696334, 9720155292, 19512279739,
     27801549781, 11163138031, 493120002, 10593796705, 10552828007,
     24993749917, 4047270012, 306695323, 15220961340, 52010596755, 87525295596,
     9658304027, 134857595699, 24689470577],
    [2547292161, 711341271, 1261686622, 4979078595, 6206296233, 1024004895,
     4373293103, 1589324685, 66655693, 4543868619, 1795796701, 6821482462,
     1820086522, 34324288, 4277690783, 3552109008, 4376798358, 3958234284,
     7396810369, 6186916713],
    [12842898190, 1190129439, 17361830089, 25075314968, 17135121435,
     16922192734, 50486750625, 9365780074, 346430615, 28238177848, 8260223058,
     11758293106, 32515233645, 385717992, 11805621125, 45977944339,
     81690637938, 39457581808, 152618390570, 10224328490],
    [18022535446, 10200620039, 69804965083, 49766679059, 35127818129,
     9609449917, 50429222579, 9979878348, 1449499047, 24824875677, 15750802497,
     39903856726, 14300013555, 694759993, 91155261655, 72221127996,
     162397150826, 35340008478, 41812051458, 4453799383],
    [29784184769, 1801712284, 14614312465, 2366331967, 6824938121, 20667241142,
     24511835653, 2469542433, 678658948, 11815185687, 14314262990, 7581190225,
     9572355561, 103144696, 5932457942, 11379186446, 62960659382, 25124491665,
     30517918686, 6298201639],
    [9552967844, 1576768703, 16886063748, 17940720731, 6851202159, 14376339486,
     81781884920, 2719354767, 585488599, 29705194526, 6594861019, 5278740510,
     12044707778, 510670965, 53449173741, 5189667822, 155583427494, 6402402102,
     88049973819, 4103604959],
    [39082204511, 14495841856, 85628948969, 66756982372, 217435386388,
     19574055818, 420741843155, 41322693385, 1837234689, 172930193705,
     27044190625, 277294586200, 50276813040, 587701035, 122992229524,
     36829123281, 298684314541, 47241085103, 68208008967, 13899336300],
], dtype=float)
CREEPING_B = np.array([
    [18222942079, 3453924866, 11291192837, 22612165096, 165771097924,
     24535707885, 45755728766, 4366539407, 1956161648, 15084572709,
     42832926648, 123694829236, 16626407414, 131701146, 116058612065,
     37685171370, 167607856212, 60787729809, 618574260054, 58255098448],
    [11531397314, 7276727625, 3757546775, 11117938003, 87485087128,
     16387216093, 53247709353, 7181422446, 642968919, 79704477273, 3010902366,
     12830036086, 4082241341, 290144359, 178801826708, 18602564890,
     163616329403, 13666348479, 10017081213, 6895706630],
    [13768789554, 8585756265, 17889657787, 17481590262, 101689259983,
     12887492102, 75549791523, 8586241255, 101837268, 15248246105, 9133753096,
     9449150091, 2883471633, 1729848469, 74551330421, 65508683421,
     201886030982, 417532492781, 118163970173, 2039164712],
    [5754236207, 4369032716, 18880050463, 11546398376, 32685751481,
     14254486937, 45578285904, 2672680035, 241353750, 16739491294, 6119428949,
     29539530482, 5278860707, 156731550, 51516025255, 25451048054, 74376396021,
     10148833205, 85449394186, 4237570024],
    [11179010797, 578162587, 12846225097, 6219742532, 19175335537, 13777807512,
     79307704598, 1658908574, 924930137, 11686524271, 2602900436, 23845786321,
     89852409154, 280994399, 40795171412, 41870792357, 27257311187,
     156461576248, 56391585074, 2509686160],
    [64100241619, 48309684109, 51206699929, 24596673291, 178199063746,
     21826514885, 45262733848, 4032424272, 24732310629, 25205039105,
     193510995363, 104406392439, 28841923306, 773619606, 70327177785,
     161362094543, 830653089588, 207633466019, 219063622066, 8152081149],
    [3185159467, 4052377867, 73731873019, 56190389339, 119421558063,
     50680270024, 176968037095, 1342778734, 341038125, 8507349710, 21764481271,
     49149681918, 5014630608, 236605329, 13399344519, 77692869114, 15076136159,
     83746049927, 85853390185, 3093066279],
    [10134264310, 219405186, 1700091242, 13097303019, 10559701361, 8277718004,
     24683403301, 5411155023, 87477436, 18124457625, 9739121755, 6867359589,
     1518088056, 1033796495, 50925844997, 32104717662, 256159427718,
     10127466977, 23063234749, 2782864192],
    [833873426, 177173611, 3401856182, 365655873, 2272614459, 765989264,
     16179715663, 536086438, 11330187, 603202910, 363281924, 794769759,
     621983243, 82301170, 9274716608, 3588524930, 20525651423, 6372217095,
     561594546, 190552654],
    [46600567888, 4143630273, 14981000545, 31596617371, 52401432195,
     65937783575, 91488325354, 6345996332, 994407075, 4922656123, 61998404871,
     15878422738, 9300154566, 1145934909, 11364401453, 26374469869,
     60436267927, 21747023482, 35742399803, 10258701739],
    [6276191395, 3026128071, 13684640010, 12870786356, 5366996148, 8808749826,
     208375572304, 852219569, 860319955, 2542992803, 12133458965, 6427068159,
     3648302822, 153887118, 12007666857, 6959993760, 64365910910, 9417707089,
     373872417895, 5593365879],
    [4786823781, 3790463860, 5387261907, 4131196756, 21945476313, 45723914504,
     22297295865, 3343357269, 152636658, 11478226275, 5989420118, 1225077816,
     1936752619, 60141801, 11189760435, 53273366321, 10702831731, 31321281400,
     41906561464, 8675965808],
    [1492802910, 17678572028, 14578886569, 31957010038, 34354006970,
     18439319637, 7266219250, 1035936439, 239016492, 18935097017, 19045319954,
     19173763305, 7735108913, 154367389, 9125654740, 96571852616, 59627582271,
     52363090530, 98571720163, 10837888461],
    [102010569548, 23183357470, 6883873039, 4653951375, 321157494733,
     40466721771, 689394650512, 1989742466, 593557974, 6707775581, 61040347374,
     56150696998, 17157818580, 262795841, 47995781537, 179129083776,
     84331757607, 30446651256, 337520432891, 11785713135],
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

    @pytest.mark.parametrize("scale", [1.0, 1e9], ids=["unit", "dollars"])
    @pytest.mark.parametrize("epsilon", [1e-2, 1e-6, 0.0])
    def test_stage_jacobian_matches_central_differences(self, rng, epsilon, scale):
        C = rng.uniform(0.1, 1.0, (5, 7)) * scale
        B = rng.uniform(0.1, 1.0, (5, 7)) * scale
        G = _stage_map(C, B, B.sum(axis=1), epsilon)
        p = rng.dirichlet(np.ones(5))
        h = 1e-6
        numeric = np.column_stack([(G(p + h * e) - G(p - h * e)) / (2 * h)
                                   for e in np.eye(5)])
        error = np.abs(G.jacobian(p) - numeric).max() / np.abs(numeric).max()
        assert error <= 1e-6

    @pytest.mark.parametrize("cap, extrapolate", [
        pytest.param(6, True, id="6"),
        pytest.param(11, True, id="11"),
        pytest.param(16, True, id="16"),
        pytest.param(40, False, id="40-without-jumps"),
    ])
    def test_stage_iterates_the_plain_map(self, rng, cap, extrapolate):
        # The first Newton jump is tried after the 16th map evaluation, so up
        # to then a stage is the orbit G(G(...G(p0))), bit for bit; without
        # jumps it stays so.
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

    @pytest.mark.parametrize("jacobian", [
        pytest.param(lambda p: np.eye(p.shape[0]), id="singular"),
        pytest.param(lambda p: np.full((p.shape[0],) * 2, np.nan), id="nan"),
    ])
    def test_unusable_jacobian_leaves_the_plain_orbit(self, rng, jacobian):
        # I - J singular, or a NaN step, rejects every jump before the map
        # is evaluated at it, silently: the stage is the plain orbit. With
        # the true Jacobian a jump is taken and the stage leaves the orbit.
        C = rng.uniform(1e6, 1e9, (5, 7))
        B = rng.uniform(1e6, 1e9, (5, 7))
        G = _stage_map(C, B, B.sum(axis=1), 1e-2)
        p0 = np.full(5, 0.2)
        orbit = [p0]
        for _ in range(39):
            orbit.append(G(orbit[-1]))
        assert not np.array_equal(_run_stage(G, p0, 0.0, 40)[0], orbit[-1])
        G.jacobian = jacobian
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p, evals, stage_exit = _run_stage(G, p0, 0.0, 40)
        np.testing.assert_array_equal(p, orbit[-1])
        assert (evals, stage_exit) == (40, "cap")

    def test_slowly_turning_orbit_finishes_by_jumps(self, monkeypatch):
        # Without jumps the orbit turns slowly near each stage's fixed point;
        # Newton jumps finish every stage, with no root finding, in 611 map
        # evaluations.
        calls = []
        monkeypatch.setattr(equilibrium_solver, "_newton_stage",
                            lambda *args: calls.append(args))
        solution = solve_fixed_point(TURNING_C, TURNING_B)
        assert solution.clearing_set == (0, 1, 2, 4, 5)
        assert solution.iterations <= 1000
        assert calls == []

    def test_creeping_stage_finishes_by_jumps(self):
        solution = solve_fixed_point(CREEPING_C, CREEPING_B)
        assert solution.clearing_set == (1, 3, 4, 7, 9, 10, 12)
        assert solution.iterations <= 2000

    def test_price_left_near_zero_by_a_jump_is_recovered(self):
        solution = solve_fixed_point(DIPPING_C, DIPPING_B)
        assert solution.clearing_set == (0, 1, 2, 4)
        assert solution.p0.p[0] > 0.02

    def test_drifting_stage_goes_on_from_its_last_point(self):
        # Solved by the run with jumps in 3,617 map evaluations.
        solution = solve_fixed_point(DRIFTING_C, DRIFTING_B)
        assert solution.clearing_set == (1, 3, 4, 5)

    def test_failed_solve_is_repeated_without_jumps(self, monkeypatch):
        # The retry's eighth stage does not halve its residual in
        # STALL_EVALUATIONS and hands over to root finding, which solves it.
        found = []
        real = equilibrium_solver._newton_stage

        def recorded(*args):
            q, used = real(*args)
            found.append(q is not None)
            return q, used

        monkeypatch.setattr(equilibrium_solver, "_newton_stage", recorded)
        psi = STALLING_B.sum(axis=1)
        with pytest.raises(NonConvergenceError, match="at good 1 "):
            _solve(STALLING_C, STALLING_B, psi, DEFAULT_TOL, DEFAULT_TOL_INNER, True, 0)
        assert found == []
        solution = solve_fixed_point(STALLING_C, STALLING_B)
        assert solution.clearing_set == (0, 1, 2, 3, 4, 5)
        assert found == [True]

    def test_map_evaluation_count(self, rng):
        # Ten fixed random economies take 2,179 map evaluations in all.
        total = sum(solve_fixed_point(*random_economy(rng)).iterations
                    for _ in range(10))
        assert total <= 2700

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
