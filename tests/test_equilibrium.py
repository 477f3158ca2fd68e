import warnings
from types import SimpleNamespace

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
    degeneracy_report,
    evaluate_solution,
    excess_demand,
    exists_ideal,
    is_equilibrium,
    price_from_D,
    solve_fixed_point,
)
from tradequil import cone_geometry, consistency, equilibrium_solver
from tradequil._numerics import DEFAULT_TOL, DEFAULT_TOL_INNER
from tradequil.equilibrium_solver import (
    FINISH_STEPS,
    JUMP_COLLAPSE,
    JUMP_TO_BOUNDARY,
    MAX_INNER_ITERATIONS,
    _newton_jump,
    _residual,
    _run_stage,
    _stage_map,
)

SWAP_C = np.array([[2.0, 1.0], [1.0, 2.0]])
SWAP_B = np.array([[1.0, 2.0], [2.0, 1.0]])

# Four 6-good, 9-country cuts of G20-shaped trade flows, in dollars.
# TURNING: near each stage's fixed point the orbit turns slowly, so the
# residual keeps reaching new lows, about 18,000 steps a stage; Newton jumps
# end the first stage in 100 evaluations, and the finish takes 7 more.
# DIPPING: a vector-Aitken jump once landed good 1's price at 2e-7 while the
# good was in excess demand; the run with Newton jumps clears in 57
# evaluations with good 1 at 0.021.
# DRIFTING: with Aitken jumps, the seventh stage's orbit rose more than
# tenfold above its lowest residual and had to go on from where it was.
# STALLING: with Newton jumps refused whenever a price would turn negative,
# the run with jumps ended violating the inequalities at good 1, and the
# retry without jumps needed a root-finding fallback; jumps cut back to the price
# boundary solve it in 1,937 evaluations.
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



# A 14-good, 20-country G20-shaped economy, in dollars: the run with jumps
# ends with good 12's price at 2e-10 while the good is in excess demand, a
# violation of 0.06 % of its supply. Without jumps the third stage's point
# finishes to an equilibrium.
SINKING_C = np.array([
    [6606652672, 6584788756, 366820522741, 47474734464, 41308091365,
     9835038525, 16850329408, 79460404121, 376434833297, 20497223586,
     47727309477, 18968895936, 36710944454, 6231679559, 23386822227,
     28638010893, 3680807109, 18523742042, 15348707597, 8658547703],
    [5449940385, 35668151205, 71967533858, 12735039136, 245631241090,
     6871260356, 16942369921, 549624844084, 305184958509, 6876933790,
     41961919261, 11490883180, 29754916129, 3540645952, 18402718284,
     69068295867, 9510482297, 26228633379, 61522762522, 15033662401],
    [35406823914, 6911279348, 331687117907, 25261243835, 296929233336,
     2534095956, 7738793432, 149460723243, 120401815076, 7960321238,
     107507096416, 74245533797, 43688303965, 7047924223, 35933940544,
     74395855571, 21391823876, 13537595542, 42660521447, 15279647564],
    [3931096133, 18411048693, 64826530884, 13719403903, 111760731958,
     2696897685, 349676268, 12919532031, 87849796856, 597552157, 19342934408,
     22320068752, 43895960645, 476764699, 5473352198, 28344043173, 5938350575,
     8379504071, 1934951047, 14609813493],
    [7101936316, 1402250233, 349614791477, 13533223139, 18135173945,
     1148403284, 1584382641, 7617380817, 3548958710, 1710220353, 30341051121,
     7739246346, 7458573592, 1917047672, 8064649618, 9618067728, 1507168005,
     2812109092, 9160684671, 1612604232],
    [6359045234, 12768651497, 514003465877, 21822782340, 165425204361,
     6303110725, 4716805584, 55348042228, 60671084866, 5762743357, 88651877771,
     3649956221, 37223830566, 2789295242, 25057765838, 49196910836, 1506248839,
     10385228690, 22036773794, 159723802701],
    [5314860473, 2555775341, 60254444240, 8840457879, 157309758395, 1829765030,
     2895736723, 93398937879, 21196500811, 3453465468, 40871745868,
     18538324942, 11452294425, 1263125863, 6819452139, 13842740055, 3433394993,
     1749079195, 6850693935, 7019776345],
    [2159243446, 133732392, 9271577479, 6618751207, 14364589961, 232540411,
     476800271, 13552147441, 2773134114, 687107153, 2738243581, 4041774095,
     4347481563, 174739016, 3031828965, 2295870068, 227770835, 260208843,
     585466338, 745080407],
    [3862583623, 1092474534, 40904818283, 4622359295, 74444964732, 4328221853,
     4617624852, 64332477160, 25201508554, 4863361570, 78498524051,
     12257093603, 78799298905, 1868182970, 20300284518, 16294006539,
     1957403359, 3835204716, 22260327290, 21100044682],
    [6643767073, 4909307971, 587629348967, 8243565814, 47255102426, 4211458605,
     2331849469, 112303936501, 14888446557, 6984798790, 19515960409,
     8196351824, 20015064280, 3349655216, 23431560762, 7586232133, 3100702156,
     5353129886, 30965719304, 31042867254],
    [1822887219, 11274777251, 113936060678, 20603655837, 141888293194,
     928814863, 1305996793, 9869062412, 57649993977, 3215179001, 43811142032,
     6772150102, 13864507576, 1754390499, 8136817090, 5474116639, 989231841,
     2665709616, 6263429475, 23808993419],
    [19794631724, 10148012677, 583481413261, 27130083452, 331772740564,
     6214731640, 8760257198, 53529139055, 43981119788, 7866991658, 19861954167,
     19683712536, 36488648920, 11315398137, 8048990921, 25256873417,
     3032143013, 12263615917, 13900693478, 49336695808],
    [5524502069, 3085166078, 322620657497, 30244555301, 224092013511,
     11322896349, 1776340875, 79559872928, 88343579247, 12235717103,
     37014749223, 10304332694, 35436943893, 5496966465, 5961014329,
     10104301283, 5674863314, 26067062832, 42934214280, 4580129234],
    [45351238094, 9588753157, 439192921128, 31127327659, 297217313061,
     4337772368, 13174927131, 43213014498, 289333361439, 19617566406,
     37114924088, 34151598959, 55734275508, 1330417077, 59514407310,
     51237503721, 11622763149, 14214968427, 22220259465, 18288101311],
], dtype=float)
SINKING_B = np.array([
    [7103036610, 22011699974, 349915899375, 13627676998, 253202042529,
     5050444039, 4059124577, 49531457452, 30364078398, 19566004631, 8306330792,
     101938673694, 95180866772, 3240141569, 54004662474, 10868203110,
     837956447, 11494362269, 137499582431, 1945841791],
    [14278165426, 6320601941, 535878347412, 20632510841, 96588292328,
     11712286297, 6103437626, 72183543035, 152361462617, 79770015036,
     10481343265, 14547667041, 433842576337, 5585618027, 20691513859,
     14938265194, 2588779525, 21281444399, 4007175125, 19674146275],
    [9037668148, 3101332198, 458959307151, 22530943354, 502714318424,
     4207909463, 3163483847, 81849635742, 159789935548, 4872571818,
     74728871269, 7707193778, 10858495404, 2441698337, 20736519707,
     27200141699, 661915819, 15984549040, 5631911688, 3801287796],
    [2032473265, 1894711474, 62778202004, 69050258137, 84638381848, 482820985,
     1249046379, 68284207499, 15093897021, 6297999246, 19333520081, 1672205297,
     7160349287, 110467931, 4815851771, 7921843138, 2843014007, 1999487389,
     105246066702, 4873206168],
    [5026666399, 3845755977, 7692578807, 12035843082, 158429139882, 7560126294,
     168666834, 98087572475, 38429875536, 1862507839, 42866534315, 2606058153,
     7677322573, 3401552841, 10165350148, 1538070610, 1623259066, 2482981780,
     12517945545, 67610114836],
    [5091787413, 4148808787, 153475179396, 21866321444, 295928544452,
     10027586453, 9888428182, 73760939615, 270566943232, 61475344113,
     124704511714, 17482523501, 21284139036, 4049129795, 76279102668,
     25956582147, 3105318274, 5003565158, 30953555183, 38354316004],
    [10897662002, 794197433, 104609916888, 134847619894, 39394885511,
     1019213033, 2171629667, 37724429168, 3903575824, 4739207286, 21032067744,
     12263186350, 55987256539, 1993478830, 2426424279, 9705984608, 915212937,
     3404297797, 4909024158, 16151060051],
    [3894788519, 490045280, 6738895200, 2134627763, 10889473790, 516502812,
     520394847, 15676813084, 725959588, 156053794, 10256790751, 2321143103,
     5432097664, 1219658981, 2334862755, 1245505205, 1011880700, 786309276,
     1187152734, 1179131740],
    [94067725681, 2103857214, 61208353082, 21900391299, 35565743238,
     1160345358, 4782341572, 61349838393, 60361262457, 2544423536, 14219298774,
     19343938579, 2903452087, 1048393635, 29102581431, 46208321114, 787912882,
     5050684415, 10852688035, 10879212307],
    [13732753725, 3590386516, 55381316154, 2758426537, 399643327805,
     4688800430, 4317339211, 47350829957, 107873621886, 12451948394,
     36020211226, 14129228502, 81875112659, 12445154430, 26624109323,
     99212733375, 3806555110, 5050046224, 8650471276, 8356452657],
    [1802861252, 3042710744, 185441244577, 9540629565, 132836653699, 200559862,
     6642522857, 20850555226, 54515573080, 343782113, 11874772333, 9077210588,
     4384374964, 783454430, 3019456491, 18692688189, 2182810881, 3280994746,
     4034952399, 3487401518],
    [18897917308, 11055337515, 116818229392, 8349294441, 370444915254,
     1525731585, 2503435931, 36442270339, 323656808366, 12943527008,
     18964741849, 15595663356, 20337962317, 21036925603, 60681537267,
     62758320777, 24207307391, 28549112722, 97703672535, 39395136375],
    [3981013412, 9038696058, 64688522409, 20657489809, 137429245937,
     19500202824, 7202566082, 115143023065, 67967507797, 5764366255,
     21710630535, 129791828437, 42915912095, 13378406659, 210349918249,
     62687109850, 7294357196, 3335928720, 11296024150, 8247128966],
    [14171434282, 3167550402, 135086156495, 9088824144, 290388257694,
     5301523703, 9610651524, 178757121501, 159135121147, 10293754444,
     185005405077, 2845764824, 3819390723, 9671699214, 320495218889,
     17318531357, 12160237612, 15379915653, 95633946498, 20252908773],
], dtype=float)


# A 6-good, 9-country cut of G20-shaped trade flows, in dollars (benchmark
# structure seed 505, panel 3, 2019). Four prices fall toward zero; run
# through every stage, the last one stalled at residual 2.9e-8. The first
# stage's point finishes by plain Newton steps on the last stage's map.
FADING_C = np.array([
    [4301389685, 47644522168, 4358293775, 3860935927, 2075051986,
     10717557657, 4974177730, 6664239923, 1450609761],
    [4220143321, 969960994, 301041023, 4609388831, 158556813,
     791268590, 531648392, 1740974411, 869017899],
    [1172003840, 512383999, 403108580, 590506522, 225889778,
     2123519754, 674489418, 4191934519, 386905895],
    [990433999, 1603607852, 291731416, 590606085, 94462182,
     1030715809, 594822236, 2853436054, 206768478],
    [28567919144, 19096762394, 4240813717, 41660025818, 3583474042,
     18254606744, 2993884326, 5360409574, 8629699040],
    [51029641862, 21586058224, 5250791545, 86997064629, 1410497920,
     32811838400, 11937142930, 39121101573, 4979212199],
], dtype=float)
FADING_B = np.array([
    [67383958621, 4409947027, 497195511, 1267730207, 748014704,
     5513693862, 4328759512, 1380718307, 516760861],
    [535848038, 6715752334, 218523459, 53269615, 1562649123,
     2117176461, 1304517727, 823329994, 860933523],
    [231552339, 6412242978, 245339134, 307505571, 63363219,
     1079514316, 166570365, 588217969, 1186436414],
    [2247646678, 1259504311, 681865257, 612575958, 299467550,
     2138343599, 222288280, 527491298, 267401180],
    [8603654611, 18276949422, 6447711270, 11919081080, 8438815888,
     2586091671, 8964542787, 14696972720, 52453775350],
    [14604499537, 158001084208, 3583349317, 9048138411, 5968464977,
     14004240970, 12693416801, 32708557712, 4511597349],
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


class TestEvaluateSolution:
    # One agent, priced on good 3 alone: demand weight 2, so goods 1 and 2
    # are in excess demand by 1 and 5, which are 100 % and 33 % of their
    # supplies; good 3 clears.
    C = np.array([[1.0], [10.0], [1.0]])
    B = np.array([[1.0], [15.0], [2.0]])
    p = np.array([0.0, 0.0, 1.0])

    @pytest.mark.parametrize("tol, named", [(DEFAULT_TOL, "1e-06"), (1e-3, "0.001")])
    def test_violation_names_the_tolerance_and_the_largest_share(self, tol, named):
        with pytest.raises(PreconditionError) as err:
            evaluate_solution(self.C, self.B, self.p, tol=tol)
        assert str(err.value) == (
            f"price vector violates the equilibrium inequalities at tol={named}: good 1 "
            "(1-based) has the largest excess demand, 1 of its aggregate supply")
        assert err.value.condition == "is_equilibrium"

    def test_solution_records_the_tolerance(self):
        solution = evaluate_solution(self.C, self.B, self.p, tol=5.0)
        assert solution.tol == 5.0 and solution.clearing_set == (0, 1, 2)
        assert (solution.iterations, solution.residual) == (0, 0.0)
        # At an infinite tolerance every good clears, but no solution records it.
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            evaluate_solution(self.C, self.B, self.p, tol=np.inf)


@pytest.mark.parametrize("call", [
    is_equilibrium, excess_demand, check_ideal, evaluate_solution,
    lambda C, B, p: degeneracy_report(evaluate_solution(SWAP_C, SWAP_B, p), C, B),
], ids=["is_equilibrium", "excess_demand", "check_ideal", "evaluate_solution",
        "degeneracy_report"])
def test_shapes_are_checked_before_any_arithmetic(call):
    uniform = np.array([0.5, 0.5])
    with pytest.raises(ValueError, match=r"^C shape \(2, 3\) != B shape \(2, 2\)$"):
        call(np.ones((2, 3)), np.ones((2, 2)), uniform)
    with pytest.raises(ValueError, match=r"^p has length 2, expected 3 goods .* \(3, 3\)$"):
        call(np.ones((3, 3)), np.ones((3, 3)), uniform)


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

    def test_fixed_point_residual_below_inner_tolerance(self, monkeypatch):
        monkeypatch.setattr(equilibrium_solver, "DEFAULT_TOL_INNER", 1e-11)
        solution = solve_fixed_point(SWAP_C, SWAP_B)
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

    def test_unreachable_tolerance_reports_nonconvergence(self, monkeypatch):
        # No point satisfies a 1e-30 fixed-point residual in floats, so the
        # solver must surface a non-convergence report, not a wrong answer.
        monkeypatch.setattr(equilibrium_solver, "DEFAULT_TOL_INNER", 1e-30)
        C = np.array([[1.0], [1.0]])
        B = np.array([[2.0], [1.0]])
        with pytest.raises(NonConvergenceError) as err:
            solve_fixed_point(C, B)
        assert err.value.residual is not None
        assert err.value.epsilon is not None

    def test_stall_exit_is_reported_as_a_stall(self, monkeypatch):
        # The 1e-30 residual is out of reach, so the residual stops
        # halving and the stage leaves through its stall exit long before
        # the evaluation cap; the error must say so, not blame the cap.
        monkeypatch.setattr(equilibrium_solver, "DEFAULT_TOL_INNER", 1e-30)
        C = np.array([[1.0], [1.0]])
        B = np.array([[2.0], [1.0]])
        with pytest.raises(NonConvergenceError,
                           match=r"stalled after \d+ map evaluations") as err:
            solve_fixed_point(C, B)
        assert "cap" not in str(err.value)
        assert err.value.iterations < MAX_INNER_ITERATIONS

    def test_cap_exit_is_reported_as_the_cap(self, monkeypatch):
        monkeypatch.setattr(equilibrium_solver, "MAX_INNER_ITERATIONS", 50)
        monkeypatch.setattr(equilibrium_solver, "DEFAULT_TOL_INNER", 1e-30)
        C = np.array([[1.0], [1.0]])
        B = np.array([[2.0], [1.0]])
        with pytest.raises(NonConvergenceError,
                           match=r"hit the 50-evaluation cap after \d+ map evaluations"):
            solve_fixed_point(C, B)

    def test_first_stage_point_is_finished_by_newton_steps(self, monkeypatch):
        # The run with jumps solves FADING in 113 map evaluations: the first
        # stage converges in 99, and plain Newton steps on the last stage's
        # map finish its point in 14. Good 3 to 6 are priced near zero,
        # outside the clearing set.
        finishes = []
        real = equilibrium_solver._newton_finish

        def recorded(G, p, tol):
            q, used = real(G, p, tol)
            finishes.append((_residual(G, p), q is not None, used))
            return q, used

        monkeypatch.setattr(equilibrium_solver, "_newton_finish", recorded)
        path = self.record_path(monkeypatch)
        solution = solve_fixed_point(FADING_C, FADING_B)
        assert path == [(True, "converged"), True]
        assert solution.clearing_set == (0, 1)
        assert solution.residual <= DEFAULT_TOL_INNER
        assert solution.iterations <= 160
        [(start, finished, used)] = finishes
        assert start > 100 * DEFAULT_TOL_INNER and finished
        assert used <= FINISH_STEPS + 1

    def test_newton_finish_stops_after_finish_steps(self):
        # Steps that never meet the tolerance (no residual is below -1) end
        # after FINISH_STEPS, each counted as a map evaluation with the one
        # at the start.
        C = np.array([[1.0], [1.0]])
        B = np.array([[2.0], [1.0]])
        G = _stage_map(C, B, B.sum(axis=1), 1e-6)
        p = np.array([0.4, 0.6])
        assert equilibrium_solver._newton_finish(G, p, -1.0) == (None, FINISH_STEPS + 1)

    @pytest.mark.parametrize("epsilon", [1e-2, 1e-5, 0.0])
    def test_stage_map_is_the_written_out_map(self, rng, epsilon):
        # Bit for bit: the solver's products are the ones written out.
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

    def test_jump_is_cut_back_to_the_price_boundary(self):
        # With J = 0.75 I the step is 4 d, which would take good 0's price
        # from 0.2 to -0.2. The step is shortened so that good 0 falls by 90 %,
        # to 10 % of its old price; good 3 does not move, so the ratio shows it
        # through the renormalization.
        G = SimpleNamespace(jacobian=lambda p: np.eye(p.shape[0]) * 0.75)
        p = np.full(5, 0.2)
        d = np.array([-0.1, 0.05, 0.05, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            jumped = _newton_jump(G, p, d)
            assert np.all(jumped > 0)
            assert jumped[0] / jumped[3] == pytest.approx(1 - JUMP_TO_BOUNDARY, rel=1e-12)
            np.testing.assert_allclose(jumped, [0.02, 0.29, 0.29, 0.2, 0.2], rtol=1e-12)
            # A zero price that would fall leaves no step length: refused.
            assert _newton_jump(G, np.array([0.0, 0.25, 0.25, 0.25, 0.25]), d) is None

    def test_jump_collapsing_a_price_in_excess_demand_is_refused(self, rng):
        # The patched Jacobian gives the Newton step with good 0's component
        # set to cut its price by 80 %. That jump shrinks the residual enough
        # to be kept, but good 0 is in excess demand at the new point, so it
        # is refused and the stage is the plain orbit. With the true
        # Jacobian the jump is taken.
        C = rng.uniform(1e6, 1e9, (5, 7))
        B = rng.uniform(1e6, 1e9, (5, 7))
        G = _stage_map(C, B, B.sum(axis=1), 1e-2)
        newton = G.jacobian

        def collapsing(q):
            d = G(q) - q
            step = np.linalg.solve(np.eye(5) - newton(q), d)
            step[0] = -0.8 * q[0]
            return np.eye(5) - np.diag(d / step)

        p0 = np.full(5, 0.2)
        orbit = [p0]
        for _ in range(31):
            orbit.append(G(orbit[-1]))
        # One jump is tried in 33 evaluations, from the 16th point.
        assert not np.array_equal(_run_stage(G, p0, 0.0, 33)[0], orbit[-1])
        G.jacobian = collapsing
        p = orbit[15]
        d = G(p) - p
        cand = _newton_jump(G, p, d)
        g_cand = G(cand)
        assert np.abs(g_cand - cand).max() < 0.9 * np.abs(d).max()
        assert cand[0] < JUMP_COLLAPSE * p[0] and g_cand[0] > cand[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p, evals, stage_exit = _run_stage(G, p0, 0.0, 33)
        np.testing.assert_array_equal(p, orbit[-1])
        assert (evals, stage_exit) == (33, "cap")

    @staticmethod
    def record_path(monkeypatch):
        """Record every stage as (extrapolate, exit) and every finish as
        whether it reached the tolerance."""
        path = []
        run_stage, newton_finish = equilibrium_solver._run_stage, equilibrium_solver._newton_finish

        def stage(G, p, tol_stage, cap, extrapolate):
            p, used, stage_exit = run_stage(G, p, tol_stage, cap, extrapolate)
            path.append((extrapolate, stage_exit))
            return p, used, stage_exit

        def finish(G, p, tol):
            q, used = newton_finish(G, p, tol)
            path.append(q is not None)
            return q, used

        monkeypatch.setattr(equilibrium_solver, "_run_stage", stage)
        monkeypatch.setattr(equilibrium_solver, "_newton_finish", finish)
        return path

    @staticmethod
    def record_rejections(monkeypatch):
        """Record the message of every finished point that ``_accept`` refuses."""
        rejected = []
        accept = equilibrium_solver._accept

        def recorded(*args):
            try:
                return accept(*args)
            except NonConvergenceError as err:
                rejected.append(str(err))
                raise

        monkeypatch.setattr(equilibrium_solver, "_accept", recorded)
        return rejected

    def test_slowly_turning_orbit_finishes_by_jumps(self, monkeypatch):
        # Without jumps the orbit turns slowly near each stage's fixed point.
        # Newton jumps end the first stage in 100 map evaluations, and the
        # Newton finish from its point is accepted after 7 more.
        path = self.record_path(monkeypatch)
        solution = solve_fixed_point(TURNING_C, TURNING_B)
        assert solution.clearing_set == (0, 1, 2, 4, 5)
        assert solution.iterations <= 150
        assert path == [(True, "converged"), True]

    def test_creeping_stage_finishes_by_jumps(self):
        # 145 map evaluations.
        solution = solve_fixed_point(CREEPING_C, CREEPING_B)
        assert solution.clearing_set == (1, 3, 4, 7, 9, 10, 12)
        assert solution.iterations <= 200

    def test_price_left_near_zero_by_a_jump_is_recovered(self):
        # 57 map evaluations.
        solution = solve_fixed_point(DIPPING_C, DIPPING_B)
        assert solution.clearing_set == (0, 1, 2, 4)
        assert solution.p0.p[0] > 0.02
        assert solution.iterations <= 80

    def test_drifting_stage_goes_on_from_its_last_point(self):
        # Solved by the run with jumps in 1,471 map evaluations.
        solution = solve_fixed_point(DRIFTING_C, DRIFTING_B)
        assert solution.clearing_set == (1, 3, 4, 5)
        assert solution.iterations <= 2000

    def test_stalling_case_finishes_by_jumps(self, monkeypatch):
        # 1,937 map evaluations in the run with jumps. The first six stages
        # converge and each stage's point finishes, but the finished points
        # of the first five violate the inequalities at good 1; the sixth's
        # is the equilibrium.
        path = self.record_path(monkeypatch)
        rejected = self.record_rejections(monkeypatch)
        solution = solve_fixed_point(STALLING_C, STALLING_B)
        assert solution.clearing_set == (0, 1, 2, 3, 4, 5)
        assert solution.iterations <= 2500
        assert path == [(True, "converged"), True] * 6
        assert len(rejected) == 5
        assert all("violates the equilibrium inequalities" in message
                   and "at good 1 " in message for message in rejected)

    def test_failed_solve_is_repeated_without_jumps(self, monkeypatch):
        # The run with jumps converges in every stage, and every stage's
        # point finishes, but each finished point violates the inequalities;
        # the last one at good 12. The retry without jumps stops after its
        # third stage, whose finished point is the equilibrium (5,998 map
        # evaluations in all).
        path = self.record_path(monkeypatch)
        rejected = self.record_rejections(monkeypatch)
        solution = solve_fixed_point(SINKING_C, SINKING_B)
        assert solution.clearing_set == (2, 4, 5, 6, 7, 8, 10, 11, 12, 13)
        assert solution.iterations <= 7500
        assert path == [(True, "converged"), True] * 13 + [(False, "converged"), True] * 3
        assert len(rejected) == 15
        assert "violates the equilibrium inequalities" in rejected[12]
        assert "at good 12 " in rejected[12]

    @pytest.mark.parametrize("failing, reason", [
        ("inequalities", "violates the equilibrium inequalities"),
        ("walras", "aggregate cost identity violated"),
    ])
    def test_finished_point_must_pass_every_check(self, monkeypatch, failing, reason):
        # TURNING stops after its first stage. Here the finish after that
        # stage hands back a point that fails one check: the uniform price,
        # which violates the inequalities, or the true finished point with
        # demand weights off by 1e-7, which only the Walras identity sees.
        # The solve must refuse it and stop at a later stage at a verified
        # point with the same clearing set.
        newton_finish = equilibrium_solver._newton_finish
        weights = equilibrium_solver.demand_weights
        finished = []

        def finish(G, p, tol):
            q, used = newton_finish(G, p, tol)
            if not finished and failing == "inequalities":
                q = np.full_like(p, 1.0 / p.size)
            finished.append(q)
            return q, used

        def doctored(C, B, p):
            y = weights(C, B, p)
            bad = failing == "walras" and finished and np.array_equal(p, finished[0])
            return y * (1 + 1e-7) if bad else y

        monkeypatch.setattr(equilibrium_solver, "_newton_finish", finish)
        monkeypatch.setattr(equilibrium_solver, "demand_weights", doctored)
        rejected = self.record_rejections(monkeypatch)
        solution = solve_fixed_point(TURNING_C, TURNING_B)
        assert len(rejected) == 1 and reason in rejected[0]
        assert len(finished) >= 2
        assert not np.array_equal(solution.p0.p, finished[0])
        assert solution.clearing_set == (0, 1, 2, 4, 5)
        monkeypatch.undo()
        check = is_equilibrium(TURNING_C, TURNING_B, solution.p0.p)
        assert check.ok and check.clearing_set == (0, 1, 2, 4, 5)

    def test_map_evaluation_count(self, rng):
        # Ten fixed random economies take 344 map evaluations in all.
        total = sum(solve_fixed_point(*random_economy(rng)).iterations
                    for _ in range(10))
        assert total <= 450

    @pytest.mark.parametrize("name", ["tol"])
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

    def test_from_dict_reads_the_tolerance(self):
        payload = solve_fixed_point(SWAP_C, SWAP_B, tol=1e-3).to_dict()
        assert EquilibriumSolution.from_dict(payload).tol == 1e-3
        # Schema 1 recorded the last stage's weight, not the tolerance.
        old = {**payload, "schema_version": 1, "epsilon": 5.96e-10}
        del old["tol"]
        assert EquilibriumSolution.from_dict(old).tol == DEFAULT_TOL
        with pytest.raises(KeyError):
            EquilibriumSolution.from_dict({k: v for k, v in payload.items() if k != "tol"})
        for tol in (0.0, -1e-6, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                EquilibriumSolution.from_dict({**payload, "tol": tol})

    def test_json_round_trip_uses_one_based_clearing_set(self):
        solution = solve_fixed_point(SWAP_C, SWAP_B)
        payload = solution.to_dict()
        assert payload["I"] == [1, 2]
        assert payload["schema_version"] == 2
        assert set(payload) >= {"p0", "I", "y", "excess", "residual",
                                "iterations", "tol"}
        assert payload["tol"] == DEFAULT_TOL


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

    def test_rank_deficient_demand_admits_ideal(self):
        # The second good is twice the first: no factor of full row rank
        # exists, but a least-squares factor does, and B = C is ideal.
        C = np.array([[1.0, 2.0, 1.0], [2.0, 4.0, 2.0]])
        result = exists_ideal(C, C.copy())
        assert result.exists
        assert check_ideal(C, C, result.p0).ideal

    @pytest.mark.parametrize("B", [2.0 * np.eye(2), [[1.5, 0.5], [0.5, 1.5]]],
                             ids=["diagonal", "mixed"])
    def test_supply_outside_demand_span_admits_ideal(self, B):
        # Aggregates match and the supply columns leave span{(1, 1)}, so no
        # factor B = C @ B1 exists; yet p = (1, 1) zeroes both balances.
        C = np.ones((2, 2))
        result = exists_ideal(C, B)
        assert result.exists, result.reason
        assert result.p0[0] == pytest.approx(result.p0[1], rel=1e-12)
        assert check_ideal(C, B, result.p0).ideal
        assert result.d.sum() == pytest.approx(2.0, rel=1e-12)

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

    def test_no_balancing_price_has_no_ideal(self):
        # One good, bought 1:3 and sold 2:2: the balances are p and -p, so
        # only p = 0 zeroes them, and the price program is infeasible.
        result = exists_ideal(np.array([[1.0, 3.0]]), np.array([[2.0, 2.0]]))
        assert not result.exists
        assert result.p0 is None and result.d is None
        assert result.reason.startswith("no nonnegative prices zero every balance")

    def test_one_program_and_one_check(self, monkeypatch):
        calls = []

        def counted(name, real):
            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return call

        def forbidden(*args, **kwargs):
            raise AssertionError("exists_ideal factors, decomposes or runs NNLS")

        monkeypatch.setattr(consistency, "linprog", counted("linprog", consistency.linprog))
        monkeypatch.setattr(consistency, "check_ideal",
                            counted("check_ideal", consistency.check_ideal))
        monkeypatch.setattr(cone_geometry, "linprog", forbidden)
        monkeypatch.setattr(consistency, "nnls_solve", forbidden)
        monkeypatch.setattr(np.linalg, "lstsq", forbidden)
        monkeypatch.setattr(np.linalg, "svd", forbidden)
        assert exists_ideal(SWAP_C, SWAP_B).exists
        assert calls == ["linprog", "check_ideal"]

    def test_matches_the_eigen_route_where_it_is_exact(self, rng):
        # Independent oracle: with square full-rank C and balanced aggregates
        # the factor B1 = C^-1 B is unique with unit row sums, its eigen-space
        # is generically one-dimensional, and p = C^-T d is the only candidate
        # up to scale. d is the eigenvector of B1.T for the eigenvalue nearest
        # one, from the dense eigensolver rather than solve_D's program.
        verdicts = []
        for k in range(80):
            n = int(rng.integers(2, 6))
            C = rng.uniform(0.1, 1.0, (n, n))
            if k % 2:
                B = rng.uniform(0.0, 1.0, (n, n))
            else:  # supply through a stochastic factor: often ideal
                B1 = rng.uniform(0.0, 1.0, (n, n))
                B = C @ (B1 / B1.sum(axis=1, keepdims=True))
            B = B * (C.sum(axis=1) / B.sum(axis=1))[:, None]
            vals, vecs = np.linalg.eig(np.linalg.solve(C, B).T)
            d = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
            d *= n / d.sum()
            oracle = False
            if np.all(d > 0):
                recovery = price_from_D(C, d)
                oracle = bool(recovery) and check_ideal(C, B, recovery.p0).ideal
            result = exists_ideal(C, B)
            assert result.exists == oracle, (k, result.reason)
            if oracle:
                np.testing.assert_allclose(result.d, d, rtol=1e-6)
            verdicts.append(oracle)
        assert 10 <= sum(verdicts) <= 70

    def test_verdict_does_not_depend_on_the_currency_unit(self, rng):
        seen = set()
        for k in range(30):
            if k % 3:
                C, B = random_economy(rng, n_max=4, l_max=5)
                B = B * (C.sum(axis=1) / B.sum(axis=1))[:, None]
            else:
                C, d, F1 = random_ideal_triple(rng, n_max=4, l_max=5)
                B = construct_ideal_supply(C, d, F1)
            verdict = exists_ideal(C, B)
            seen.add(verdict.exists)
            for scale in (1e-9, 1e-6, 1e-3, 1e3, 1e6, 1e9, 1e12):
                scaled = exists_ideal(scale * C, scale * B)
                assert scaled.exists == verdict.exists, (k, scale, scaled.reason)
                if verdict.exists:
                    np.testing.assert_allclose(scaled.d, verdict.d, rtol=1e-6)
        assert seen == {True, False}

    def test_random_ideal_triples(self, rng):
        for _ in range(10):
            C, d, F1 = random_ideal_triple(rng)
            B = construct_ideal_supply(C, d, F1)
            result = exists_ideal(C, B)
            assert result.exists
            assert check_ideal(C, B, result.p0).ideal
