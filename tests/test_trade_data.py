import csv
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tradequil import (
    CostMatrices,
    EmptyMatrixError,
    InvalidFlowError,
    SchemaError,
    TradeFlowTensor,
    build_cost_matrices,
    read_flows_csv,
    shares,
    trade_data,
)
from tradequil.trade_data import BLOCK_LINES


def tensor(countries, goods, flow):
    return TradeFlowTensor(countries=countries, goods=goods, flow=np.asarray(flow, float))


class TestBuildCostMatrices:
    def test_two_country_single_good_bookkeeping(self):
        flow = np.zeros((2, 2, 1))
        flow[0, 1, 0] = 3.0  # country 1 exports 3 to country 2
        flow[1, 0, 0] = 5.0
        cm = build_cost_matrices(tensor(("a", "b"), ("g",), flow))
        assert cm.C.tolist() == [[5.0, 3.0]]
        assert cm.B.tolist() == [[3.0, 5.0]]
        assert cm.balances.tolist() == [-2.0, 2.0]
        assert cm.balances.sum() == 0.0
        assert cm.psi.tolist() == [8.0]
        assert cm.incomes.tolist() == [3.0, 5.0]

    def test_all_zero_flows(self):
        cm = build_cost_matrices(tensor(("a", "b"), ("g", "h"), np.zeros((2, 2, 2))))
        assert not cm.C.any()
        assert not cm.B.any()
        assert not cm.psi.any()
        assert not cm.balances.any()

    def test_every_flow_counted_once_each_side(self, rng):
        # Oracle: loop over all cells and accumulate both roles by hand.
        flow = rng.integers(0, 50, size=(4, 4, 3)).astype(float)
        flow[np.arange(4), np.arange(4), :] = 0.0
        cm = build_cost_matrices(tensor(tuple("abcd"), tuple("xyz"), flow))
        C_expect = np.zeros((3, 4))
        B_expect = np.zeros((3, 4))
        for k in range(4):
            for j in range(4):
                for s in range(3):
                    B_expect[s, k] += flow[k, j, s]
                    C_expect[s, j] += flow[k, j, s]
        np.testing.assert_array_equal(cm.C, C_expect)
        np.testing.assert_array_equal(cm.B, B_expect)
        assert cm.balances.sum() == 0.0
        np.testing.assert_array_equal(cm.C.sum(axis=1), cm.B.sum(axis=1))

    def test_rejects_negative_entry_with_index(self):
        flow = np.zeros((2, 2, 1))
        flow[0, 1, 0] = -1.0
        with pytest.raises(InvalidFlowError) as err:
            tensor(("a", "b"), ("g",), flow)
        assert err.value.index == (0, 1, 0)

    def test_rejects_non_finite(self):
        flow = np.zeros((2, 2, 1))
        flow[1, 0, 0] = np.nan
        with pytest.raises(InvalidFlowError):
            tensor(("a", "b"), ("g",), flow)

    def test_rejects_self_flow(self):
        flow = np.zeros((2, 2, 1))
        flow[1, 1, 0] = 2.0
        with pytest.raises(InvalidFlowError) as err:
            tensor(("a", "b"), ("g",), flow)
        assert err.value.index == (1, 1, 0)

    def test_rejects_single_country(self):
        with pytest.raises(InvalidFlowError):
            tensor(("a",), ("g",), np.zeros((1, 1, 1)))


@st.composite
def integer_tensors(draw):
    m = draw(st.integers(2, 5))
    n = draw(st.integers(1, 3))
    cells = draw(
        st.lists(
            st.tuples(
                st.integers(0, m - 1),
                st.integers(0, m - 1),
                st.integers(0, n - 1),
                st.integers(0, 999),
            ),
            max_size=20,
        )
    )
    flow = np.zeros((m, m, n))
    for k, j, s, value in cells:
        if k != j:
            flow[k, j, s] += value
    return flow


class TestDataProperties:
    @given(integer_tensors())
    @settings(max_examples=60, deadline=None)
    def test_balance_and_supply_identities(self, flow):
        m, _, n = flow.shape
        cm = build_cost_matrices(
            tensor(tuple(f"c{i}" for i in range(m)), tuple(f"g{s}" for s in range(n)), flow)
        )
        assert cm.balances.sum() == 0.0  # integer-valued data sums exactly
        np.testing.assert_array_equal(cm.C.sum(axis=1), cm.psi)
        np.testing.assert_array_equal(cm.B.sum(axis=1), cm.psi)

    @given(integer_tensors(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_permutation_equivariance(self, flow, rand):
        m, _, n = flow.shape
        names = tuple(f"c{i}" for i in range(m))
        goods = tuple(f"g{s}" for s in range(n))
        perm = list(range(m))
        rand.shuffle(perm)
        cm = build_cost_matrices(tensor(names, goods, flow))
        permuted = flow[np.ix_(perm, perm)]
        cm_p = build_cost_matrices(
            tensor(tuple(names[i] for i in perm), goods, permuted)
        )
        np.testing.assert_array_equal(cm_p.C, cm.C[:, perm])
        np.testing.assert_array_equal(cm_p.B, cm.B[:, perm])
        np.testing.assert_array_equal(cm_p.balances, cm.balances[perm])


class TestShares:
    def test_single_nonzero_column(self):
        C = np.array([[0.0, 2.0], [0.0, 1.0]])
        B = np.ones((2, 2))
        with pytest.warns(UserWarning):
            cm = CostMatrices.from_supply_demand(C, B, balance_mode="warn")
        report = shares(cm)
        assert report.country_demand.tolist() == [0.0, 1.0]

    def test_all_ones_symmetric(self):
        cm = CostMatrices.from_supply_demand(np.ones((2, 2)), np.ones((2, 2)))
        report = shares(cm)
        for vector in (
            report.country_demand,
            report.country_supply,
            report.goods_demand,
            report.goods_supply,
        ):
            np.testing.assert_array_equal(vector, [0.5, 0.5])

    def test_column_sums_one_two_three(self):
        # Hand sum: total 6, shares 1/6, 2/6, 3/6.
        C = np.array([[1.0, 0.0, 3.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.0]])
        B = C.copy()
        cm = CostMatrices.from_supply_demand(C, B)
        report = shares(cm)
        np.testing.assert_allclose(
            report.country_demand, [1 / 6, 2 / 6, 3 / 6], rtol=0, atol=1e-15
        )

    def test_share_vectors_sum_to_one(self, rng):
        C = rng.uniform(0.0, 5.0, (4, 6))
        B = rng.uniform(0.1, 5.0, (4, 6))
        with pytest.warns(UserWarning):
            cm = CostMatrices.from_supply_demand(C, B, balance_mode="warn")
        report = shares(cm)
        for vector in (
            report.country_demand,
            report.country_supply,
            report.goods_demand,
            report.goods_supply,
        ):
            assert abs(vector.sum() - 1.0) <= 1e-12
            assert np.all(vector >= 0.0) and np.all(vector <= 1.0)

    def test_ranked_is_descending_with_labels(self):
        C = np.array([[1.0, 3.0], [2.0, 2.0]])
        cm = CostMatrices.from_supply_demand(C, C.copy())
        ranked = shares(cm).ranked("country_demand")
        assert ranked[0] == ("country2", 0.625)
        assert ranked[1] == ("country1", 0.375)

    def test_empty_matrix_named(self):
        with pytest.warns(UserWarning):
            cm = CostMatrices.from_supply_demand(
                np.zeros((2, 2)), np.ones((2, 2)), balance_mode="warn"
            )
        with pytest.raises(EmptyMatrixError) as err:
            shares(cm)
        assert err.value.which == "C"


class TestBalanceModes:
    def test_strict_mode_rejects_mirror_gap(self):
        C = np.array([[1.0, 0.0]])
        B = np.array([[0.0, 2.0]])
        with pytest.raises(ValueError):
            CostMatrices.from_supply_demand(C, B, balance_mode="strict")

    def test_warn_mode_reports_residual(self):
        C = np.array([[1.0, 0.0]])
        B = np.array([[0.0, 2.0]])
        with pytest.warns(UserWarning, match="balance"):
            cm = CostMatrices.from_supply_demand(C, B, balance_mode="warn")
        assert cm.balances.sum() == 1.0


class TestCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "flows.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_round_trip(self, tmp_path):
        path = self.write(
            tmp_path,
            "year,reporter,partner,product,value\n"
            "2020,a,b,g,3\n"
            "2020,b,a,g,5\n",
        )
        tensors = read_flows_csv(path)
        cm = build_cost_matrices(tensors[2020])
        assert cm.C.tolist() == [[5.0, 3.0]]
        assert cm.B.tolist() == [[3.0, 5.0]]

    def test_empty_file(self, tmp_path):
        with pytest.raises(SchemaError):
            read_flows_csv(self.write(tmp_path, ""))

    def test_bad_header(self, tmp_path):
        with pytest.raises(SchemaError):
            read_flows_csv(self.write(tmp_path, "a,b,c,d,e\n1,2,3,4,5\n"))

    def test_bad_rows_reported_with_line_numbers(self, tmp_path):
        path = self.write(
            tmp_path,
            "year,reporter,partner,product,value\n"
            "2020,a,b,g,3\n"
            "2020,a,b,g,not-a-number\n"
            "2020,a,a,g,7\n",
        )
        with pytest.raises(SchemaError) as err:
            read_flows_csv(path)
        lines = [row[0] for row in err.value.rows]
        assert lines == [3, 4]

    def test_unknown_labels_collected(self, tmp_path):
        path = self.write(
            tmp_path,
            "year,reporter,partner,product,value\n"
            "2020,a,b,g,3\n"
            "2020,zz,b,g,1\n"
            "2020,a,b,qq,2\n",
        )
        with pytest.raises(SchemaError) as err:
            read_flows_csv(path, countries=["a", "b"], products=["g"])
        problems = dict(err.value.rows)
        assert "zz" in problems[3]
        assert "qq" in problems[4]

    def test_year_filter_and_duplicate_sum(self, tmp_path):
        path = self.write(
            tmp_path,
            "year,reporter,partner,product,value\n"
            "2019,a,b,g,1\n"
            "2020,a,b,g,2\n"
            "2020,a,b,g,3\n",
        )
        tensors = read_flows_csv(path, year=2020)
        assert list(tensors) == [2020]
        assert tensors[2020].flow[0, 1, 0] == 5.0

    @pytest.mark.parametrize("year", [0, 1999])
    def test_missing_year_is_named(self, tmp_path, year):
        path = self.write(tmp_path, "year,reporter,partner,product,value\n"
                                    "2020,a,b,g,3\n")
        with pytest.raises(SchemaError, match=f"^no data rows for year {year}$"):
            read_flows_csv(path, year=year)

    @pytest.mark.parametrize("text", [
        "year,reporter,partner,product,value\n2020,a,b,g,3\n2020,b,a,g,5\n",
        'year,reporter,partner,product,value\n2020,"a",b,g,3\n2020,b,a,g,5\n',
    ], ids=["plain", "quoted"])
    def test_byte_order_mark_is_skipped(self, tmp_path, text):
        plain = self.write(tmp_path, text)
        marked = tmp_path / "marked.csv"
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        assert same_tensors(read_flows_csv(marked), read_flows_csv(plain))

    @pytest.mark.parametrize("label, end", [("FRA", "\n"), ("FRA", "\r\n"), ('"FRA"', "\n")],
                             ids=["plain", "crlf", "quoted"])
    def test_latin_1_byte_names_its_line(self, tmp_path, label, end):
        path = tmp_path / "flows.csv"
        lines = ["year,reporter,partner,product,value", f"2016,{label},DEU,01,5",
                 "2016,Côte,FRA,01,5", "2016,DEU,FRA,01,2"]
        path.write_bytes(end.join(lines).encode("latin-1") + end.encode())
        with pytest.raises(SchemaError, match="^line 3: not UTF-8 text") as err:
            read_flows_csv(path)
        assert err.value.rows == [(3, "not UTF-8")]

    def test_field_over_the_csv_limit_is_schema_error(self, tmp_path):
        path = self.write(tmp_path, "year,reporter,partner,product,value\n"
                                    "2020,a,b,g,x\n"
                                    "2020,a,b,g," + "0" * 139_999 + "1\n")
        with pytest.raises(SchemaError) as err:
            read_flows_csv(path)
        assert [line for line, _ in err.value.rows] == [2, 3]
        assert err.value.rows[1][1].startswith("unreadable line: field larger than field limit")

    @pytest.mark.parametrize("label", ["a,x", "a"])
    def test_quoted_label_is_read_row_by_row(self, tmp_path, label):
        path = self.write(tmp_path, "year,reporter,partner,product,value\n"
                                    f'2020,"{label}",b,g,3\n'
                                    f'2020,b,"{label}",g,5\n')
        with mock.patch.object(trade_data, "_read_rows", wraps=trade_data._read_rows) as rows:
            tensors = read_flows_csv(path)
        assert rows.call_count == 1
        assert tensors[2020].countries == (label, "b")
        assert tensors[2020].flow[:, :, 0].tolist() == [[0.0, 3.0], [5.0, 0.0]]

    def test_line_numbers_are_physical_after_a_multi_line_field(self, tmp_path):
        path = self.write(
            tmp_path,
            "year,reporter,partner,product,value\n"
            '2020,a,b,"g\nx",3\n'
            "2020,a,b,g,oops\n",
        )
        with pytest.raises(SchemaError) as err:
            read_flows_csv(path)
        assert err.value.rows == [(4, "bad value 'oops'")]

    @pytest.mark.parametrize("keyword", ["countries", "products"])
    def test_repeated_universe_label_is_schema_error(self, tmp_path, keyword):
        path = self.write(tmp_path, "year,reporter,partner,product,value\n2020,a,b,g,3\n")
        universe = {"countries": ["a", "b", "a"], "products": ["g", "h", "g"]}[keyword]
        with pytest.raises(SchemaError, match=f"{keyword} list names '{universe[0]}' twice"):
            read_flows_csv(path, **{keyword: universe})

    def test_repeated_tensor_label_is_invalid_flow(self):
        with pytest.raises(InvalidFlowError, match="'a' twice"):
            tensor(("a", "a", "b"), ("g",), np.zeros((3, 3, 1)))
        with pytest.raises(InvalidFlowError, match="'g' twice"):
            tensor(("a", "b"), ("g", "g"), np.zeros((2, 2, 2)))

    # Each row holds several problems; only the first, in the order the
    # reader checks them, is reported. Universe: countries a, b; product g.
    MULTI_PROBLEM_ROWS = [
        ("2020,zz,zz", "expected 5 fields, got 3"),
        ("x,zz,zz,qq,-1", "bad year 'x'"),
        ("2020,zz,zz,qq,oops", "bad value 'oops'"),
        ("2020,zz,zz,qq,-1", "negative or non-finite value -1.0"),
        ("2020,zz,zz,qq,inf", "negative or non-finite value inf"),
        ("2020,zz,yy,qq,3", "unknown country 'zz'"),
        ("2020,a,yy,qq,3", "unknown country 'yy'"),
        ("2020,a,a,qq,3", "unknown product 'qq'"),
        ("2020,a,a,g,3", "self-flow for 'a'"),
    ]

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e999", "-1"])
    def test_negative_or_non_finite_value_is_a_bad_row(self, tmp_path, value):
        path = self.write(tmp_path, f"year,reporter,partner,product,value\n"
                                    f"2020,a,b,g,1\n2020,b,a,g,{value}\n")
        with pytest.raises(SchemaError) as err:
            read_flows_csv(path)
        assert err.value.rows == [(3, f"negative or non-finite value {float(value)!r}")]

    @pytest.mark.parametrize("row, problem", MULTI_PROBLEM_ROWS)
    def test_row_reports_only_its_first_problem(self, tmp_path, row, problem):
        path = self.write(tmp_path, f"year,reporter,partner,product,value\n2020,a,b,g,1\n{row}\n")
        with pytest.raises(SchemaError) as err:
            read_flows_csv(path, countries=["a", "b"], products=["g"])
        assert err.value.rows == [(3, problem)]

    def test_problem_rows_listed_in_file_order(self, tmp_path):
        rows = [row for row, _ in self.MULTI_PROBLEM_ROWS]
        # Blank rows are skipped, and a row of another year is filtered out
        # before its value is read.
        rows[4:4] = [" , ,\t, , ", "2019,zz,zz,qq,oops", ",,"]
        path = self.write(tmp_path, "year,reporter,partner,product,value\n"
                          + "\n".join(rows) + "\n")
        with pytest.raises(SchemaError) as err:
            read_flows_csv(path, year=2020, countries=["a", "b"], products=["g"])
        lines = [2, 3, 4, 5, 9, 10, 11, 12, 13]
        assert err.value.rows == [
            (line, problem) for line, (_, problem) in zip(lines, self.MULTI_PROBLEM_ROWS)
        ]


def reference_read(path, year=None, countries=None, products=None):
    """Oracle for ``read_flows_csv``: per-row checks into a dict of running
    cell totals, then one tensor per year. Returns the tensors, or the
    ``(line, problem)`` rows of the schema error."""
    with open(path, newline="", encoding="utf-8") as handle:
        records = list(csv.reader(handle))[1:]
    problems, cells = [], {}
    country_order = list(countries or [])
    product_order = list(products or [])
    for line, row in enumerate(records, start=2):
        if all(not cell.strip() for cell in row):
            continue
        if len(row) != 5:
            problems.append((line, f"expected 5 fields, got {len(row)}"))
            continue
        raw_year, reporter, partner, product, raw_value = (cell.strip() for cell in row)
        if year is not None and int(raw_year) != year:
            continue
        value = float(raw_value)
        if countries is not None and reporter not in countries:
            problems.append((line, f"unknown country {reporter!r}"))
        elif countries is not None and partner not in countries:
            problems.append((line, f"unknown country {partner!r}"))
        elif products is not None and product not in products:
            problems.append((line, f"unknown product {product!r}"))
        else:
            for label in (reporter, partner):
                if label not in country_order:
                    country_order.append(label)
            if product not in product_order:
                product_order.append(product)
            key = (int(raw_year), reporter, partner, product)
            cells[key] = cells.get(key, 0.0) + value
    if problems or not cells:
        return problems
    tensors = {}
    m, n = len(country_order), len(product_order)
    for y in sorted({key[0] for key in cells}):
        flow = np.zeros((m, m, n))
        for (row_year, reporter, partner, product), value in cells.items():
            if row_year == y:
                flow[country_order.index(reporter), country_order.index(partner),
                     product_order.index(product)] = value
        tensors[y] = (tuple(country_order), tuple(product_order), flow.tobytes())
    return tensors


COUNTRIES, PRODUCTS, YEARS = ("a", "b", "c"), ("g", "h"), (2018, 2016, 2017)


@st.composite
def flow_csvs(draw):
    """CSV text of valid, blank and repeated rows, with padded cells and
    years out of order, plus ``read_flows_csv`` keyword arguments. A row
    can fail only the universe checks, the only ones ``reference_read``
    makes; the parametrized tests above cover the others."""
    pad = st.sampled_from(["", " ", "\t", "  "])
    lines = ["year,reporter,partner,product,value"]
    for _ in range(draw(st.integers(1, 25))):
        kind = draw(st.sampled_from(["row"] * 6 + ["repeat", "blank", "spaces", "commas"]))
        if kind == "repeat" and len(lines) > 1:
            lines.append(draw(st.sampled_from(lines[1:])))
        elif kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append(draw(pad))
        elif kind == "commas":
            lines.append(",".join(draw(pad) for _ in range(5)))
        else:
            reporter, partner = draw(st.permutations(COUNTRIES))[:2]
            value = draw(st.floats(0, 1e6) | st.sampled_from([0.0, -0.0, 0.1, 0.2, 1e-300]))
            cells = (draw(st.sampled_from(YEARS)), reporter, partner,
                     draw(st.sampled_from(PRODUCTS)), value)
            lines.append(",".join(draw(pad) + str(cell) + draw(pad) for cell in cells))
    kwargs = {
        "year": draw(st.none() | st.sampled_from(YEARS)),
        # Universes may hold an unused label, and may lack a used one.
        "countries": draw(st.none() | st.lists(st.sampled_from(COUNTRIES + ("d",)),
                                              min_size=2, max_size=4, unique=True)),
        "products": draw(st.none() | st.lists(st.sampled_from(PRODUCTS + ("k",)),
                                             min_size=1, max_size=3, unique=True)),
    }
    return "\n".join(lines) + "\n", kwargs


@given(flow_csvs())
@settings(max_examples=150, deadline=None)
def test_reader_matches_reference(tmp_path_factory, case):
    text, kwargs = case
    path = tmp_path_factory.mktemp("csv") / "flows.csv"
    path.write_text(text, encoding="utf-8")
    expected = reference_read(path, **kwargs)
    if isinstance(expected, list):
        with pytest.raises(SchemaError) as err:
            read_flows_csv(path, **kwargs)
        assert err.value.rows == expected
        return
    tensors = read_flows_csv(path, **kwargs)
    assert list(tensors) == list(expected)
    for y, (countries, goods, flow) in expected.items():
        assert (tensors[y].countries, tensors[y].goods) == (countries, goods)
        assert tensors[y].flow.tobytes() == flow


def same_tensors(left, right):
    """Whether two ``read_flows_csv`` results hold the same years, labels and bytes."""
    return list(left) == list(right) and all(
        (left[y].countries, left[y].goods, left[y].flow.tobytes())
        == (right[y].countries, right[y].goods, right[y].flow.tobytes()) for y in left)


def read_row_by_row(path, **kwargs):
    """``read_flows_csv`` with its plain path turned off."""
    with mock.patch.object(trade_data, "_read_plain", return_value=None):
        return read_flows_csv(path, **kwargs)


def read_without_the_row_loop(path, **kwargs):
    """``read_flows_csv`` failing if the plain path declines the file."""
    with mock.patch.object(trade_data, "_read_rows", side_effect=AssertionError("row loop")):
        return read_flows_csv(path, **kwargs)


@st.composite
def plain_flow_csvs(draw):
    """CSV text that the plain path must read: good rows only, with padded
    cells, zero self-flows, duplicates, years out of order and mixed line
    ends, plus keyword arguments whose universes hold every label and whose
    year has a row."""
    pad = st.sampled_from(["", " ", "\t", "  "])
    rows = []
    for _ in range(draw(st.integers(1, 25))):
        if rows and draw(st.integers(0, 4)) == 0:
            rows.append(draw(st.sampled_from(rows)))
            continue
        row_year = draw(st.sampled_from(YEARS))
        reporter, partner = draw(st.permutations(COUNTRIES))[:2]
        if draw(st.integers(0, 9)) == 0:  # before a row of two countries
            rows.append((row_year, partner, partner, draw(st.sampled_from(PRODUCTS)),
                         draw(st.sampled_from([0.0, -0.0]))))
        value = draw(st.floats(0, 1e6) | st.sampled_from([0.0, -0.0, 0.1, 0.2, 1e-300]))
        rows.append((row_year, reporter, partner, draw(st.sampled_from(PRODUCTS)), value))
    lines = ["year,reporter,partner,product,value"] + [
        ",".join(draw(pad) + str(cell) + draw(pad) for cell in row) for row in rows]
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    kwargs = {
        "year": draw(st.none() | st.sampled_from([row[0] for row in rows])),
        # Universes may hold an unused label.
        "countries": draw(st.none() | st.permutations(COUNTRIES + ("d",))
                          | st.permutations(COUNTRIES)),
        "products": draw(st.none() | st.permutations(PRODUCTS + ("k",))
                         | st.permutations(PRODUCTS)),
    }
    return text, kwargs


@given(plain_flow_csvs())
@settings(max_examples=150, deadline=None)
def test_plain_files_are_read_without_the_row_loop(tmp_path_factory, case):
    text, kwargs = case
    path = tmp_path_factory.mktemp("csv") / "flows.csv"
    path.write_bytes(text.encode())
    expected = reference_read(path, **kwargs)
    tensors = read_without_the_row_loop(path, **kwargs)
    assert list(tensors) == list(expected)
    for y, (countries, goods, flow) in expected.items():
        assert (tensors[y].countries, tensors[y].goods) == (countries, goods)
        assert tensors[y].flow.tobytes() == flow


class TestBlocks:
    ROWS = 2 * BLOCK_LINES + 3

    def write(self, tmp_path, last_row=None):
        """``ROWS`` rows over three years, ten countries and four products,
        with ``last_row`` in place of the last; returns its path."""
        rows = [f"{2016 + i % 3},c{i % 10},c{(i + 1 + i // 10 % 9) % 10},g{i % 4},{i % 997 + 0.25}"
                for i in range(self.ROWS)]
        if last_row is not None:
            rows[-1] = last_row
        path = tmp_path / "flows.csv"
        path.write_text("year,reporter,partner,product,value\n" + "\n".join(rows) + "\n")
        return path

    def test_clean_file_gives_the_row_loops_bytes(self, tmp_path):
        path = self.write(tmp_path)
        tensors = read_without_the_row_loop(path)
        assert list(tensors) == [2016, 2017, 2018]
        assert same_tensors(tensors, read_row_by_row(path))
        assert same_tensors(read_without_the_row_loop(path, year=2017),
                            read_row_by_row(path, year=2017))

    def test_bad_row_in_the_last_block_gives_the_row_loops_error(self, tmp_path):
        path = self.write(tmp_path, last_row="2017,c1,c2,g0,oops")
        with pytest.raises(SchemaError) as err:
            read_flows_csv(path)
        assert err.value.rows == [(self.ROWS + 1, "bad value 'oops'")]
        with pytest.raises(SchemaError) as row_by_row:
            read_row_by_row(path)
        assert row_by_row.value.rows == err.value.rows
