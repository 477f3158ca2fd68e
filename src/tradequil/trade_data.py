"""Bilateral trade-flow ingestion and the cost-form demand/supply matrices.

Flows are cost values (a common currency unit): ``flow[k, j, s]`` is the
value of good ``s`` exported from country ``k`` to country ``j``. Physical
quantities and unit prices are never reconstructed.
"""

from __future__ import annotations

import csv
import warnings
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, compress, count, islice, repeat
from math import isfinite
from operator import eq

import numpy as np

from ._numerics import BASE_TOL, as_economy, magnitude
from .errors import EmptyMatrixError, InvalidFlowError, SchemaError

CSV_HEADER = ("year", "reporter", "partner", "product", "value")


@dataclass(frozen=True)
class TradeFlowTensor:
    """Raw bilateral flows: ``flow[k, j, s]`` for exporter k, importer j, good s."""

    countries: tuple
    goods: tuple
    flow: np.ndarray

    def __post_init__(self):
        flow = np.asarray(self.flow, dtype=float)
        object.__setattr__(self, "flow", flow)
        object.__setattr__(self, "countries", tuple(self.countries))
        object.__setattr__(self, "goods", tuple(self.goods))
        m, n = len(self.countries), len(self.goods)
        if m < 2:
            raise InvalidFlowError(f"need at least 2 countries, got {m}")
        if n < 1:
            raise InvalidFlowError("need at least 1 good")
        _unique_labels(self.countries, "countries", InvalidFlowError)
        _unique_labels(self.goods, "goods", InvalidFlowError)
        if flow.shape != (m, m, n):
            raise InvalidFlowError(
                f"flow shape {flow.shape} does not match ({m}, {m}, {n})"
            )
        bad = ~np.isfinite(flow)
        if bad.any():
            idx = tuple(int(i) for i in np.argwhere(bad)[0])
            raise InvalidFlowError(
                f"non-finite flow at {self._cell(idx)}", index=idx
            )
        neg = flow < 0
        if neg.any():
            idx = tuple(int(i) for i in np.argwhere(neg)[0])
            raise InvalidFlowError(
                f"negative flow at {self._cell(idx)}",
                index=idx,
                value=float(flow[idx]),
            )
        diag = np.arange(m)
        if np.any(flow[diag, diag, :] != 0):
            k = int(np.argwhere(flow[diag, diag, :] != 0)[0][0])
            s = int(np.argwhere(flow[k, k, :] != 0)[0][0])
            raise InvalidFlowError(
                f"self-flow for country {self.countries[k]!r}, good "
                f"{self.goods[s]!r}; self-trade must be zero",
                index=(k, k, s),
                value=float(flow[k, k, s]),
            )

    def _cell(self, idx):
        k, j, s = idx
        return f"(exporter={self.countries[k]!r}, importer={self.countries[j]!r}, good={self.goods[s]!r})"


@dataclass(frozen=True)
class CostMatrices:
    """Cost-form demand matrix C, supply matrix B, and derived aggregates.

    ``C[s, k]`` is country k's import value of good s; ``B[s, k]`` its
    export value. ``psi`` is aggregate supply by good, ``incomes`` export
    income by country, ``balances`` the export-import balance by country.
    """

    countries: tuple
    goods: tuple
    C: np.ndarray
    B: np.ndarray
    psi: np.ndarray
    incomes: np.ndarray
    balances: np.ndarray

    @classmethod
    def from_supply_demand(cls, C, B, countries=None, goods=None, balance_mode="strict"):
        """Build from separately sourced demand and supply matrices.

        Mirrored reporter/partner datasets rarely balance exactly; with
        ``balance_mode="warn"`` a nonzero aggregate balance is reported as a
        warning instead of an error.
        """
        C, B = as_economy(C, B)
        if np.any(C < 0) or np.any(B < 0):
            raise ValueError("C and B must be nonnegative")
        n, l = C.shape
        countries = tuple(countries) if countries is not None else tuple(
            f"country{i + 1}" for i in range(l)
        )
        goods = tuple(goods) if goods is not None else tuple(
            f"good{s + 1}" for s in range(n)
        )
        if len(countries) != l or len(goods) != n:
            raise ValueError("label counts do not match matrix shape")
        balances = B.sum(axis=0) - C.sum(axis=0)
        residual = float(balances.sum())
        if abs(residual) > BASE_TOL * magnitude(C.sum(), B.sum()):
            message = (
                f"aggregate trade balance does not vanish: sum(t) = {residual:.6g}"
            )
            if balance_mode == "strict":
                raise ValueError(message + " (use balance_mode='warn' to accept)")
            warnings.warn(message, stacklevel=2)
        return cls(
            countries=countries,
            goods=goods,
            C=C,
            B=B,
            psi=B.sum(axis=1),
            incomes=B.sum(axis=0),
            balances=balances,
        )

    def to_dict(self):
        return {
            "schema_version": 1,
            "countries": list(self.countries),
            "goods": list(self.goods),
            "C": self.C.tolist(),
            "B": self.B.tolist(),
            "psi": self.psi.tolist(),
            "incomes": self.incomes.tolist(),
            "balances": self.balances.tolist(),
        }

    @classmethod
    def from_dict(cls, data):
        """Inverse of ``to_dict``; a nonzero aggregate balance only warns."""
        if not isinstance(data, dict):
            raise SchemaError(
                f"matrices file must hold a JSON object, not {type(data).__name__}"
            )
        try:
            return cls.from_supply_demand(
                data["C"],
                data["B"],
                countries=data["countries"],
                goods=data["goods"],
                balance_mode="warn",
            )
        except KeyError as exc:
            raise SchemaError(f"matrices file is missing field {exc}") from exc
        except TypeError as exc:
            raise SchemaError(f"matrices file has a field of the wrong type: {exc}") from exc


def build_cost_matrices(flows: TradeFlowTensor) -> CostMatrices:
    """Aggregate a flow tensor into cost-form demand/supply matrices.

    ``C[s, k] = sum_j flow[j, k, s]`` (imports into k) and
    ``B[s, k] = sum_j flow[k, j, s]`` (exports from k), so every flow is
    counted once as demand and once as supply and the balances sum to zero.
    """
    C = flows.flow.sum(axis=0).T  # (n, M): imports into each country
    B = flows.flow.sum(axis=1).T  # (n, M): exports from each country
    return CostMatrices(
        countries=flows.countries,
        goods=flows.goods,
        C=C,
        B=B,
        psi=B.sum(axis=1),
        incomes=B.sum(axis=0),
        balances=B.sum(axis=0) - C.sum(axis=0),
    )


@dataclass(frozen=True)
class ShareReport:
    """Demand and supply shares by country and by good.

    Each share vector sums to one; ``ranked`` orders every vector
    descending with its labels attached.
    """

    country_labels: tuple
    goods_labels: tuple
    country_demand: np.ndarray
    country_supply: np.ndarray
    goods_demand: np.ndarray
    goods_supply: np.ndarray

    SECTIONS = (
        ("country_demand", "country_labels"),
        ("country_supply", "country_labels"),
        ("goods_demand", "goods_labels"),
        ("goods_supply", "goods_labels"),
    )

    def ranked(self, section):
        labels = getattr(self, dict(self.SECTIONS)[section])
        values = getattr(self, section)
        order = np.argsort(-values, kind="stable")
        return [(labels[i], float(values[i])) for i in order]

    def to_dict(self):
        out = {"schema_version": 1}
        for section, _ in self.SECTIONS:
            out[section] = {
                "shares": getattr(self, section).tolist(),
                "ranked": [[label, value] for label, value in self.ranked(section)],
            }
        return out

    def csv_rows(self, section):
        return [(label, value) for label, value in self.ranked(section)]


def shares(cm: CostMatrices) -> ShareReport:
    """Country and goods shares of total demand and supply."""
    total_demand = float(cm.C.sum())
    total_supply = float(cm.B.sum())
    if total_demand <= 0:
        raise EmptyMatrixError("demand matrix C is all zero", which="C")
    if total_supply <= 0:
        raise EmptyMatrixError("supply matrix B is all zero", which="B")
    return ShareReport(
        country_labels=cm.countries,
        goods_labels=cm.goods,
        country_demand=cm.C.sum(axis=0) / total_demand,
        country_supply=cm.B.sum(axis=0) / total_supply,
        goods_demand=cm.C.sum(axis=1) / total_demand,
        goods_supply=cm.B.sum(axis=1) / total_supply,
    )


def _unique_labels(labels, what, error):
    """The set of ``labels``; raises ``error`` naming the first repeated label."""
    seen = set()
    for label in labels:
        if label in seen:
            raise error(f"{what} list names {label!r} twice")
        seen.add(label)
    return seen


def _positions(labels, order):
    """Index in ``order`` of each of ``labels``."""
    index = {label: i for i, label in enumerate(order)}
    return np.fromiter(map(index.__getitem__, labels), np.intp, len(labels))


def read_flows_csv(path, year=None, countries=None, products=None):
    """Parse a flow CSV into one :class:`TradeFlowTensor` per year.

    The file must be UTF-8 text. Expected header:
    ``year,reporter,partner,product,value``, after an optional UTF-8
    byte-order mark; blank rows are skipped. All bad rows
    raise one :class:`SchemaError` whose ``rows`` pair the physical line on
    which each row ends (header = line 1) with its first problem; a line the
    ``csv`` module cannot read ends the file's problems. Duplicate (year,
    reporter, partner, product) rows are summed in file order. Given
    ``countries`` or ``products`` fix the label order, must not repeat a
    label, and make labels outside them schema errors; otherwise labels are
    ordered by first appearance, reporter before partner. Nonzero self-flows
    are schema errors.

    A file whose every line is a good row of five unquoted fields is parsed
    a block of lines at a time. A file with a quote character, a blank line
    or any bad row is read row by row, with the same results.
    """
    known_countries = None if countries is None else _unique_labels(
        countries, "countries", SchemaError)
    known_products = None if products is None else _unique_labels(
        products, "products", SchemaError)
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            parsed = _read_plain(handle, year, known_countries, known_products)
            if parsed is None:
                handle.seek(0)
                parsed = _read_rows(handle, year, known_countries, known_products)
    except UnicodeDecodeError as exc:
        line = _first_line_not_utf8(path)
        raise SchemaError(f"line {line}: not UTF-8 text ({exc.reason}); save the file "
                          "as UTF-8", rows=[(line, "not UTF-8")]) from None
    years, country_order, product_order, codes, values = parsed
    at_year, reporters, partners, at_product = codes
    # Given universes keep their own order: move the first-appearance codes.
    if countries:
        countries = tuple(countries)
        remap = _positions(country_order, countries)
        reporters, partners = remap[reporters], remap[partners]
    else:
        countries = country_order
    if products:
        products = tuple(products)
        at_product = _positions(product_order, products)[at_product]
    else:
        products = product_order
    # One array for all years. np.add.at adds unbuffered in row order, so
    # duplicate rows sum exactly as a running total per cell would.
    flow = np.zeros((len(years), len(countries), len(countries), len(products)))
    np.add.at(flow, (at_year, reporters, partners, at_product), values)
    return {y: TradeFlowTensor(countries=countries, goods=products, flow=flow[t])
            for t, y in enumerate(years)}


def _first_line_not_utf8(path):
    """The 1-based physical line of the first byte of ``path`` that is not UTF-8."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return len((data[:exc.start] + b".").splitlines())


# Lines parsed per block by the plain path: large enough that the per-block
# calls cost little, small enough that a block's strings stay a few MB.
BLOCK_LINES = 4096


def _read_plain(handle, year, known_countries, known_products):
    """Parse a file of plain rows with C-level ``str`` and ``map`` calls.

    Returns ``(years, countries, products, codes, values)`` as
    ``_read_rows`` does, or None, with ``handle`` partly read, when a line
    has a quote character, other than four commas, or more characters than
    ``csv.field_size_limit()``, when the header differs from ``CSV_HEADER``,
    or when a row fails a check of ``_read_rows`` or none is kept. Only
    ``_read_rows`` reports problems, so its line numbers and messages hold.
    """
    limit = csv.field_size_limit()
    header = handle.readline()
    if ('"' in header or len(header) > limit
            or tuple(h.strip().lower() for h in header.split(",")) != CSV_HEADER):
        return None
    # A key's code is the number of keys looked up before it for the first
    # time, so codes follow first appearance across blocks.
    year_codes, country_codes, product_codes = (
        defaultdict(count().__next__) for _ in range(3))
    parts = []
    while lines := list(islice(handle, BLOCK_LINES)):
        if max(map(len, lines)) > limit or set(map(str.count, lines, repeat(","))) != {4}:
            return None
        # Each form of the block is dropped once the next one exists: the
        # strings of one block are most of what the parse holds.
        rows = len(lines)
        text = "".join(lines)
        del lines
        if '"' in text:
            return None
        # Every line end becomes the fifth comma of its row; a last line
        # without one leaves no empty field to drop.
        fields = text.replace("\r\n", ",").replace("\r", ",").replace("\n", ",").split(",")
        del text, fields[5 * rows:]
        columns = [list(map(str.strip, fields[k::5])) for k in range(5)]
        del fields
        try:
            columns[0] = list(map(int, columns[0]))
            if year is not None:
                keep = list(map(eq, columns[0], repeat(year)))
                columns = [list(compress(column, keep)) for column in columns]
            row_years, reporters, partners, row_products, raw_values = columns
            values = np.fromiter(map(float, raw_values), float, len(raw_values))
        except ValueError:
            return None
        if not (np.isfinite(values) & (values >= 0)).all():
            return None
        kept = len(values)
        at_year = np.fromiter(map(year_codes.__getitem__, row_years), np.intp, kept)
        pairs = np.fromiter(map(country_codes.__getitem__,
                                chain.from_iterable(zip(reporters, partners))), np.intp, 2 * kept)
        at_product = np.fromiter(map(product_codes.__getitem__, row_products), np.intp, kept)
        if ((known_countries is not None and not country_codes.keys() <= known_countries)
                or (known_products is not None and not product_codes.keys() <= known_products)):
            return None
        reporters, partners = pairs[0::2], pairs[1::2]
        if ((reporters == partners) & (values != 0)).any():
            return None
        parts.append((at_year, reporters, partners, at_product, values))
    if not year_codes:
        return None
    at_year, reporters, partners, at_product, values = map(np.concatenate, zip(*parts))
    years = sorted(year_codes)
    return (years, tuple(country_codes), tuple(product_codes),
            (_positions(year_codes, years)[at_year], reporters, partners, at_product), values)


def _read_rows(handle, year, known_countries, known_products):
    """Parse a flow CSV row by row with the ``csv`` module.

    This reads every file ``_read_plain`` declines, quoted fields included,
    and raises every :class:`SchemaError` about the file's content. Returns the
    sorted years, the countries and products in order of first appearance,
    each row's codes into those three, and the values.
    """
    # One list per field: the strings and numbers in them are not tracked by
    # the garbage collector, while a tuple per row would be, and the 22,400
    # of a G20 panel set off full collections.
    problems = []
    row_years, reporters, partners, row_products, values = [], [], [], [], []
    reader = csv.reader(handle)
    try:
        header = next(reader, None)
        if header is None:
            raise SchemaError("empty file: expected header " + ",".join(CSV_HEADER),
                              rows=[(1, "missing header")])
        if tuple(h.strip().lower() for h in header) != CSV_HEADER:
            raise SchemaError(f"bad header {header!r}: expected {','.join(CSV_HEADER)}",
                              rows=[(1, "bad header")])
        for row in reader:
            if len(row) != 5:
                if "".join(row).strip():
                    problems.append((reader.line_num, f"expected 5 fields, got {len(row)}"))
                continue
            raw_year, reporter, partner, product, raw_value = map(str.strip, row)
            try:
                row_year = int(raw_year)
            except ValueError:  # also reached by a blank row, which is skipped
                if raw_year or reporter or partner or product or raw_value:
                    problems.append((reader.line_num, f"bad year {raw_year!r}"))
                continue
            if year is not None and row_year != year:
                continue
            try:
                value = float(raw_value)
            except ValueError:
                problems.append((reader.line_num, f"bad value {raw_value!r}"))
                continue
            if not isfinite(value) or value < 0:
                problem = f"negative or non-finite value {value!r}"
            elif known_countries is not None and reporter not in known_countries:
                problem = f"unknown country {reporter!r}"
            elif known_countries is not None and partner not in known_countries:
                problem = f"unknown country {partner!r}"
            elif known_products is not None and product not in known_products:
                problem = f"unknown product {product!r}"
            elif reporter == partner and value != 0:
                problem = f"self-flow for {reporter!r}"
            else:
                row_years.append(row_year)
                reporters.append(reporter)
                partners.append(partner)
                row_products.append(product)
                values.append(value)
                continue
            problems.append((reader.line_num, problem))
    except csv.Error as exc:  # such as a field over csv.field_size_limit()
        problems.append((reader.line_num, f"unreadable line: {exc}"))

    if problems:
        preview = "; ".join(f"line {ln}: {msg}" for ln, msg in problems[:5])
        raise SchemaError(f"{len(problems)} bad row(s): {preview}", rows=problems)
    if not values:
        raise SchemaError("no data rows" + (f" for year {year}" if year is not None else ""))
    countries = tuple(dict.fromkeys(chain.from_iterable(zip(reporters, partners))))
    products = tuple(dict.fromkeys(row_products))
    years = sorted(set(row_years))
    return (years, countries, products,
            (_positions(row_years, years), _positions(reporters, countries),
             _positions(partners, countries), _positions(row_products, products)),
            values)
