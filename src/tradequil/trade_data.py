"""Bilateral trade-flow ingestion and the cost-form demand/supply matrices.

Flows are cost values (a common currency unit): ``flow[k, j, s]`` is the
value of good ``s`` exported from country ``k`` to country ``j``. Physical
quantities and unit prices are never reconstructed.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from ._numerics import BASE_TOL, as_matrix, magnitude
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
        C = as_matrix(C, "C")
        B = as_matrix(B, "B")
        if C.shape != B.shape:
            raise ValueError(f"C shape {C.shape} != B shape {B.shape}")
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


def read_flows_csv(path, year=None, countries=None, products=None):
    """Parse a flow CSV into one :class:`TradeFlowTensor` per year.

    Expected header: ``year,reporter,partner,product,value``. Duplicate
    (year, reporter, partner, product) rows are summed. When ``countries``
    or ``products`` are given, labels outside those universes are schema
    errors; otherwise labels are discovered from the data and ordered by
    first appearance. Self-flows with nonzero value are schema errors.
    """
    known_countries = set(countries) if countries is not None else None
    known_products = set(products) if products is not None else None
    problems = []
    cells = {}
    country_order = list(countries) if countries is not None else []
    product_order = list(products) if products is not None else []
    seen_countries = set(country_order)
    seen_products = set(product_order)

    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise SchemaError("empty file: expected header "
                              + ",".join(CSV_HEADER), rows=[(1, "missing header")])
        if tuple(h.strip().lower() for h in header) != CSV_HEADER:
            raise SchemaError(
                f"bad header {header!r}: expected {','.join(CSV_HEADER)}",
                rows=[(1, "bad header")],
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 5:
                problems.append((lineno, f"expected 5 fields, got {len(row)}"))
                continue
            raw_year, reporter, partner, product, raw_value = (
                cell.strip() for cell in row
            )
            try:
                row_year = int(raw_year)
            except ValueError:
                problems.append((lineno, f"bad year {raw_year!r}"))
                continue
            if year is not None and row_year != year:
                continue
            try:
                value = float(raw_value)
            except ValueError:
                problems.append((lineno, f"bad value {raw_value!r}"))
                continue
            if not np.isfinite(value) or value < 0:
                problems.append((lineno, f"negative or non-finite value {value!r}"))
                continue
            if known_countries is not None and reporter not in known_countries:
                problems.append((lineno, f"unknown country {reporter!r}"))
                continue
            if known_countries is not None and partner not in known_countries:
                problems.append((lineno, f"unknown country {partner!r}"))
                continue
            if known_products is not None and product not in known_products:
                problems.append((lineno, f"unknown product {product!r}"))
                continue
            if reporter == partner and value != 0:
                problems.append((lineno, f"self-flow for {reporter!r}"))
                continue
            for label in (reporter, partner):
                if label not in seen_countries:
                    seen_countries.add(label)
                    country_order.append(label)
            if product not in seen_products:
                seen_products.add(product)
                product_order.append(product)
            key = (row_year, reporter, partner, product)
            cells[key] = cells.get(key, 0.0) + value

    if problems:
        preview = "; ".join(f"line {ln}: {msg}" for ln, msg in problems[:5])
        raise SchemaError(
            f"{len(problems)} bad row(s): {preview}", rows=problems
        )
    if not cells:
        raise SchemaError("no data rows" + (f" for year {year}" if year else ""))

    years = sorted({key[0] for key in cells})
    country_index = {c: i for i, c in enumerate(country_order)}
    product_index = {p: i for i, p in enumerate(product_order)}
    tensors = {}
    for y in years:
        flow = np.zeros(
            (len(country_order), len(country_order), len(product_order))
        )
        for (row_year, reporter, partner, product), value in cells.items():
            if row_year != y:
                continue
            flow[
                country_index[reporter], country_index[partner], product_index[product]
            ] = value
        tensors[y] = TradeFlowTensor(
            countries=tuple(country_order), goods=tuple(product_order), flow=flow
        )
    return tensors
