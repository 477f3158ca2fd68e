"""Command-line pipeline: ingest -> solve -> shares/report.

Outputs are deterministic: identical inputs and flags produce
byte-identical files. Exit codes: 0 success, 2 input or schema problems,
3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from pathlib import Path

import numpy as np

from ._numerics import DEFAULT_TOL
from .equilibrium_solver import (
    EquilibriumSolution,
    excess_demand,
    solve_fixed_point,
)
from .errors import NonConvergenceError, SchemaError
from .recession import RecessionReport, degeneracy_report
from .trade_data import CostMatrices, build_cost_matrices, read_flows_csv, shares

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3


def _write_json(path, payload):
    """``payload`` as sorted, indented JSON in one write; the directory must exist."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _fmt(value):
    return repr(float(value))


def _block(title, labels, values):
    """``title``, one ``label: value`` line per label and a blank line."""
    return [title, *(f"  {label}: {_fmt(value)}" for label, value in zip(labels, values)), ""]


def render_report(cm: CostMatrices, solution: EquilibriumSolution,
                  report: RecessionReport, scenario) -> str:
    """The seven-block text report for one solved scenario."""
    ones = np.ones(len(cm.goods))
    lines = [
        f"Trade equilibrium report - scenario {scenario}",
        "(blocks 2 uses current prices, i.e. the unit price vector p = 1)",
        "",
    ]
    lines += _block(
        "1. The trade balance of countries in the current prices:",
        cm.countries, cm.balances,
    )
    lines += _block(
        "2. The excess demand in the current prices:",
        cm.goods, excess_demand(cm.C, cm.B, ones),
    )
    lines += _block(
        "3. The equilibrium price vector:", cm.goods, solution.p0.p
    )
    lines += _block(
        "4. The excess demand under the equilibrium price vector:",
        cm.goods, solution.excess,
    )
    lines += _block(
        "5. The vector y of satisfactions of consumer needs in the "
        "equilibrium state:",
        cm.countries, solution.y,
    )
    lines += _block(
        "6. The generalized relative equilibrium price vector:",
        cm.goods, report.p1.p,
    )
    lines.append("7. Parameter of recession level:")
    lines.append(f"  R = {_fmt(report.R)}")
    lines.append("")
    lines.append(f"clearing set I (1-based): "
                 f"{{{', '.join(str(k + 1) for k in report.clearing_set)}}}")
    lines.append(f"degeneracy multiplicity: {report.multiplicity}")
    lines.append("")
    return "\n".join(lines)


def _labels(text):
    """Comma-separated labels, stripped as ``read_flows_csv`` strips fields."""
    return [label.strip() for label in text.split(",")] if text else None


def cmd_ingest(args) -> int:
    countries = _labels(args.countries)
    products = _labels(args.products)
    tensors = read_flows_csv(
        args.input, year=args.year, countries=countries, products=products
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for year, tensor in sorted(tensors.items()):
        cm = build_cost_matrices(tensor)
        payload = cm.to_dict()
        payload["year"] = year
        _write_json(out / f"matrices_{year}.json", payload)
        print(f"The trade balance of countries in the current prices of {year}:")
        for label, value in zip(cm.countries, cm.balances):
            print(f"  {label}: {_fmt(value)}")
        print(f"wrote {out / f'matrices_{year}.json'}")
    return EXIT_OK


def _load_matrices(path):
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read matrices file {path}: {exc}") from exc
    cm = CostMatrices.from_dict(payload)
    return cm, payload.get("year", "unknown")


def _write_outputs(out, cm, solution, report, scenario):
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    solution_payload = solution.to_dict()
    solution_payload["year"] = scenario
    _write_json(out / "solution.json", solution_payload)
    recession_payload = report.to_dict()
    recession_payload["year"] = scenario
    _write_json(out / "recession.json", recession_payload)
    with open(out / "recession.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(RecessionReport.CSV_HEADER)
        writer.writerow(report.csv_row(scenario))
    text = render_report(cm, solution, report, scenario)
    with open(out / "report.txt", "w", encoding="utf-8") as handle:
        handle.write(text)
    return text


def cmd_solve(args) -> int:
    cm, scenario = _load_matrices(args.input)
    if args.year is not None and scenario != "unknown" and args.year != scenario:
        raise SchemaError(
            f"matrices file is for year {scenario}, not requested {args.year}"
        )
    solution = solve_fixed_point(cm.C, cm.B, tol=args.tol)
    report = degeneracy_report(solution, cm.C, cm.B)
    text = _write_outputs(args.out, cm, solution, report, scenario)
    print(text)
    return EXIT_OK


def cmd_shares(args) -> int:
    cm, _ = _load_matrices(args.input)
    report = shares(cm)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for section, _labels in report.SECTIONS:
        with open(out / f"shares_{section}.csv", "w", encoding="utf-8",
                  newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("label", "share"))
            for label, value in report.csv_rows(section):
                writer.writerow((label, repr(value)))
    _write_json(out / "shares.json", report.to_dict())
    print(f"wrote 4 share CSVs and shares.json to {out}")
    return EXIT_OK


def cmd_report(args) -> int:
    cm, scenario = _load_matrices(args.matrices)
    try:
        with open(args.input, encoding="utf-8") as handle:
            payload = json.load(handle)
        solution = EquilibriumSolution.from_dict(payload)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"cannot read solution file {args.input}: {exc}") from exc
    solved = payload.get("year", "unknown")
    if "unknown" not in (solved, scenario) and solved != scenario:
        raise SchemaError(f"solution file is for year {solved}, matrices file for {scenario}")
    report = degeneracy_report(solution, cm.C, cm.B)
    text = _write_outputs(args.out, cm, solution, report, scenario)
    print(text)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tradequil",
        description="Equilibrium prices and recession diagnostics for "
        "goods-exchange economies built from bilateral trade flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="CSV flows -> cost matrices JSON")
    ingest.add_argument("--input", required=True, help="flow CSV path")
    ingest.add_argument("--out", required=True, help="output directory")
    ingest.add_argument("--year", type=int, default=None,
                        help="keep only this year")
    ingest.add_argument("--countries", default=None,
                        help="comma-separated country universe")
    ingest.add_argument("--products", default=None,
                        help="comma-separated product universe")
    ingest.set_defaults(func=cmd_ingest)

    solve = sub.add_parser("solve", help="matrices JSON -> solution + reports")
    solve.add_argument("--input", required=True, help="matrices JSON path")
    solve.add_argument("--out", required=True, help="output directory")
    solve.add_argument("--tol", type=float, default=DEFAULT_TOL)
    solve.add_argument("--year", type=int, default=None,
                       help="assert the matrices file is for this year")
    solve.set_defaults(func=cmd_solve)

    share = sub.add_parser("shares", help="matrices JSON -> share CSVs")
    share.add_argument("--input", required=True, help="matrices JSON path")
    share.add_argument("--out", required=True, help="output directory")
    share.set_defaults(func=cmd_shares)

    report = sub.add_parser(
        "report", help="re-render reports from a saved solution"
    )
    report.add_argument("--input", required=True, help="solution JSON path")
    report.add_argument("--matrices", required=True, help="matrices JSON path")
    report.add_argument("--out", required=True, help="output directory")
    report.set_defaults(func=cmd_report)
    return parser


@functools.cache
def _parser():
    """The parser of this process, built on the first call of :func:`main`.

    Building it costs more than parsing one command line, and parsing
    changes nothing in it, so repeated in-process calls share it.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except NonConvergenceError as exc:
        print(f"error: solver did not converge: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
