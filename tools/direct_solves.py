#!/usr/bin/env python3
"""Direct ``solve_fixed_point`` calls on benchmark inputs, and a comparison of two runs.

    python3 tools/direct_solves.py KIND SEED [SEED ...] --panels N --out FILE [--src DIR]
    python3 tools/direct_solves.py --compare A B

The first form makes ``N`` panels of workload ``KIND`` (``g20-panel`` or
``structure``) per seed with ``bench/flows.py``, loads every year as the CLI
does (``read_flows_csv``, ``build_cost_matrices``, a JSON round trip of the
cost matrices, ``CostMatrices.from_dict``), solves it with BLAS on one thread
and writes one JSON record per solve to ``FILE``: kind, seed, panel, year,
ok, message, ``iterations`` (map evaluations, also of a failed solve), the
0-based clearing set ``I``, ``p0``, the warnings raised, the wall seconds and
the recession level ``R`` of ``degeneracy_report(solution, C, B)`` (None for
a failed solve, the class of the error if the report raises one; its time
and warnings are not counted).
``--src`` imports ``tradequil`` from another checkout's ``src`` directory, so
two versions of the solver can be run on the same inputs. On ``structure``
panels every successful solve is followed by the benchmark's four structure
calls, ``certify_consistency`` without and with ``I``, ``factor_supply`` and
``exists_ideal``, and ``ops`` records the verdict of each: the label, the
factor's mode, ``exists`` or ``no ideal``, or the class of the error raised.
``ideal_reason`` holds the first clause of the reason ``exists_ideal`` gives
for ``no ideal`` (None otherwise), and ``lp_calls`` the number of linear
programs the four calls solved, counted as ``bench/tracing.py`` counts them:
by rebinding ``linprog`` in ``tradequil.cone_geometry`` and
``tradequil.consistency``. Their warnings are not counted in ``warnings``.

The second form reads two such files and prints, per workload and seed,
solves, failures, new and rescued failures, map evaluations in all and
per solve at the median, the solves' median seconds, the years where ``I``
changed, ``|Δp0|`` and ``|ΔR|`` where both solved, every year whose ``R``
moved by more than ``R_MOVED``, each side's failures by class
(``FAILURE_CLASSES``, read from the message) and every structure verdict
and every ``ideal_reason`` that differs where both files have one, then the
LP totals of each seed and every year whose ``lp_calls`` differ. It exits
with status 1 when B fails a solve that A solved or changes a structure
verdict, and 0 otherwise, so it can gate a change on its own. A moved
``R``, a changed reason or LP count alone does not gate: the wording of a
reason may change while ``exists`` does not, and a change may solve more or
fewer LPs on purpose.
"""

import os

# Set before numpy loads, as the benchmark does: one BLAS thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import statistics
import sys
import tempfile
import time
import warnings
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import flows  # noqa: E402  (bench/flows.py)


# Failure classes and the words of the solver's message that name each; any
# other message is of class "other".
FAILURE_CLASSES = (("violation", "violates the equilibrium inequalities"),
                   ("stall", "stalled after"),
                   ("cap", "-evaluation cap"),
                   ("no good clears", "no good clears"))


# ``R`` moves in ``--compare`` when it changes by more than this, or from a
# number to an error class or back.
R_MOVED = 1e-9


def failure_class(message):
    return next((name for name, words in FAILURE_CLASSES if words in message), "other")


def structure_verdicts(tradequil, C, B, clearing):
    """The verdict of each of the benchmark's four structure calls, and the
    first clause of the reason when ``exists_ideal`` finds no ideal equilibrium."""
    steps = (
        ("certify_consistency", lambda: tradequil.certify_consistency(C, B).label),
        ("certify_consistency_I", lambda: tradequil.certify_consistency(C, B, clearing).label),
        ("factor_supply", lambda: tradequil.factor_supply(C, B).mode),
        ("exists_ideal", lambda: tradequil.exists_ideal(C, B)),
    )
    verdicts = {}
    for name, run in steps:
        try:
            verdicts[name] = run()
        except Exception as exc:  # a typed error is the verdict
            verdicts[name] = type(exc).__name__
    ideal, reason = verdicts["exists_ideal"], None
    if not isinstance(ideal, str):
        verdicts["exists_ideal"] = "exists" if ideal.exists else "no ideal"
        reason = None if ideal.exists else ideal.reason.split(":")[0]
    return verdicts, reason


def count_lps(run):
    """``(run(), n)`` with ``n`` the linear programs solved during ``run``,
    counted through ``linprog`` in the two modules that call it."""
    modules = [importlib.import_module(f"tradequil.{name}")
               for name in ("cone_geometry", "consistency")]
    originals = [module.linprog for module in modules]
    calls = []

    def counted(real):
        def call(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)
        return call

    for module, real in zip(modules, originals):
        module.linprog = counted(real)
    try:
        return run(), len(calls)
    finally:
        for module, real in zip(modules, originals):
            module.linprog = real


def solve_records(kind, seeds, panels, src):
    """Yield one record per year of every panel of every seed."""
    sys.path.insert(0, str(src))
    import tradequil
    from tradequil import (CostMatrices, NonConvergenceError, build_cost_matrices,
                           degeneracy_report, read_flows_csv, solve_fixed_point)

    for seed in seeds:
        with tempfile.TemporaryDirectory() as tmp:
            for panel, path in enumerate(flows.write_inputs(kind, seed, panels, tmp)):
                for year, tensor in sorted(read_flows_csv(path).items()):
                    payload = json.loads(json.dumps(build_cost_matrices(tensor).to_dict()))
                    cm = CostMatrices.from_dict(payload)
                    record = {"kind": kind, "seed": seed, "panel": panel, "year": year,
                              "ok": False, "message": "", "iterations": None,
                              "I": None, "p0": None, "R": None}
                    solution = None
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        start = time.perf_counter()
                        try:
                            solution = solve_fixed_point(cm.C, cm.B)
                        except NonConvergenceError as err:
                            record.update(message=str(err), iterations=err.iterations)
                        except Exception as exc:  # recorded, not fatal to the run
                            record["message"] = f"{type(exc).__name__}: {exc}"
                        else:
                            record.update(ok=True, iterations=solution.iterations,
                                          I=list(solution.clearing_set),
                                          p0=solution.p0.p.tolist())
                        record["seconds"] = time.perf_counter() - start
                    record["warnings"] = dict(Counter(w.category.__name__ for w in caught))
                    if solution is not None:
                        try:
                            record["R"] = degeneracy_report(solution, cm.C, cm.B).R
                        except Exception as exc:  # the error class is the record
                            record["R"] = type(exc).__name__
                    if kind == "structure" and record["ok"]:
                        (record["ops"], record["ideal_reason"]), record["lp_calls"] = count_lps(
                            lambda: structure_verdicts(tradequil, cm.C, cm.B, tuple(record["I"])))
                    yield record


def load(path):
    with open(path, encoding="utf-8") as handle:
        return {(r["kind"], r["seed"], r["panel"], r["year"]): r
                for r in map(json.loads, handle)}


def compare(path_a, path_b):
    """Print the per-seed comparison of two record files; return whether B
    has no new failure and no changed structure verdict."""
    a, b = load(path_a), load(path_b)
    keys = sorted(a.keys() & b.keys())
    by_seed = defaultdict(list)
    for key in keys:
        by_seed[key[:2]].append(key)
    total = Counter()
    changed = []
    deltas = []
    r_moved = []
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'kind':10} {'seed':>5} {'solves':>6} {'fail A→B':>9} {'new':>4} "
          f"{'resc':>4} {'evals A→B':>21} {'p50 ev A→B':>13} {'p50 ms A→B':>13} "
          f"{'warn':>5} {'I chg':>5} {'max|Δp0|':>9} {'max|ΔR|':>9}")
    for (kind, seed), group in sorted(by_seed.items()):
        row = Counter(solves=len(group))
        seed_deltas, r_deltas = [], []
        for key in group:
            ra, rb = a[key], b[key]
            row["fail_a"] += not ra["ok"]
            row["fail_b"] += not rb["ok"]
            row["new"] += ra["ok"] and not rb["ok"]
            row["rescued"] += rb["ok"] and not ra["ok"]
            row["evals_a"] += ra["iterations"] or 0
            row["evals_b"] += rb["iterations"] or 0
            row["warnings"] += sum(ra["warnings"].values()) + sum(rb["warnings"].values())
            if ra["ok"] and rb["ok"]:
                seed_deltas.append(float(np.abs(np.subtract(ra["p0"], rb["p0"])).max()))
                if ra["I"] != rb["I"]:
                    row["I_changed"] += 1
                    changed.append((key, ra["I"], rb["I"], seed_deltas[-1]))
                r_a, r_b = ra.get("R"), rb.get("R")
                if isinstance(r_a, float) and isinstance(r_b, float):
                    r_deltas.append(abs(r_a - r_b))
                    if r_deltas[-1] > R_MOVED:
                        r_moved.append((key, r_a, r_b))
                elif r_a != r_b and None not in (r_a, r_b):
                    r_moved.append((key, r_a, r_b))
        evals_a = statistics.median(a[key]["iterations"] or 0 for key in group)
        evals_b = statistics.median(b[key]["iterations"] or 0 for key in group)
        p50_a = statistics.median(a[key]["seconds"] for key in group) * 1e3
        p50_b = statistics.median(b[key]["seconds"] for key in group) * 1e3
        print(f"{kind:10} {seed:>5} {row['solves']:>6} "
              f"{row['fail_a']:>4}→{row['fail_b']:<4} {row['new']:>4} {row['rescued']:>4} "
              f"{row['evals_a']:>10,}→{row['evals_b']:<10,} {evals_a:>6.0f}→{evals_b:<6.0f} "
              f"{p50_a:>6.1f}→{p50_b:<6.1f} "
              f"{row['warnings']:>5} {row['I_changed']:>5} "
              f"{max(seed_deltas, default=0.0):>9.2e} {max(r_deltas, default=0.0):>9.2e}")
        total.update(row)
        deltas += seed_deltas
    print(f"{'all':10} {'':>5} {total['solves']:>6} {total['fail_a']:>4}→{total['fail_b']:<4} "
          f"{total['new']:>4} {total['rescued']:>4} "
          f"{total['evals_a']:>10,}→{total['evals_b']:<10,}")
    for side, records in (("A", a), ("B", b)):
        classes = Counter(failure_class(records[key]["message"])
                          for key in keys if not records[key]["ok"])
        print(f"failures by class {side}: " + ", ".join(
            f"{name} {classes[name]}" for name in [*dict(FAILURE_CLASSES), "other"]))
    if deltas:
        print(f"|Δp0| where both solve ({len(deltas)}): median {statistics.median(deltas):.2e}, "
              f"max {max(deltas):.2e}")
    for (kind, seed, panel, year), ia, ib, delta in changed:
        print(f"I changed: {kind} seed {seed} panel {panel}/{year}: {ia} → {ib} "
              f"(|Δp0| {delta:.2e})")
    print(f"R moved by more than {R_MOVED:g}: {len(r_moved)}")
    for (kind, seed, panel, year), r_a, r_b in r_moved:
        print(f"R moved: {kind} seed {seed} panel {panel}/{year}: {r_a!r} → {r_b!r}")
    verdicts = [(key, name, a[key]["ops"][name], b[key]["ops"][name])
                for key in keys if "ops" in a[key] and "ops" in b[key]
                for name in sorted(a[key]["ops"])]
    flips = [v for v in verdicts if v[2] != v[3]]
    if verdicts:
        print(f"structure verdicts compared: {len(verdicts)}, changed: {len(flips)}")
        for (kind, seed, panel, year), name, va, vb in flips:
            print(f"verdict changed: {kind} seed {seed} panel {panel}/{year} {name}: "
                  f"{va} → {vb}")
    reasons = [(key, a[key]["ideal_reason"], b[key]["ideal_reason"])
               for key in keys if "ideal_reason" in a[key] and "ideal_reason" in b[key]]
    reason_changes = [r for r in reasons if r[1] != r[2]]
    if reasons:
        print(f"ideal reasons compared: {len(reasons)}, changed: {len(reason_changes)}")
        for (kind, seed, panel, year), ra, rb in reason_changes:
            print(f"reason changed: {kind} seed {seed} panel {panel}/{year} exists_ideal: "
                  f"{ra} → {rb}")
    lps = [(key, a[key]["lp_calls"], b[key]["lp_calls"])
           for key in keys if "lp_calls" in a[key] and "lp_calls" in b[key]]
    lp_totals = defaultdict(Counter)
    for key, na, nb in lps:
        lp_totals[key[:2]].update(a=na, b=nb)
    for (kind, seed), sums in sorted(lp_totals.items()):
        print(f"LP calls: {kind} seed {seed}: {sums['a']:,} → {sums['b']:,}")
    lp_changes = [lp for lp in lps if lp[1] != lp[2]]
    if lps:
        print(f"LP counts compared: {len(lps)}, changed: {len(lp_changes)}")
        for (kind, seed, panel, year), na, nb in lp_changes:
            print(f"LP calls changed: {kind} seed {seed} panel {panel}/{year}: {na} → {nb}")
    for key in keys:
        if a[key]["ok"] != b[key]["ok"]:
            kind, seed, panel, year = key
            side = "new" if a[key]["ok"] else "rescued"
            print(f"{side}: {kind} seed {seed} panel {panel}/{year}: "
                  f"{(b[key] if a[key]['ok'] else a[key])['message']}")
    return not (total["new"] or flips)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("kind", nargs="?", choices=sorted(flows.SPECS))
    parser.add_argument("seeds", nargs="*", type=int)
    parser.add_argument("--panels", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--src", default=str(ROOT / "src"))
    args = parser.parse_args(argv)
    if not args.compare and not (args.kind and args.seeds and args.out):
        parser.error("give KIND, at least one SEED and --out, or --compare A B")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.compare:
        return 0 if compare(*args.compare) else 1
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        for record in solve_records(args.kind, args.seeds, args.panels, Path(args.src)):
            handle.write(json.dumps(record) + "\n")
            handle.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
