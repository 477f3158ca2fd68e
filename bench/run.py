#!/usr/bin/env python3
"""Benchmark of the tradequil CLI pipeline and of its structure analysis.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Workloads. Inputs come from ``bench/flows.py``, in US dollars, and are never
filtered or rescaled, so failures caused by the currency unit show up.

g20-panel   ``tradequil.cli.main`` runs ``ingest`` on a 14-good x 20-country x
            4-year panel, then ``solve`` for each year. Operation: one solve.
structure   G20-shaped panels cut to 6 goods x 9 countries: ``ingest``, then
            per year a ``solve`` for the clearing set ``I`` and the
            operation: ``certify_consistency(C, B)``,
            ``certify_consistency(C, B, I)``, ``factor_supply``, ``exists_ideal``.

Each run is one process and one thread driving a closed loop with a single
caller, BLAS pinned to one thread. ``--seed`` and ``--seconds`` fix the
panels (``panel_count``), so a seed always attempts the same calls. The run
visits every panel once, then panels again from the first until
``--seconds`` have passed; every repetition must write the same bytes as the
first. Medians and tails are over distinct calls.

Times are corrected for the host's speed. A shared host runs the same code
up to 1.7 times slower for seconds to minutes at a time, whenever other
tenants load it, and a whole run can fall into such a stretch. So a fixed
numpy-and-interpreter computation that does not use tradequil
(``reference``) is timed just before every call, and the call's wall time is
scaled by ``REFERENCE_SECONDS`` over that reference time: the time the call
would take on the unloaded host. A change to tradequil moves the call and
not the reference, so it moves the corrected time in full. A call's time is
the median of its corrected repetitions; the record keeps the raw wall and
reference times of every call. ``setup_s`` alone is raw wall time
(``measure_setup`` says why).

Every distinct CLI call and structure operation counts once as attempted; a
nonzero exit, an exception, a failed output check (``bench/checks.py``) or a
repetition that differs from the first counts it as failed, kept with its
class and message. ``--trace 0`` reports the end-to-end metrics. ``--trace 1``
takes half the panels, visits the first once to warm up, makes one round
untraced and the next with spans (``bench/tracing.py``), and reports the
per-layer metrics and the tracing overhead. The last line of stdout is the result JSON; the full record, with
the environment, output digests and the span table, goes to
``bench/out/results/``.
"""

import os

# Set before numpy loads: one BLAS thread, here and in every child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import ctypes
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from checks import (Truth, check_certificate, check_factor, check_ideal,
                    check_matrices, check_recession, check_solution)
from tracing import LAYERS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("g20-panel", "structure")
SETUP_REPEATS = 5
# Seconds one visit of one panel takes on the 2-vCPU host the benchmark was
# tuned on. Panels are sized so that one round fills ``FILL`` of
# ``--seconds``: solve cost varies tenfold between economies, so medians
# need as many distinct ones as fit.
PANEL_SECONDS = {"g20-panel": 1.0, "structure": 2.5}
FILL = 0.75
# Seconds ``reference`` takes on that host when no other tenant loads it.
REFERENCE_SECONDS = 0.0062
# The kind of call each workload's operation is.
OP_KIND = {"g20-panel": "solve", "structure": "structure"}
# Fixed, so that the tail of a seed means the same on every run.
TAIL_PERCENTILE = 80

UNITS = {
    "setup_s": "s", "ingest_s": "s", "op_p50_s": "s", "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "trade_data.read_flows_csv_s": "s", "trade_data.rows_per_s": "1/s",
    "trade_data.build_cost_matrices_s": "s", "trade_data.from_dict_s": "s",
    "cli.self_s": "s",
    "equilibrium_solver.solve_p50_s": "s", "equilibrium_solver.solve_tail_s": "s",
    "equilibrium_solver.map_evals": "count", "equilibrium_solver.us_per_eval": "us",
    "equilibrium_solver.failures": "fraction", "equilibrium_solver.warnings": "count/call",
    "recession.degeneracy_report_share": "fraction",
    "consistency.certify_consistency_share": "fraction",
    "consistency.factor_supply_share": "fraction",
    "consistency.exists_ideal_share": "fraction",
    "consistency.linprog_calls": "count/op", "consistency.nnls_calls": "count/op",
    "cone_geometry.strictly_positive_solution_share": "fraction",
    "cone_geometry.strictly_positive_solution_calls": "count/op",
    "cone_geometry.classify_membership_calls": "count/op",
    "cone_geometry.numerical_rank_calls": "count/op",
    "cone_geometry.useful_ratio": "fraction",
    "trace.overhead_s": "s", "trace.overhead_frac": "fraction",
    **{f"{layer}.self_share": "fraction" for layer in LAYERS},
}


@dataclass
class Call:
    """One distinct CLI invocation or structure operation, and its repetitions."""

    kind: str
    key: tuple
    times: list  # corrected seconds of each repetition
    error: str | None = None
    message: str = ""
    warnings: Counter = field(default_factory=Counter)
    first: tuple = ()  # error and output digests (or verdicts) of the first repetition
    raw: list = field(default_factory=list)  # [wall seconds, reference seconds] of each

    @property
    def seconds(self):
        return statistics.median(self.times)


def panel_count(workload, seconds, trace):
    """Panels of a run; a traced run makes two rounds, so it takes half as many."""
    return max(1, math.ceil(FILL * seconds / PANEL_SECONDS[workload] / (2 if trace else 1)))


_REF_INPUTS = []


def reference():
    """Time a fixed mix of interpreter, text and small-array numpy work.

    It resembles what tradequil spends its time on (CSV and JSON handling,
    dicts of labels, small matrix products and a damped fixed-point loop in
    the solver) and calls none of it, so it measures the host and never the
    program.
    """
    import numpy as np

    if not _REF_INPUTS:
        rng = np.random.default_rng(0)
        small = rng.random((14, 20))
        _REF_INPUTS.extend([
            small, rng.random((60, 60)), rng.random(14),
            "".join(f"2016,C{i % 20:03d},C{i * 7 % 20:03d},{i % 14:02d},{i * 37}\n"
                    for i in range(600)),
            {"C": small.tolist(), "B": small.T.tolist(),
             "countries": [f"C{i:03d}" for i in range(20)]},
        ])
    small, square, supply, text, payload = _REF_INPUTS
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i
    table = {}
    for i in range(3000):
        table[str(i)] = float(i)
    for _ in range(200):
        small @ small.T
        np.exp(small).sum()
    np.linalg.solve(square, square[0])
    list(csv.reader(io.StringIO(text)))
    json.loads(json.dumps(payload))
    p = supply / supply.sum()
    for _ in range(150):
        excess = small @ ((small.T @ p) / (small.sum(axis=0) + 1.0)) - supply
        p = np.maximum(p + 0.01 * np.tanh(excess), 1e-12)
        p /= p.sum()
    return time.perf_counter() - start


def corrected(wall, ref):
    return wall * REFERENCE_SECONDS / ref


def tail(values):
    """The ``TAIL_PERCENTILE`` of ``values`` and how many samples lie above it."""
    if len(values) == 1:
        return values[0], 0
    value = statistics.quantiles(values, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    return value, sum(1 for v in values if v > value)


def median(values):
    return statistics.median(values) if values else 0.0


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def blas_threads():
    """Threads the bundled OpenBLAS reports, or None when it cannot be asked."""
    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                return int(getter())
    return None


def environment():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def measure_setup(env):
    """Wall seconds of fresh interpreters importing ``tradequil.cli``.

    Not corrected for host speed: a reference timed between imports is
    disturbed by the child processes, and corrected set-up times spread
    more between runs than raw ones. No timeout is passed: with one,
    ``subprocess`` polls the child and adds up to 50 ms to its time.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import tradequil.cli"], env=env,
                       cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


class Runner:
    """Rounds over one workload's panels, with output checks and digests."""

    def __init__(self, workload, panels):
        import tradequil
        from tradequil import cli

        self.tq = tradequil
        self.main = cli.main
        self.workload = workload
        self.panels = panels  # [(csv path, checks.Truth)]
        self.calls = {}  # (kind, *key) -> Call
        self.rows_read = 0
        self.problems = []  # failed checks, with the call they belong to
        self.devnull = open(os.devnull, "w", encoding="utf-8")

    def close(self):
        self.devnull.close()

    def ops(self):
        return [c for c in self.calls.values() if c.kind == OP_KIND[self.workload]]

    # -- one panel of one round ------------------------------------------------

    def step(self, index, out):
        """Ingest panel ``index`` into ``out``, then solve and analyse its years."""
        csv_path, truth = self.panels[index]
        matrices_dir = out / "matrices"
        ingest = self.cli_call(
            "ingest", (index,),
            ["ingest", "--input", str(csv_path), "--out", str(matrices_dir)],
            matrices_dir, lambda: self.check_ingest(matrices_dir, truth))
        self.rows_read += truth.rows
        if ingest.error is not None:
            return
        for year in truth.years:
            matrices = matrices_dir / f"matrices_{year}.json"
            solve_dir = out / f"solve_{year}"
            solve = self.cli_call(
                "solve", (index, year),
                ["solve", "--input", str(matrices), "--out", str(solve_dir)],
                solve_dir, lambda: self.check_solve(matrices, solve_dir, truth))
            if self.workload == "structure" and solve.error is None:
                self.structure_op(index, year, matrices, solve_dir, truth)

    def cli_call(self, kind, key, argv, out_dir, check):
        stderr = io.StringIO()
        with contextlib.redirect_stdout(self.devnull), \
                contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ref = reference()
            start = time.perf_counter()
            try:
                code = self.main(argv)
                error = None if code == 0 else f"cli exit {code}"
            except Exception as exc:  # an uncaught error fails this call only
                error = type(exc).__name__
                stderr.write(f"{error}: {exc}")
            seconds = time.perf_counter() - start
        return self.record(
            kind, key, seconds, ref, error, stderr.getvalue().strip(),
            Counter(w.category.__name__ for w in caught), check,
            lambda: {p.name: sha256(p) for p in sorted(out_dir.iterdir())})

    def structure_op(self, index, year, matrices, solve_dir, truth):
        tq = self.tq
        cm = tq.CostMatrices.from_dict(json.loads(matrices.read_text()))
        clearing = tuple(k - 1 for k in json.loads((solve_dir / "solution.json").read_text())["I"])
        C, B = cm.C, cm.B
        steps = (
            ("certify_consistency", lambda: tq.certify_consistency(C, B)),
            ("certify_consistency_I", lambda: tq.certify_consistency(C, B, clearing)),
            ("factor_supply", lambda: tq.factor_supply(C, B)),
            ("exists_ideal", lambda: tq.exists_ideal(C, B)),
        )
        results, errors = {}, []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ref = reference()
            start = time.perf_counter()
            for name, run in steps:
                try:
                    results[name] = run()
                except Exception as exc:  # typed errors are counted, not fatal
                    errors.append((name, exc))
            seconds = time.perf_counter() - start
        first = errors[0] if errors else None

        def check():
            Ct, Bt = truth.matrices(year, cm.countries, cm.goods)
            problems = []
            for name in ("certify_consistency", "certify_consistency_I"):
                if name in results:
                    problems += check_certificate(results[name], Ct, Bt, clearing)
            if "factor_supply" in results:
                problems += check_factor(results["factor_supply"].B1, Ct, Bt)
            if "exists_ideal" in results:
                problems += check_ideal(results["exists_ideal"], Ct, Bt)
            return problems

        def verdicts():
            labels = {name: getattr(r, "label", None) or getattr(r, "mode", None)
                      or bool(r) for name, r in results.items()}
            labels.update({name: type(exc).__name__ for name, exc in errors})
            return labels

        self.record(
            "structure", (index, year), seconds, ref,
            f"{type(first[1]).__name__} in {first[0]}" if first else None,
            "; ".join(f"{name}: {type(exc).__name__}: {exc}" for name, exc in errors),
            Counter(w.category.__name__ for w in caught), check, verdicts)

    # -- checks --------------------------------------------------------------

    def record(self, kind, key, seconds, ref, error, message, caught, check, outputs):
        """Add one repetition of a call.

        The first repetition is checked against the generated flows; every
        later one must end the same way and write the same outputs.
        """
        call = self.calls.get((kind,) + key)
        problems = []
        try:
            got = outputs() if error is None else None
            if call is None and error is None:
                problems = check()
        except (OSError, KeyError, ValueError) as exc:
            got = None
            problems = [f"output unreadable: {type(exc).__name__}: {exc}"]
        if call is None:
            call = Call(kind, key, [], error, message, caught, (error, got))
            self.calls[(kind,) + key] = call
        elif (error, got) != call.first and not problems:
            problems = [f"repetition {len(call.times) + 1} ended differently from the first"]
        call.times.append(corrected(seconds, ref))
        call.raw.append([seconds, ref])
        if problems:
            call.error = call.error or "check failed"
            self.problems.append({"call": [kind, *key], "problems": problems})
        return call

    @staticmethod
    def check_ingest(matrices_dir, truth):
        problems = []
        for year in truth.years:
            payload = json.loads((matrices_dir / f"matrices_{year}.json").read_text())
            C, B = truth.matrices(year, payload["countries"], payload["goods"])
            problems += [f"{year}: {p}" for p in check_matrices(payload, C, B)]
        return problems

    @staticmethod
    def check_solve(matrices, solve_dir, truth):
        payload = json.loads(matrices.read_text())
        C, B = truth.matrices(payload["year"], payload["countries"], payload["goods"])
        solution = json.loads((solve_dir / "solution.json").read_text())
        recession = json.loads((solve_dir / "recession.json").read_text())
        return check_solution(solution, C, B) + check_recession(recession, solution)

    # -- rounds ---------------------------------------------------------------

    def rounds(self, seconds, work):
        """Every panel once, then panels in turn until ``seconds`` have passed."""
        start = time.perf_counter()
        visits = 0
        while True:
            index, round_ = visits % len(self.panels), visits // len(self.panels)
            if round_ >= 1 and time.perf_counter() - start >= seconds:
                return visits
            self.step(index, work / f"round{round_}" / f"panel{index:03d}")
            visits += 1

    def one_round(self, work):
        for index in range(len(self.panels)):
            self.step(index, work / f"panel{index:03d}")


def failure_table(calls):
    table = {}
    for call in calls:
        if call.error is not None:
            row = table.setdefault(call.error, {"count": 0, "message": call.message})
            row["count"] += 1
    return table


def end_to_end(runner, setup):
    op_times = [op.seconds for op in runner.ops()]
    value, beyond = tail(op_times)
    metrics = {
        "setup_s": statistics.median(setup),
        "ingest_s": median([c.seconds for c in runner.calls.values() if c.kind == "ingest"]),
        "op_p50_s": median(op_times),
        "op_tail_s": value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"op_tail_percentile": TAIL_PERCENTILE, "ops": len(op_times),
              "ops_beyond_tail": beyond, "setup_runs_s": setup,
              "repetitions": dict(sorted(Counter(
                  len(c.times) for c in runner.calls.values()).items()))}
    return metrics, detail


def per_layer(runner, tracer):
    # Corrected seconds of the untraced and the traced round, call by call.
    untraced_s, traced_s = (sum(c.times[i] for c in runner.calls.values() if len(c.times) > 1)
                            for i in (-2, -1))
    spans = tracer.table()
    total = sum(row["self_s"] for row in spans.values()) or 1.0
    ops = max(1, len(runner.ops()))

    def med(name):
        return median(tracer.durations(name))

    def share(name):
        # Inclusive time of the outermost calls of ``name``.
        outer = [e - s for n, _, s, e, parent in tracer.spans
                 if n == name and (parent < 0 or tracer.spans[parent][0] != name)]
        return sum(outer) / total

    def per_op(*names):
        return sum(tracer.calls(n) for n in names) / ops

    solve = "equilibrium_solver.solve_fixed_point"
    solve_times = tracer.durations(solve)
    read_s = sum(tracer.durations("trade_data.read_flows_csv"))
    cli_self = []
    layer_self = Counter()
    for span, own in zip(tracer.spans, tracer.self_times()):
        layer_self[span[1]] += own
        if span[0] == "cli.main":
            cli_self.append(own)
    membership = tracer.calls("cone_geometry.classify_membership")
    positive = tracer.calls("cone_geometry.strictly_positive_solution")
    positive_ok = positive - tracer.failures("cone_geometry.strictly_positive_solution")
    metrics = {
        "trade_data.read_flows_csv_s": med("trade_data.read_flows_csv"),
        "trade_data.rows_per_s": runner.rows_read / read_s if read_s else 0.0,
        "trade_data.build_cost_matrices_s": med("trade_data.build_cost_matrices"),
        "trade_data.from_dict_s": med("trade_data.from_dict"),
        "cli.self_s": median(cli_self),
        "equilibrium_solver.solve_p50_s": median(solve_times),
        "equilibrium_solver.solve_tail_s": tail(solve_times)[0] if solve_times else 0.0,
        "equilibrium_solver.map_evals": median(tracer.solve_evals),
        "equilibrium_solver.us_per_eval":
            1e6 * sum(solve_times) / sum(tracer.solve_evals) if tracer.solve_evals else 0.0,
        "equilibrium_solver.failures":
            tracer.failures(solve) / len(solve_times) if solve_times else 0.0,
        "equilibrium_solver.warnings":
            tracer.warnings[("equilibrium_solver", "RuntimeWarning")] / max(1, len(solve_times)),
        "recession.degeneracy_report_share": share("recession.degeneracy_report"),
        "consistency.certify_consistency_share": share("consistency.certify_consistency"),
        "consistency.factor_supply_share": share("consistency.factor_supply"),
        "consistency.exists_ideal_share": share("consistency.exists_ideal"),
        "consistency.linprog_calls": per_op("consistency.linprog"),
        "consistency.nnls_calls": per_op("consistency.nnls_solve"),
        "cone_geometry.strictly_positive_solution_share":
            share("cone_geometry.strictly_positive_solution"),
        "cone_geometry.strictly_positive_solution_calls": positive / ops,
        "cone_geometry.classify_membership_calls": membership / ops,
        "cone_geometry.numerical_rank_calls":
            per_op("cone_geometry.numerical_rank", "cone_geometry.require_independent"),
        "cone_geometry.useful_ratio": positive_ok / membership if membership else 0.0,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_frac": (traced_s - untraced_s) / untraced_s,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = layer_self[layer] / total
    detail = {
        "spans": spans,
        "errors": [[name, cls, count] for (name, cls), count in sorted(tracer.errors.items())],
        "warnings": [[layer, cat, count] for (layer, cat), count in sorted(tracer.warnings.items())],
        "untraced_s": untraced_s,
        "traced_s": traced_s,
    }
    return metrics, detail


def run_workload(args, work):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    reference()  # the first call pays for numpy's lazy set-up
    setup = [] if args.trace else measure_setup(env)
    inputs = work / "inputs"
    subprocess.run([sys.executable, str(BENCH / "flows.py"), args.workload,
                    str(args.seed), str(panel_count(args.workload, args.seconds, args.trace)),
                    str(inputs)],
                   env=env, check=True, timeout=170)
    sys.path.insert(0, str(SRC))
    panels = [(path, Truth(path.with_suffix(".npz"))) for path in sorted(inputs.glob("*.csv"))]
    runner = Runner(args.workload, panels)
    try:
        if not args.trace:
            runner.rounds(args.seconds, work / "run")
            metrics, detail = end_to_end(runner, setup)
        else:
            runner.step(0, work / "warm-up")  # lazy imports and first-call set-up
            runner.one_round(work / "untraced")
            runner.rows_read = 0
            tracer = Tracer()
            plain_main = runner.main
            tracer.install()
            runner.main = tracer.wrap("cli.main", plain_main)
            try:
                runner.one_round(work / "traced")
            finally:
                tracer.uninstall()
                runner.main = plain_main
            metrics, detail = per_layer(runner, tracer)
    finally:
        runner.close()
    calls = list(runner.calls.values())
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "panels": len(panels),
        "correct": not runner.problems,
        "attempted": len(calls),
        "failed": sum(1 for c in calls if c.error is not None),
        "failures": failure_table(calls),
        "warnings": dict(sum((c.warnings for c in calls), Counter())),
        "problems": runner.problems,
        "metrics": metrics,
        "detail": detail,
        "digests": {"/".join(map(str, (c.kind,) + c.key)): c.first[1] for c in calls},
        "calls": [[c.kind, *c.key, c.error, c.raw] for c in calls],
    }
    return record


def print_result(record):
    print(f"{record['workload']} seed={record['seed']} trace={record['trace']}: "
          f"{record['panels']} panels, {record['attempted']} calls, "
          f"{record['failed']} failed, correct={record['correct']}")
    print(f"  environment: {json.dumps(record['environment'], sort_keys=True)}")
    for error, row in record["failures"].items():
        print(f"  failed {row['count']}x {error}: {row['message'][:160]}")
    detail = record["detail"]
    if "spans" in detail:
        top = sorted(detail["spans"].items(), key=lambda item: -item[1]["self_s"])[:4]
        print("  largest self time: " + ", ".join(f"{name} {row['self_s']:.3g} s"
                                                 for name, row in top))
    else:
        print(f"  op_tail_s is p{detail['op_tail_percentile']} of {detail['ops']} ops, "
              f"{detail['ops_beyond_tail']} beyond it; calls by repetitions: "
              f"{detail['repetitions']}")
    for name, value in record["metrics"].items():
        print(f"  {name:48s} {value:14.6g} {UNITS[name]}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in record["metrics"].items()},
    }))


def run_all(args):
    """Every workload in its own process, one table and one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode != 0:
            sys.exit(f"error: workload {workload} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main():
    args = parse_args()
    if not (SRC / "tradequil" / "cli.py").is_file():
        sys.exit(f"error: no tradequil sources under {SRC}")
    if args.workload == "all":
        run_all(args)
        return
    work = OUT / f"work-{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        record = run_workload(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print_result(record)


if __name__ == "__main__":
    main()
