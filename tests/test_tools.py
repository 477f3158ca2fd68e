import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIRECT_SOLVES = ROOT / "tools" / "direct_solves.py"
BENCH_DIGESTS = ROOT / "tools" / "bench_digests.py"


def run(*args, status=0, tool=DIRECT_SOLVES):
    proc = subprocess.run([sys.executable, str(tool), *map(str, args)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == status, proc.stderr
    return proc


class TestDirectSolves:
    def test_one_structure_panel_is_solved_and_compared(self, tmp_path):
        out = tmp_path / "records.jsonl"
        run("structure", 502, "--panels", 1, "--out", out)
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [(r["kind"], r["seed"], r["panel"]) for r in records] == [("structure", 502, 0)] * 4
        assert [r["year"] for r in records] == [2016, 2017, 2018, 2019]
        for record in records:
            assert record["ok"] and record["message"] == ""
            assert record["iterations"] > 0 and record["warnings"] == {}
            assert record["I"] and abs(sum(record["p0"]) - 1) < 1e-12
        report = run("--compare", out, out).stdout
        assert "structure    502      4    0→0       0    0" in report
        assert "I changed" not in report and "median 0.00e+00" in report
        # The per-solve median of map evaluations sits next to their total.
        median = statistics.median(r["iterations"] for r in records)
        doubled = tmp_path / "doubled.jsonl"
        doubled.write_text("".join(json.dumps({**r, "iterations": 2 * r["iterations"]}) + "\n"
                                   for r in records))
        report = run("--compare", out, doubled).stdout
        assert "p50 ev A→B" in report.splitlines()[2]
        total = sum(r["iterations"] for r in records)
        [row] = [line for line in report.splitlines() if line.startswith("structure    502")]
        assert f"{total:>10,}→{2 * total:<10,} {median:>6.0f}→{2 * median:<6.0f} " in row

    def test_structure_verdicts_are_recorded_and_compared(self, tmp_path):
        out = tmp_path / "records.jsonl"
        run("structure", 502, "--panels", 1, "--out", out)
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 4
        for record in records:
            assert record["ok"] and record["warnings"] == {}
            assert sorted(record["ops"]) == ["certify_consistency", "certify_consistency_I",
                                             "exists_ideal", "factor_supply"]
            assert all(isinstance(v, str) and v for v in record["ops"].values())
            assert (record["ideal_reason"] is None) == (record["ops"]["exists_ideal"] == "exists")
        assert "structure verdicts compared: 16, changed: 0" in run("--compare", out, out).stdout
        records[1]["ops"]["exists_ideal"] = "RankDeficiencyError"
        changed = tmp_path / "changed.jsonl"
        changed.write_text("".join(json.dumps(r) + "\n" for r in records))
        report = run("--compare", out, changed, status=1).stdout
        assert "structure verdicts compared: 16, changed: 1" in report
        assert ("verdict changed: structure seed 502 panel 0/2017 exists_ideal: "
                f"{json.loads(out.read_text().splitlines()[1])['ops']['exists_ideal']} → "
                "RankDeficiencyError") in report
        # A solve that fails only in B gates too; one that B rescues does not.
        records = [json.loads(line) for line in out.read_text().splitlines()]
        records[2].update(ok=False, message="doctored", I=None, p0=None)
        del records[2]["ops"]
        failed = tmp_path / "failed.jsonl"
        failed.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert "new: structure seed 502 panel 0/2018: doctored" in run(
            "--compare", out, failed, status=1).stdout
        assert "rescued: structure seed 502 panel 0/2018: doctored" in run(
            "--compare", failed, out).stdout

    def test_ideal_reason_is_listed_but_gates_only_with_exists(self, tmp_path):
        out = tmp_path / "records.jsonl"
        run("structure", 502, "--panels", 1, "--out", out)
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert "ideal reasons compared: 4, changed: 0" in run("--compare", out, out).stdout
        before = records[0]["ideal_reason"]
        records[0].update(ideal_reason="doctored reason")
        reason = tmp_path / "reason.jsonl"
        reason.write_text("".join(json.dumps(r) + "\n" for r in records))
        report = run("--compare", out, reason).stdout
        assert "structure verdicts compared: 16, changed: 0" in report
        assert "ideal reasons compared: 4, changed: 1" in report
        assert ("reason changed: structure seed 502 panel 0/2016 exists_ideal: "
                f"{before} → doctored reason") in report
        was = records[0]["ops"]["exists_ideal"]
        records[0]["ops"]["exists_ideal"] = flipped = "exists" if was == "no ideal" else "no ideal"
        exists = tmp_path / "exists.jsonl"
        exists.write_text("".join(json.dumps(r) + "\n" for r in records))
        report = run("--compare", out, exists, status=1).stdout
        assert "structure verdicts compared: 16, changed: 1" in report
        assert ("verdict changed: structure seed 502 panel 0/2016 exists_ideal: "
                f"{was} → {flipped}") in report

    def test_lp_counts_are_recorded_and_listed_but_do_not_gate(self, tmp_path):
        out = tmp_path / "records.jsonl"
        run("structure", 502, "--panels", 1, "--out", out)
        records = [json.loads(line) for line in out.read_text().splitlines()]
        counts = [r["lp_calls"] for r in records]
        assert all(isinstance(n, int) and n > 0 for n in counts)
        total = sum(counts)
        report = run("--compare", out, out).stdout
        assert f"LP calls: structure seed 502: {total:,} → {total:,}" in report
        assert "LP counts compared: 4, changed: 0" in report
        records[3]["lp_calls"] += 2
        more = tmp_path / "more.jsonl"
        more.write_text("".join(json.dumps(r) + "\n" for r in records))
        report = run("--compare", out, more).stdout
        assert f"LP calls: structure seed 502: {total:,} → {total + 2:,}" in report
        assert "LP counts compared: 4, changed: 1" in report
        assert (f"LP calls changed: structure seed 502 panel 0/2019: "
                f"{counts[3]} → {counts[3] + 2}") in report

    def test_recession_levels_are_recorded_and_listed_but_do_not_gate(self, tmp_path):
        out = tmp_path / "records.jsonl"
        run("structure", 502, "--panels", 1, "--out", out)
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert all(isinstance(r["R"], float) and 0.0 <= r["R"] <= 1.0 for r in records)
        report = run("--compare", out, out).stdout
        assert "max|ΔR|" in report.splitlines()[2]
        assert "R moved by more than 1e-09: 0" in report
        # A change below 1e-9 shows only in the seed's max|ΔR|; larger ones,
        # and a report that now raises, are listed, and neither gates.
        before = [r["R"] for r in records]
        records[0]["R"] += 5e-10
        records[1]["R"] += 1e-6
        records[2]["R"] = "PreconditionError"
        moved = tmp_path / "moved.jsonl"
        moved.write_text("".join(json.dumps(r) + "\n" for r in records))
        report = run("--compare", out, moved).stdout
        [row] = [line for line in report.splitlines() if line.startswith("structure    502")]
        assert row.endswith(f"{abs(records[1]['R'] - before[1]):>9.2e}")
        assert "R moved by more than 1e-09: 2" in report
        assert (f"R moved: structure seed 502 panel 0/2017: {before[1]!r} → "
                f"{records[1]['R']!r}") in report
        assert (f"R moved: structure seed 502 panel 0/2018: {before[2]!r} → "
                "'PreconditionError'") in report
        assert "2016" not in "".join(line for line in report.splitlines()
                                     if line.startswith("R moved:"))

    def test_failures_are_counted_by_class(self, tmp_path):
        messages = [
            "converged point violates the equilibrium inequalities by 1.0e+08 at good 3",
            "converged point violates the equilibrium inequalities by 2.0e+08 at good 5",
            "the last stage stalled after 2893 map evaluations (residual not "
            "halved in 2000); residual 2.9e-08",
            "the last stage hit the 200000-evaluation cap after 200000 map "
            "evaluations; residual 1.0e-09",
            "no good clears at the converged point; tighten tolerances",
            "aggregate cost identity violated by 1.000e-03",
        ]
        solved = {"ok": True, "message": "", "iterations": 10, "I": [0], "p0": [1.0],
                  "warnings": {}, "seconds": 0.01}
        records_a, records_b = [], []
        for year, message in enumerate(messages, start=2016):
            key = {"kind": "g20-panel", "seed": 301, "panel": 0, "year": year}
            records_a.append({**key, **solved})
            records_b.append({**key, **solved, "ok": False, "message": message,
                              "I": None, "p0": None})
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_text("".join(json.dumps(r) + "\n" for r in records_a))
        b.write_text("".join(json.dumps(r) + "\n" for r in records_b))
        report = run("--compare", a, b, status=1).stdout
        assert ("failures by class A: violation 0, stall 0, cap 0, no good clears 0, "
                "other 0") in report
        assert ("failures by class B: violation 2, stall 1, cap 1, no good clears 1, "
                "other 1") in report
        assert "failures by class A: violation 2, stall 1" in run("--compare", b, a).stdout


class TestBenchDigests:
    # The fields of a bench/run.py record that the tool reads: a CLI call's
    # digest maps its output files to SHA-256, a structure operation's maps
    # its steps to verdicts, and a failed call's is null.
    RECORD = {
        "workload": "structure", "seed": 9601,
        "digests": {
            "ingest/0": {"matrices_2016.json": "a1", "matrices_2017.json": "a2"},
            "solve/0/2016": {"recession.csv": "b1", "recession.json": "b2",
                             "report.txt": "b3", "solution.json": "b4"},
            "solve/0/2017": None,
            "structure/0/2016": {"certify_consistency": "strict", "exists_ideal": True},
            "solve/10/2016": {"recession.csv": "c1", "recession.json": "c2",
                              "report.txt": "c3", "solution.json": "c4"},
        },
    }

    def write(self, path, record):
        path.write_text(json.dumps(record), encoding="utf-8")
        return path

    def test_same_digests_pass(self, tmp_path):
        a = self.write(tmp_path / "a.json", self.RECORD)
        report = run(a, a, tool=BENCH_DIGESTS).stdout
        assert "calls: A 5, B 5, both 5; differing 0, only in A 0, only in B 0" in report

    def test_doctored_record_lists_every_differing_call(self, tmp_path):
        a = self.write(tmp_path / "a.json", self.RECORD)
        doctored = json.loads(json.dumps(self.RECORD))
        digests = doctored["digests"]
        digests["solve/0/2016"].update({"recession.json": "x", "report.txt": "y"})
        digests["solve/0/2017"] = {"solution.json": "z"}
        digests["structure/0/2016"]["exists_ideal"] = False
        del digests["ingest/0"]
        digests["solve/1/2016"] = None
        b = self.write(tmp_path / "b.json", doctored)
        lines = run(a, b, status=1, tool=BENCH_DIGESTS).stdout.splitlines()
        assert lines[2:] == [
            "calls: A 5, B 5, both 4; differing 3, only in A 1, only in B 1",
            "differs: solve/0/2016: recession.json, report.txt",
            "differs: solve/0/2017: failed in A",
            "differs: structure/0/2016: exists_ideal",
            "only in A: ingest/0",
            "only in B: solve/1/2016",
        ]
        assert "differs: solve/0/2017: failed in B" in run(b, a, status=1, tool=BENCH_DIGESTS).stdout

    def test_records_of_other_seeds_are_refused(self, tmp_path):
        a = self.write(tmp_path / "a.json", self.RECORD)
        b = self.write(tmp_path / "b.json", {**self.RECORD, "seed": 9611})
        report = run(a, b, status=2, tool=BENCH_DIGESTS).stdout
        assert "different workloads or seeds" in report
