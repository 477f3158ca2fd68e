import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIRECT_SOLVES = ROOT / "tools" / "direct_solves.py"


def run(*args):
    return subprocess.run([sys.executable, str(DIRECT_SOLVES), *map(str, args)],
                          capture_output=True, text=True, check=True, timeout=120)


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
