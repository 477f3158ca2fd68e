import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tradequil
from test_equilibrium import DRIFTING_B, DRIFTING_C, FADING_B, FADING_C
from tradequil import CostMatrices
from tradequil.cli import EXIT_INPUT, EXIT_NO_CONVERGENCE, EXIT_OK, main

TOY_CSV = (
    "year,reporter,partner,product,value\n"
    "2020,a,b,g,3\n"
    "2020,b,a,g,5\n"
)


def write_csv(tmp_path, text=TOY_CSV, name="flows.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def run(*argv):
    return main([str(a) for a in argv])


class TestIngest:
    def test_toy_round_trip(self, tmp_path, capsys):
        csv_path = write_csv(tmp_path)
        out = tmp_path / "out"
        assert run("ingest", "--input", csv_path, "--out", out) == EXIT_OK
        payload = json.loads((out / "matrices_2020.json").read_text())
        assert payload["C"] == [[5.0, 3.0]]
        assert payload["B"] == [[3.0, 5.0]]
        assert payload["year"] == 2020
        printed = capsys.readouterr().out
        assert "trade balance" in printed
        assert "a: -2.0" in printed

    def test_empty_file_is_schema_error(self, tmp_path):
        csv_path = write_csv(tmp_path, "")
        assert run("ingest", "--input", csv_path, "--out", tmp_path / "o") == EXIT_INPUT

    def test_field_over_the_csv_limit_is_input_error(self, tmp_path, capsys):
        csv_path = write_csv(tmp_path, TOY_CSV + "2020,a,b,g," + "0" * 139_999 + "1\n")
        out = tmp_path / "out"
        assert run("ingest", "--input", csv_path, "--out", out) == EXIT_INPUT
        assert "line 4: unreadable line: field larger than field limit" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_country_label_is_input_error(self, tmp_path, capsys):
        csv_path = write_csv(tmp_path)
        out = tmp_path / "out"
        code = run("ingest", "--input", csv_path, "--out", out, "--countries", "a,a,b")
        assert code == EXIT_INPUT
        assert "countries list names 'a' twice" in capsys.readouterr().err
        assert not out.exists()

    def test_spaces_after_list_commas_are_ignored(self, tmp_path):
        csv_path = write_csv(tmp_path, "year,reporter,partner,product,value\n"
                                       "2020,US,CN,g,3\n2020,CN,US,g,5\n2020,US,CN,h,2\n")
        written = []
        for countries, products in (("US,CN", "h,g"), ("US, CN", " h , g")):
            out = tmp_path / countries / products
            assert run("ingest", "--input", csv_path, "--out", out,
                       "--countries", countries, "--products", products) == EXIT_OK
            written.append((out / "matrices_2020.json").read_text())
        assert written[0] == written[1]
        assert json.loads(written[0])["countries"] == ["US", "CN"]

    def test_synthetic_many_country_ingest(self, tmp_path):
        rng = np.random.default_rng(3)
        lines = ["year,reporter,partner,product,value"]
        countries = [f"c{i:02d}" for i in range(19)]
        goods = [f"g{s:02d}" for s in range(16)]
        for k in range(19):
            for j in range(19):
                if k == j:
                    continue
                for s in range(16):
                    lines.append(
                        f"2021,{countries[k]},{countries[j]},{goods[s]},"
                        f"{int(rng.integers(0, 1000))}"
                    )
        csv_path = write_csv(tmp_path, "\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert run("ingest", "--input", csv_path, "--out", out) == EXIT_OK
        payload = json.loads((out / "matrices_2021.json").read_text())
        C = np.array(payload["C"])
        assert C.shape == (16, 19)
        assert sum(payload["balances"]) == 0.0


class TestSolve:
    def solve_toy(self, tmp_path):
        csv_path = write_csv(tmp_path)
        out = tmp_path / "out"
        run("ingest", "--input", csv_path, "--out", out)
        code = run(
            "solve", "--input", out / "matrices_2020.json", "--out", out / "run"
        )
        return code, tmp_path / "out" / "run"

    def test_solve_writes_all_artifacts(self, tmp_path, capsys):
        code, run_dir = self.solve_toy(tmp_path)
        assert code == EXIT_OK
        for name in ("solution.json", "recession.json", "recession.csv", "report.txt"):
            assert (run_dir / name).exists()
        report = (run_dir / "report.txt").read_text()
        for heading in (
            "1. The trade balance of countries in the current prices:",
            "2. The excess demand in the current prices:",
            "3. The equilibrium price vector:",
            "4. The excess demand under the equilibrium price vector:",
            "5. The vector y of satisfactions of consumer needs",
            "6. The generalized relative equilibrium price vector:",
            "7. Parameter of recession level:",
        ):
            assert heading in report

    def test_solution_schema(self, tmp_path):
        _, run_dir = self.solve_toy(tmp_path)
        payload = json.loads((run_dir / "solution.json").read_text())
        assert payload["schema_version"] == 2
        assert set(payload) >= {"p0", "I", "y", "excess", "residual",
                                "iterations", "tol"}
        assert payload["tol"] == 1e-6 and "epsilon" not in payload
        assert min(payload["I"]) >= 1  # 1-based in serialized form

    def test_byte_stable_outputs(self, tmp_path):
        csv_path = write_csv(tmp_path)
        out = tmp_path / "out"
        run("ingest", "--input", csv_path, "--out", out)
        run("solve", "--input", out / "matrices_2020.json", "--out", out / "r1")
        run("solve", "--input", out / "matrices_2020.json", "--out", out / "r2")
        for name in ("solution.json", "recession.json", "recession.csv", "report.txt"):
            assert (out / "r1" / name).read_bytes() == (out / "r2" / name).read_bytes()

    def test_identical_supply_demand_reports_zero_recession(self, tmp_path, capsys):
        # B = C instance via a hand-written matrices file.
        out = tmp_path / "out"
        out.mkdir()
        payload = {
            "schema_version": 1,
            "year": 1999,
            "countries": ["x", "y"],
            "goods": ["g", "h"],
            "C": [[2.0, 1.0], [1.0, 2.0]],
            "B": [[2.0, 1.0], [1.0, 2.0]],
            "psi": [3.0, 3.0],
            "incomes": [3.0, 3.0],
            "balances": [0.0, 0.0],
        }
        (out / "m.json").write_text(json.dumps(payload))
        assert run("solve", "--input", out / "m.json", "--out", out / "run") == EXIT_OK
        rec = json.loads((out / "run" / "recession.json").read_text())
        assert rec["R"] == 0.0
        assert rec["multiplicity"] == 0

    def test_boundary_instance_reports_expected_clearing(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        payload = {
            "schema_version": 1,
            "year": 2000,
            "countries": ["solo"],
            "goods": ["g", "h"],
            "C": [[1.0], [1.0]],
            "B": [[2.0], [1.0]],
            "psi": [2.0, 1.0],
            "incomes": [3.0],
            "balances": [1.0],
        }
        (out / "m.json").write_text(json.dumps(payload))
        with pytest.warns(UserWarning):
            code = run("solve", "--input", out / "m.json", "--out", out / "run")
        assert code == EXIT_OK
        rec = json.loads((out / "run" / "recession.json").read_text())
        assert rec["I"] == [2]
        assert rec["R"] == pytest.approx(0.5, abs=1e-9)

    def test_nonconvergence_exit_code(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        payload = {
            "schema_version": 1,
            "countries": ["solo"],
            "goods": ["g", "h"],
            "C": [[1.0], [1.0]],
            "B": [[2.0], [1.0]],
            "psi": [2.0, 1.0],
            "incomes": [3.0],
            "balances": [1.0],
        }
        (out / "m.json").write_text(json.dumps(payload))
        with pytest.warns(UserWarning):
            code = run(
                "solve", "--input", out / "m.json", "--out", out / "run",
                "--tol", "1e-10",
            )
        assert code == EXIT_NO_CONVERGENCE
        # The last stage leaves good 2 (supply 1) short by 7.15e-10, more
        # than the 1e-10 of its supply that the tolerance allows.
        assert re.search(
            r"violates the equilibrium inequalities by \S+ at good 2 \(1-based\), "
            r"7\.15e-10 of its aggregate supply", capsys.readouterr().err)

    @pytest.mark.parametrize("flag, value", [("--tol", "-1"), ("--tol", "inf")])
    def test_invalid_settings_are_input_errors(self, tmp_path, capsys, flag, value):
        csv_path = write_csv(tmp_path)
        out = tmp_path / "out"
        run("ingest", "--input", csv_path, "--out", out)
        code = run("solve", "--input", out / "matrices_2020.json",
                   "--out", out / "run", flag, value)
        assert code == EXIT_INPUT
        assert not (out / "run").exists()
        assert "error:" in capsys.readouterr().err

    def test_missing_input_is_input_error(self, tmp_path):
        assert run("solve", "--input", tmp_path / "nope.json",
                   "--out", tmp_path / "o") == EXIT_INPUT


class TestShares:
    def test_share_outputs(self, tmp_path):
        csv_path = write_csv(tmp_path)
        out = tmp_path / "out"
        run("ingest", "--input", csv_path, "--out", out)
        code = run("shares", "--input", out / "matrices_2020.json",
                   "--out", out / "shares")
        assert code == EXIT_OK
        text = (out / "shares" / "shares_country_demand.csv").read_text()
        lines = text.strip().splitlines()
        assert lines[0] == "label,share"
        assert lines[1].startswith("a,0.625")  # a imports 5 of 8
        payload = json.loads((out / "shares" / "shares.json").read_text())
        assert payload["country_supply"]["ranked"][0][0] == "b"

    @pytest.mark.parametrize("text, problem", [
        ("[1, 2, 3]", "must hold a JSON object"),
        ('{"C": [[1]], "B": [[1]], "countries": 5, "goods": ["g"]}', "wrong type"),
    ])
    def test_malformed_matrices_file_is_input_error(self, tmp_path, capsys, text, problem):
        path = tmp_path / "matrices.json"
        path.write_text(text, encoding="utf-8")
        code = run("shares", "--input", path, "--out", tmp_path / "o")
        assert code == EXIT_INPUT
        assert problem in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestReport:
    def test_rerender_matches_solve_output(self, tmp_path):
        csv_path = write_csv(tmp_path)
        out = tmp_path / "out"
        run("ingest", "--input", csv_path, "--out", out)
        run("solve", "--input", out / "matrices_2020.json", "--out", out / "run")
        code = run(
            "report",
            "--input", out / "run" / "solution.json",
            "--matrices", out / "matrices_2020.json",
            "--out", out / "re",
        )
        assert code == EXIT_OK
        assert (out / "re" / "report.txt").read_bytes() == (
            out / "run" / "report.txt"
        ).read_bytes()

    def test_solution_missing_a_field_is_input_error(self, tmp_path):
        csv_path = write_csv(tmp_path)
        out = tmp_path / "out"
        run("ingest", "--input", csv_path, "--out", out)
        run("solve", "--input", out / "matrices_2020.json", "--out", out / "run")
        payload = json.loads((out / "run" / "solution.json").read_text())
        del payload["y"]
        (out / "broken.json").write_text(json.dumps(payload))
        code = run(
            "report",
            "--input", out / "broken.json",
            "--matrices", out / "matrices_2020.json",
            "--out", out / "re",
        )
        assert code == EXIT_INPUT
        assert not (out / "re").exists()

    def test_solution_with_a_repeated_clearing_good_is_input_error(self, tmp_path, capsys):
        csv_path = write_csv(tmp_path)
        out = tmp_path / "out"
        run("ingest", "--input", csv_path, "--out", out)
        run("solve", "--input", out / "matrices_2020.json", "--out", out / "run")
        payload = json.loads((out / "run" / "solution.json").read_text())
        payload["I"] = payload["I"] * 2
        (out / "repeated.json").write_text(json.dumps(payload))
        code = run(
            "report",
            "--input", out / "repeated.json",
            "--matrices", out / "matrices_2020.json",
            "--out", out / "re",
        )
        assert code == EXIT_INPUT
        assert "clearing set" in capsys.readouterr().err
        assert not (out / "re").exists()

    def solve_drifting(self, tmp_path, *flags):
        """``DRIFTING`` solved by the CLI with ``flags``: (matrices, run directory)."""
        matrices = tmp_path / "matrices.json"
        matrices.write_text(json.dumps(CostMatrices.from_supply_demand(
            DRIFTING_C, DRIFTING_B).to_dict()), encoding="utf-8")
        assert run("solve", "--input", matrices, "--out", tmp_path / "run", *flags) == EXIT_OK
        return matrices, tmp_path / "run"

    def test_solution_of_a_looser_solve_names_the_tolerance(self, tmp_path):
        # A solve at --tol 1e-2 accepts a point where good 2's excess demand
        # is 0.59 % of its supply. Its solution records that tolerance, and
        # report checks it there and writes the same four files again.
        matrices, solved = self.solve_drifting(tmp_path, "--tol", "1e-2")
        assert json.loads((solved / "solution.json").read_text())["tol"] == 1e-2
        code = run("report", "--input", solved / "solution.json",
                   "--matrices", matrices, "--out", tmp_path / "re")
        assert code == EXIT_OK
        assert tree_bytes(tmp_path / "re") == tree_bytes(solved)
        assert len(tree_bytes(solved)) == 4

    @pytest.mark.parametrize("changes, named", [
        ({"tol": 1e-12}, "1e-12"),
        ({"schema_version": 1, "epsilon": 5.96e-10, "tol": None}, "1e-06"),
    ], ids=["tighter-tol", "schema-1"])
    def test_solution_is_checked_at_the_tolerance_it_records(self, tmp_path, capsys,
                                                            changes, named):
        # The same solution with a tighter tol set by hand, or written in
        # schema 1, which records none (None drops the field) and is checked
        # at the default 1e-6.
        matrices, solved = self.solve_drifting(tmp_path, "--tol", "1e-2")
        payload = {**json.loads((solved / "solution.json").read_text()), **changes}
        edited = {key: value for key, value in payload.items() if value is not None}
        (tmp_path / "edited.json").write_text(json.dumps(edited), encoding="utf-8")
        capsys.readouterr()
        code = run("report", "--input", tmp_path / "edited.json",
                   "--matrices", matrices, "--out", tmp_path / "re")
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert (f"at tol={named}: good 2 (1-based) has the largest excess demand, 0.00588 "
                "of its aggregate supply") in err
        assert not (tmp_path / "re").exists()

    @pytest.mark.parametrize("tol", ["0", "-1e-06", "Infinity", "NaN", '"loose"'])
    def test_solution_with_a_bad_tolerance_is_input_error(self, tmp_path, capsys, tol):
        matrices, solved = self.solve_drifting(tmp_path)
        text = re.sub(r'"tol": [^,]*', f'"tol": {tol}', (solved / "solution.json").read_text())
        (tmp_path / "bad.json").write_text(text, encoding="utf-8")
        capsys.readouterr()
        code = run("report", "--input", tmp_path / "bad.json",
                   "--matrices", matrices, "--out", tmp_path / "re")
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "cannot read solution file" in err
        assert ("could not convert string to float" if tol == '"loose"' else
                "tol must be positive and finite") in err
        assert not (tmp_path / "re").exists()

    def test_solution_of_another_year_is_input_error(self, tmp_path, capsys):
        # Both years trade the same good; 2019 is solved and re-rendered
        # against the matrices of 2020.
        csv_path = write_csv(tmp_path, TOY_CSV + "2019,a,b,g,4\n2019,b,a,g,5\n")
        out = tmp_path / "out"
        assert run("ingest", "--input", csv_path, "--out", out) == EXIT_OK
        assert run("solve", "--input", out / "matrices_2019.json",
                   "--out", out / "run") == EXIT_OK
        capsys.readouterr()
        code = run("report", "--input", out / "run" / "solution.json",
                   "--matrices", out / "matrices_2020.json", "--out", out / "re")
        assert code == EXIT_INPUT
        assert ("solution file is for year 2019, matrices file for 2020"
                in capsys.readouterr().err)
        assert not (out / "re").exists()
        assert run("report", "--input", out / "run" / "solution.json",
                   "--matrices", out / "matrices_2019.json", "--out", out / "re") == EXIT_OK


# Runs in a fresh interpreter: the CLI steps that need no scipy, among them a
# solve whose last stage stalls and is finished by Newton steps, then a
# consistency certificate, whose LPs and strong-components test load it.
FRESH_CHILD = """
import json, sys
from tradequil.cli import main
csv_path, matrices, out, C, B = sys.argv[1:]
codes = [main(["ingest", "--input", csv_path, "--out", out]),
         main(["shares", "--input", out + "/matrices_2020.json",
               "--out", out + "/shares"]),
         main(["solve", "--input", matrices, "--out", out + "/solve"])]
loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
import numpy as np
from tradequil import certify_consistency
label = certify_consistency(np.array(json.loads(C)), np.array(json.loads(B)), I=(0, 1)).label
print(json.dumps({"codes": codes, "loaded": loaded, "label": label,
                  "optimize_after": "scipy.optimize" in sys.modules}))
"""


class TestStartup:
    def test_scipy_loads_only_when_first_called(self, tmp_path):
        C = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        B = np.array([[0.0, 1.0], [1.0, 0.0], [1.5, 1.5]])
        matrices = tmp_path / "fading.json"
        matrices.write_text(json.dumps(CostMatrices.from_supply_demand(
            FADING_C, FADING_B).to_dict()), encoding="utf-8")
        src = str(Path(tradequil.__file__).parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", FRESH_CHILD, str(write_csv(tmp_path)), str(matrices),
             str(tmp_path / "out"), json.dumps(C.tolist()), json.dumps(B.tolist())],
            env=env, capture_output=True, text=True, check=True, timeout=120)
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        assert child["codes"] == [EXIT_OK, EXIT_OK, EXIT_OK]
        assert child["loaded"] == []
        solved = json.loads((tmp_path / "out" / "solve" / "solution.json").read_text())
        assert solved["I"] == [1, 2]
        assert child["optimize_after"]
        assert child["label"] == tradequil.certify_consistency(C, B, I=(0, 1)).label


# One process reuses one parser: an ingest, a solve for the wrong year, a
# command line that argparse refuses and a good solve, in that order. The
# good solve gives no --year, so a year left over from the call before it
# would fail it.
SEQUENCE = [
    ["ingest", "--input", "flows.csv", "--out", "m"],
    ["solve", "--input", "m/matrices_2020.json", "--out", "wrong", "--year", "2019"],
    ["solve", "--input", "m/matrices_2020.json"],
    ["solve", "--input", "m/matrices_2020.json", "--out", "good"],
]
SEQUENCE_CHILD = """
import json, sys
from tradequil.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    try:
        codes.append(main(argv))
    except SystemExit as exc:
        codes.append(exc.code)
print(json.dumps(codes), file=sys.stderr)
"""


def tree_bytes(root):
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


class TestRepeatedCalls:
    def test_calls_in_one_process_match_a_fresh_interpreter(self, tmp_path, monkeypatch,
                                                            capsys):
        here, fresh = tmp_path / "here", tmp_path / "fresh"
        for cwd in (here, fresh):
            cwd.mkdir()
            write_csv(cwd)
        # The width that argparse wraps its usage line to.
        monkeypatch.setenv("COLUMNS", "80")
        src = str(Path(tradequil.__file__).parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        child = subprocess.run([sys.executable, "-c", SEQUENCE_CHILD, json.dumps(SEQUENCE)],
                               cwd=fresh, env=env, capture_output=True, text=True,
                               check=True, timeout=120)
        *child_err, child_codes = child.stderr.splitlines()

        monkeypatch.chdir(here)
        codes = []
        for argv in SEQUENCE:
            try:
                codes.append(main(argv))
            except SystemExit as exc:
                codes.append(exc.code)
        captured = capsys.readouterr()

        assert codes == json.loads(child_codes) == [EXIT_OK, EXIT_INPUT, EXIT_INPUT, EXIT_OK]
        assert captured.out == child.stdout
        assert captured.err.splitlines() == child_err
        assert "not requested 2019" in captured.err
        assert "the following arguments are required: --out" in captured.err
        assert tree_bytes(here) == tree_bytes(fresh)
        assert sorted(path.name for path in (here / "good").iterdir()) == [
            "recession.csv", "recession.json", "report.txt", "solution.json"]
        assert not (here / "wrong").exists()
