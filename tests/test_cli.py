"""CLI behaviour: table content, artifacts, exit codes, byte stability."""
import csv
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dualpg.assembly as assembly
from dualpg.cli import RunConfig, main, run_solve, run_table
from dualpg.orders import order_spec
from dualpg.verify import suite_oracle_equivalence

# (suite, tolerance) of every verify.csv row, in report order
VERIFY_LAYOUT = [
    ("quadrature-exactness", "1e-12"),
    ("orthogonality", "1e-11"),
    ("endpoint-normalization", "1e-12"),
    ("shift-identities", "1e-10"),
    ("derivative-vs-finite-difference", "1e-05"),
    ("third-derivative-identity", "1e-09"),
    ("fifth-derivative-identity", "1e-09"),
    ("derivative-expansions-third", "1e-09"),
    ("derivative-expansions-fifth", "1e-09"),
    ("legendre-expansions", "1e-11"),
    ("boundary-vanishing", "1e-10"),
    ("trial-test-duality", "1e-09"),
    ("oracle-equivalence-order3", "1"),
    ("oracle-equivalence-order5", "1"),
    ("band-structure", "1e-11"),
    ("manufactured-coefficients", "1e-10"),
    ("lift-reconstruction", "1e-12"),
    ("modified-rhs-two-path", "1e-11"),
    ("diagonal-fast-paths", "1e-13"),
    ("lu-reconstruction", "1e-12"),
    ("operation-counts", "1"),
    ("tabulated-entry-formulas", ""),
    ("printed-lift-factors", ""),
]


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestTables:
    def test_table1_content(self, tmp_path):
        out = tmp_path / "t1.csv"
        assert main(["table1", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0][:2] == ["n", "N"]
        by_key = {(r[0], r[1]): r for r in rows[1:]}
        row = by_key[("1", "16")]
        assert float(row[2]) == 6.0 and float(row[3]) == 448.0
        assert float(row[4]) == pytest.approx(74.667, rel=1e-4)
        assert float(row[7]) == pytest.approx(1.0, abs=2e-3)  # ratio to reference
        row2 = by_key[("2", "20")]
        assert float(row2[4]) == pytest.approx(2584.0, rel=1e-3)
        # first table column sweeps the full n = 1 and n = 2 grids
        assert len(rows) == 1 + 14

    def test_table1_cond_column_reference_sequence(self, tmp_path):
        out = tmp_path / "t1.csv"
        main(["table1", "--order", "3", "--out", str(out)])
        rows = read_csv(out)[1:]
        conds = [float(r[4]) for r in rows]
        expect = [74.667, 120.0, 176.0, 242.667, 320.0, 408.0, 506.667]
        assert conds == pytest.approx(expect, rel=1e-3)

    def test_table5_reference_rows(self, tmp_path):
        out = tmp_path / "t5.csv"
        assert main(["table5", "--out", str(out)]) == 0
        rows = read_csv(out)
        header = rows[0]
        assert header[:2] == ["N", "m"]
        ones = [
            r for r in rows[1:]
            if r[1] == "1" and r[2] == "1" and r[3] == "1" and r[4] == "1"
        ]
        errors = {r[0]: float(r[5]) for r in ones}
        assert errors["12"] <= 1e-11

    def test_table2_tracks_references(self, tmp_path):
        out = tmp_path / "t2.csv"
        assert main(["table2", "--out", str(out)]) == 0
        rows = read_csv(out)
        for r in rows[1:]:
            if r[4] == "":
                continue
            n_label, N = r[0], int(r[1])
            ratio = float(r[5])
            if n_label == "2" and N == 36:
                continue  # reference cell inconsistent with the monotone trend
            tol = 0.02 if n_label == "1" else 0.05
            assert abs(ratio - 1.0) <= tol, (r, ratio)

    def test_table3_contains_reference_row(self, tmp_path):
        out = tmp_path / "t3.csv"
        assert main(["table3", "--out", str(out)]) == 0
        rows = read_csv(out)
        match = [
            r for r in rows[1:]
            if r[0] == "16" and r[1] == "1" and r[2] == "1"
            and r[3] == "0" and r[4] == "0" and r[5] == "0"
        ]
        assert len(match) == 1
        assert float(match[0][6]) <= 1e-8

    def test_table3_custom_block_has_empty_reference(self, tmp_path):
        out = tmp_path / "t3.csv"
        assert main(["table3", "--j", "0", "--m", "1", "--coeffs", "1,0,0",
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        assert all(r[-2] == "" and r[-1] == "" for r in rows[1:])

    def test_byte_stability(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["table1", "--out", str(a)])
        main(["table1", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("command", ["table1", "table2"])
    def test_matches_golden_file(self, tmp_path, command):
        # tests/data holds each table as the CLI wrote it; any change to a
        # printed digit, row or column shows up as a byte difference
        out = tmp_path / f"{command}.csv"
        assert main([command, "--out", str(out)]) == 0
        golden = Path(__file__).resolve().parent / "data" / f"{command}.csv"
        assert out.read_bytes() == golden.read_bytes()

    def test_lf_line_endings(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["table1", "--order", "3", "--out", str(out)])
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_text_format(self, tmp_path, capsys):
        assert main(["table1", "--order", "3", "--format", "text"]) == 0
        captured = capsys.readouterr().out
        assert "cond" in captured.splitlines()[0]


class TestSolve:
    def test_solve3_example_artifact(self, tmp_path):
        out = tmp_path / "sol.csv"
        code = main([
            "solve3", "--n", "12", "--example", "1", "--j", "1", "--m", "1",
            "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out)
        records = {}
        for r in rows[1:]:
            records.setdefault(r[0], []).append(r)
        assert len(records["coefficient"]) == 10
        assert len(records["sample"]) == 21
        assert float(records["residual_inf"][0][2]) < 1e-10
        assert float(records["max_error"][0][2]) < 1e-5
        assert any(r[1] == "cond" for r in records["condition"])

    def test_solve3_large_n_condition(self, tmp_path):
        out = tmp_path / "sol.csv"
        code = main(["solve3", "--n", "1024", "--rhs-poly", "1",
                     "--coeffs", "2,3,4", "--out", str(out)])
        assert code == 0
        cells = {r[1]: r[2] for r in read_csv(out)[1:] if r[0] == "condition"}
        assert cells["cond"] == "181395"

    @pytest.mark.parametrize("command,N", [("solve3", 16), ("solve3", 40),
                                           ("solve5", 16), ("solve5", 40)])
    def test_zero_coefficient_condition_rows(self, tmp_path, command, N):
        # condition_full on the diagonal B1 / B2 prints what its closed form does
        from dualpg.analysis import condition_diagonal
        from dualpg.cli import _fmt_err, _fmt_ratio

        out = tmp_path / "sol.csv"
        assert main([command, "--n", str(N), "--rhs-poly", "1", "--out", str(out)]) == 0
        cells = {r[1]: r[2] for r in read_csv(out)[1:] if r[0] == "condition"}
        rep = condition_diagonal(int(command[-1]), N)
        assert cells == {
            "cond": _fmt_err(rep.cond), "eig_min": _fmt_err(rep.eig_min),
            "eig_max": _fmt_err(rep.eig_max),
            "cond_over_N2n": _fmt_ratio(rep.cond_over_power),
        }

    def test_solve3_polynomial_rhs(self, tmp_path):
        out = tmp_path / "sol.csv"
        code = main([
            "solve3", "--n", "10", "--coeffs", "0,0,0",
            "--rhs-poly", "1,0,2", "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out)
        assert rows[1][0] == "coefficient"

    def test_solve5_zero_rhs_gives_zero_solution(self, tmp_path):
        out = tmp_path / "sol.csv"
        assert main(["solve5", "--n", "10", "--rhs-poly", "0",
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        coeffs = [float(r[2]) for r in rows[1:] if r[0] == "coefficient"]
        assert max(abs(c) for c in coeffs) < 1e-13
        residual = [float(r[2]) for r in rows[1:] if r[0] == "residual_inf"][0]
        assert residual == 0.0

    def test_usage_error_without_rhs(self, capsys):
        assert main(["solve3", "--n", "10"]) == 1
        assert "error" in capsys.readouterr().err

    def test_usage_error_bad_truncation(self, capsys):
        assert main(["solve3", "--n", "2", "--rhs-poly", "1"]) == 1

    def test_usage_error_wrong_example_order(self, capsys):
        assert main(["solve5", "--n", "12", "--example", "1"]) == 1

    @pytest.mark.parametrize("argv,message", [
        (["--example", "3", "--m", "1", "--rhs-poly", "5,6"], "not both"),
        (["--rhs-poly", "1", "--j", "2"], "--j and --m set an --example family"),
        (["--rhs-poly", "1", "--m", "2"], "--j and --m set an --example family"),
        (["--example", "3", "--j", "2"], "family 3 takes no j"),
    ])
    def test_usage_error_dropped_flag(self, capsys, argv, message):
        assert main(["solve3", "--n", "12", *argv]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv,field", [
        (["solve3", "--n", "12", "--rhs-poly", "1", "--coeffs", "nan,1,1"], "alpha1"),
        (["solve3", "--n", "12", "--example", "1", "--coeffs", "inf,1,1"], "alpha1"),
    ])
    def test_usage_error_nonfinite_coefficient(self, capsys, argv, field):
        assert main(argv) == 1
        assert f"{field} must be finite" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["tableX"]) == 1

    @pytest.mark.parametrize("command,example,coeffs", [
        ("solve3", 1, (2.0, 3.0, 4.0)),
        ("solve5", 2, (1.0,) * 5),
        ("solve3", 3, (1.0, 0.0, 1.0)),
    ])
    def test_projects_rhs_once(self, monkeypatch, command, example, coeffs):
        # the residual comes from the system the solve used, not a second assembly
        original = assembly._projection
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(assembly, "_projection", counting)
        run_solve(RunConfig(command=command, n=12, example=example, coeffs=coeffs))
        assert len(calls) == 1

    def test_numerical_failure_exit_code(self, monkeypatch, capsys):
        import dualpg.cli as cli
        from dualpg.jacobi import ConvergenceError

        def blow_up(*args, **kwargs):
            raise ConvergenceError("iteration stalled")

        monkeypatch.setattr(cli, "condition_full", blow_up)
        code = main(["solve3", "--n", "10", "--coeffs", "1,1,1",
                     "--rhs-poly", "1"])
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err


    def test_unstable_factorization_exit_code(self, capsys):
        # D's leading 3 x 3 minor vanishes: the solve refuses the factorization
        assert main(["solve3", "--n", "6", "--coeffs", "0,-9,0", "--rhs-poly", "1"]) == 2
        assert "backward error" in capsys.readouterr().err


class TestVerifyCommand:
    def test_cli_import_leaves_suites_unloaded(self):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys, dualpg.cli; print('dualpg.verify' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        assert done.stdout.split() == ["False"]

    def test_fresh_build_passes(self, tmp_path, verification_results):
        # the suites themselves ran in the session fixture; the CLI exit
        # contract follows their combined status
        assert all(r.passed for r in verification_results.values())

    def test_report_lists_max_deviation_per_suite(self, verification_results):
        for result in verification_results.values():
            assert np.isfinite(result.max_deviation)

    def test_printed_entry_discrepancies_enumerated(self, verification_results):
        detail = verification_results["tabulated-entry-formulas"].detail
        assert "E0[" in detail
        assert "printed=" in detail and "oracle=" in detail

    @staticmethod
    def flip_q0_diagonal(monkeypatch, order):
        """Flip the sign of offset 0 of the q = 0 expansion (E0 or G0 diagonal)."""
        spec = order_spec(order)
        original = spec.expansion_band

        def flipped(weights, start, count):
            stack = original(weights, start, count)
            if weights.get(0, 0.0):
                e0 = original({0: 1.0}, start, count)[order]  # row order: offset 0
                stack[order] -= 2.0 * weights[0] * e0
            return stack

        monkeypatch.setattr(spec, "expansion_band", flipped)

    @pytest.mark.parametrize("order", [3, 5])
    def test_mutated_assembly_fails_naming_entry(self, monkeypatch, order):
        self.flip_q0_diagonal(monkeypatch, order)
        result = suite_oracle_equivalence(order)
        assert result.name == f"oracle-equivalence-order{order}"
        assert not result.passed
        match = re.search(r"worst entry \((\d+), (\d+)\)", result.detail)
        assert match is not None
        assert match.group(1) == match.group(2)
        assert "assembled=" in result.detail and "oracle=" in result.detail

    @pytest.mark.parametrize("order", [3, 5])
    def test_mutated_assembly_exits_3(self, monkeypatch, tmp_path, order):
        self.flip_q0_diagonal(monkeypatch, order)
        out = tmp_path / "verify.csv"
        assert main(["verify", "--out", str(out)]) == 3
        status = {r[0]: r[1] for r in read_csv(out)[1:]}
        assert status[f"oracle-equivalence-order{order}"] == "FAIL"

    def test_reproduce_script_report_layout(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        done = subprocess.run(
            [sys.executable, str(root / "scripts" / "write_outputs.py"),
             "--outdir", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        names = [f"table{i}.csv" for i in range(1, 6)] + [
            "verify.csv", "opcount_study.txt", "solve3_n16_example1.csv",
            "solve5_n20_example2.csv", "solve3_n12_example3.csv",
            "solve3_n1024_rhs_poly.csv",
        ]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
        rows = read_csv(tmp_path / "verify.csv")
        assert rows[0] == ["suite", "status", "max_deviation", "tolerance", "detail"]
        assert [(r[0], r[3]) for r in rows[1:]] == VERIFY_LAYOUT

    @pytest.mark.parametrize("edit,code,printed", [
        (None, 0, "0 numeric cells moved"),
        (("t.csv", "n,x\n1,0.5000000000000001\n"), 0, "t.csv:2:x  0.5 -> 0.5000000000000001"),
        (("t.csv", "n,x\n1,0.6\n"), 1, "FAIL t.csv:2:x: moved by 0.1"),
        (("t.csv", "n,x\none,0.5\n"), 1, "FAIL t.csv:2:n: '1' against 'one'"),
        (("t.csv", "n,x\n1,0.5\n2,0.5\n"), 1, "FAIL t.csv: 2 rows against 3"),
        (("report.txt", "N 16 ops 244 extra\n"), 1, "FAIL report.txt:1: 4 cells against 5"),
        (("extra.csv", "n\n"), 1, "only in"),
        # a computed cell moving at rounding level can shift its ratio by tenths
        (("e.csv", "error,reference,ratio\n2e-16,3.333e-16,0.6\n"), 0,
         "e.csv:2:ratio  0.3 -> 0.6  |delta| = 0.3"),
    ])
    def test_diff_outputs_script(self, tmp_path, capsys, edit, code, printed):
        root = Path(__file__).resolve().parents[1]
        spec = importlib.util.spec_from_file_location(
            "diff_outputs", root / "scripts" / "diff_outputs.py")
        diff_outputs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(diff_outputs)
        for side in ("a", "b"):
            (tmp_path / side).mkdir()
            (tmp_path / side / "t.csv").write_text("n,x\n1,0.5\n")
            (tmp_path / side / "report.txt").write_text("N 16 ops 244\n")
            (tmp_path / side / "e.csv").write_text("error,reference,ratio\n1e-16,3.333e-16,0.3\n")
        if edit is not None:
            (tmp_path / "b" / edit[0]).write_text(edit[1])
        assert diff_outputs.main([str(tmp_path / "a"), str(tmp_path / "b")]) == code
        assert printed in capsys.readouterr().out


class TestRunConfigApi:
    def test_run_table_direct(self):
        header, rows = run_table(RunConfig(command="table1", order=3))
        assert header[0] == "n"
        assert len(rows) == 7

    def test_run_solve_direct(self):
        header, rows = run_solve(
            RunConfig(command="solve3", n=10, example=3, m=1.0,
                      coeffs=(0.0, 0.0, 0.0))
        )
        records = {r[0] for r in rows}
        assert {"coefficient", "sample", "residual_inf", "condition"} <= records

    def test_solve3_example1_reference_error(self):
        _, rows = run_solve(
            RunConfig(command="solve3", n=16, example=1, j=0, m=1.0,
                      coeffs=(2.0, 3.0, 4.0))
        )
        err = [float(r[2]) for r in rows if r[0] == "max_error"][0]
        assert err <= 1e-8

    def test_solve5_example2_reference_error(self):
        _, rows = run_solve(
            RunConfig(command="solve5", n=16, example=2, m=1.0,
                      coeffs=(1.0,) * 5)
        )
        err = [float(r[2]) for r in rows if r[0] == "max_error"][0]
        assert err <= 1e-11
