import csv
import hashlib
import io
import json
import math
from pathlib import Path

import pytest

from melontft import specialfn
from melontft.cli import main
from melontft.specialfn import Coupling, Point3, g2_exact, g_shift, sde_residual_algebraic


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "eval", "--lambda", "0.6366", "--x", "1,1,1")
        assert code == 0
        rec = json.loads(out)
        assert rec["lambda"] == 0.6366
        assert rec["x"] == [1.0, 1.0, 1.0]
        # re-evaluating the parsed record reproduces identical values
        c = Coupling(rec["lambda"])
        assert rec["G2"] == g2_exact(Point3(*rec["x"]), c)
        assert rec["g"] == g_shift(rec["x"][0], c)
        assert rec["residual_algebraic"] == sde_residual_algebraic(rec["x"][0], c)
        assert rec["G2"] == pytest.approx(0.28114, abs=5e-4)

    def test_x1_zero_free_propagator(self, capsys):
        code, out, _ = run(capsys, "eval", "--lambda", "1", "--x", "0,1,2")
        assert code == 0
        rec = json.loads(out)
        assert rec["G2"] == pytest.approx(1.0 / 6.0, rel=1e-15)

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "eval", "--lambda", "0.5", "--x", "1,0,0", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["lambda", "x1", "x2", "x3", "g", "G2", "residual_algebraic"]
        assert len(rows) == 2
        # 17 significant digits round-trip through the text form
        assert float(rows[1][5]) == g2_exact(Point3(1, 0, 0), Coupling(0.5))

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run(capsys, "eval", "--lambda", "-1", "--x", "1,1,1")
        assert code == 2
        assert "error" in err

    def test_bad_point_exit_code(self, capsys):
        code, _, _ = run(capsys, "eval", "--lambda", "1", "--x", "1,2")
        assert code == 2

    def test_usage_error_exit_code(self, capsys):
        code, _, _ = run(capsys, "eval", "--lambda", "1")
        assert code == 2

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "rec.json"
        code, out, _ = run(capsys, "eval", "--lambda", "1", "--x", "0,0,0", "--output", str(path))
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["G2"] == 1.0


class TestSeries:
    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "series", "--order", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["order"] == 2
        assert payload["prefactor_pi_over_2_pow"] == 2
        assert {
            "coeff": "1/1",
            "logpow": 2,
            "x1pow": 0,
            "fullpow": 3,
        } in payload["terms"]
        assert {
            "coeff": "-1/1",
            "logpow": 1,
            "x1pow": 1,
            "fullpow": 2,
        } in payload["terms"]

    def test_csv_one_term_per_row(self, capsys):
        code, out, _ = run(capsys, "series", "--order", "3", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["order", "coeff", "logpow", "x1pow", "fullpow"]
        assert len(rows) == 1 + 4


class TestCoeffs:
    def test_rational_strings(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--max-order", "4")
        assert code == 0
        payload = json.loads(out)
        entries = {(e["n"], e["k"], e["m"]): e["a"] for e in payload["entries"]}
        assert entries[(4, 2, 1)] == "3/2"
        assert entries[(2, 1, 1)] == "1/1"

    def test_sources_agree(self, capsys):
        _, closed, _ = run(capsys, "coeffs", "--max-order", "6", "--source", "closed")
        _, recur, _ = run(capsys, "coeffs", "--max-order", "6", "--source", "recur")
        assert json.loads(closed)["entries"] == json.loads(recur)["entries"]


class TestGreens:
    def test_two_point(self, capsys):
        code, out, _ = run(capsys, "greens", "--lambda", "1", "--points", "1,1,1")
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == 1
        assert payload["value"] == g2_exact(Point3(1, 1, 1), Coupling(1.0))

    def test_four_point(self, capsys):
        lam = 2 / math.pi
        code, out, _ = run(capsys, "greens", "--lambda", str(lam), "--points", "1,2,3;2,1,1")
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == 2
        assert payload["value"] == pytest.approx(-0.00018422630730781838614, rel=1e-10)

    def test_coincident_points_exit_code(self, capsys):
        code, _, _ = run(capsys, "greens", "--lambda", "1", "--points", "1,2,3;1,4,5")
        assert code == 2


class TestTabulate:
    def test_grid(self, capsys):
        code, out, _ = run(
            capsys,
            "tabulate",
            "--lambda", "0.1,1",
            "--x1", "0,1",
            "--x2", "0.5",
            "--x3", "0.5",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["lambda", "x1", "x2", "x3", "G2", "g", "residual"]
        assert len(rows) == 5
        # coupling-major ordering
        assert [float(r[0]) for r in rows[1:]] == [0.1, 0.1, 1.0, 1.0]
        free = 1.0 / (1.0 + 0.5)
        for r in rows[1:]:
            if float(r[1]) == 0.0:
                assert float(r[4]) == pytest.approx(free, rel=1e-15)
            else:
                # G2 exceeds the free value at x1 > 0 for positive coupling
                assert float(r[4]) > 1.0 / (1.0 + 1.5)

    def test_one_mass_solve_per_record(self, capsys, monkeypatch):
        calls = []
        omega = specialfn.wright_omega

        def counting(t):
            calls.append(t)
            return omega(t)

        monkeypatch.setattr(specialfn, "wright_omega", counting)
        code, _, _ = run(capsys, "tabulate", "--lambda", "0.1,1,10", "--x1", "0.5,1,2,3")
        assert code == 0
        assert len(calls) == 12

    def test_single_cell_matches_eval(self, capsys):
        _, tab, _ = run(capsys, "tabulate", "--lambda", "0.7", "--x1", "1", "--x2", "0", "--x3", "0")
        _, ev, _ = run(capsys, "eval", "--lambda", "0.7", "--x", "1,0,0", "--format", "csv")
        tab_rows = list(csv.reader(io.StringIO(tab)))
        ev_rows = list(csv.reader(io.StringIO(ev)))
        assert tab_rows[1][4] == ev_rows[1][5]  # G2 column


class TestVerify:
    def test_coeffs_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "coeffs", "--max-order", "5")
        assert code == 0
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_identities_suite_reports_printed_form(self, capsys):
        code, out, _ = run(capsys, "verify", "identities", "--max-n", "8")
        assert code == 0
        assert "[INFO]" in out
        assert "(5,2)" in out.replace(" ", "") or "7/24" in out

    def test_lambert_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "lambert")
        assert code == 0

    def test_sde_suite_numeric(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "sde",
            "--lambda", "0.5",
            "--x", "1,0.5,0.5",
            "--numeric",
            "--tol", "1e-8",
        )
        assert code == 0
        assert out.count("[PASS]") == 3

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "verify", "lambert", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert all(c["passed"] for c in payload)

    def test_not_converged_is_a_failure(self, capsys, monkeypatch):
        import melontft.verify as verify_mod
        from melontft.errors import NotConvergedError

        def raiser(*args, **kwargs):
            raise NotConvergedError("budget exhausted")

        monkeypatch.setattr(verify_mod.quadrature, "fixed_point_residuals", raiser)
        code, out, _ = run(capsys, "verify", "sde", "--numeric")
        assert code == 1
        assert out.count("not converged") == 2


def test_exact_outputs_match_reference(tmp_path):
    # every p/q string the exact commands emit stays bit-identical to the
    # pinned digests the benchmark also checks
    reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    digests = json.loads(reference.read_text(encoding="utf-8"))["digests"]
    commands = {
        "series30": ["series", "--order", "30"],
        "coeffs_closed20": ["coeffs", "--max-order", "20"],
        "coeffs_recur20": ["coeffs", "--max-order", "20", "--source", "recur"],
        "verify_identities": ["verify", "identities"],
    }
    mismatched = []
    for name, argv in commands.items():
        path = tmp_path / name
        assert main(argv + ["--output", str(path)]) == 0, name
        if hashlib.sha256(path.read_bytes()).hexdigest() != digests[name]:
            mismatched.append(name)
    assert not mismatched
