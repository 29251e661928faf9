import csv
import hashlib
import io
import json
import math
import random
import re
import tracemalloc
from pathlib import Path

import pytest

from melontft import cli, specialfn
from melontft.cli import main
from melontft.specialfn import Coupling, Point3, exact_record, g2_exact


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# (lambda, x1) where z >> x1^2 >> 1 and 1 + x1^2 + g rounds to <= 0
CANCELLING_POINTS = [("1e25", "1e8"), ("1e30", "1e10"), ("1e200", "1e10")]


def reject_constant(name):
    # json.loads' parse_constant: NaN, Infinity and -Infinity are not RFC 8259 JSON
    raise ValueError(f"{name} in JSON output")


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
        g, _, residual = exact_record(Point3(rec["x"][0], 0.0, 0.0), c)
        assert (rec["g"], rec["residual_algebraic"]) == (g, residual)
        assert rec["G2"] == pytest.approx(0.28114, abs=5e-4)

    def test_x1_zero_free_propagator(self, capsys):
        code, out, _ = run(capsys, "eval", "--lambda", "1", "--x", "0,1,2")
        assert code == 0
        rec = json.loads(out)
        assert rec["G2"] == pytest.approx(1.0 / 6.0, rel=1e-15)

    def test_subnormal_g2_is_printed(self, capsys):
        # M + x2^2 + x3^2 overflows, but G2 = 1/(M + 2e308) is about 5.0e-309
        code, out, _ = run(capsys, "eval", "--lambda", "1", "--x", "1,1e154,1e154")
        assert code == 0
        assert json.loads(out)["G2"] == pytest.approx(5.0e-309, abs=math.ulp(0.0))

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run(capsys, "eval", "--lambda", "-1", "--x", "1,1,1")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("lam, x", [("1", "1e160,1,1"), ("1e-300", "1e5,1,1")])
    def test_mass_overflow_names_its_limit(self, capsys, lam, x):
        # (1+x1^2)/z overflows binary64: the message names the inputs and
        # the limit, not the internal wright_omega argument
        code, _, err = run(capsys, "eval", "--lambda", lam, "--x", x)
        assert code == 2
        assert "(1+x1^2)/z must be finite" in err and "wright_omega" not in err
        assert f"x1={float(x.split(',')[0])!r}" in err and f"lambda={float(lam)!r}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--lambda", "1.7e308", "--x", "1,1,1"),
            ("tabulate", "--lambda", "1,1.7e308", "--x1", "1"),
            ("greens", "--lambda", "1.7e308", "--points", "1,2,3;2,1,1"),
            ("verify", "sde", "--lambda", "1.7e308"),
        ],
    )
    def test_coupling_overflow_names_lambda(self, capsys, argv):
        # z = (pi/2)*lambda overflows: the message names lambda, not wright_omega
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "lambda=1.7e+308" in err and "wright_omega" not in err

    @pytest.mark.parametrize("lam, x1", CANCELLING_POINTS)
    def test_cancelling_residual_is_nan(self, capsys, lam, x1):
        # 1 + x1^2 + g rounds to <= 0: g and G2 are returned, the residual is
        # nan, which strict JSON writes as null
        code, out, err = run(capsys, "eval", "--lambda", lam, "--x", f"{x1},0,0")
        assert code == 0 and err == ""
        rec = json.loads(out, parse_constant=reject_constant)
        g, g2, _ = specialfn.exact_record(Point3(float(x1), 0.0, 0.0), Coupling(float(lam)))
        assert (rec["g"], rec["G2"]) == (g, g2) and rec["residual_algebraic"] is None

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

    def test_equal_squares_exit_code(self, capsys):
        # a usage error (2), not the failed-verification code 1
        code, out, err = run(capsys, "greens", "--lambda", "1", "--points", "1e-200,1,1;2e-200,2,2")
        assert code == 2
        assert out == "" and "not pairwise distinct" in err

    def test_non_finite_value_writes_nothing(self, capsys, tmp_path):
        # at lambda = 1e308 the value is about -7.2e-4 but comes out NaN; it
        # is a domain error (2), and neither stdout nor --output gets a NaN
        argv = ["greens", "--lambda", "1e308", "--points", "1,2,3;2,1,1"]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == "" and "not finite" in err
        path = tmp_path / "value"
        path.write_text("kept\n", encoding="utf-8")
        assert run(capsys, *argv, "--output", str(path))[0] == 2
        assert path.read_text(encoding="utf-8") == "kept\n"


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
        # _masses solves omega in its own loop, so count the x1 values it
        # solves (it returns M = 1 at x1 = 0 without a solve)
        solved = []
        masses = specialfn._masses

        def counting(x1s, coupling):
            x1s = tuple(x1s)
            solved.extend(x1 for x1 in x1s if x1 != 0.0)
            return masses(x1s, coupling)

        monkeypatch.setattr(specialfn, "_masses", counting)
        code, _, _ = run(capsys, "tabulate", "--lambda", "0.1,1,10", "--x1", "0.5,1,2,3")
        assert code == 0
        assert len(solved) == 12

    @pytest.mark.parametrize("argv", [("--lambda", ",", "--x1", "0,1"), ("--lambda", "1", "--x1", "")])
    def test_empty_grid_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "tabulate", *argv)
        assert code == 2 and out == ""
        assert err == "error: tabulate needs nonempty --lambda and --x1 grids\n"

    def test_single_cell_matches_eval(self, capsys):
        _, tab, _ = run(capsys, "tabulate", "--lambda", "0.7", "--x1", "1", "--x2", "0", "--x3", "0")
        _, ev, _ = run(capsys, "eval", "--lambda", "0.7", "--x", "1,0,0")
        tab_rows = list(csv.reader(io.StringIO(tab)))
        assert float(tab_rows[1][4]) == json.loads(ev)["G2"]  # G2 column

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        # the README's example: a header and 2 x 3 records
        argv = ("tabulate", "--lambda", "0.1,1", "--x1", "0,0.5,1", "--x2", "0.5", "--x3", "0.5")
        path = tmp_path / "tabulate.csv"
        code, out, _ = run(capsys, *argv, "--output", str(path))
        assert code == 0 and out == ""
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert path.read_bytes() == out.encode("utf-8")
        assert len(out.splitlines()) == 7

    # lambda from 1e-4 to 1e6; x1 = 0, -0.0 and up to 1e8; nonzero x2, x3
    PINNED_GRID = (
        "--lambda", "1e-4,0.3,1,7.5,1e6",
        "--x1", "0,-0.0,1e-8,0.5,2,1e3,1e8",
        "--x2", "0.25",
        "--x3", "1.5",
    )

    def test_output_bytes_pinned(self, capsys):
        code, out, _ = run(capsys, "tabulate", *self.PINNED_GRID)
        assert code == 0
        digest = "a1e2a984d5a89bae9c604f921337b513e4881b1ef7588a666dff22fe4aed0074"
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_memory_is_one_row(self, tmp_path):
        # rows are written as they are solved, so the traced peak grows with
        # a row, not with the grid: four times the rows cost under 1.5 times
        rng = random.Random(23)
        lams = [repr(10.0 ** rng.uniform(-4, 6)) for _ in range(32)]
        x1s = ",".join(repr(10.0 ** rng.uniform(-6, 8)) for _ in range(100))

        def peak(rows):
            argv = ["tabulate", "--lambda", ",".join(lams[:rows]), "--x1", x1s, "--x2", "0.5", "--x3", "1.5"]
            argv += ["--output", str(tmp_path / "table")]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # first-call allocations (argparse's regexes, say) are not the grid's
        small, large = peak(8), peak(32)
        assert large < 1.5 * small, (small, large)

    @pytest.mark.parametrize("lam, x1", CANCELLING_POINTS)
    def test_cancelling_residual_is_nan(self, capsys, lam, x1):
        code, out, err = run(capsys, "tabulate", "--lambda", lam, "--x1", f"1,{x1}")
        assert code == 0 and err == ""
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 3 and rows[2][6] == "nan"
        assert all(math.isfinite(float(v)) for v in rows[2][4:6] + rows[1][4:])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--lambda", "1", "--x1", "0,1", "--x2", "-1"), "x2=-1.0 must be finite and >= 0"),
            (("--lambda", "1", "--x1", "0,1", "--x2", "nan"), "x2=nan must be finite and >= 0"),
            (("--lambda", "1,0,2", "--x1", "0,1"), "coupling must be finite and > 0, got 0.0"),
            (("--lambda", "1,-0.5", "--x1", "0,1"), "coupling must be finite and > 0, got -0.5"),
            # (1+x1^2)/z first overflows on the last record
            (("--lambda", "1,1e-300", "--x1", "1,1e5"), "(1+x1^2)/z must be finite"),
            (("--lambda", "1", "--x1", "0,-1"), "x1 must be finite and >= 0, got -1.0"),
            (("--lambda", "1", "--x1", "0,nan"), "x1 must be finite and >= 0, got nan"),
            # x1^2 overflows binary64: a domain error, not a traceback
            (("--lambda", "1", "--x1", "0,1e160"), "(1+x1^2)/z must be finite"),
            # the message names the first row that fails, not a later one
            (("--lambda", "1,1e-300,1e-301", "--x1", "1,1e5"), "x1=100000.0, lambda=1e-300\n"),
        ],
    )
    def test_domain_error_writes_nothing(self, capsys, tmp_path, argv, message):
        code, out, err = run(capsys, "tabulate", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err
        path = tmp_path / "table"
        path.write_text("kept\n", encoding="utf-8")
        code, out, err = run(capsys, "tabulate", *argv, "--output", str(path))
        assert code == 2 and out == "" and err.startswith("error: ")
        assert path.read_text(encoding="utf-8") == "kept\n"


class TestVerify:
    def test_coeffs_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "coeffs")
        assert code == 0
        assert "[PASS]" in out and "[FAIL]" not in out

    @pytest.mark.parametrize(
        "bad, leading", [(2, False), (5, False), (9, False), (5, True)], ids=["2", "5", "9", "5-leading"]
    )
    def test_coeffs_checks_fail_on_a_changed_numerator(self, capsys, monkeypatch, bad, leading):
        # one numerator of one order's integer columns, off by one, or its
        # leading numerator doubled, fails that order's c01 and c02 lines
        # alone: neither comparison passes vacuously, and a row that leaves
        # the closed form's shape is a FAIL line, not a usage error
        from melontft import series, verify

        order = series._order

        def changed(n):
            den, cols = order(n)
            if n != bad:
                return den, cols
            if leading:
                return den, (*cols[:n], (2 * cols[n][0], *cols[n][1:]))
            return den, (cols[0], (cols[1][0] + 1, *cols[1][1:]), *cols[2:])

        monkeypatch.setattr(series, "_order", changed)
        c01, c02 = verify.orders_match_closed_form(9), verify.coefficient_routes_agree(9)
        assert [c.passed for c in c01] == [n != bad for n in range(1, 10)]
        assert [c.passed for c in c02] == [n != bad for n in range(2, 10)]
        code, out, _ = run(capsys, "verify", "coeffs")
        assert code == 1 and out.count("[FAIL]") == 2 and len(out.splitlines()) == 9 + 8
        if leading:
            assert f"[FAIL] order {bad}: extracted = closed = recurrence coefficients: order-{bad} leading" in out

    def test_identities_suite_reports_printed_form(self, capsys):
        code, out, _ = run(capsys, "verify", "identities")
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

    @pytest.mark.parametrize("lam, x1", CANCELLING_POINTS)
    def test_sde_fails_on_a_nan_residual(self, capsys, lam, x1):
        code, out, err = run(capsys, "verify", "sde", "--lambda", lam, "--x", f"{x1},0,0")
        assert code == 1 and err == ""
        assert out == "[FAIL] algebraic fixed-point residual < 1e-12 on grid: worst nan\n"

    def test_nan_residual_is_not_dropped_by_max(self):
        # a nan after a passing residual would vanish in max()
        from melontft import verify

        [check] = verify.fixed_point_algebraic((1.0, 1e25), (0.5, 1e8))
        assert check.passed is False and check.detail == "worst nan"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "verify", "lambert", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert all(c["passed"] for c in payload)
        # the benchmark reads each record's keys by name; pin them and their order
        code, out, _ = run(capsys, "verify", "all", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload and all(list(c) == ["name", "passed", "detail"] for c in payload)

    def test_not_converged_is_a_failure(self, capsys, monkeypatch):
        from melontft.errors import NotConvergedError

        def raiser(*args, **kwargs):
            raise NotConvergedError("budget exhausted")

        monkeypatch.setattr("melontft.quadrature.fixed_point_residuals", raiser)
        code, out, _ = run(capsys, "verify", "sde", "--numeric")
        assert code == 1
        assert out.count("not converged") == 2


    @pytest.mark.parametrize(
        "argv",
        [
            ("coeffs", "--max-order", "0"),
            ("coeffs", "--max-order", "1"),
            ("identities", "--max-n", "3"),
            ("identities", "--max-n", "4"),
            ("all", "--max-n", "4"),
        ],
    )
    def test_empty_range_is_a_usage_error(self, capsys, argv):
        # the suites run fixed ranges, so no range can be asked at all, an
        # empty one included: argparse rejects both options
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("usage:") and "unrecognized arguments: --max-" in err

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_is_a_usage_error(self, capsys, tol):
        code, out, err = run(capsys, "verify", "sde", "--numeric", "--tol", tol)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ("sde", "--tol", "nan"),
            ("coeffs", "--tol", "-1"),
            ("identities", "--tol", "0"),
            ("lambert", "--tol", "inf"),
            ("greens", "--tol=-inf"),
        ],
    )
    def test_tol_is_checked_for_every_suite(self, capsys, argv):
        # a suite that integrates nothing still rejects a bad --tol
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: abs_tol must be finite and > 0, got ")


# the commands that write one format: eval, coeffs and greens JSON, tabulate CSV
ONE_FORMAT = {
    "eval": ("eval", "--lambda", "1", "--x", "1,1,1"),
    "coeffs": ("coeffs", "--max-order", "3"),
    "greens": ("greens", "--lambda", "1", "--points", "1,2,3;2,1,1"),
    "tabulate": ("tabulate", "--lambda", "1", "--x1", "0,1"),
}


@pytest.mark.parametrize("argv", ONE_FORMAT.values(), ids=ONE_FORMAT)
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_one_format_commands_take_no_format(capsys, argv, fmt):
    assert run(capsys, *argv)[0] == 0
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert code == 2 and out == "" and err.startswith("usage:")


# every JSON writer; eval where its residual is undefined
JSON_WRITERS = {
    "series": ("series", "--order", "5"),
    "coeffs": ("coeffs", "--max-order", "6"),
    "greens": ("greens", "--lambda", "0.6366", "--points", "1,2,3;2,1,1"),
    "eval": ("eval", "--lambda", CANCELLING_POINTS[0][0], "--x", f"{CANCELLING_POINTS[0][1]},0,0"),
    "verify_all": ("verify", "all", "--format", "json"),
}


@pytest.mark.parametrize("argv", JSON_WRITERS.values(), ids=JSON_WRITERS)
def test_json_writers_are_strict(capsys, argv):
    # one line of RFC 8259 JSON: no NaN or Infinity literal
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out.endswith("\n") and out.count("\n") == 1
    json.loads(out, parse_constant=reject_constant)


@pytest.mark.parametrize(
    "argv",
    [("series", "--order", "2"), ("verify", "lambert"), ("tabulate", "--lambda", "0.1,1", "--x1", "0,1")],
)
def test_unwritable_output_is_a_usage_error(capsys, tmp_path, argv):
    # exit 1 stays reserved for a verification failure; tabulate opens its
    # file after checking the grid and before writing the first row
    path = tmp_path / "missing" / "out.json"
    code, out, err = run(capsys, *argv, "--output", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--lambda", "-1", "--x", "1,1,1"),
        ("series", "--order", "-1"),
        ("coeffs", "--max-order", "1"),
        ("greens", "--lambda", "1", "--points", "1,2,3;1,1,1"),
        ("verify", "lambert", "--tol", "nan"),
        ("verify", "sde", "--x", ""),
    ],
)
def test_domain_error_keeps_existing_output(capsys, tmp_path, argv):
    # the --output file opens only once the output is known, so a domain
    # error leaves an existing file's bytes as they were
    path = tmp_path / "out"
    path.write_bytes(b"kept\n")
    code, out, err = run(capsys, *argv, "--output", str(path))
    assert code == 2 and out == "" and err.startswith("error: ")
    assert path.read_bytes() == b"kept\n"


def test_one_parser_per_process(capsys):
    # main parses with the one cached parser, which parsing leaves as it was
    cli.build_parser.cache_clear()
    assert run(capsys, "coeffs", "--max-order", "3")[0] == 0
    assert run(capsys, "eval", "--lambda", "1")[0] == 2  # usage error: --x missing
    assert run(capsys, "coeffs", "--max-order", "3", "--source", "bogus")[0] == 2
    code, out, _ = run(capsys, "coeffs", "--max-order", "3", "--source", "recur")
    assert code == 0 and json.loads(out)["source"] == "recur"
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    assert cli.build_parser() is cli.build_parser()


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def test_verify_all_matches_benchmark_reference(tmp_path):
    # the benchmark's rule: names and verdicts match line by line, and so
    # does every detail that holds no float exponent
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["verify_all"]
    path = tmp_path / "verify_all.json"
    assert main(["verify", "all", "--format", "json", "--output", str(path)]) == 0
    lines = json.loads(path.read_text(encoding="utf-8"))
    assert [(c["name"], c["passed"]) for c in lines] == [(name, passed) for name, passed, _ in reference]
    for got, (name, _, detail) in zip(lines, reference):
        if not re.search(r"\de[-+]\d", detail):
            assert got["detail"] == detail, name


# the exact commands whose outputs the benchmark pins by sha256 digest
EXACT_COMMANDS = {
    "series30": ["series", "--order", "30"],
    "coeffs_closed20": ["coeffs", "--max-order", "20"],
    "coeffs_recur20": ["coeffs", "--max-order", "20", "--source", "recur"],
    "verify_identities": ["verify", "identities"],
}


def exact_digest_mismatches(tmp_path):
    """Run each exact command (each must exit 0); the names whose output misses its pinned digest."""
    digests = json.loads(REFERENCE.read_text(encoding="utf-8"))["digests"]
    mismatched = []
    for name, argv in EXACT_COMMANDS.items():
        path = tmp_path / name
        assert main(argv + ["--output", str(path)]) == 0, name
        if hashlib.sha256(path.read_bytes()).hexdigest() != digests[name]:
            mismatched.append(name)
    return mismatched


def test_exact_outputs_match_reference(tmp_path):
    # every p/q string the exact commands emit stays bit-identical to the
    # pinned digests the benchmark also checks
    assert not exact_digest_mismatches(tmp_path)


def test_outputs_never_read_recursion(tmp_path, monkeypatch):
    # the mirror of test_recurrence_route_never_reads_closed_form: with cold
    # caches and the recursion unavailable, series prints its pinned bytes
    # and the partial sums give the bits they gave before, both from the
    # closed form
    from melontft import series

    x = Point3(0.7, 1.2, 0.3)
    want = series.eval_partial_sum(20, x, 0.25)

    def unavailable(*args):
        raise AssertionError("an output reached the recursion")

    for cached in (series._kernel, series._float_order):
        cached.cache_clear()
    monkeypatch.setattr(series, "_kernel", unavailable)
    path = tmp_path / "series30"
    assert main(EXACT_COMMANDS["series30"] + ["--output", str(path)]) == 0
    digest = json.loads(REFERENCE.read_text(encoding="utf-8"))["digests"]["series30"]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    assert series.eval_partial_sum(20, x, 0.25).hex() == want.hex()
