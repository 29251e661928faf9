"""Checks of every operation a pass emits, and the checker's self-check.

An operation fails if it raises (or the CLI exits non-zero), returns a
non-finite value, emits exact output that is not byte-equal to the
reference in ``reference.json``, or misses its float check.  Failures
that emitted a wrong value are also counted as ``wrong``: a pass is
correct when nothing it emitted is wrong, whatever it raised.

Float checks:

* ``tabulate`` records: G2 within 1e-9 relative and g within 1e-9*(1+x1^2)
  absolute of a double-precision reference built on SciPy's Wright omega
  (an independent algorithm), for every record; on a fixed seeded subset
  also of a 50-digit mpmath oracle, which gives ``g2_max_rel_err`` and
  ``g_max_rel_err`` (absolute error at x1 = 0, where g vanishes).
* ``connected_2k``: within 1e-12 of the magnitude of the same recursion
  at 50 digits (see ``_connected_mp``); the relative error, which
  cancellation at large lambda makes large, is ``connected_2k_max_rel_err``.
* quadrature residuals: below the 1e-6 bound of the acceptance gate.
* partial sums: within 1e-11 of the sum of the absolute values of their
  terms plus 1e-14 of the absolute derivative by log(1+x1^2), evaluated at
  50 digits from the reference orders (see ``_partial_sum_mp``); the
  relative error is ``partial_sum_max_rel_err``.

The oracles are slow, depend only on the inputs and run outside the timed
passes, once per run.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
import re
import shutil

import mpmath as mp
import numpy as np
from scipy.special import wrightomega

import passrun

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
ORACLE_RECORDS = 1000
ORACLE_DIGITS = 50
TABULATE_TOL = 1e-9
CONNECTED_TOL = 1e-12
RESIDUAL_BOUND = 1e-6
PARTIAL_SUM_TOL = 1e-11
LOG_INPUT_TOL = 1e-14
# a float printed with an exponent marks a verify line whose detail is a
# measured float rather than an exact statement
_FLOAT_DETAIL = re.compile(r"\de[-+]\d")
_PQ = re.compile(r'"(-?\d+)/(\d+)"')


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors = {}  # exception name -> count

    def op(self, ok: bool, raised: str = None) -> None:
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        if raised is None:
            self.wrong += 1
        else:
            self.errors[raised] = self.errors.get(raised, 0) + 1

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "wrong": self.wrong, "errors": self.errors}


def _cli_failure(rec: dict):
    """Exception name or exit-code tag of a failed CLI call, else None."""
    if "error" in rec:
        return rec["error"]
    if rec["value"] == 2:
        return "exit 2"
    return None


def _value_check(tally: Tally, rec: dict, check) -> None:
    if "error" in rec:
        tally.op(False, rec["error"])
    else:
        v = rec["value"]
        tally.op(isinstance(v, float) and math.isfinite(v) and check(v))


# ---------------------------------------------------------------- oracles


def _mass_mp(lam: float, x1: float):
    """Dressed mass M = 1 + x1^2 + g and a = 1 + x1^2 at 50 digits."""
    z = mp.pi / 2 * mp.mpf(lam)
    a = 1 + mp.mpf(x1) ** 2
    t = a / z - mp.log(z)
    return z * mp.re(mp.lambertw(mp.exp(t))), a


def _connected_mp(points, lam: float):
    """The connected 2k-point recursion at 50 digits: (value, magnitude).

    The magnitude is the same recursion with every difference replaced by
    the sum of absolute values.  A double-precision evaluation of the
    recursion can be off by a few ulps of it, however small the value is
    after cancellation.
    """
    masses, memo = {}, {}

    def g2(p):
        if p[0] not in masses:
            masses[p[0]] = _mass_mp(lam, p[0])[0]
        return 1 / (masses[p[0]] + mp.mpf(p[1]) ** 2 + mp.mpf(p[2]) ** 2)

    def rec(ps):
        if len(ps) == 1:
            v = g2(ps[0])
            return v, v
        if ps in memo:
            return memo[ps]
        first = ps[0]
        total = magnitude = mp.mpf(0)
        for rho in range(2, len(ps) + 1):
            mixed = ((ps[rho - 1][0], first[1], first[2]),) + ps[1 : rho - 1]
            (head, head_m), (mix, mix_m), (tail, tail_m) = rec(ps[: rho - 1]), rec(mixed), rec(ps[rho - 1 :])
            den = mp.mpf(first[0]) ** 2 - mp.mpf(ps[rho - 1][0]) ** 2
            total += tail * (head - mix) / den
            magnitude += tail_m * (head_m + mix_m) / abs(den)
        pref = 2 * mp.mpf(lam) * g2((first[0], ps[1][1], ps[1][2]))
        memo[ps] = (pref * total, pref * magnitude)
        return memo[ps]

    return rec(tuple(tuple(p) for p in points))


def _partial_sum_mp(orders, n_max: int, x, lam: float):
    """The partial sum through n_max at 50 digits: (value, scale, log scale).

    ``scale`` sums the absolute values of the terms.  ``log scale`` sums
    the absolute derivatives of the terms by log(1+x1^2): a double
    evaluation takes that log of the rounded 1+x1^2, an absolute error of
    about one ulp of 1 in the log, which is large relative to the log at
    small x1.  The check allows 1e-14 (about 45 ulps of 1) of it.
    """
    x1, x2, x3 = (mp.mpf(v) for v in x)
    a = 1 + x1 * x1
    b = a + x2 * x2 + x3 * x3
    lg = mp.log(a)
    total = scale = log_scale = mp.mpf(0)
    for n in range(n_max + 1):
        pre = (mp.mpf(lam) * mp.pi / 2) ** n
        for coeff, k, p, q in orders[n]:
            rest = pre * coeff * a ** (-p) * b ** (-q)
            term = rest * lg**k
            total += term
            scale += abs(term)
            if k:
                log_scale += abs(k * rest * lg ** (k - 1))
    return total, scale, log_scale


class Oracle:
    """Reference values for one run's inputs, computed on first use."""

    def __init__(self, workload: str, seed: int, inputs: dict, reference: dict):
        self.workload, self.seed, self.inputs, self.reference = workload, seed, inputs, reference
        self._values = None

    def records(self) -> int:
        """Number of ``tabulate`` records a pass emits."""
        if self.workload != "grid":
            return 0
        return len(self.inputs["lams"]) * len(self.inputs["x1s"])

    def values(self) -> dict:
        if self._values is None:
            with mp.workdps(ORACLE_DIGITS):
                self._values = getattr(self, "_" + self.workload)()
        return self._values

    def _grid(self):
        inp = self.inputs
        n = self.records()
        idx = sorted(random.Random(self.seed).sample(range(n), min(ORACLE_RECORDS, n)))
        g2, g = [], []
        for i in idx:
            lam, x1 = inp["lams"][i // len(inp["x1s"])], inp["x1s"][i % len(inp["x1s"])]
            mass, a = _mass_mp(lam, x1)
            g2.append(1 / (mass + mp.mpf(inp["x2"]) ** 2 + mp.mpf(inp["x3"]) ** 2))
            g.append(mass - a)
        connected = [_connected_mp(t["points"], t["lam"]) for t in inp["tuples"]]
        return {"idx": idx, "g2": g2, "g": g, "connected": connected}

    def _exact(self):
        return {}

    def _certify(self):
        orders = [
            [(mp.mpf(int(c.split("/")[0])) / int(c.split("/")[1]), k, p, q) for c, k, p, q in self.reference["orders"][str(n)]]
            for n in range(len(self.reference["orders"]))
        ]
        order = self.inputs["partial_order"]
        return {"sums": [_partial_sum_mp(orders, order, s["x"], s["lam"]) for s in self.inputs["sums"]]}


# ---------------------------------------------------------------- checks


def _rel(got, ref):
    return float(abs(mp.mpf(got) - ref) / abs(ref))


def _check_grid(tally, pass_dir, cli_rc, results, oracle, acc):
    inp = oracle.inputs
    lams, x1s = np.array(inp["lams"]), np.array(inp["x1s"])
    n = oracle.records()
    failure = _cli_failure(cli_rc["tabulate"])
    if failure is not None or cli_rc["tabulate"]["value"] != 0:
        for _ in range(n):
            tally.op(False, failure)
    else:
        with open(os.path.join(pass_dir, "tabulate.csv"), encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        body = rows[1:] if rows[:1] == [["lambda", "x1", "x2", "x3", "G2", "g", "residual"]] else []
        ok = np.zeros(n, dtype=bool)
        if len(body) == n and all(len(r) == 7 for r in body):
            arr = np.array(body, dtype=float)
            lam, x1 = np.repeat(lams, x1s.size), np.tile(x1s, lams.size)
            x2, x3 = inp["x2"], inp["x3"]
            g2v, gv = arr[:, 4], arr[:, 5]
            z = 0.5 * np.pi * lam
            a = 1.0 + x1 * x1
            mass = z * wrightomega(a / z - np.log(z))
            g2_ref = 1.0 / (mass + x2 * x2 + x3 * x3)
            with np.errstate(invalid="ignore"):
                ok = (
                    (arr[:, 0] == lam) & (arr[:, 1] == x1) & (arr[:, 2] == x2) & (arr[:, 3] == x3)
                    & np.isfinite(arr).all(axis=1)
                    & (np.abs(g2v - g2_ref) <= TABULATE_TOL * g2_ref)
                    & (np.abs(gv - (mass - a)) <= TABULATE_TOL * a)
                )
            ref = oracle.values()
            g2_err = g_err = 0.0
            for j, i in enumerate(ref["idx"]):
                e_g2 = _rel(g2v[i], ref["g2"][j]) if math.isfinite(g2v[i]) else math.inf
                e_g = float(abs(mp.mpf(gv[i]) - ref["g"][j])) if math.isfinite(gv[i]) else math.inf
                scale = 1.0 + x1[i] * x1[i]
                ok[i] &= e_g2 <= TABULATE_TOL and e_g <= TABULATE_TOL * scale
                if x1[i] != 0.0:
                    e_g /= float(abs(ref["g"][j]))
                g2_err, g_err = max(g2_err, e_g2), max(g_err, e_g)
            acc["g2_max_rel_err"] = max(acc.get("g2_max_rel_err", 0.0), g2_err)
            acc["g_max_rel_err"] = max(acc.get("g_max_rel_err", 0.0), g_err)
        for good in ok:
            tally.op(bool(good))
    conn_err = 0.0
    for rec, (ref, magnitude) in zip(results["connected_2k"], oracle.values()["connected"]):
        _value_check(tally, rec, lambda v: abs(mp.mpf(v) - ref) <= CONNECTED_TOL * magnitude)
        if "value" in rec and math.isfinite(rec["value"]):
            conn_err = max(conn_err, _rel(rec["value"], ref))
    acc["connected_2k_max_rel_err"] = max(acc.get("connected_2k_max_rel_err", 0.0), conn_err)


def _check_exact(tally, pass_dir, cli_rc, results, oracle, acc):
    digests = oracle.reference["digests"]
    for name, (_, fname) in passrun.EXACT_COMMANDS.items():
        failure = _cli_failure(cli_rc[name])
        if failure is not None or cli_rc[name]["value"] != 0:
            tally.op(False, failure)
            continue
        path = os.path.join(pass_dir, fname)
        tally.op(os.path.exists(path) and sha256_file(path) == digests[name])


def _verify_lines_match(path, reference_lines) -> bool:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = json.load(fh)
    except (OSError, ValueError):
        return False
    if len(lines) != len(reference_lines):
        return False
    for got, (name, passed, detail) in zip(lines, reference_lines):
        if got.get("name") != name or got.get("passed") != passed:
            return False
        if not _FLOAT_DETAIL.search(detail) and got.get("detail") != detail:
            return False
    return True


def _check_certify(tally, pass_dir, cli_rc, results, oracle, acc):
    failure = _cli_failure(cli_rc["verify_all"])
    if failure is not None:
        tally.op(False, failure)
    else:
        path = os.path.join(pass_dir, "verify_all.json")
        tally.op(cli_rc["verify_all"]["value"] == 0 and _verify_lines_match(path, oracle.reference["verify_all"]))
    for rec in results["sde_residual"] + results["identity_residual"]:
        _value_check(tally, rec, lambda v: abs(v) < RESIDUAL_BOUND)
    sum_err = 0.0
    for rec, (ref, scale, log_scale) in zip(results["partial_sum"], oracle.values()["sums"]):
        bound = PARTIAL_SUM_TOL * scale + LOG_INPUT_TOL * log_scale
        _value_check(tally, rec, lambda v: abs(mp.mpf(v) - ref) <= bound)
        if "value" in rec and math.isfinite(rec["value"]):
            sum_err = max(sum_err, _rel(rec["value"], ref))
    acc["partial_sum_max_rel_err"] = max(acc.get("partial_sum_max_rel_err", 0.0), sum_err)


CHECKERS = {"grid": _check_grid, "exact": _check_exact, "certify": _check_certify}


def check_pass(oracle: Oracle, pass_dir: str, cli_rc: dict, acc: dict) -> Tally:
    """Check every operation of one pass; accuracy maxima accumulate in ``acc``."""
    results = None
    results_path = os.path.join(pass_dir, "results.json")
    if os.path.exists(results_path):
        with open(results_path, encoding="utf-8") as fh:
            results = json.load(fh)
    tally = Tally()
    CHECKERS[oracle.workload](tally, pass_dir, cli_rc, results, oracle, acc)
    return tally


# ---------------------------------------------------------------- self-check


def corrupt_pq(text: str) -> str:
    """Change the numerator of the first "p/q" string by one."""
    m = _PQ.search(text)
    if m is None:
        raise ValueError("no p/q string to corrupt")
    return text[: m.start()] + f'"{int(m.group(1)) + 1}/{m.group(2)}"' + text[m.end() :]


def self_check(oracle: Oracle, pass_dir: str, cli_rc: dict, scratch: str) -> str:
    """Show on a real pass that the checker counts injected faults as failures.

    ``exact``: a copy of a pass with no failures, whose ``series --order
    30`` output has one corrupted p/q string, must fail exactly one
    operation, as wrong.  ``certify``: a copy whose first residual that
    passes its check is replaced by a NotConvergedError must fail exactly
    one more operation, as raised.  Returns "passed", or "skipped" when the
    pass has nothing to inject into; raises AssertionError otherwise.
    """
    if oracle.workload not in ("exact", "certify"):
        return "skipped"
    base = check_pass(oracle, pass_dir, cli_rc, {})
    if oracle.workload == "exact":
        if base.failed:
            return "skipped"
        name = passrun.EXACT_COMMANDS["series30"][1]
        with open(os.path.join(pass_dir, name), encoding="utf-8") as fh:
            faulty_text = corrupt_pq(fh.read())
        expect_wrong, expect_errors = base.wrong + 1, base.errors
    else:
        name = "results.json"
        with open(os.path.join(pass_dir, name), encoding="utf-8") as fh:
            results = json.load(fh)
        slot = next((r for r in results["sde_residual"] if abs(r.get("value", math.inf)) < RESIDUAL_BOUND), None)
        if slot is None:
            return "skipped"
        slot.pop("value")
        slot.update(error="NotConvergedError", message="injected by the self-check")
        faulty_text = json.dumps(results)
        expect_wrong = base.wrong
        expect_errors = dict(base.errors, NotConvergedError=base.errors.get("NotConvergedError", 0) + 1)
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.copytree(pass_dir, scratch)
    with open(os.path.join(scratch, name), "w", encoding="utf-8") as fh:
        fh.write(faulty_text)
    faulty = check_pass(oracle, scratch, cli_rc, {})
    shutil.rmtree(scratch, ignore_errors=True)
    if not (
        faulty.attempted == base.attempted
        and faulty.failed == base.failed + 1
        and faulty.wrong == expect_wrong
        and faulty.errors == expect_errors
    ):
        raise AssertionError(f"self-check failed: base {base.as_dict()}, injected {faulty.as_dict()}")
    return "passed"
