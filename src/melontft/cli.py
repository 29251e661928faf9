"""Command-line front end.

Subcommands: eval, series, coeffs, greens, tabulate, verify.  eval,
coeffs and greens write one strict JSON line and tabulate writes CSV;
only series (json or csv) and verify (text or json) take --format.
Exact quantities (series coefficients, identity sides) are always
emitted as "p/q" rational strings; floats only appear for evaluated
specials and round-trip exactly (17 significant digits in CSV).

Exit codes: 0 success, 1 verification failure, 2 usage or domain error
(an unwritable --output included).  Run as the console script, a closed
stdout pipe ends the process by SIGPIPE, as it does other filters.

Only ``errors`` loads with this module.  The load rule of the package:
each command imports the modules it runs when it runs, and no other.
eval and tabulate load ``specialfn``, greens adds ``greens``, coeffs
loads ``combinatorics`` and series adds ``series``; verify loads
``verify`` and each suite its own layers, ``quadrature`` only for the
numeric SDE checks.  So the exact commands load no float layer and the
float commands no exact layer.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import nullcontext
from functools import cache
from typing import TYPE_CHECKING, List, Optional

from . import __version__
from .errors import MelonTFTError, _check_abs_tol

if TYPE_CHECKING:
    from .specialfn import Point3


def _parse_point(text: str) -> Point3:
    from .specialfn import Point3

    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected x as 'x1,x2,x3', got {text!r}")
    return Point3(*(float(p) for p in parts))


def _parse_floats(text: str) -> List[float]:
    return [float(p) for p in text.split(",") if p != ""]


def _sink(output: Optional[str]):
    # the one way to open --output, else stdout; called only once the output
    # is known to be valid, so a domain error leaves an existing file as it was
    return open(output, "w", encoding="utf-8") if output else nullcontext(sys.stdout)


def _emit(text: str, output: Optional[str]) -> None:
    with _sink(output) as fh:
        fh.write(text)


def _json(payload, output: Optional[str]) -> None:
    # one strict JSON line, made before the sink opens: a NaN raises, writing nothing
    _emit(json.dumps(payload, allow_nan=False) + "\n", output)


def cmd_eval(args) -> int:
    from .specialfn import Coupling, exact_record

    x, c = _parse_point(args.x), Coupling(args.lam)
    g, g2, residual = exact_record(x, c)
    # JSON has no NaN: an undefined residual is null (a tabulate cell prints nan)
    residual = None if math.isnan(residual) else residual
    _json({"lambda": c.lam, "x": [x.x1, x.x2, x.x3], "g": g, "G2": g2, "residual_algebraic": residual}, args.output)
    return 0


def cmd_series(args) -> int:
    # the terms of perturbative_order, printed from the closed form's integer columns
    # (c01 checks them); cold, about 3 ms at order 30 and 35 ms at 90, and no cap
    from .combinatorics import _ratio_str
    from .series import _closed_order, _terms

    n = args.order
    den, cols = _closed_order(n)
    fields = ("coeff", "logpow", "x1pow", "fullpow")
    terms = [(_ratio_str(c, den), *key) for key, c in _terms(n, cols)]  # each in the order of fields
    if args.format == "csv":
        # no cell is a float, and none holds a comma, a quote or a line break
        rows = [("order", *fields), *((n, *t) for t in terms)]
        _emit("".join(",".join(map(str, row)) + "\n" for row in rows), args.output)
    else:
        terms = [dict(zip(fields, t)) for t in terms]
        _json({"order": n, "prefactor_pi_over_2_pow": n, "terms": terms}, args.output)
    return 0


def cmd_coeffs(args) -> int:
    # the entries of CoeffTable, printed from its integer columns
    from .combinatorics import _closed_row, _entries, _ratio_str, _recur_row

    row = _closed_row if args.source == "closed" else _recur_row
    entries = [
        {"n": n, "k": k, "m": m, "a": _ratio_str(b, f)} for (n, k, m), b, f in _entries(args.max_order, row)
    ]
    _json({"max_order": args.max_order, "source": args.source, "entries": entries}, args.output)
    return 0


def cmd_greens(args) -> int:
    from .greens import PointTuple, connected_2k
    from .specialfn import Coupling

    points = tuple(_parse_point(p) for p in args.points.split(";") if p)
    value = connected_2k(PointTuple(points), Coupling(args.lam))
    if not math.isfinite(value):
        # an intermediate overflowed: the value exists but was not computed
        raise ValueError(f"the {len(points)}-point value at lambda={args.lam!r} is not finite: {value!r}")
    _json({"k": len(points), "lambda": args.lam, "value": value}, args.output)
    return 0


def cmd_tabulate(args) -> int:
    from .specialfn import Coupling, _flat_row

    lams = _parse_floats(args.lam)
    x1s = _parse_floats(args.x1)
    if not lams or not x1s:
        raise ValueError("tabulate needs nonempty --lambda and --x1 grids")
    x2, x3 = args.x2, args.x3
    couplings = [Coupling(lam) for lam in lams]
    # The grid is checked before the sink opens, so a domain error writes
    # nothing.  The first row checks x2, x3 and every x1; a later row can
    # then fail only where (1+x1^2)/z overflows, first at the largest x1,
    # and such a row is solved to raise its own error.
    first = _flat_row(x1s, x2, x3, couplings[0])
    x1_max = max(x1s)
    for c in couplings[1:]:
        if not math.isfinite((1.0 + x1_max * x1_max) / c.z):
            _flat_row(x1s, x2, x3, c)
    # then coupling-major rows, each [G2, g, residual] per x1 in CSV column
    # order, are solved, formatted and written one at a time
    rows = ((c, _flat_row(x1s, x2, x3, c) if i else first) for i, c in enumerate(couplings))
    # each x1's text is formatted once; a row's lambda text joins them into
    # a template ("%.17g" never prints a "%") that one "%" fills with the
    # flat row.  No cell holds a comma, a quote or a line break.
    pieces = ["", *(",%.17g,%.17g,%.17g," % (x1, x2, x3) + "%.17g,%.17g,%.17g\n" for x1 in x1s)]
    with _sink(args.output) as fh:
        fh.write("lambda,x1,x2,x3,G2,g,residual\n")
        for c, row in rows:
            fh.write(("%.17g" % c.lam).join(pieces) % tuple(row))
    return 0


def cmd_verify(args) -> int:
    from .verify import suite_coeffs, suite_greens, suite_identities, suite_lambert, suite_sde

    _check_abs_tol(args.tol)  # for every suite, so a bad --tol never passes unread
    x = None if args.x is None else _parse_point(args.x)
    # name -> suite; the key order is the order of "verify all"
    suites = {
        "coeffs": suite_coeffs,
        "identities": suite_identities,
        "lambert": suite_lambert,
        "sde": lambda: suite_sde(args.lam, x, args.tol, args.numeric or args.suite == "all"),
        "greens": suite_greens,
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    checks = [check for name in names for check in suites[name]()]
    if args.format == "json":
        # vars of a Check is its fields as a dict, in order (``errors._record``)
        _json([vars(c) for c in checks], args.output)
    else:
        _emit("".join(c.line() + "\n" for c in checks), args.output)
    return 1 if any(c.passed is False for c in checks) else 0


@cache  # the one parser of the process: parsing leaves a parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="melontft",
        description="Exact melonic tensor-field-theory 2-point function: "
        "evaluation, series data and verification suites.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=()):
        # --format only where callers read two formats; the first is the default
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--output", metavar="PATH", help="write to a file instead of stdout")

    p = sub.add_parser("eval", help="evaluate the exact 2-point function")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--x", required=True, help="momentum as 'x1,x2,x3'")
    add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("series", help="emit one exact perturbative order")
    p.add_argument("--order", type=int, required=True)
    add_common(p, ("json", "csv"))
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("coeffs", help="emit the exact coefficient table")
    p.add_argument("--max-order", type=int, default=9)
    p.add_argument("--source", choices=("closed", "recur"), default="closed")
    add_common(p)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("greens", help="evaluate a connected 2k-point function")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--points", required=True, help="semicolon-separated points 'x1,x2,x3;...'")
    add_common(p)
    p.set_defaults(func=cmd_greens)

    p = sub.add_parser("tabulate", help="tabulate G2 over coupling/x1 grids")
    p.add_argument("--lambda", dest="lam", required=True, help="comma-separated couplings")
    p.add_argument("--x1", required=True, help="comma-separated x1 values")
    p.add_argument("--x2", type=float, default=0.0)
    p.add_argument("--x3", type=float, default=0.0)
    add_common(p)
    p.set_defaults(func=cmd_tabulate)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("suite", choices=("coeffs", "identities", "sde", "lambert", "greens", "all"))
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--x", default=None, help="momentum as 'x1,x2,x3'")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--numeric", action="store_true", help="include quadrature-based SDE checks")
    add_common(p, ("text", "json"))
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, OSError, MelonTFTError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    import signal

    # the console script: a stdout pipe closed early, as by `| head`, ends it
    # quietly by SIGPIPE, as it ends other filters, not as a domain error
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
