"""One benchmark pass in a fresh interpreter.

usage: python3 perfbench/passrun.py JOB_JSON PASS_DIR TRACE

Reads the workload and its inputs from JOB_JSON, imports melontft (timed
as set-up), runs every operation of the workload in-process, writes each
output under PASS_DIR and finally writes PASS_DIR/report.json.  An
operation that raises is recorded with its exception and the pass goes
on.  With TRACE = 1 the public melontft callables are wrapped by the
span tracer first and the spans are written to PASS_DIR/trace.json.

The report's time stamps come from time.monotonic(), which on Linux is
the system-wide CLOCK_MONOTONIC, so the parent can subtract its own
start stamp from them.
"""

import json
import os
import sys
import time
from contextlib import nullcontext


def _attempt(fn):
    try:
        return {"value": fn()}
    except Exception as exc:  # a failed operation is a result of the pass
        return {"error": type(exc).__name__, "message": str(exc)}


def _grid(m, cli, inputs, out, span):
    cli_rc = {}
    with span("op.tabulate"):
        cli_rc["tabulate"] = _attempt(
            lambda: cli.main(
                [
                    "tabulate",
                    "--lambda", ",".join(repr(v) for v in inputs["lams"]),
                    "--x1", ",".join(repr(v) for v in inputs["x1s"]),
                    "--x2", repr(inputs["x2"]),
                    "--x3", repr(inputs["x3"]),
                    "--output", os.path.join(out, "tabulate.csv"),
                ]
            )
        )
    results = []
    for t in inputs["tuples"]:
        with span("op.connected_2k"):
            results.append(
                _attempt(
                    lambda: m.connected_2k(
                        m.PointTuple(tuple(m.Point3(*p) for p in t["points"])), m.Coupling(t["lam"])
                    )
                )
            )
    return cli_rc, {"connected_2k": results}


EXACT_COMMANDS = {
    "series30": (["series", "--order", "30"], "series30.json"),
    "coeffs_closed20": (["coeffs", "--max-order", "20"], "coeffs_closed20.json"),
    "coeffs_recur20": (["coeffs", "--max-order", "20", "--source", "recur"], "coeffs_recur20.json"),
    "verify_identities": (["verify", "identities"], "verify_identities.txt"),
}


def _exact(m, cli, inputs, out, span):
    cli_rc = {}
    for name, (argv, fname) in EXACT_COMMANDS.items():
        with span("op." + name):
            cli_rc[name] = _attempt(lambda: cli.main(argv + ["--output", os.path.join(out, fname)]))
    return cli_rc, None


def _certify(m, cli, inputs, out, span):
    cli_rc = {}
    with span("op.verify_all"):
        cli_rc["verify_all"] = _attempt(
            lambda: cli.main(["verify", "all", "--format", "json", "--output", os.path.join(out, "verify_all.json")])
        )
    sde, ident = [], []
    for q in inputs["quad"]:
        x, c, tol = m.Point3(*q["x"]), m.Coupling(q["lam"]), q["tol"]
        with span("op.sde_residual"):
            sde.append(_attempt(lambda: m.sde_residual_numeric(x, c, tol)))
        with span("op.identity_residual"):
            ident.append(_attempt(lambda: m.integrated_identity_residual(x.x1, c, tol)))
    sums = []
    order = inputs["partial_order"]
    for s in inputs["sums"]:
        with span("op.partial_sum"):
            sums.append(_attempt(lambda: m.eval_partial_sum(order, m.Point3(*s["x"]), s["lam"])))
    return cli_rc, {"sde_residual": sde, "identity_residual": ident, "partial_sum": sums}


RUNNERS = {"grid": _grid, "exact": _exact, "certify": _certify}


def main():
    job_path, out, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)

    t0 = time.monotonic()
    import melontft as m

    t1 = time.monotonic()
    from melontft import cli

    def span(name):
        return nullcontext()

    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        modules = [mod for name, mod in sorted(sys.modules.items()) if name.split(".")[0] == "melontft"]
        tracing.install(tracer, modules)
        span = tracer.span

    cli_rc, results = RUNNERS[job["workload"]](m, cli, job["inputs"], out, span)
    if results is not None:
        with open(os.path.join(out, "results.json"), "w", encoding="utf-8") as fh:
            json.dump(results, fh)
    t_last = time.monotonic()

    if tracer is not None:
        tracer.write(os.path.join(out, "trace.json"))
    report = {"setup_s": t1 - t0, "t_setup": [t0, t1], "t_last_output": t_last, "cli": cli_rc}
    with open(os.path.join(out, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
