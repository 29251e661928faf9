"""Per-layer metrics from traced passes and ``-X importtime`` samples.

Each metric names the layer (melontft module) it measures; README.md maps
it to the end-to-end metric and workload it should move.  A metric whose
layer a workload does not exercise reads 0 on that workload.
"""

from __future__ import annotations

import json
import os
import statistics

MODULES = ("cli", "combinatorics", "greens", "quadrature", "series", "specialfn", "verify")
SUITES = ("coeffs", "identities", "lambert", "sde", "greens")

OMEGA = "specialfn.wright_omega"
G2 = "specialfn.g2_exact"
ORDER = "series.perturbative_order"
STIRLING = "combinatorics.stirling_first_signed"
QUAD = "quadrature.integrate_quarter_plane"

# worst errors against the oracles, from the checker
ACCURACY = ("g2_max_rel_err", "g_max_rel_err", "connected_2k_max_rel_err", "partial_sum_max_rel_err")

# (name, unit), in the order BENCHMARK.json lists them
PER_LAYER = (
    [
        ("specialfn.wright_omega.calls_per_record", "calls/record"),
        ("specialfn.wright_omega.us_per_call", "us"),
        ("specialfn.g2_exact.us_per_call", "us"),
    ]
    + [(f"{mod}.self_s", "s") for mod in MODULES]
    + [
        ("greens.connected_2k.ms_per_call.k4", "ms"),
        ("greens.connected_2k.ms_per_call.k8", "ms"),
        ("greens.g2_exact_calls_per_call.k8", "calls/call"),
        ("series.perturbative_order.build_s", "s"),
        ("series.order30.terms", "count"),
        ("series.perturbative_order.calls_per_order", "calls/order"),
        ("series.eval_partial_sum.us_per_call", "us"),
        ("combinatorics.stirling.calls", "count"),
        ("combinatorics.stirling.us_per_call", "us"),
        ("combinatorics.coefftable_closed.s", "s"),
        ("combinatorics.coefftable_recur.s", "s"),
        ("quadrature.integrals", "count"),
        ("quadrature.evals_per_integral", "evals/integral"),
        ("quadrature.ns_per_eval", "ns"),
        ("quadrature.converged_frac", "ratio"),
        ("quadrature.wasted_evals_frac", "ratio"),
    ]
    + [(f"verify.suite_{s}.s", "s") for s in SUITES]
    + [
        ("import.numpy_s", "s"),
        ("import.melontft_s", "s"),
        ("import.melontft_self_s", "s"),
        ("trace.overhead_frac", "ratio"),
        ("fail_frac", "ratio"),
    ]
    + [(name, "ratio") for name in ACCURACY]
)


def _ratio(a, b):
    return a / b if b else 0.0


def from_trace(path: str, records: int) -> dict:
    """Layer metrics of one traced pass from its aggregated spans.

    ``records`` is the number of ``tabulate`` records the pass emits.
    """
    with open(path, encoding="utf-8") as fh:
        agg = json.load(fh)["aggregates"]

    def rows(name=None, parent=None, op=None):
        return [
            a for a in agg
            if (name is None or a["name"] == name)
            and (parent is None or a["parent"] == parent)
            and (op is None or a["op"] == op)
        ]

    def calls(**kw):
        return sum(a["calls"] for a in rows(**kw))

    def total(**kw):
        return sum(a["total_s"] for a in rows(**kw))

    def counter(name, key):
        return sum(a["counters"].get(key, 0) for a in rows(name=name))

    k4, k8 = "greens.connected_2k[k=4]", "greens.connected_2k[k=8]"
    orders = {key for a in rows(name=ORDER) for key in a["counters"]}
    evals, integrals = counter(QUAD, "evals"), calls(name=QUAD)
    m = {
        "specialfn.wright_omega.calls_per_record": _ratio(calls(name=OMEGA, op="op.tabulate"), records),
        "specialfn.wright_omega.us_per_call": 1e6 * _ratio(total(name=OMEGA), calls(name=OMEGA)),
        "specialfn.g2_exact.us_per_call": 1e6 * _ratio(total(name=G2), calls(name=G2)),
        "greens.connected_2k.ms_per_call.k4": 1e3 * _ratio(total(name=k4), calls(name=k4)),
        "greens.connected_2k.ms_per_call.k8": 1e3 * _ratio(total(name=k8), calls(name=k8)),
        "greens.g2_exact_calls_per_call.k8": _ratio(calls(name=G2, parent=k8), calls(name=k8)),
        "series.perturbative_order.build_s": total(name=ORDER, op="op.series30"),
        "series.perturbative_order.calls_per_order": _ratio(calls(name=ORDER), len(orders)),
        "series.eval_partial_sum.us_per_call": 1e6
        * _ratio(total(name="series.eval_partial_sum"), calls(name="series.eval_partial_sum")),
        "combinatorics.stirling.calls": calls(name=STIRLING),
        "combinatorics.stirling.us_per_call": 1e6 * _ratio(total(name=STIRLING), calls(name=STIRLING)),
        "combinatorics.coefftable_closed.s": total(name="combinatorics.CoeffTable.from_closed_form"),
        "combinatorics.coefftable_recur.s": total(name="combinatorics.CoeffTable.from_recurrences"),
        "quadrature.integrals": integrals,
        "quadrature.evals_per_integral": _ratio(evals, integrals),
        "quadrature.ns_per_eval": 1e9 * _ratio(total(name=QUAD), evals),
        "quadrature.converged_frac": _ratio(counter(QUAD, "converged"), integrals),
        "quadrature.wasted_evals_frac": _ratio(counter(QUAD, "wasted_evals"), evals),
    }
    for mod in MODULES:
        m[f"{mod}.self_s"] = sum(a["self_s"] for a in agg if a["name"].split(".")[0] == mod)
    for s in SUITES:
        m[f"verify.suite_{s}.s"] = total(name=f"verify.suite_{s}")
    return m


def parse_importtime(stderr: str) -> dict:
    """numpy's cumulative, melontft's cumulative and melontft's own seconds."""
    numpy_us = melontft_us = self_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        own, cumulative, name = line[len("import time:"):].split("|")
        name = name.strip()
        if name == "numpy":
            numpy_us = int(cumulative)
        if name == "melontft":
            melontft_us = int(cumulative)
        if name.split(".")[0] == "melontft":
            self_us += int(own)
    return {"import.numpy_s": numpy_us / 1e6, "import.melontft_s": melontft_us / 1e6, "import.melontft_self_s": self_us / 1e6}


def series_terms(pass_dir: str) -> int:
    try:
        with open(os.path.join(pass_dir, "series30.json"), encoding="utf-8") as fh:
            return len(json.load(fh)["terms"])
    except (OSError, ValueError, KeyError):
        return 0


def summarize(plain: list, traced: list, imports: list, acc: dict, fail_frac: float) -> dict:
    """Per-layer metrics of a traced run: medians over traced passes."""
    values = {name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
    for name in imports[0]:
        values[name] = statistics.median(s[name] for s in imports)
    values["series.order30.terms"] = acc.get("series30_terms", 0)
    values["trace.overhead_frac"] = (
        statistics.mean(r["wall_s"] for r in traced) / statistics.mean(r["wall_s"] for r in plain) - 1.0
    )
    values["fail_frac"] = fail_frac
    for name in ACCURACY:
        values[name] = acc.get(name, 0.0)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
