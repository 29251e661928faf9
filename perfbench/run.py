"""melontft benchmark runner.

usage: python3 perfbench/run.py --workload {grid,exact,certify} --seed N
                                --seconds S --trace {0,1}

Run from the root of a checkout; the program under test is the melontft
package in ./src.  The runner generates the workload's inputs from the
seed, then runs passes one at a time, each in a fresh interpreter
(perfbench/passrun.py) with numpy limited to one thread, until the next
pass and its checks would end after S seconds (at least MIN_PASSES
passes).  Every operation of every pass is checked (perfbench/check.py)
right after it.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, medians over the
passes: wall_s (interpreter start to last output written) and setup_s
(the ``import melontft`` inside it), both converted to seconds at a
reference CPU speed by perfbench/speed.py, and peak_rss_mb (the pass's
max RSS from os.wait4).  The summary line before the result also gives
the raw wall times.  With --trace 1 passes
alternate untraced and traced, and the metrics are the per-layer ones of
perfbench/README.md, taken from the traced passes.  All scratch files
live under ./.perfbench.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import check
import layers
import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
PASS_TIMEOUT_S = 150.0
IMPORTTIME_RUNS = 3
# end-to-end metric -> unit; each is the median over the run's passes
E2E = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchmarkError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    # one numpy thread, as the benchmark specifies; a fixed hash seed so
    # that the passes of a run hash strings identically
    env.update(
        PYTHONPATH=SRC,
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_pass(job_path: str, pass_dir: str, trace: bool) -> dict:
    """Run one pass in a fresh interpreter and return its measurements."""
    os.makedirs(pass_dir)
    argv = [sys.executable, os.path.join(HERE, "passrun.py"), job_path, pass_dir, "1" if trace else "0"]
    with open(os.path.join(pass_dir, "stderr.txt"), "w", encoding="utf-8") as err:
        with speed.Probe() as probe:
            start = time.monotonic()
            proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=err, stderr=err)
            timer = threading.Timer(PASS_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.waitpid(proc.pid, 0)
                raise
            finally:
                timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(os.path.join(pass_dir, "stderr.txt"), encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        raise BenchmarkError(f"pass exited with {proc.returncode}:\n{tail}")
    with open(os.path.join(pass_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    return {
        "wall_s": probe.normalize(start, report["t_last_output"]),
        "setup_s": probe.normalize(*report["t_setup"]),
        "raw_wall_s": report["t_last_output"] - start,
        "raw_setup_s": report["setup_s"],
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "cli": report["cli"],
        "dir": pass_dir,
        "trace": trace,
    }


def import_breakdown() -> list:
    """``-X importtime`` samples of ``import melontft``."""
    samples = []
    for _ in range(IMPORTTIME_RUNS):
        out = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import melontft"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(layers.parse_importtime(out.stderr))
    return samples


def measure(args, job_path: str, run_dir: str, oracle, acc: dict) -> tuple:
    """Run and check passes for ``args.seconds``.

    A round is one pass (untraced, then traced with --trace 1) and its
    checks.  Rounds go on until the next one would end after
    ``args.seconds``, counted from the first.  Returns the untraced and
    the traced pass records and the outcome of the checker's self-check on
    the first pass.
    """
    plain, traced = [], []
    longest = 0.0
    cycle = (False, True) if args.trace else (False,)
    minimum = MIN_TRACED_PAIRS if args.trace else MIN_PASSES
    self_check = None
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        for trace in cycle:
            rec = run_pass(job_path, os.path.join(run_dir, f"pass{len(plain) + len(traced)}"), trace)
            (traced if trace else plain).append(rec)
            rec["tally"] = check.check_pass(oracle, rec["dir"], rec["cli"], acc)
            if self_check is None:
                self_check = check.self_check(oracle, rec["dir"], rec["cli"], os.path.join(run_dir, "selfcheck"))
            if trace:
                rec["layers"] = layers.from_trace(os.path.join(rec["dir"], "trace.json"), oracle.records())
            if args.workload == "exact" and "series30_terms" not in acc:
                acc["series30_terms"] = layers.series_terms(rec["dir"])
            if trace and len(traced) == 1:
                os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
                shutil.copy(
                    os.path.join(rec["dir"], "trace.json"),
                    os.path.join(WORK, "traces", f"{args.workload}-seed{args.seed}.json"),
                )
            shutil.rmtree(rec["dir"])
        now = time.monotonic()
        longest = max(longest, now - round_start)
        if len(plain) >= minimum and now - start + longest > args.seconds:
            return plain, traced, self_check


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "melontft", "__init__.py")):
        print(f"error: no melontft package under {SRC}; run from a melontft checkout", file=sys.stderr)
        return 2

    # the passes and the speed probe share one CPU: speeds of the CPUs differ
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    inputs = workloads.WORKLOADS[args.workload](args.seed)
    oracle = check.Oracle(args.workload, args.seed, inputs, check.load_reference())
    os.makedirs(WORK, exist_ok=True)
    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        job_path = os.path.join(run_dir, "job.json")
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "inputs": inputs}, fh)
        # compile bytecode and warm the file cache before anything is timed
        subprocess.run(
            [sys.executable, "-c", "import melontft.cli"], cwd=ROOT, env=child_env(), timeout=120, check=True
        )
        acc = {}
        plain, traced, self_check = measure(args, job_path, run_dir, oracle, acc)
        imports = import_breakdown() if args.trace else []
    except (BenchmarkError, subprocess.SubprocessError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    passes = plain + traced
    attempted = sum(r["tally"].attempted for r in passes)
    failed = sum(r["tally"].failed for r in passes)
    correct = all(r["tally"].wrong == 0 for r in passes)
    errors = {}
    for r in passes:
        for name, n in r["tally"].errors.items():
            errors[name] = errors.get(name, 0) + n

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(plain),
        "traced_passes": len(traced),
        "raised": errors,
        "self_check": self_check,
        "fail_frac": failed / attempted,
    }
    summary.update((name, acc[name]) for name in layers.ACCURACY if name in acc)
    for name in ("wall_s", "setup_s", "peak_rss_mb", "raw_wall_s", "raw_setup_s", "cpu_s"):
        values = [r[name] for r in plain]
        q1, med, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"mean": statistics.mean(values), "min": min(values), "q1": q1, "median": med, "q3": q3}
    summary["wall_s_passes"] = [r["wall_s"] for r in plain]
    summary["raw_wall_s_passes"] = [r["raw_wall_s"] for r in plain]
    print(json.dumps(summary))

    if args.trace:
        metrics = layers.summarize(plain, traced, imports, acc, failed / attempted)
    else:
        metrics = {name: {"value": summary[name]["median"], "unit": unit} for name, unit in E2E.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
