"""Regenerate perfbench/reference.json from the melontft in ./src.

usage: python3 perfbench/make_reference.py   (from the repository root)

The reference holds what the checker compares against: the SHA-256 of
every exact CLI output of the ``exact`` workload, the records of ``verify
all --format json`` (measured floats included, for inspection; the
checker compares only their exact parts) and the exact terms of the
perturbative orders 0..20 that the partial-sum oracle evaluates.  Run it
only at a commit whose exact outputs are known to be right: a later
commit must reproduce these bytes.
"""

import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import check  # noqa: E402
import passrun  # noqa: E402
import workloads  # noqa: E402
from melontft import cli  # noqa: E402


def _cli_json(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"melontft {' '.join(argv)} exited {rc}")
    return json.loads(buf.getvalue())


def main():
    digests = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for name, (argv, fname) in passrun.EXACT_COMMANDS.items():
            path = os.path.join(tmp, fname)
            if cli.main(argv + ["--output", path]) != 0:
                raise SystemExit(f"melontft {' '.join(argv)} failed")
            digests[name] = check.sha256_file(path)
    verify_all = [[r["name"], r["passed"], r["detail"]] for r in _cli_json(["verify", "all", "--format", "json"])]
    orders = {
        str(n): [[t["coeff"], t["logpow"], t["x1pow"], t["fullpow"]] for t in _cli_json(["series", "--order", str(n)])["terms"]]
        for n in range(workloads.PARTIAL_SUM_ORDER + 1)
    }
    with open(check.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"digests": digests, "verify_all": verify_all, "orders": orders}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
