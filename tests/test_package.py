import importlib
import inspect
import os
import re
import shlex
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import melontft
from melontft import combinatorics, greens, quadrature, series, specialfn, verify

ROOT = Path(__file__).resolve().parents[1]
# the package the suite imported: src/ under the tier-1 command, the
# installed copy when the suite runs against a wheel
PACKAGE = Path(melontft.__file__).resolve().parent
# the package's modules by name: cli, series, specialfn, ...
MODULES = {p.stem: importlib.import_module(f"melontft.{p.stem}") for p in PACKAGE.glob("[!_]*.py")}


def test_exports_are_the_public_definitions():
    # a module's public functions and classes, read off its definitions, are
    # exactly its _EXPORTS entry, and the package hands out the same objects
    for mod, names in melontft._EXPORTS.items():
        module = MODULES[mod]
        defined = {
            name
            for name, value in vars(module).items()
            if not name.startswith("_")
            and (inspect.isfunction(value) or inspect.isclass(value))
            and value.__module__ == module.__name__
        }
        assert defined == set(names), mod
        for name in names:
            assert getattr(melontft, name) is getattr(module, name), name
    assert melontft.__all__ == ["__version__", *(n for names in melontft._EXPORTS.values() for n in names)]


def test_readme_quickstart_runs():
    # the documented API cannot drift from the code
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_readme_commands_run(capsys):
    # every command of the README's "Command line" block exits 0
    from melontft import cli

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"^## Command line\n\n```sh\n(.*?)^```", readme, re.S | re.M)
    commands = [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("melontft ")]
    assert commands
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv
        capsys.readouterr()


def test_readme_names_resolve():
    # every module-qualified name the README cites, such as series._kernel,
    # exists; file names such as series.py are not names
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    cited = set(re.findall(rf"\b({'|'.join(MODULES)})\.(?!py\b)(\w+)", readme))
    assert ("series", "_kernel") in cited
    missing = sorted(f"{mod}.{name}" for mod, name in cited if not hasattr(MODULES[mod], name))
    assert not missing, missing


def test_private_names_in_source_resolve():
    # every ``_name`` a docstring or comment of the package cites exists in it,
    # in the module it names, if any
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        for mod, name in re.findall(r"``(?:(\w+)\.)?(_\w+)", path.read_text(encoding="utf-8")):
            homes = [MODULES[mod]] if mod in MODULES else [melontft, *MODULES.values()]
            if not any(hasattr(home, name) for home in homes):
                missing.append(f"{path.name}: {mod + '.' if mod else ''}{name}")
    assert not missing, missing


def _env():
    """The environment of a fresh interpreter that imports the package from ``PACKAGE``."""
    home = str(PACKAGE.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [home, os.environ.get("PYTHONPATH")])))


def _run(code):
    """The standard error of ``code`` run in a fresh interpreter on ``PACKAGE``."""
    return subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True, text=True, check=True).stderr


def _loaded(code, names):
    """The modules among ``names`` that a fresh interpreter on ``PACKAGE`` has loaded after ``code``."""
    code += f"; import sys; print(*[n for n in {list(names)!r} if n in sys.modules], file=sys.stderr)"
    return set(_run(code).splitlines()[-1].split())


IMPORT_CLI = "import melontft, melontft.cli"
VERIFY_ALL = "from melontft import cli; assert cli.main(['verify', 'all']) == 0"
# the grid workload's path: an in-process tabulate and one connected_2k
GRID = (
    "import melontft, melontft.cli as cli, os; m = melontft"
    "; assert cli.main(['tabulate', '--lambda', '0.1,1', '--x1', '0,0.5,1', '--output', os.devnull]) == 0"
    "; m.connected_2k(m.PointTuple((m.Point3(1, 2, 3), m.Point3(2, 1, 1))), m.Coupling(0.5))"
)


def test_import_runs_no_submodule():
    names = [f"melontft.{name}" for name in MODULES] + ["fractions", "heapq"]
    assert not _loaded("import melontft; dir(melontft)", names)


def _main(*argvs):
    """Code that runs each argv through ``cli.main`` and asserts exit 0; ``_run`` captures the output."""
    return f"from melontft import cli; assert all(cli.main(a) == 0 for a in {list(argvs)!r})"


# command -> (code, what it loads besides cli and errors) among the
# package's modules, heapq (quadrature's), and fractions and decimal, which
# only a public function that returns a Fraction imports, so no row does
LOADS = {
    "version": (_main(["--version"]), ""),
    "eval": (_main(["eval", "--lambda", "1", "--x", "1,1,1"]), "specialfn"),
    "tabulate": (_main(["tabulate", "--lambda", "0.1,1", "--x1", "0,1"]), "specialfn"),
    "greens": (_main(["greens", "--lambda", "1", "--points", "1,2,3;2,1,1"]), "specialfn greens"),
    "grid": (GRID, "specialfn greens"),
    "series": (_main(["series", "--order", "30"]), "combinatorics series"),
    "coeffs_closed": (_main(["coeffs", "--max-order", "20"]), "combinatorics"),
    "coeffs_recur": (_main(["coeffs", "--max-order", "20", "--source", "recur"]), "combinatorics"),
    # the exact commands whose outputs the benchmark pins
    "exact": (
        _main(
            ["series", "--order", "30"],
            ["coeffs", "--max-order", "20"],
            ["coeffs", "--max-order", "20", "--source", "recur"],
            ["verify", "identities"],
        ),
        "combinatorics series verify",
    ),
    "verify_coeffs": (_main(["verify", "coeffs"]), "verify combinatorics series"),
    "verify_identities": (_main(["verify", "identities"]), "verify combinatorics"),
    "verify_lambert": (_main(["verify", "lambert"]), "verify specialfn"),
    "verify_sde": (_main(["verify", "sde"]), "verify specialfn"),
    "verify_sde_numeric": (_main(["verify", "sde", "--numeric"]), "verify specialfn quadrature heapq"),
    "verify_greens": (_main(["verify", "greens"]), "verify specialfn greens"),
    "verify_all": (VERIFY_ALL, "verify combinatorics series specialfn quadrature heapq greens"),
}


@pytest.mark.parametrize("code, loads", LOADS.values(), ids=LOADS)
def test_command_loads(code, loads):
    # each command loads only the modules it runs: the exact commands no
    # float layer or quadrature, the float commands no exact layer
    names = [f"melontft.{name}" for name in MODULES] + ["heapq", "fractions", "decimal"]
    expected = {name if name == "heapq" else f"melontft.{name}" for name in ["cli", "errors", *loads.split()]}
    assert _loaded(code, names) == expected


FIRST_USE = """
import sys, melontft
assert set(melontft.__all__) <= set(dir(melontft))
assert melontft.series is sys.modules["melontft.series"]
try:
    melontft.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("melontft.no_such_name resolved")
ns = {}
exec("from melontft import *", ns)
assert ns["__version__"] == melontft.__version__
for mod, names in melontft._EXPORTS.items():
    module = sys.modules["melontft." + mod]
    for name in names:
        assert ns[name] is getattr(module, name) is getattr(melontft, name), name
"""


def test_names_load_on_first_use():
    # in a fresh interpreter, so that each name goes through the package's
    # __getattr__ and not through an attribute another test bound
    _run(FIRST_USE)


def test_import_loads_no_numpy():
    assert not _loaded(IMPORT_CLI, ["numpy"])


def test_verify_all_loads_no_numpy():
    # the package is pure Python, quadrature included
    assert not _loaded(VERIFY_ALL, ["numpy"])


def test_partial_sum_loads_no_numpy():
    # the certify workload's partial sum reads float columns, not arrays
    code = "import math, melontft as m; v = m.eval_partial_sum(20, m.Point3(0.7, 1.2, 0.3), 0.25); assert math.isfinite(v)"
    assert not _loaded(code, ["numpy"])


@pytest.mark.parametrize("code", [IMPORT_CLI, VERIFY_ALL], ids=["import", "verify_all"])
def test_loads_no_dataclasses_or_inspect(code):
    # the value types are built without generated code (errors._record)
    assert not _loaded(code, ["dataclasses", "inspect"])


# one sample per value type: its fields, in order, with valid values
RECORDS = [
    (specialfn.Point3, {"x1": 1.0, "x2": 0.5, "x3": 2.0}),
    (specialfn.Coupling, {"lam": 1.5}),
    (combinatorics.CoeffTable, {"max_order": 2, "entries": {(2, 1, 1): Fraction(1)}}),
    (greens.PointTuple, {"points": (specialfn.Point3(1.0, 2.0, 3.0), specialfn.Point3(2.0, 1.0, 1.0))}),
    (series.LogTerm, {"coeff": Fraction(1, 3), "logpow": 2, "x1pow": 1, "fullpow": 3}),
    (series.LogSeries, {"order": 2, "terms": (series.LogTerm(Fraction(1, 3), 2, 1, 3),)}),
    (quadrature.QuadResult, {
        "value": 0.25, "error_estimate": 1e-12, "evaluations": 144, "converged": True,
        "panels": 6, "stuck_panels": 0, "inside_cut": 0.2, "inside_cut2": 0.24,
    }),
    (verify.Check, {"name": "a check", "passed": True, "detail": "exact"}),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_contract(cls, fields):
    values = tuple(fields.values())
    a, b = cls(*values), cls(**fields)
    assert tuple(getattr(a, name) for name in fields) == tuple(getattr(b, name) for name in fields) == values
    assert a == b and not a != b
    if cls is combinatorics.CoeffTable:
        with pytest.raises(TypeError):  # its entries are a dict, so it has no hash
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert a != values and values != a
    assert repr(a) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b
    # no arguments, a surplus positional, an unknown keyword, a field given twice
    first = next(iter(fields))
    for args, kwargs in [((), {}), (values + (None,), {}), (values, {"unknown": 1}), (values, {first: 1})]:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_record_defaults_and_keyword_validation():
    assert verify.Check("a check", None) == verify.Check("a check", None, "")
    assert verify.Check(name="a check", passed=False).detail == ""
    with pytest.raises(ValueError):  # __post_init__ runs for keyword arguments too
        specialfn.Point3(x1=-1.0, x2=0.0, x3=0.0)


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_closed_stdout_pipe_ends_quietly():
    # the console script, as in `melontft tabulate ... | head -1`: the reader
    # takes one line and closes the pipe; the process ends by SIGPIPE with
    # nothing on stderr, not with a message and the domain-error code 2
    grid = ",".join(repr(0.01 * i) for i in range(1, 201))
    argv = ["-c", "from melontft.cli import entry_point; entry_point()", "tabulate", "--lambda", grid, "--x1", grid]
    with subprocess.Popen([sys.executable, *argv], env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"lambda,x1,x2,x3,G2,g,residual\n"
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == -signal.SIGPIPE and err == b""
