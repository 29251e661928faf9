import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import melontft
from melontft import combinatorics, errors, greens, quadrature, series, specialfn

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "melontft"
# the package's modules by name: cli, series, specialfn, ...
MODULES = {p.stem: importlib.import_module(f"melontft.{p.stem}") for p in PACKAGE.glob("[!_]*.py")}


def test_exports_are_the_module_lists():
    modules = (combinatorics, errors, greens, quadrature, series, specialfn)
    names = [name for module in modules for name in module.__all__]
    assert sorted(melontft.__all__) == sorted(["__version__"] + names)
    for module in modules:
        for name in module.__all__:
            assert getattr(melontft, name) is getattr(module, name)


def test_readme_quickstart_runs():
    # the documented API cannot drift from the code
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


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


def _loads_numpy(code):
    """Whether running ``code`` in a fresh interpreter on src/ loads numpy."""
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code += "; print('numpy' in sys.modules, file=sys.stderr)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stderr.splitlines()[-1] == "True"


def test_import_loads_no_numpy():
    assert not _loads_numpy("import sys, melontft, melontft.cli")


def test_verify_all_loads_no_numpy():
    # the package is pure Python, quadrature included
    assert not _loads_numpy("import sys; from melontft import cli; assert cli.main(['verify', 'all']) == 0")
