import os
import re
import subprocess
import sys
from pathlib import Path

import melontft
from melontft import combinatorics, errors, greens, quadrature, series, specialfn


def test_exports_are_the_module_lists():
    modules = (combinatorics, errors, greens, quadrature, series, specialfn)
    names = [name for module in modules for name in module.__all__]
    assert sorted(melontft.__all__) == sorted(["__version__"] + names)
    for module in modules:
        for name in module.__all__:
            assert getattr(melontft, name) is getattr(module, name)


def test_readme_quickstart_runs():
    # the documented API cannot drift from the code
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def _loads_numpy(code):
    """Whether running ``code`` in a fresh interpreter on src/ loads numpy."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code += "; print('numpy' in sys.modules, file=sys.stderr)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stderr.splitlines()[-1] == "True"


def test_import_loads_no_numpy():
    assert not _loads_numpy("import sys, melontft, melontft.cli")


def test_verify_all_loads_no_numpy():
    # the package is pure Python, quadrature included
    assert not _loads_numpy("import sys; from melontft import cli; assert cli.main(['verify', 'all']) == 0")
