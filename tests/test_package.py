"""Tests of the package root: its public names and the README's examples."""

import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dualpolsim
from dualpolsim import chanmodel, correlation, harness, link, pattern

LAYERS = (correlation, pattern, chanmodel, link, harness)

README = Path(__file__).resolve().parents[1] / "README.md"


def test_root_exports_every_layer_name_once():
    names = ["__version__"] + [name for module in LAYERS for name in module.__all__]
    assert dualpolsim.__all__ == names
    assert len(set(names)) == len(names)
    for module in LAYERS:
        for name in module.__all__:
            assert getattr(dualpolsim, name) is getattr(module, name), name


@pytest.mark.parametrize("module", LAYERS, ids=lambda m: m.__name__)
def test_every_public_function_and_class_is_in_all(module):
    defined = {
        name for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert defined <= set(module.__all__)


def test_no_module_calls_the_builtin_sum():
    # sum() compensates float rounding since Python 3.12 (and complex
    # rounding on 3.14), so a sum in the package would make a report's
    # bytes depend on the interpreter; the package reduces left to right
    paths = sorted(Path(dualpolsim.__file__).parent.glob("*.py"))
    assert len(paths) > len(LAYERS)
    calls = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "sum"
    ]
    assert calls == []


def test_readme_python_examples_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 3
    # the pattern example reads pattern.csv from the working directory
    (tmp_path / "pattern.csv").write_text(
        "azimuth_deg, port1_co_dBi, port1_cross_dBi, port2_co_dBi, port2_cross_dBi\n"
        + "".join(f"{-180 + 45 * i}, 6.0, -14.0, 5.0, -11.0\n" for i in range(8))
    )
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_import_builds_no_report_table():
    # the CDF writer's text tables are built on first use, not paid for by every import
    probe = (
        "import dualpolsim\n"
        "from dualpolsim import harness\n"
        "tables = [f for f in vars(harness).values() if hasattr(f, 'cache_info')]\n"
        "assert harness._digit_tables in tables\n"
        "print(sum(f.cache_info().currsize for f in tables))\n"
    )
    src = str(Path(dualpolsim.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout == "0\n"
