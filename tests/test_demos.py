"""Every demo imports names that exist, and runs to completion."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import fracdiff

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "fracdiff"
               for alias in node.names]
    assert imports
    missing = [f"{mod}.{name}" for mod, name in imports
               if not hasattr(importlib.import_module(mod), name)]
    assert not missing, f"{path.name} imports missing names {missing}"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, tmp_path):
    # the import check cannot see a changed call signature; kernels_gallery
    # writes its CSV (and figure) into the working directory
    src = os.path.dirname(os.path.dirname(fracdiff.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(path)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
