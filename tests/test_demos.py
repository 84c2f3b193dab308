"""Every name the demos import from fracdiff still exists."""

import ast
import importlib
import pathlib

import pytest

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
