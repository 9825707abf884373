"""The benchmark's traced run imports these names from the package; a trim
of ``src/`` that drops one breaks ``perfbench/run.py --trace 1``."""

import ast
import importlib
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _package_imports():
    """(module, name) of every ``from activeht[.sub] import name`` in layers.py."""
    tree = ast.parse(LAYERS.read_text(), filename=str(LAYERS))
    return [(node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == "activeht"
            for alias in node.names]


def test_layers_imports_from_the_package():
    assert _package_imports()


@pytest.mark.parametrize("module, name", _package_imports())
def test_imported_name_exists(module, name):
    assert hasattr(importlib.import_module(module), name)
