"""The benchmark's traced run imports these names from the package and calls
them; a trim of ``src/`` that drops one, or changes a signature under one of
its calls, breaks ``perfbench/run.py --trace 1``."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
TREE = ast.parse(LAYERS.read_text(), filename=str(LAYERS))


def _package_imports():
    """(module, name) of every ``from activeht[.sub] import name`` in layers.py."""
    return [(node.module, alias.name)
            for node in ast.walk(TREE)
            if isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == "activeht"
            for alias in node.names]


def _package_calls():
    """(module, name, positional count, keyword names) of every call in
    layers.py to an imported name; the count is None for a ``*`` argument
    and a keyword name None for a ``**`` one."""
    modules = {name: module for module, name in _package_imports()}
    return [pytest.param(
                modules[node.func.id], node.func.id,
                None if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args),
                [kw.arg for kw in node.keywords],
                id=f"{node.func.id}-line{node.lineno}")
            for node in ast.walk(TREE)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in modules]


def test_layers_imports_from_the_package():
    assert _package_imports()


@pytest.mark.parametrize("module, name", _package_imports())
def test_imported_name_exists(module, name):
    assert hasattr(importlib.import_module(module), name)


def test_layers_calls_the_package():
    assert _package_calls()


@pytest.mark.parametrize("module, name, positional, keywords", _package_calls())
def test_call_binds_to_the_signature(module, name, positional, keywords):
    # Unpacked arguments cannot be counted, so no call here may use them.
    assert positional is not None and None not in keywords
    signature = inspect.signature(getattr(importlib.import_module(module), name))
    signature.bind_partial(*[None] * positional, **dict.fromkeys(keywords))
