"""Every public name resolves, so a deleted name cannot linger in an export list."""

import ast
import importlib
from pathlib import Path

import pytest

import noonlike

MODULES = ["noonlike.states", "noonlike.qcrb", "noonlike.families", "noonlike.circuit",
           "noonlike.cli"]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def _package_reexports():
    tree = ast.parse(Path(noonlike.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                yield node.module, alias.name


@pytest.mark.parametrize("module, name", list(_package_reexports()))
def test_package_reexport_resolves(module, name):
    source = importlib.import_module(f"noonlike.{module}")
    assert getattr(noonlike, name) is getattr(source, name)
    if hasattr(source, "__all__"):
        assert name in source.__all__
