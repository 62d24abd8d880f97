"""Every exported name resolves, so a deleted function cannot leave a stale
entry behind in an ``__all__``; the Lagrange-top model does not judge."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import haantjeskit

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(haantjeskit.__path__,
                                                "haantjeskit."))


@pytest.mark.parametrize("name", ["haantjeskit"] + MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, missing


def test_star_import():
    namespace = {}
    exec("from haantjeskit import *", namespace)
    assert set(haantjeskit.__all__) <= set(namespace)


def test_lagrange_does_not_import_report():
    """The model defines fields and maps; the suites judge them."""
    lagrange = importlib.import_module("haantjeskit.lagrange")
    imported = set()
    for path in Path(lagrange.__file__).parent.glob("*.py"):
        package = "haantjeskit.lagrange"
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                base = importlib.util.resolve_name(
                    "." * node.level + (node.module or ""), package)
                imported |= {base} | {f"{base}.{a.name}" for a in node.names}
            elif isinstance(node, ast.Import):
                imported |= {a.name for a in node.names}
    assert "haantjeskit.report" not in imported
