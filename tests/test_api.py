"""Every exported name resolves, so a deleted function cannot leave a stale
entry behind in an ``__all__``."""

import importlib
import pkgutil

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
