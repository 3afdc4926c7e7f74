"""Every name that the package or one of its modules exports exists: a star
import of each reads every name of its ``__all__``."""

import importlib

import pytest

MODULES = ("vmpadmm", *(f"vmpadmm.{m}" for m in ("admm", "cli", "hpe", "linalg", "problems", "schedule")))


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    exported = importlib.import_module(name).__all__
    assert set(exported) <= namespace.keys() and len(set(exported)) == len(exported)
