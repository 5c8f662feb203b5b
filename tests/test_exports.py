import importlib

import pytest


@pytest.mark.parametrize("name", ["graph", "model", "theory", "solvers", "kernels", "harness"])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"mixcut.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
