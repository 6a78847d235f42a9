"""Every exported name resolves, so a removal cannot leave a stale export
behind for ``from singlearm.<module> import *`` or tools that walk
``__all__`` with ``getattr``."""

import importlib

import pytest

MODULES = ["singlearm"] + [
    f"singlearm.{name}" for name in ("analysis", "cli", "design", "models", "numerics", "presets", "simulate")
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_export_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
