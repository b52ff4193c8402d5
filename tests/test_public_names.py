"""Every name a module exports through ``__all__`` exists on it."""

import importlib
import pkgutil

import pytest

import mixtvp

MODULES = ["mixtvp"] + [
    f"mixtvp.{info.name}" for info in pkgutil.iter_modules(mixtvp.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_entries_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicated __all__ entries"
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []
