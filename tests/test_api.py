"""The public names: every entry of each module's __all__, and of grlb's, resolves."""

import importlib

import pytest

MODULES = [
    "grlb",
    "grlb.closedforms",
    "grlb.engine",
    "grlb.exactnum",
    "grlb.oracle",
    "grlb.records",
    "grlb.rootsystems",
    "grlb.suites",
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    assert len(set(module.__all__)) == len(module.__all__)
