"""The public names: every entry of each module's __all__, and of grlb's, resolves.

The names of the dense route and the root table are in no __all__, and of the
test files only tests/reference.py reaches them in grlb.
"""

import ast
import importlib
import inspect
from pathlib import Path

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


#: The dense route and the root table.  No route needs them: they stay in
#: their modules, out of every __all__, and the tests reach them only through
#: tests/reference.py.
REFERENCE_NAMES = {
    "grlb.engine": ("dh_polynomial_on", "moment_segment", "phi_pu", "resolve"),
    "grlb.exactnum": ("InvalidIntervalError", "integrate", "poly_product"),
    "grlb.rootsystems": ("RootSystem", "build_root_system", "weight_of_root_sum"),
}
NAMES = {name for names in REFERENCE_NAMES.values() for name in names}
TESTS = Path(__file__).parent


def test_reference_names_are_defined_but_not_public():
    for module_name, names in REFERENCE_NAMES.items():
        module = importlib.import_module(module_name)
        assert [getattr(module, name).__module__ for name in names] == [module_name] * len(names)
    for module_name in MODULES:
        assert NAMES.isdisjoint(importlib.import_module(module_name).__all__), module_name


def reference_reads(source: str) -> list[tuple[int, str]]:
    """(line, name) of each import of a reference name from grlb, or read of one
    as an attribute of grlb or a grlb module; a getattr by string is neither."""
    tree = ast.parse(source)
    modules = set()  # the local names bound to grlb or to one of its modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {
                alias.asname or alias.name.split(".")[0]
                for alias in node.names
                if alias.name.split(".")[0] == "grlb"
            }
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "grlb":
            for alias in node.names:
                if alias.name in NAMES:
                    found.append((node.lineno, alias.name))
                elif inspect.ismodule(getattr(importlib.import_module(node.module), alias.name, None)):
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in NAMES:
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in modules:
                found.append((node.lineno, node.attr))
    return sorted(found)


@pytest.mark.parametrize(
    "source, expected",
    [
        ("from grlb.engine import report, resolve", [(1, "resolve")]),
        ("from grlb import engine as e\ne.phi_pu(rs, 1, 2)", [(2, "phi_pu")]),
        ("import grlb.exactnum\ngrlb.exactnum.integrate((1,), 0, 1)", [(2, "integrate")]),
        ('from grlb import engine\ngetattr(engine, "resolve")', []),
        ("import grlb\nPath(grlb.__file__).resolve()", []),
        ("from reference import resolve\nresolve(datum)", []),
    ],
    ids=["import", "module-alias", "dotted-module", "getattr", "other-resolve", "reference"],
)
def test_reference_reads_finds_imports_and_attributes(source, expected):
    assert reference_reads(source) == expected


def test_only_the_reference_module_reaches_the_reference_names():
    reads = {
        path.name: reference_reads(path.read_text())
        for path in sorted(TESTS.glob("*.py"))
        if path.name != "reference.py"
    }
    assert {name: found for name, found in reads.items() if found} == {}
    assert {name for _, name in reference_reads((TESTS / "reference.py").read_text())} == NAMES
