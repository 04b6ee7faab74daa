"""The tests' reference route: the root table and the dense density.

No computation of R uses either.  The engine walks Phi_Pu without a table and
integrates the factored density, so these are the independent references the
tests check it against.  This is the only test module that imports them from
`grlb`; every other test file imports them from here.  The ten names
re-exported below are defined in `grlb` but left out of their modules'
`__all__`.

`REFERENCE_NAMES` lists the ten, by the grlb module that defines them.  The
helpers read Phi_Pu of a marked pair (i, j) from the table: its multiset of
marked coefficients (c_i, c_j), its sum 2*rho_P, and the barycenter and dense
moments they give.  `grlb_imports` reads what a module imports from grlb.
"""

import ast
import importlib
import importlib.util
import inspect
from collections import Counter

from grlb.engine import _barycenter, _forms, dh_polynomial_on, moment_segment, phi_pu, resolve
from grlb.exactnum import InvalidIntervalError, integrate, poly_product
from grlb.rootsystems import RootSystem, build_root_system, weight_of_root_sum

__all__ = [
    "REFERENCE_NAMES",
    "InvalidIntervalError",
    "RootSystem",
    "barycenter_on",
    "build_root_system",
    "dense_density",
    "dense_moments",
    "dh_polynomial_on",
    "grlb_imports",
    "integrate",
    "moment_segment",
    "phi_pu",
    "poly_product",
    "resolve",
    "table_marked",
    "two_rho_P",
    "weight_of_root_sum",
]

#: The dense route and the root table, by the grlb module that defines each name.
REFERENCE_NAMES = {
    "grlb.engine": ("dh_polynomial_on", "moment_segment", "phi_pu", "resolve"),
    "grlb.exactnum": ("InvalidIntervalError", "integrate", "poly_product"),
    "grlb.rootsystems": ("RootSystem", "build_root_system", "weight_of_root_sum"),
}


def table_marked(rs, i, j):
    """Multiset of the marked coefficients (c_i, c_j) of Phi_Pu, read from a root table."""
    return Counter((r[i - 1], r[j - 1]) for r in phi_pu(rs, i, j))


def two_rho_P(rs, i, j):
    """2*rho_P, the sum of Phi_Pu, as its nonzero fundamental-weight coefficients."""
    return weight_of_root_sum(rs, phi_pu(rs, i, j))


def barycenter_on(rs, seg):
    """tbar of a segment over a given root system, Phi_Pu read from its marked pair."""
    marked = table_marked(rs, seg.i, seg.j)
    forms = _forms(marked, rs.half_lengths[seg.i - 1], rs.half_lengths[seg.j - 1])
    return _barycenter(seg, forms)


def dense_density(datum):
    """The datum's dense Duistermaat-Heckman density in t, built from the root table."""
    return dh_polynomial_on(resolve(datum)[0], moment_segment(datum))


def dense_moments(datum):
    """(volume, first moment) of the dense density over the datum's segment."""
    seg = moment_segment(datum)
    density = dense_density(datum)
    return (
        integrate(density, -seg.a, seg.b),
        integrate(poly_product([(0, 1), density]), -seg.a, seg.b),
    )


def grlb_imports(module):
    """Each grlb module that `module`'s source imports from, mapped to the set of
    names it takes; a grlb module imported whole maps to {"*"}."""
    taken = {}
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "grlb":
                    taken.setdefault(alias.name, set()).add("*")
        elif isinstance(node, ast.ImportFrom):
            source = importlib.util.resolve_name("." * node.level + (node.module or ""), module.__package__)
            if source.split(".")[0] != "grlb":
                continue
            package = hasattr(importlib.import_module(source), "__path__")
            for alias in node.names:
                if package and importlib.util.find_spec(f"{source}.{alias.name}"):
                    taken.setdefault(f"{source}.{alias.name}", set()).add("*")
                else:
                    taken.setdefault(source, set()).add(alias.name)
    return taken
