"""No call in src/ drops a returned error beyond the named sites.

A static pass over the source.  A function returns ``(value, error)``
when one of its return statements is a pair whose second item names an
error (``vals, errs``, ``float(vals[0]), float(err)``) or is a call of
such a function.  A call of one drops its error when the pair is
unpacked into ``value, _`` or cut to ``f(...)[0]``.  Sites are keyed by
file, enclosing function and callee, so moving code does not move them.
Each site is on DROPPED with the ROADMAP item that removes it, and the
list must equal what the scan finds: a mended site leaves the list.
"""

import ast
import collections
import glob
import os

from test_golden import ROOT

SRC = sorted(glob.glob(os.path.join(ROOT, "src", "wedgecap", "*.py")))

# (file, enclosing function, callee): the ROADMAP item that removes the drop
DROPPED = [
    ("besov.py", "besov_neg_proxy", "reduced_I_ladder", "item 3"),
    ("capacity.py", "_subordinate", "integrate_rows", "items 13 and 28"),
    ("capacity.py", "rho_capacity", "M_nu_s", "item 3"),
    ("capacity.py", "rho_capacity", "M_nu_s", "item 3"),
    ("experiments.py", "dichotomy_experiment", "_tau_ladder", "item 3"),
    ("experiments.py", "equivalence_experiment.M_radii", "_aggregate", "item 3"),
    ("experiments.py", "remainder_experiment", "_aggregate", "item 3"),
    ("kernels.py", "_F_m2.radial", "integrate_rows", "item 21"),
    ("kernels.py", "_tau_integrand.f", "F_nu_m", "item 2"),
    ("kernels.py", "_tau_integrand.f", "_F_m1", "item 2"),
    ("spectral.py", "gamma_first_eigenvalue", "_extrapolated_lowest", "item 13"),
]


def _name(node):
    """The called name: f for f(...) or x.f(...)."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _functions():
    """[(file, qualified name, FunctionDef)] of every function in src/."""
    out = []

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((path, prefix + child.name, child))
                walk(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in SRC:
        with open(path, encoding="utf-8") as fh:
            walk(ast.parse(fh.read(), path), os.path.basename(path), "")
    return out


def _own(fn, kind):
    """The nodes of ``kind`` in fn's body, not in the functions it defines."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, kind):
            yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _value_error_functions(functions):
    """Names of the functions that return (value, error), to a fixed point."""
    found = set()
    while True:
        grown = set(found)
        for _, _, fn in functions:
            for ret in _own(fn, ast.Return):
                for v in ((ret.value.body, ret.value.orelse)
                          if isinstance(ret.value, ast.IfExp) else (ret.value,)):
                    if ((isinstance(v, ast.Tuple) and len(v.elts) == 2
                         and "err" in ast.unparse(v.elts[1]))
                            or (isinstance(v, ast.Call) and _name(v.func) in found)):
                        grown.add(fn.name)
        if grown == found:
            return found
        found = grown


def _calls(node, names):
    """The callee names of the (value, error) calls node is, or chooses
    between (``a(...) if c else b(...)``)."""
    if isinstance(node, ast.IfExp):
        return _calls(node.body, names) + _calls(node.orelse, names)
    if isinstance(node, ast.Call) and _name(node.func) in names:
        return [_name(node.func)]
    return []


def _scan():
    functions = _functions()
    names = _value_error_functions(functions)
    sites = []
    for path, qual, fn in functions:
        for node in _own(fn, (ast.Assign, ast.Subscript)):
            if isinstance(node, ast.Assign):
                t = node.targets[0]
                drops = (isinstance(t, ast.Tuple) and len(t.elts) == 2
                         and isinstance(t.elts[1], ast.Name) and t.elts[1].id == "_")
            else:
                drops = isinstance(node.slice, ast.Constant) and node.slice.value == 0
            if drops:
                sites += [(path, qual, c) for c in _calls(node.value, names)]
    return names, sites


def test_scan_knows_the_value_error_functions():
    names, _ = _scan()
    assert {"integrate_rows", "integrate_partials", "F_nu_m", "M_nu_s", "reduced_I",
            "reduced_I_ladder", "_aggregate", "_tau_ladder",
            "_extrapolated_lowest"} <= names
    assert not names & {"k17_nodes", "heat_lifting", "fit_loglog", "_refine"}


def test_dropped_errors_are_the_named_sites():
    _, sites = _scan()
    assert collections.Counter(sites) == collections.Counter(d[:3] for d in DROPPED)
