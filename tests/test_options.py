"""Every settable value in src/ has a caller that sets it.

A static pass over the source: each function defined in src/ with a
defaulted parameter, and each dataclass field with a default, counts as
set when some call in src/, demos/ or perfbench/ passes it, by keyword or
by position.  Tests are not callers: a value that only a test sets is the
constant every other caller uses.  Functions and methods are keyed by
their name, constructors by their class name, so a call ``x.name(...)``
or ``name(...)`` sets what any definition of that name declares; a call
with ``*args`` sets every positional parameter from its place on, one
with ``**kwargs`` every parameter.  A value no call sets either becomes a
constant or is named in EXCEPTIONS with the reason it stays.
"""

import ast
import glob
import math
import os

from test_golden import ROOT

SRC = sorted(glob.glob(os.path.join(ROOT, "src", "wedgecap", "*.py")))
CALLERS = SRC + sorted(glob.glob(os.path.join(ROOT, "demos", "*.py"))
                       + glob.glob(os.path.join(ROOT, "perfbench", "*.py")))

# settable values that stay although no caller outside the tests sets them
EXCEPTIONS = {
    "martin_kernel.omega": "the k = 3 harmonicity test passes the opening's "
                           "own eigenfunction",
    "reduced_I.quad": "the one accuracy setting of the tau-aggregate family; "
                      "perfbench and besov_neg_proxy set quad on its siblings "
                      "M_nu_s and reduced_I_ladder",
    "sl_eigen_1d.tol": "the contract of gamma_first_eigenvalue's tol, which "
                       "--tol sets; ROADMAP item 13 states its pole case at "
                       "tol 1e-11",
}


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def _name(node):
    """The called or decorating name: f for f(...), x.f(...) or @f."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _is_dataclass(cls):
    return any(_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
               for d in cls.decorator_list)


def _options():
    """{key: [(positional parameter names, offset of the first one a call
    passes, defaulted names)]}."""
    out = {}

    def add(key, names, offset, defaulted):
        if defaulted:
            out.setdefault(key, []).append((names, offset, defaulted))

    def function(fn, key, method):
        a = fn.args
        pos = [p.arg for p in a.posonlyargs + a.args]
        defaulted = pos[len(pos) - len(a.defaults):] if a.defaults else []
        defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults)
                      if d is not None]
        add(key, pos, 1 if method else 0, defaulted)

    def walk(node, cls=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_dataclass(child):
                    fields = [s for s in child.body if isinstance(s, ast.AnnAssign)
                              and isinstance(s.target, ast.Name)]
                    add(child.name, [f.target.id for f in fields], 0,
                        [f.target.id for f in fields if f.value is not None])
                walk(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = cls is not None and not any(
                    _name(d) == "staticmethod" for d in child.decorator_list)
                key = cls.name if method and child.name == "__init__" else child.name
                function(child, key, method)
                walk(child)
            else:
                walk(child, cls)

    for path in SRC:
        walk(_parse(path))
    return out


def _calls():
    """{callee name: [(positional count, starred at or None, keywords, **)]}."""
    out = {}
    for path in CALLERS:
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.Call):
                continue
            name = _name(node.func)
            starred = next((i for i, a in enumerate(node.args)
                            if isinstance(a, ast.Starred)), None)
            kws = {k.arg for k in node.keywords if k.arg is not None}
            spread = any(k.arg is None for k in node.keywords)
            out.setdefault(name, []).append((len(node.args), starred, kws, spread))
    return out


def unset_options():
    """Sorted 'callee.parameter' names that no caller outside tests/ sets."""
    calls = _calls()
    unset = set()
    for key, defs in _options().items():
        for names, offset, defaulted in defs:
            for name in defaulted:
                place = names.index(name) - offset if name in names else math.inf
                if not any(name in kws or spread or n > place
                           or (star is not None and star <= place)
                           for n, star, kws, spread in calls.get(key, ())):
                    unset.add("%s.%s" % (key, name))
    return sorted(unset)


def test_every_option_has_a_caller():
    assert unset_options() == sorted(EXCEPTIONS)


if __name__ == "__main__":
    print("\n".join(unset_options()))
