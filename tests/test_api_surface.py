"""Every public name of the package has a caller outside the tests.

A name in ``wedgecap.__all__`` needs a use in src/, demos/ or perfbench/
other than its own ``def``/``class`` line and the package ``__init__``,
or a place on KEEP.  Uses are NAME tokens, so a mention in a docstring,
a comment or a string does not count.
"""

import os
import tokenize

import wedgecap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
INIT = os.path.join(ROOT, "src", "wedgecap", "__init__.py")

# public API without a caller in the library, its demos or its benchmark
KEEP = {
    "rho_capacity": "the weighted edge capacity, the paper's capacity of a "
                    "point set on the edge; only the benchmark tracer names it",
    "bessel_kernel_radial": "the Bessel kernel G_alpha itself, shown in "
                            "demo_capacity.py against e^{-|x|}/2",
    "spherical_to_cartesian": "the chart whose inverse opening_eigenfunction "
                              "evaluates in",
    "opening_eigenfunction": "the omega handle martin_kernel needs for k != 2",
}


def _used_names():
    used = set()
    for top in ("src", "demos", "perfbench"):
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            for name in files:
                path = os.path.join(dirpath, name)
                if not name.endswith(".py") or path == INIT:
                    continue
                with open(path, encoding="utf-8") as fh:
                    prev = None
                    for tok in tokenize.generate_tokens(fh.readline):
                        if tok.type == tokenize.NAME and prev not in ("def", "class"):
                            used.add(tok.string)
                        prev = tok.string if tok.type == tokenize.NAME else None
    return used


def test_every_public_name_has_a_caller():
    used = _used_names()
    assert sorted(n for n in wedgecap.__all__ if n not in used and n not in KEEP) == []


def test_keep_list_names_public_api():
    assert sorted(set(KEEP) - set(wedgecap.__all__)) == []
