"""Every public name of the package has a caller outside the tests.

A name in ``wedgecap.__all__`` needs a use in src/, demos/ or perfbench/
other than its own ``def``/``class`` line and the package ``__init__``.
Uses are NAME tokens, so a mention in a docstring, a comment or a string
does not count.
"""

import os
import tokenize

import wedgecap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
INIT = os.path.join(ROOT, "src", "wedgecap", "__init__.py")


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
    assert sorted(n for n in wedgecap.__all__ if n not in used) == []
