"""Every function defined in src/ is entered by a command, a demo or a
verify experiment.

One in-process run under ``sys.setprofile`` executes the golden argvs
(``test_golden.CASES``), ``verify harmonicity --target martin`` and each
script under demos/, with stdout captured.  The package is imported afresh
for the run, so functions called only at import time and the bodies behind
``lru_cache`` are entered too; the modules the other tests hold are put
back afterwards.  Functions are keyed by file and first line, nested ones
included.  A function no run enters either leaves src/ (to
``tests/oracles.py`` if a test checks against it) or is named in
EXCEPTIONS with the reason it stays.
"""

import ast
import contextlib
import glob
import io
import os
import runpy
import sys

from test_golden import CASES, ROOT

SRC = os.path.join(ROOT, "src", "wedgecap")
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))
ARGVS = list(CASES.values()) + [("verify", "harmonicity", "--target", "martin")]

# functions that stay in src/ although no run above enters them
EXCEPTIONS = {
    "errors.py:AccuracyError.__init__": "raised only when a quadrature or "
                                        "eigenvalue misses its tolerance",
    "errors.py:SolverError.__init__": "raised only when a Newton solve fails",
    "errors.py:AnomalyError.__init__": "raised only when an experiment "
                                       "contradicts its prediction",
    "cli.py:_Parser.error": "runs only on a usage error (exit 1)",
    "besov.py:_second_diff_form": "besov_pos_norm's form at s = 1 exactly",
    "experiments.py:HeatLift.wt": "perfbench/spans.py wraps every name in its "
                                  "HEATLIFT_METHODS, which lists wt",
    "experiments.py:HeatLift.wtt": "perfbench/spans.py wraps every name in "
                                   "its HEATLIFT_METHODS, which lists wtt",
}


def _defined():
    """{(path, first line of the code object): 'file.py:Qual.name'}."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(path, first)] = "%s:%s" % (os.path.basename(path), name)
                walk(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            walk(ast.parse(fh.read()), os.path.realpath(path), "")
    return out


def _entered(monkeypatch):
    """(path, first line) of every code object a run enters."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    saved = {k: v for k, v in sys.modules.items()
             if k == "wedgecap" or k.startswith("wedgecap.")}
    for k in saved:
        del sys.modules[k]
    monkeypatch.chdir(ROOT)
    sys.setprofile(profile)
    try:
        from wedgecap.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in ARGVS:
                assert main(list(argv)) == 0, argv
            for path in DEMOS:
                runpy.run_path(path, run_name="__main__")
    finally:
        sys.setprofile(None)
        for k in [k for k in sys.modules
                  if k == "wedgecap" or k.startswith("wedgecap.")]:
            del sys.modules[k]
        sys.modules.update(saved)
    return {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in codes}


def test_every_src_function_is_entered(monkeypatch):
    defined = _defined()
    entered = _entered(monkeypatch)
    missed = sorted(name for key, name in defined.items() if key not in entered)
    assert missed == sorted(EXCEPTIONS)
