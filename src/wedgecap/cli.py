"""Command-line front end.

Subcommands
-----------
exponents   wedge or gamma  -> critical-exponent report
classify    polyhedron + q (+ set / measure) -> verdicts
kernel      measure + kernel parameters -> functional values
besov       measure + s, q -> negative-order norm proxy
capacity    set (or inline points) + alpha, p -> capacity results
verify      named experiment -> experiment report

Exit codes: 0 success, 1 usage error, 2 validation error, 3 numerical
error.  Angles are radians; floats are echoed at 17 significant digits.
Each command accepts only the flags it reads; ``--format csv`` exists for
capacity and verify.  Identical invocations produce byte-identical output
files.
"""

import argparse
import functools
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .besov import besov_neg_proxy
from .capacity import bessel_capacity, capacity_null_test
from .classify import (classify_polyhedron, good_measure_check,
                       removable_check)
from .errors import (AccuracyError, AnomalyError, ConfigurationError,
                     DivergenceError, DomainError, GeometryError,
                     ResolutionError, SolverError, UnknownStratumError,
                     WedgecapError)
from .exponents import critical_exponents
from .geometry import (WedgeSpec, dumps, measure_from_dict, polyhedron_from_dict,
                       set_from_dict, validate_wedge)
from .kernels import KernelParams, M_nu_s, F_nu_m, reduced_I
from .spectral import gamma_first_eigenvalue
from . import experiments as _exp

_VALIDATION_ERRORS = (GeometryError, ConfigurationError, DomainError,
                      ResolutionError, UnknownStratumError, json.JSONDecodeError,
                      FileNotFoundError, KeyError, ValueError)
_NUMERICAL_ERRORS = (AccuracyError, DivergenceError, SolverError, AnomalyError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _command(sub, name, help, formats=False):
    """A subcommand parser with --out and, for table-shaped results, --format."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--out", help="output path (default: stdout)")
    if formats:
        p.add_argument("--format", choices=("json", "csv"), default="json")
    return p


def _add_gamma_flags(p):
    p.add_argument("--N", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--alpha1", type=float)
    p.add_argument("--interval", action="append", default=[],
                   metavar="a,b", help="angular interval, repeatable")
    p.add_argument("--gamma", type=float,
                   help="opening eigenvalue supplied directly")
    p.add_argument("--tol", type=float, default=1e-8)


@functools.cache
def _build_parser():
    ap = _Parser(prog="wedgecap", description=__doc__,
                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command")

    p = _command(sub, "exponents", "critical exponents of one stratum")
    _add_gamma_flags(p)
    p.add_argument("--q", type=float)

    p = _command(sub, "classify", "verdicts for a polyhedron")
    p.add_argument("--poly", required=True, help="polyhedron JSON file")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--set", dest="set_path", help="compact set JSON file")
    p.add_argument("--measure", help="per-stratum measure JSON file "
                   "({stratum id: measure})")
    p.add_argument("--tol", type=float, default=1e-8)

    p = _command(sub, "kernel", "kernel functionals of a measure")
    p.add_argument("--measure", required=True)
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--s", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--j", type=int)
    p.add_argument("--R", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--eps", type=float, default=0.0)

    p = _command(sub, "besov", "negative-order Besov proxy of a measure")
    p.add_argument("--measure", required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--eps", type=float, default=1e-2)

    p = _command(sub, "capacity", "Bessel capacity of set pieces", formats=True)
    p.add_argument("--set", dest="set_path", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--resolution", type=float, default=0.02)

    verify = sub.add_parser("verify", help="run a named experiment")
    verify = verify.add_subparsers(dest="name", required=True)
    p = _command(verify, "dichotomy", "cutoff scaling at q_c", formats=True)
    _add_gamma_flags(p)
    p.add_argument("--q", type=float, default=1.8)
    p = _command(verify, "equivalence", "aggregate vs Besov proxy", formats=True)
    _add_gamma_flags(p)
    p.add_argument("--q", type=float, default=1.8)
    p.add_argument("--R", type=float, default=8.0)
    p.add_argument("--n-measures", type=int, default=20)
    p.add_argument("--seed", type=int, default=42)
    p = _command(verify, "remainder", "truncation remainder", formats=True)
    p.add_argument("--nu", type=float, default=3.0)
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--j", type=int, default=2)
    p.add_argument("--q", type=float, default=1.8)
    p = _command(verify, "harmonicity", "wedge-profile harmonicity", formats=True)
    p.add_argument("--alpha1", type=float, default=0.5 * np.pi)
    p.add_argument("--target", default="v_A")
    p = _command(verify, "heat", "heat-semigroup lifting", formats=True)
    p.add_argument("--q", type=float, default=1.8)
    p.add_argument("--R", type=float, default=8.0)
    return ap


def _wedge_from_args(args):
    intervals = []
    for item in args.interval:
        parts = item.split(",")
        if len(parts) != 2:
            raise GeometryError("--interval expects 'a,b' (got %r)" % item)
        intervals.append((float(parts[0]), float(parts[1])))
    return validate_wedge(WedgeSpec(N=args.N, k=args.k, alpha1=args.alpha1,
                                    intervals=tuple(intervals)))


def _check_tol(tol):
    """--tol is read only where the spectral chain runs, so check it up front."""
    if not (0.0 < tol < np.inf):
        raise DomainError("tol must be finite and > 0")


def _resolve_gamma(args):
    _check_tol(args.tol)
    if args.N is None or args.k is None:
        raise ConfigurationError("--N and --k are required")
    if args.gamma is not None:
        return float(args.gamma)
    if args.k == 1:
        return None
    spec = _wedge_from_args(args)
    return gamma_first_eigenvalue(spec, tol=args.tol)


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(args, payload, csv_rows=None):
    doc = {"tool": "wedgecap", "version": __version__,
           "config": {k: v for k, v in sorted(vars(args).items())
                      if k not in ("out",) and not k.startswith("_")},
           "result": payload}
    text = dumps(doc) + "\n" if csv_rows is None else csv_rows
    if args.out:
        d = os.path.dirname(os.path.abspath(args.out)) or "."
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".wedgecap-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            os.replace(tmp, args.out)
        except BaseException:
            os.unlink(tmp)
            raise
    else:
        sys.stdout.write(text)
    return 0


def _cmd_exponents(args):
    gamma = _resolve_gamma(args)
    rep = critical_exponents(args.N, args.k, gamma)
    payload = rep.to_dict()
    if args.q is not None:
        payload["q"] = args.q
        payload["s"] = rep.s(args.q) if args.k < args.N else None
        payload["beta"] = rep.beta(args.q)
    return _emit(args, payload)


def _cmd_classify(args):
    _check_tol(args.tol)
    poly = polyhedron_from_dict(_read_json(args.poly))
    verdicts = [v.to_dict() for v in classify_polyhedron(poly, args.q,
                                                         tol=args.tol)]
    payload = {"verdicts": verdicts}
    if args.set_path:
        E = set_from_dict(_read_json(args.set_path))
        payload["removability"] = removable_check(poly, E, args.q,
                                                  tol=args.tol).to_dict()
    if args.measure:
        raw = _read_json(args.measure)
        if not isinstance(raw, dict):
            raise GeometryError("measure map: expected a JSON object")
        mu = {sid: measure_from_dict(doc) for sid, doc in raw.items()}
        payload["good_measure"] = good_measure_check(poly, mu, args.q,
                                                     tol=args.tol).to_dict()
    return _emit(args, payload)


def _cmd_kernel(args):
    mu = measure_from_dict(_read_json(args.measure))
    params = KernelParams(nu=args.nu, m=args.m, q=args.q, s=args.s,
                          sigma=args.sigma, j=args.j, R=args.R)
    payload = {}
    if args.tau is not None:
        v, e = F_nu_m(args.tau, mu, params, truncated=args.R is not None)
        payload["F"] = {"tau": args.tau, "value": v, "error": e}
    if args.s is not None and args.R is not None:
        v, e = M_nu_s(mu, params, eps=args.eps)
        payload["M"] = {"value": v, "error": e, "eps": args.eps}
    if args.sigma is not None and args.j is not None:
        v, e = reduced_I(mu, params, eps=args.eps)
        payload["reduced_I"] = {"value": v, "error": e, "eps": args.eps}
    if not payload:
        raise ConfigurationError("nothing to compute: pass --tau, --s/--R, "
                                 "or --sigma/--j")
    return _emit(args, payload)


def _cmd_besov(args):
    mu = measure_from_dict(_read_json(args.measure))
    res = besov_neg_proxy(mu, args.s, args.q, eps=args.eps)
    payload = {"value": res.value, "cutoff": res.cutoff,
               "divergent": res.divergent,
               "fitted_exponent": res.fitted_exponent,
               "exponent_ci": res.exponent_ci, "r_squared": res.r_squared,
               "ladder": [list(t) for t in res.ladder]}
    return _emit(args, payload)


def _cmd_capacity(args):
    E = set_from_dict(_read_json(args.set_path))
    results = []
    rows = []
    for idx, piece in enumerate(E.pieces):
        if piece.kind == "grid":
            r = bessel_capacity(np.asarray(piece.points, float), args.alpha, args.p,
                                resolution=args.resolution)
            results.append({"piece": idx, "kind": "grid", "value": r.value,
                            "verdict": r.verdict, "limit": r.limit,
                            "history": [list(t) for t in r.history],
                            "gap": r.gap})
            rows.extend({"params": {"piece": idx, "resolution": h},
                         "metric": "capacity", "value": v}
                        for h, v in r.history)
        else:
            ell = len(piece.z) if piece.z is not None else 1
            results.append({"piece": idx, "kind": piece.kind,
                            "verdict": capacity_null_test(piece, args.alpha,
                                                          args.p, ell)})
    csv_text = None
    if args.format == "csv":
        csv_text = _exp.reports_csv([_exp.ExperimentReport(
            name="capacity", params={}, metrics={}, tolerances={}, passed=True,
            rows=rows)])
    return _emit(args, {"pieces": results}, csv_rows=csv_text)


def _cmd_verify(args):
    name = args.name
    if name == "dichotomy":
        gamma = _resolve_gamma(args)
        rep = _exp.dichotomy_experiment(args.N, args.k, gamma, args.q)
    elif name == "equivalence":
        gamma = _resolve_gamma(args)
        rep = _exp.equivalence_experiment(args.N, args.k, gamma, args.q,
                                          R=args.R, seed=args.seed,
                                          n_measures=args.n_measures)
    elif name == "remainder":
        rep = _exp.remainder_experiment(nu=args.nu, sigma=args.sigma, j=args.j,
                                        q=args.q)
    elif name == "harmonicity":
        rep = _exp.harmonicity_experiment(target=args.target, alpha=args.alpha1)
    else:
        _, rep = _exp.heat_lifting(R=args.R, q=args.q)
    return _emit(args, rep.to_dict(),
                 csv_rows=_exp.reports_csv([rep]) if args.format == "csv" else None)


_DISPATCH = {"exponents": _cmd_exponents, "classify": _cmd_classify,
             "kernel": _cmd_kernel, "besov": _cmd_besov,
             "capacity": _cmd_capacity, "verify": _cmd_verify}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write("usage error: %s\n" % exc)
        parser.print_usage(sys.stderr)
        return 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _DISPATCH[args.command](args)
    except _NUMERICAL_ERRORS as exc:
        sys.stderr.write("numerical error: %s\n" % exc)
        return 3
    except _VALIDATION_ERRORS as exc:
        sys.stderr.write("validation error: %s\n" % exc)
        return 2
    except WedgecapError as exc:   # anything else from the library
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
