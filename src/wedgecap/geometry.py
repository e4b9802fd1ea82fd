"""Geometric data model: wedges, polyhedra, measures, compact sets.

Coordinate conventions
----------------------
Spherical coordinates in R^N follow the nested convention

    x_N     = r cos(theta_{N-1})
    x_{N-1} = r sin(theta_{N-1}) cos(theta_{N-2})
    ...
    x_2     = r sin(theta_{N-1}) ... sin(theta_2) cos(theta_1)
    x_1     = r sin(theta_{N-1}) ... sin(theta_2) sin(theta_1)

with theta_1 in [0, 2*pi] (periodic) and theta_l in [0, pi] for l >= 2.
A k-wedge with opening ``(0, alpha1) x prod_j (a_j, a'_j)`` lives in the
first k coordinates ``x' = (x_1..x_k)``; its edge is the coordinate
subspace ``x'' = (x_{k+1}..x_N)``, identified with R^{N-k}.  theta_1 is
the periodic coordinate with Dirichlet walls at 0 and alpha1; interval
index j maps to coordinate theta_j.  Measures on a stratum of
codimension k are stored directly in the R^{N-k} coordinates of the
edge; the embedding into R^N is never materialized.

The face/edge orientation pairing (which wall of the polyhedron maps to
theta_1 = 0) is a documented choice; nothing downstream depends on it
because all kernels only see |x''-z|.
"""

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (CodimensionRangeError, DegenerateOpeningError, DomainError,
                     GeometryError, PoleEndpointError, UnknownStratumError)

TWO_PI = 2.0 * math.pi


# --------------------------------------------------------------------------
# wedges and polyhedra


@dataclass(frozen=True)
class WedgeSpec:
    """A k-wedge in R^N with box opening on the (k-1)-sphere.

    ``intervals`` holds the (a_j, a'_j) pairs for j = 2..k-1 (so k-2 of
    them).  ``allow_pole`` opts in to the singular-endpoint mode in which
    an interval may touch {0, pi}; the spectral chain then imposes
    boundedness at the pole instead of a Dirichlet wall.
    """

    N: int
    k: int
    alpha1: float | None = None
    intervals: tuple = ()
    allow_pole: bool = False

    def __post_init__(self):
        object.__setattr__(self, "intervals",
                           tuple((float(a), float(b)) for a, b in self.intervals))


def validate_wedge(spec):
    """Check all WedgeSpec invariants; return the spec unchanged if valid."""
    if not isinstance(spec.N, int) or spec.N < 2:
        raise GeometryError("wedge.N must be an integer >= 2")
    if not isinstance(spec.k, int) or not (1 <= spec.k <= spec.N):
        raise CodimensionRangeError("wedge.k must satisfy 1 <= k <= N (got k=%r, N=%r)"
                                    % (spec.k, spec.N))
    if spec.k == 1:
        if spec.alpha1 is not None or spec.intervals:
            raise GeometryError("a half-space (k=1) carries no opening data")
        return spec
    if spec.alpha1 is None:
        raise GeometryError("wedge.alpha1 is required for k >= 2")
    if not (0.0 < spec.alpha1 < TWO_PI):
        if spec.alpha1 >= TWO_PI:
            raise DegenerateOpeningError(
                "wedge.alpha1 = %.17g is degenerate (must be < 2*pi)" % spec.alpha1)
        raise GeometryError("wedge.alpha1 must lie in (0, 2*pi)")
    if len(spec.intervals) != spec.k - 2:
        raise GeometryError("wedge.intervals must hold k-2 = %d pairs (got %d)"
                            % (spec.k - 2, len(spec.intervals)))
    for j, (a, b) in enumerate(spec.intervals, start=2):
        if not (a < b):
            raise GeometryError("wedge.intervals[%d]: need a < a' (got %.17g >= %.17g)"
                                % (j - 2, a, b))
        if a < 0.0 or b > math.pi:
            raise PoleEndpointError("wedge.intervals[%d] = (%.17g, %.17g) leaves [0, pi]"
                                    % (j - 2, a, b))
        if (a == 0.0 or b == math.pi) and not spec.allow_pole:
            raise PoleEndpointError(
                "wedge.intervals[%d] touches a pole; set allow_pole for the "
                "singular-endpoint mode" % (j - 2))
    return spec


@dataclass(frozen=True)
class ConeOpening:
    """Opening of a vertex cone given directly by its first eigenvalue."""

    gamma: float


@dataclass(frozen=True)
class Stratum:
    """One face (k=1), edge (1<k<N) or vertex (k=N) of a polyhedron."""

    id: str
    k: int
    opening: object = None   # WedgeSpec | ConeOpening | None


@dataclass(frozen=True)
class PolyhedronSpec:
    N: int
    strata: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "strata", tuple(self.strata))
        ids = [s.id for s in self.strata]
        if len(set(ids)) != len(ids):
            raise GeometryError("strata ids must be unique")
        for s in self.strata:
            _validate_stratum(s, self.N)

    def stratum(self, sid):
        for s in self.strata:
            if s.id == sid:
                return s
        raise UnknownStratumError(sid)


def _validate_stratum(s, N):
    if not (1 <= s.k <= N):
        raise CodimensionRangeError("stratum %r: k=%d outside 1..%d" % (s.id, s.k, N))
    if s.k == 1:
        if s.opening is not None:
            raise GeometryError("stratum %r: faces (k=1) carry no opening" % s.id)
        return
    if isinstance(s.opening, ConeOpening):
        if s.k != N:
            raise GeometryError("stratum %r: a bare gamma opening is only valid "
                                "for vertices (k=N)" % s.id)
        if not (s.opening.gamma > 0):
            raise GeometryError("stratum %r: opening gamma must be > 0" % s.id)
        return
    if isinstance(s.opening, WedgeSpec):
        if s.opening.k != s.k or s.opening.N != N:
            raise GeometryError("stratum %r: wedge opening (N=%d,k=%d) inconsistent "
                                "with stratum (N=%d,k=%d)"
                                % (s.id, s.opening.N, s.opening.k, N, s.k))
        validate_wedge(s.opening)
        return
    raise GeometryError("stratum %r: opening must be a wedge, {'gamma': g} or null"
                        % s.id)


# --------------------------------------------------------------------------
# measures


class DiscreteMeasure:
    """Finite atomic measure on R^m: positions plus nonnegative weights."""

    __slots__ = ("m", "positions", "weights")

    def __init__(self, m, atoms=()):
        positions = []
        weights = []
        for z, w in atoms:
            z = np.atleast_1d(np.asarray(z, float))
            if z.size != m:
                raise GeometryError("measure atom position has dimension %d, expected m=%d"
                                    % (z.size, m))
            if not np.all(np.isfinite(z)):
                raise GeometryError("measure atom position must be finite")
            w = float(w)
            if not math.isfinite(w) or w < 0.0:
                raise GeometryError("measure atom weight must be finite and >= 0")
            positions.append(z)
            weights.append(w)
        self.m = int(m)
        self.positions = (np.vstack(positions) if positions
                          else np.zeros((0, m)))
        self.weights = np.asarray(weights, float)

    @property
    def mass(self):
        return float(self.weights.sum())

    @property
    def n_atoms(self):
        return len(self.weights)

    def support_radius(self):
        if self.n_atoms == 0:
            return 0.0
        return float(np.max(np.linalg.norm(self.positions, axis=1)))

    def support_diameter(self):
        if self.n_atoms < 2:
            return 0.0
        d = self.positions[:, None, :] - self.positions[None, :, :]
        return float(np.max(np.linalg.norm(d, axis=2)))

    def scaled(self, t):
        """Measure with all weights multiplied by t >= 0."""
        if t < 0:
            raise DomainError("scale factor must be >= 0")
        return DiscreteMeasure(self.m, [(z, t * w) for z, w in
                                        zip(self.positions, self.weights)])


def dirac(m, z=None, w=1.0):
    """Unit atom at z (default: origin of R^m)."""
    if z is None:
        z = np.zeros(m)
    return DiscreteMeasure(m, [(z, w)])


def decompose_measure(poly, mu):
    """Split boundary data into the per-stratum family.

    ``mu`` maps stratum ids to measures given in the intrinsic R^{N-k}
    coordinates of each stratum.  Every stratum of ``poly`` appears in
    the result, unreferenced ones with the zero measure; total mass is
    preserved by construction and re-checked.
    """
    known = {s.id: s for s in poly.strata}
    for sid in mu:
        if sid not in known:
            raise UnknownStratumError(sid)
    out = {}
    total_in = 0.0
    for s in poly.strata:
        m_intrinsic = poly.N - s.k
        if s.id in mu:
            meas = mu[s.id]
            if meas.m != m_intrinsic:
                raise GeometryError(
                    "measure on stratum %r has ambient dimension %d, expected N-k=%d"
                    % (s.id, meas.m, m_intrinsic))
            total_in += meas.mass
            out[s.id] = meas
        else:
            out[s.id] = DiscreteMeasure(m_intrinsic)
    total_out = sum(m.mass for m in out.values())
    if not math.isclose(total_in, total_out, rel_tol=1e-15, abs_tol=1e-300):
        raise GeometryError("mass not preserved by decomposition")  # pragma: no cover
    return out


# --------------------------------------------------------------------------
# compact boundary sets


@dataclass(frozen=True)
class SetPiece:
    """One piece of a compact boundary set, tagged by stratum.

    kind      payload
    ----      -------
    point     z: position in the stratum's intrinsic R^{N-k}
    ball      radius > 0, dim: intrinsic dimension, optional center z
    grid      points: finite point list in intrinsic coordinates
    """

    stratum: str
    kind: str
    z: tuple | None = None
    radius: float | None = None
    dim: int | None = None
    points: tuple = ()

    def __post_init__(self):
        if self.kind not in ("point", "ball", "grid"):
            raise GeometryError("set piece kind must be point|ball|grid")
        if self.kind == "ball" and not (self.radius and self.radius > 0):
            raise GeometryError("ball piece needs radius > 0")
        if self.z is not None:
            object.__setattr__(self, "z", tuple(float(v) for v in np.atleast_1d(self.z)))
        object.__setattr__(self, "points",
                           tuple(tuple(float(v) for v in np.atleast_1d(p))
                                 for p in self.points))
        if self.kind == "grid" and not self.points:
            raise GeometryError("grid piece needs at least one point")


@dataclass(frozen=True)
class CompactSetDescription:
    pieces: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(self.pieces))

    def validate_against(self, poly):
        for p in self.pieces:
            poly.stratum(p.stratum)   # raises UnknownStratumError
        return self


# --------------------------------------------------------------------------
# JSON wire formats (exact field names; IEEE doubles at 17 significant digits)


def _float17(x):
    if x != x:
        raise GeometryError("NaN is not serializable")
    if x in (float("inf"), float("-inf")):
        raise GeometryError("infinities are not serializable")
    return format(x, ".17g")


def _serialize(obj, level):
    pad = " " * (2 * level)
    pad_in = " " * (2 * (level + 1))
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _float17(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        body = ",\n".join("%s%s: %s" % (pad_in, json.dumps(str(k)),
                                        _serialize(v, level + 1))
                          for k, v in items)
        return "{\n%s\n%s}" % (body, pad)
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        body = ",\n".join(pad_in + _serialize(v, level + 1) for v in obj)
        return "[\n%s\n%s]" % (body, pad)
    if hasattr(obj, "item"):   # numpy scalars
        return _serialize(obj.item(), level)
    raise GeometryError("cannot serialize %r" % type(obj))


def dumps(obj):
    """JSON text with keys sorted, two-space indents and floats at 17
    significant digits.

    The standard encoder pins float formatting to the shortest repr, so
    this small serializer owns the wire format instead.
    """
    return _serialize(obj, 0)


def _req(d, key, ctx, kind=object):
    if not isinstance(d, dict):
        raise GeometryError("%s: expected a JSON object" % ctx)
    if key not in d:
        raise GeometryError("%s: missing field %r" % (ctx, key))
    if not isinstance(d[key], kind):
        raise GeometryError("%s: field %r must be a %s" % (ctx, key, kind.__name__))
    return d[key]


def _parser(ctx):
    """Report a wrongly typed or shaped field of a document as GeometryError."""
    def wrap(parse):
        @functools.wraps(parse)
        def parse_checked(d, *args, **kwargs):
            try:
                return parse(d, *args, **kwargs)
            except GeometryError:
                raise
            except (TypeError, ValueError, KeyError, OverflowError) as exc:
                raise GeometryError("%s: malformed field (%s)" % (ctx, exc)) from None
        return parse_checked
    return wrap


def _req_int(d, key, ctx):
    """An integer field; a boolean or a number with a fraction is an error."""
    v = _req(d, key, ctx)
    if isinstance(v, bool) or not (isinstance(v, int)
                                   or isinstance(v, float) and v.is_integer()):
        raise GeometryError("%s: field %r must be an integer (got %r)" % (ctx, key, v))
    return int(v)


@_parser("wedge")
def wedge_from_dict(d):
    N = _req_int(d, "N", "wedge")
    k = _req_int(d, "k", "wedge")
    alpha1 = _req(d, "alpha1", "wedge")
    alpha1 = None if alpha1 is None else float(alpha1)
    intervals = tuple((float(a), float(b)) for a, b in d.get("intervals", []))
    return validate_wedge(WedgeSpec(N=N, k=k, alpha1=alpha1, intervals=intervals))


@_parser("measure")
def measure_from_dict(d):
    m = _req_int(d, "m", "measure")
    return DiscreteMeasure(m, [(a["z"], a["w"])
                               for a in _req(d, "atoms", "measure", list)])


@_parser("polyhedron")
def polyhedron_from_dict(d):
    strata = []
    for s in _req(d, "strata", "polyhedron", list):
        sid = str(_req(s, "id", "stratum"))
        op = s.get("opening")
        if op is None:
            opening = None
        elif isinstance(op, dict) and set(op) == {"gamma"}:
            opening = ConeOpening(float(op["gamma"]))
        elif isinstance(op, dict):
            opening = wedge_from_dict(op)
        else:
            raise GeometryError("stratum %r: opening must be wedge|{'gamma'}|null" % sid)
        strata.append(Stratum(id=sid, k=_req_int(s, "k", "stratum"), opening=opening))
    N = d.get("N")
    wedge_N = [s.opening.N for s in strata if isinstance(s.opening, WedgeSpec)]
    if N is None and not wedge_N:
        raise GeometryError("polyhedron: ambient dimension not recoverable; "
                            "add an \"N\" field or a wedge opening")
    N = wedge_N[0] if N is None else _req_int(d, "N", "polyhedron")
    return PolyhedronSpec(N=N, strata=tuple(strata))


@_parser("set")
def set_from_dict(d):
    pieces = []
    for p in _req(d, "pieces", "set", list):
        stratum = str(_req(p, "stratum", "set piece"))
        kind = str(_req(p, "kind", "set piece"))
        if kind == "point":
            pieces.append(SetPiece(stratum=stratum, kind=kind,
                                   z=_req(p, "z", "point piece")))
        elif kind == "ball":
            pieces.append(SetPiece(stratum=stratum, kind=kind,
                                   radius=float(_req(p, "radius", "ball piece")),
                                   dim=_req_int(p, "dim", "ball piece"),
                                   z=p.get("z")))
        elif kind == "grid":
            pieces.append(SetPiece(stratum=stratum, kind=kind,
                                   points=tuple(_req(p, "points", "grid piece", list))))
        else:
            raise GeometryError("set piece kind %r not one of point|ball|grid" % kind)
    return CompactSetDescription(pieces=tuple(pieces))
