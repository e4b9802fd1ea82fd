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

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (CodimensionRangeError, DegenerateOpeningError, DomainError,
                     GeometryError, PoleEndpointError, UnknownStratumError)

TWO_PI = 2.0 * math.pi


# --------------------------------------------------------------------------
# coordinate transforms


def spherical_to_cartesian(r, sigma):
    """Map (r, theta_1..theta_{N-1}) to a point in R^N.

    r >= 0; theta_1 in [0, 2*pi]; theta_l in [0, pi] for l >= 2.
    """
    sigma = np.asarray(sigma, float)
    if sigma.ndim != 1 or sigma.size < 1:
        raise DomainError("sigma must be a 1-D angle tuple of length N-1")
    if r < 0:
        raise DomainError("radius must be >= 0")
    if not (0.0 <= sigma[0] <= TWO_PI):
        raise DomainError("theta_1 out of range [0, 2*pi]")
    if sigma.size > 1 and (np.any(sigma[1:] < 0.0) or np.any(sigma[1:] > math.pi)):
        raise DomainError("theta_l out of range [0, pi] for l >= 2")
    N = sigma.size + 1
    x = np.empty(N)
    c = float(r)
    for ell in range(N - 1, 1, -1):   # theta_ell for ell = N-1 .. 2
        th = sigma[ell - 1]
        x[ell] = c * math.cos(th)
        c *= math.sin(th)
    x[1] = c * math.cos(sigma[0])
    x[0] = c * math.sin(sigma[0])
    return x


def cartesian_to_spherical(x):
    """Inverse of :func:`spherical_to_cartesian` on the open chart.

    Returns (r, sigma).  The origin carries no angular chart.
    """
    x = np.asarray(x, float)
    N = x.size
    if N < 2:
        raise DomainError("need N >= 2")
    r = float(np.linalg.norm(x))
    if r == 0.0:
        raise DomainError("the origin has no angular coordinates")
    sigma = np.empty(N - 1)
    for ell in range(N - 1, 1, -1):
        c = float(np.linalg.norm(x[:ell + 1]))
        sigma[ell - 1] = math.acos(np.clip(x[ell] / c, -1.0, 1.0)) if c > 0 else 0.0
    theta1 = math.atan2(x[0], x[1])
    if theta1 < 0.0:
        theta1 += TWO_PI
    sigma[0] = theta1
    return r, sigma


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

    def to_dict(self):
        return {"N": self.N, "k": self.k, "alpha1": self.alpha1,
                "intervals": [list(ab) for ab in self.intervals]}


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

    def to_dict(self):
        return {"gamma": self.gamma}


@dataclass(frozen=True)
class Stratum:
    """One face (k=1), edge (1<k<N) or vertex (k=N) of a polyhedron."""

    id: str
    k: int
    opening: object = None   # WedgeSpec | ConeOpening | None

    def to_dict(self):
        op = None if self.opening is None else self.opening.to_dict()
        return {"id": self.id, "k": self.k, "opening": op}


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

    def to_dict(self):
        return {"N": self.N, "strata": [s.to_dict() for s in self.strata]}


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
    def atoms(self):
        return tuple((tuple(z), float(w))
                     for z, w in zip(self.positions, self.weights))

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

    def translated(self, shift):
        shift = np.asarray(shift, float)
        return DiscreteMeasure(self.m, [(z + shift, w) for z, w in
                                        zip(self.positions, self.weights)])

    def __eq__(self, other):
        return (isinstance(other, DiscreteMeasure) and self.m == other.m
                and np.array_equal(self.positions, other.positions)
                and np.array_equal(self.weights, other.weights))

    def __repr__(self):
        return "DiscreteMeasure(m=%d, n_atoms=%d, mass=%.6g)" % (
            self.m, self.n_atoms, self.mass)

    def to_dict(self):
        return {"m": self.m,
                "atoms": [{"z": list(z), "w": float(w)}
                          for z, w in zip(self.positions, self.weights)]}


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

    def to_dict(self):
        d = {"stratum": self.stratum, "kind": self.kind}
        if self.kind == "point":
            d["z"] = list(self.z or ())
        elif self.kind == "ball":
            d["radius"] = self.radius
            d["dim"] = self.dim
            if self.z is not None:
                d["z"] = list(self.z)
        else:
            d["points"] = [list(p) for p in self.points]
        return d


@dataclass(frozen=True)
class CompactSetDescription:
    pieces: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(self.pieces))

    def validate_against(self, poly):
        for p in self.pieces:
            poly.stratum(p.stratum)   # raises UnknownStratumError
        return self

    def to_dict(self):
        return {"pieces": [p.to_dict() for p in self.pieces]}


# --------------------------------------------------------------------------
# JSON wire formats (exact field names; IEEE doubles at 17 significant digits)


def _float17(x):
    if x != x:
        raise GeometryError("NaN is not serializable")
    if x in (float("inf"), float("-inf")):
        raise GeometryError("infinities are not serializable")
    return format(x, ".17g")


def _serialize(obj, indent, level):
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
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
                                        _serialize(v, indent, level + 1))
                          for k, v in items)
        return "{\n%s\n%s}" % (body, pad)
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        body = ",\n".join(pad_in + _serialize(v, indent, level + 1) for v in obj)
        return "[\n%s\n%s]" % (body, pad)
    if hasattr(obj, "item"):   # numpy scalars
        return _serialize(obj.item(), indent, level)
    raise GeometryError("cannot serialize %r" % type(obj))


def dumps(obj, indent=2):
    """JSON text with keys sorted and floats at 17 significant digits.

    The standard encoder pins float formatting to the shortest repr, so
    this small serializer owns the wire format instead.
    """
    return _serialize(obj, indent, 0)


def _req(d, key, ctx):
    if key not in d:
        raise GeometryError("%s: missing field %r" % (ctx, key))
    return d[key]


def wedge_from_dict(d, allow_pole=False):
    try:
        N = int(_req(d, "N", "wedge"))
        k = int(_req(d, "k", "wedge"))
        alpha1 = _req(d, "alpha1", "wedge")
        alpha1 = None if alpha1 is None else float(alpha1)
        intervals = tuple((float(a), float(b)) for a, b in d.get("intervals", []))
    except (TypeError, ValueError) as exc:
        raise GeometryError("wedge: malformed field (%s)" % exc) from None
    return validate_wedge(WedgeSpec(N=N, k=k, alpha1=alpha1, intervals=intervals,
                                    allow_pole=allow_pole))


def measure_from_dict(d):
    try:
        m = int(_req(d, "m", "measure"))
        atoms = [(a["z"], a["w"]) for a in _req(d, "atoms", "measure")]
    except (TypeError, KeyError, ValueError) as exc:
        raise GeometryError("measure: malformed field (%s)" % exc) from None
    return DiscreteMeasure(m, atoms)


def polyhedron_from_dict(d):
    strata = []
    raw = _req(d, "strata", "polyhedron")
    N = d.get("N")
    if N is None:
        for s in raw:
            op = s.get("opening")
            if isinstance(op, dict) and "N" in op:
                N = int(op["N"])
                break
        if N is None:
            raise GeometryError("polyhedron: ambient dimension not recoverable; "
                                "add an \"N\" field or a wedge opening")
    N = int(N)
    for s in raw:
        try:
            sid = str(_req(s, "id", "stratum"))
            k = int(_req(s, "k", "stratum"))
        except (TypeError, ValueError) as exc:
            raise GeometryError("stratum: malformed field (%s)" % exc) from None
        op = s.get("opening")
        if op is None:
            opening = None
        elif isinstance(op, dict) and set(op) == {"gamma"}:
            opening = ConeOpening(float(op["gamma"]))
        elif isinstance(op, dict):
            opening = wedge_from_dict(op)
        else:
            raise GeometryError("stratum %r: opening must be wedge|{'gamma'}|null" % sid)
        strata.append(Stratum(id=sid, k=k, opening=opening))
    return PolyhedronSpec(N=N, strata=tuple(strata))


def set_from_dict(d):
    pieces = []
    for p in _req(d, "pieces", "set"):
        try:
            stratum = str(_req(p, "stratum", "set piece"))
            kind = str(_req(p, "kind", "set piece"))
        except (TypeError, ValueError) as exc:
            raise GeometryError("set piece: malformed field (%s)" % exc) from None
        if kind == "point":
            pieces.append(SetPiece(stratum=stratum, kind=kind,
                                   z=_req(p, "z", "point piece")))
        elif kind == "ball":
            pieces.append(SetPiece(stratum=stratum, kind=kind,
                                   radius=float(_req(p, "radius", "ball piece")),
                                   dim=int(_req(p, "dim", "ball piece")),
                                   z=p.get("z")))
        elif kind == "grid":
            pieces.append(SetPiece(stratum=stratum, kind=kind,
                                   points=tuple(_req(p, "points", "grid piece"))))
        else:
            raise GeometryError("set piece kind %r not one of point|ball|grid" % kind)
    return CompactSetDescription(pieces=tuple(pieces))

