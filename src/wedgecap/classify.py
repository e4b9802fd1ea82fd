"""Per-stratum criticality regimes, good-measure and removability verdicts.

Regimes of a stratum at exponent q:

    subcritical           q < q_c                (every measure admissible)
    capacity-regime       q_c <= q < q_c_star    (null sets cannot be charged)
    removable-stratum     q >= q_c_star, k < N   (only the zero measure)
    vertex-supercritical  k = N, q >= q_c        (the vertex cannot be charged)

In the capacity regime the governing index is s(q) = 2-(k+kappa_plus)/q'
paired with exponent q' on the edge space R^{N-k}; a verdict at exactly
q = q_c carries a warning flag, since the norm equivalence behind the
capacity criterion needs small supports at the endpoint.

Capacity evidence is an explicit input: point and ball pieces are
decided analytically, grids take supplied evidence or come back as
"needs-numeric".  An honest third state is always preferred to a guess.
"""

from dataclasses import dataclass

from .capacity import capacity_null_test
from .errors import ConfigurationError
from .exponents import _require_q, critical_exponents
from .geometry import ConeOpening, WedgeSpec
from .spectral import gamma_first_eigenvalue

Q_C_WARNING = ("q equals q_c exactly: the capacity criterion at the endpoint "
               "holds for measures of sufficiently small support diameter")

REGIMES = ("subcritical", "capacity-regime", "removable-stratum",
           "vertex-supercritical")


@dataclass(frozen=True)
class Verdict:
    stratum: str
    regime: str
    q_c: float
    q_c_star: float
    s: float | None
    reason: str
    warning: str | None = None

    def to_dict(self):
        return {"stratum": self.stratum, "regime": self.regime,
                "q_c": self.q_c, "q_c_star": self.q_c_star, "s": self.s,
                "reason": self.reason, "warning": self.warning}


def stratum_report(stratum, N, tol=1e-8):
    """ExponentReport of a stratum, resolving gamma through its opening."""
    if stratum.k == 1:
        return critical_exponents(N, 1)
    if isinstance(stratum.opening, ConeOpening):
        return critical_exponents(N, stratum.k, stratum.opening.gamma)
    if isinstance(stratum.opening, WedgeSpec):
        gamma = gamma_first_eigenvalue(stratum.opening, tol=tol)
        return critical_exponents(N, stratum.k, gamma)
    raise ConfigurationError("stratum %r carries no opening data" % stratum.id)


def stratum_verdict(stratum, q, N=None, tol=1e-8):
    """Criticality regime of one stratum at exponent q."""
    _require_q(q)
    if N is None:
        if isinstance(stratum.opening, WedgeSpec):
            N = stratum.opening.N
        else:
            raise ConfigurationError("ambient dimension N required for stratum %r"
                                     % stratum.id)
    rep = stratum_report(stratum, N, tol=tol)
    warning = Q_C_WARNING if q == rep.q_c and stratum.k < N else None
    if q < rep.q_c:
        return Verdict(stratum.id, "subcritical", rep.q_c, rep.q_c_star, None,
                       "q < q_c: every finite measure on the stratum is admissible")
    if stratum.k == N:
        return Verdict(stratum.id, "vertex-supercritical", rep.q_c, rep.q_c_star,
                       None, "q >= q_c at a vertex: the vertex cannot be charged")
    if q < rep.q_c_star:
        s = rep.s(q)
        cond = ("measures must vanish on C_{s,q'}-null subsets of the edge "
                "(s = %.6g, exponent q' = %.6g on R^%d)"
                % (s, q / (q - 1.0), rep.m))
        return Verdict(stratum.id, "capacity-regime", rep.q_c, rep.q_c_star, s,
                       cond, warning)
    return Verdict(stratum.id, "removable-stratum", rep.q_c, rep.q_c_star, None,
                   "q >= q_c_star: only the zero measure lives on this stratum")


def classify_polyhedron(poly, q, tol=1e-8):
    """Verdicts for every stratum of the polyhedron."""
    return [stratum_verdict(s, q, N=poly.N, tol=tol) for s in poly.strata]


# --------------------------------------------------------------------------
# good measures


@dataclass(frozen=True)
class StratumDecision:
    stratum: str
    status: str        # pass | reject | needs-numeric
    reason: str


@dataclass(frozen=True)
class GoodMeasureResult:
    verdict: str       # accept | reject | needs-numeric
    per_stratum: tuple

    def to_dict(self):
        return {"verdict": self.verdict,
                "per_stratum": [{"stratum": d.stratum, "status": d.status,
                                 "reason": d.reason} for d in self.per_stratum]}


def _atom_on_piece(z, piece):
    import numpy as np
    z = np.asarray(z, float)
    if piece.kind == "point":
        return bool(np.allclose(z, np.asarray(piece.z, float), atol=1e-12))
    if piece.kind == "ball":
        center = np.asarray(piece.z, float) if piece.z is not None else np.zeros_like(z)
        return bool(np.linalg.norm(z - center) <= piece.radius + 1e-12)
    return any(bool(np.allclose(z, np.asarray(p, float), atol=1e-12))
               for p in piece.points)


def good_measure_check(poly, mu, q, evidence=None, tol=1e-8):
    """Decide whether per-stratum boundary data is admissible at exponent q.

    mu maps stratum ids to measures (see ``decompose_measure``).
    ``evidence`` is an optional sequence of (SetPiece, "null"|"positive")
    pairs; atoms sitting on a supplied null piece are rejected directly.
    Point atoms in the capacity regime are decided analytically: a point
    of the edge R^{N-k} is null exactly when s q' <= N-k, which holds
    throughout the capacity window.
    """
    evidence = list(evidence or ())
    decisions = []
    overall = "accept"
    for stratum in poly.strata:
        meas = mu.get(stratum.id)
        if meas is None or meas.mass == 0.0:
            decisions.append(StratumDecision(stratum.id, "pass", "no mass here"))
            continue
        v = stratum_verdict(stratum, q, N=poly.N, tol=tol)
        if v.regime == "subcritical":
            decisions.append(StratumDecision(stratum.id, "pass",
                                             "subcritical stratum (q < q_c)"))
            continue
        if v.regime in ("removable-stratum", "vertex-supercritical"):
            decisions.append(StratumDecision(
                stratum.id, "reject",
                "%s: mu restricted to this stratum must be zero" % v.regime))
            overall = "reject"
            continue
        # capacity regime: reject mass on any null piece
        qp = q / (q - 1.0)
        ell = poly.N - stratum.k
        status, reason = "pass", "no atom sits on a null piece"
        for z, w in zip(meas.positions, meas.weights):
            if w == 0.0:
                continue
            hit = None
            for piece, tag in evidence:
                if piece.stratum == stratum.id and _atom_on_piece(z, piece):
                    hit = tag
                    break
            if hit is None:
                # analytic shortcut: a single point is always decidable
                hit = "null" if v.s * qp <= ell else "positive"
            if hit == "null":
                status = "reject"
                reason = ("atom at %s charges a C_{s,q'}-null piece "
                          "(mu(E) = 0 required)" % (tuple(z),))
                break
            if hit == "needs-numeric":
                status = "needs-numeric"
                reason = "capacity evidence missing for a supporting piece"
        decisions.append(StratumDecision(stratum.id, status, reason))
        if status == "reject":
            overall = "reject"
        elif status == "needs-numeric" and overall != "reject":
            overall = "needs-numeric"
    return GoodMeasureResult(overall, tuple(decisions))


# --------------------------------------------------------------------------
# removability


@dataclass(frozen=True)
class PieceDecision:
    stratum: str
    piece_index: int
    status: str        # removable | not-removable | needs-numeric
    reason: str


@dataclass(frozen=True)
class RemovabilityResult:
    removable: str     # removable | not-removable | needs-numeric
    per_piece: tuple

    def to_dict(self):
        return {"removable": self.removable,
                "per_piece": [{"stratum": d.stratum, "piece": d.piece_index,
                               "status": d.status, "reason": d.reason}
                              for d in self.per_piece]}


def removable_check(poly, E, q, evidence=None, tol=1e-8):
    """Removability of a compact boundary set, stratum by stratum.

    The set is removable iff every stratum L it meets passes: for k < N
    either q >= q_c_star(L), or q lies in the capacity window and every
    piece of E on L is capacity-null; for k = N simply q >= q_c(L).
    ``evidence`` maps piece indices to "null"/"positive" for grid pieces
    the analytic shortcuts cannot decide.
    """
    E.validate_against(poly)
    evidence = dict(evidence or {})
    out = []
    overall = "removable"
    for idx, piece in enumerate(E.pieces):
        stratum = poly.stratum(piece.stratum)
        v = stratum_verdict(stratum, q, N=poly.N, tol=tol)
        ell = poly.N - stratum.k
        if stratum.k == poly.N:
            if v.regime == "vertex-supercritical":
                out.append(PieceDecision(stratum.id, idx, "removable",
                                         "vertex with q >= q_c"))
            else:
                out.append(PieceDecision(stratum.id, idx, "not-removable",
                                         "vertex with q < q_c: Dirac data exists"))
                overall = "not-removable"
            continue
        if v.regime == "removable-stratum":
            out.append(PieceDecision(stratum.id, idx, "removable",
                                     "whole stratum removable (q >= q_c_star)"))
            continue
        if v.regime == "subcritical":
            out.append(PieceDecision(stratum.id, idx, "not-removable",
                                     "subcritical stratum: point data exists"))
            overall = "not-removable"
            continue
        # capacity regime: the piece must be null for C_{s, q'} on R^ell
        qp = q / (q - 1.0)
        tag = evidence.get(idx)
        if tag is None:
            tag = capacity_null_test(piece, v.s, qp, ell)
        if tag == "null":
            out.append(PieceDecision(stratum.id, idx, "removable",
                                     "piece is C_{s,q'}-null (s=%.6g)" % v.s))
        elif tag == "positive":
            out.append(PieceDecision(stratum.id, idx, "not-removable",
                                     "piece has positive C_{s,q'} capacity"))
            overall = "not-removable"
        else:
            out.append(PieceDecision(stratum.id, idx, "needs-numeric",
                                     "grid piece: supply capacity evidence"))
            if overall != "not-removable":
                overall = "needs-numeric"
    return RemovabilityResult(overall, tuple(out))
