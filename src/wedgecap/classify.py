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

Null sets follow from the regime.  A point of the edge is
C_{s,q'}-null exactly when s q' <= N-k, and since s q' = 2q' - k -
kappa_plus that inequality is q >= q_c: in the capacity window every
point, and every finite point set (capacity is countably subadditive),
is null.  Only ball pieces need the analytic dimension rule.
"""

from dataclasses import dataclass

from .capacity import capacity_null_test
from .errors import ConfigurationError
from .exponents import _require_q, critical_exponents
from .geometry import ConeOpening, WedgeSpec, decompose_measure
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


def stratum_verdict(stratum, q, N, tol=1e-8):
    """Criticality regime of one stratum of a polyhedron in R^N at exponent q."""
    _require_q(q)
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
    status: str        # pass | reject
    reason: str


@dataclass(frozen=True)
class GoodMeasureResult:
    verdict: str       # accept | reject
    per_stratum: tuple

    def to_dict(self):
        return {"verdict": self.verdict,
                "per_stratum": [{"stratum": d.stratum, "status": d.status,
                                 "reason": d.reason} for d in self.per_stratum]}


def good_measure_check(poly, mu, q, tol=1e-8):
    """Decide whether per-stratum boundary data is admissible at exponent q.

    mu maps stratum ids to measures; ``decompose_measure`` refuses an
    unknown id or a measure not on R^{N-k}.  In the capacity regime every
    point of the edge is C_{s,q'}-null (s q' <= N-k is the inequality
    q >= q_c), so any atom charges a null set and the measure is rejected.
    """
    mu = decompose_measure(poly, mu)
    decisions = []
    for stratum in poly.strata:
        meas = mu[stratum.id]
        if meas.mass == 0.0:
            decisions.append(StratumDecision(stratum.id, "pass", "no mass here"))
            continue
        v = stratum_verdict(stratum, q, N=poly.N, tol=tol)
        if v.regime == "subcritical":
            decisions.append(StratumDecision(stratum.id, "pass",
                                             "subcritical stratum (q < q_c)"))
        elif v.regime == "capacity-regime":
            z = meas.positions[meas.weights > 0.0][0]
            decisions.append(StratumDecision(
                stratum.id, "reject",
                "atom at %s charges a C_{s,q'}-null piece (mu(E) = 0 required)"
                % (tuple(float(c) for c in z),)))
        else:
            decisions.append(StratumDecision(
                stratum.id, "reject",
                "%s: mu restricted to this stratum must be zero" % v.regime))
    verdict = ("reject" if any(d.status == "reject" for d in decisions)
               else "accept")
    return GoodMeasureResult(verdict, tuple(decisions))


# --------------------------------------------------------------------------
# removability


@dataclass(frozen=True)
class PieceDecision:
    stratum: str
    piece_index: int
    status: str        # removable | not-removable
    reason: str


@dataclass(frozen=True)
class RemovabilityResult:
    removable: str     # removable | not-removable
    per_piece: tuple

    def to_dict(self):
        return {"removable": self.removable,
                "per_piece": [{"stratum": d.stratum, "piece": d.piece_index,
                               "status": d.status, "reason": d.reason}
                              for d in self.per_piece]}


def removable_check(poly, E, q, tol=1e-8):
    """Removability of a compact boundary set, stratum by stratum.

    The set is removable iff every stratum L it meets passes: for k < N
    either q >= q_c_star(L), or q lies in the capacity window and every
    piece of E on L is capacity-null; for k = N simply q >= q_c(L).  In
    the window a point is null (s q' <= N-k is q >= q_c), and so is a
    grid, a finite union of points; a ball goes to the analytic rule of
    :func:`capacity_null_test`.
    """
    E.validate_against(poly)
    out = []
    for idx, piece in enumerate(E.pieces):
        stratum = poly.stratum(piece.stratum)
        v = stratum_verdict(stratum, q, N=poly.N, tol=tol)
        if v.regime == "vertex-supercritical":
            status, reason = "removable", "vertex with q >= q_c"
        elif stratum.k == poly.N:
            status, reason = "not-removable", "vertex with q < q_c: Dirac data exists"
        elif v.regime == "removable-stratum":
            status, reason = "removable", "whole stratum removable (q >= q_c_star)"
        elif v.regime == "subcritical":
            status, reason = "not-removable", "subcritical stratum: point data exists"
        elif piece.kind != "ball" or capacity_null_test(
                piece, v.s, q / (q - 1.0), poly.N - stratum.k) == "null":
            status, reason = "removable", "piece is C_{s,q'}-null (s=%.6g)" % v.s
        else:
            status, reason = "not-removable", "piece has positive C_{s,q'} capacity"
        out.append(PieceDecision(stratum.id, idx, status, reason))
    removable = ("removable" if all(d.status == "removable" for d in out)
                 else "not-removable")
    return RemovabilityResult(removable, tuple(out))
