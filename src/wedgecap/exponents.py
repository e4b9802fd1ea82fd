"""Closed-form critical quantities for a stratum of codimension k.

Every formula here is elementary algebra on the first eigenvalue data:

* ``kappa_plus``/``kappa_minus`` are the roots of
  ``kappa^2 + (N-2) kappa - lambda_A = 0``,
* ``lambda_A = gamma + (N-k) kappa_plus`` relates the opening eigenvalue
  gamma (on the (k-1)-sphere) to the full spherical eigenvalue,
* equivalently ``gamma = kappa_plus^2 + (k-2) kappa_plus``,
* ``q_c`` is the point-singularity threshold, ``q_c_star`` the
  whole-edge removability threshold, and ``s(q)`` the capacity
  smoothness index used in the removability criteria.

Note on s(q): two competing conventions appear in the source material,
``2 - (k+kappa_plus)/q`` and ``2 - (k+kappa_plus)/q'``.  This package
uses the q' version throughout; it is the one forced by the exponent
bookkeeping identity ``(s+nu-m)q - 1 = (q+1) kappa_plus + k - 1`` that
ties the weighted kernel functional to the Besov-norm index, and the
one consistent with the duality pairing of B^{-s,q} with B^{s,q'}.
"""

import math
from dataclasses import dataclass

from .errors import CodimensionRangeError, DomainError

_DISC_CLAMP = 1e-14   # discriminants this close to 0 are treated as 0


def _require_q(q):
    if not (1.0 < q < math.inf):
        raise DomainError("q must be finite and > 1")


def _sqrt_clamped(x):
    if x < 0.0:
        if x > -_DISC_CLAMP:
            return 0.0
        raise DomainError("negative discriminant %.3g" % x)
    return math.sqrt(x)


def kappa_from_gamma(k, gamma):
    """Positive root of kappa^2 + (k-2) kappa - gamma = 0 (gamma > 0)."""
    if gamma <= 0.0:
        raise DomainError("gamma must be > 0")
    if k < 2:
        raise DomainError("kappa_from_gamma needs k >= 2")
    return 0.5 * (2.0 - k + _sqrt_clamped((k - 2.0) ** 2 + 4.0 * gamma))


def kappa_roots(N, lambda_A):
    """Both roots of kappa^2 + (N-2) kappa - lambda_A = 0, lambda_A > 0."""
    if lambda_A <= 0.0:
        raise DomainError("lambda_A must be > 0")
    disc = _sqrt_clamped((N - 2.0) ** 2 + 4.0 * lambda_A)
    return 0.5 * (2.0 - N + disc), 0.5 * (2.0 - N - disc)


def q_c_from_kappa(N, kappa_plus):
    den = kappa_plus + N - 2.0
    if not den > 0.0:
        raise DomainError("q_c needs kappa_plus + N - 2 > 0 (got %.3g)" % den)
    return (kappa_plus + N) / den


def capacity_index_s(k, kappa_plus, q):
    """Smoothness index s = 2 - (k + kappa_plus)/q' of the governing capacity.

    For q in [q_c, q_c_star) this lands in (0, (N-k)/q'], the window in
    which the index pairs a nontrivial capacity with the edge.
    """
    _require_q(q)
    return 2.0 - (k + kappa_plus) * (q - 1.0) / q


@dataclass(frozen=True)
class ExponentReport:
    """Critical quantities of one stratum.

    kappa_plus > 0 > kappa_minus; kappa_plus + kappa_minus = 2-N;
    kappa_plus*kappa_minus = -lambda_A; lambda_A = gamma + (N-k) kappa_plus;
    1 < q_c <= q_c_star with equality only for k=1 or k=N.
    """

    N: int
    k: int
    gamma: float
    lambda_A: float
    kappa_plus: float
    kappa_minus: float
    q_c: float
    q_c_star: float

    def __post_init__(self):
        tol = 1e-12 * max(1.0, abs(self.lambda_A), abs(self.N))
        if not (self.kappa_plus > 0.0 > self.kappa_minus):
            raise DomainError("kappa_plus > 0 > kappa_minus violated")
        if abs(self.kappa_plus + self.kappa_minus - (2.0 - self.N)) > tol:
            raise DomainError("kappa root sum identity violated")
        if abs(self.kappa_plus * self.kappa_minus + self.lambda_A) > tol:
            raise DomainError("kappa root product identity violated")

    # q-dependent quantities ------------------------------------------------

    def s(self, q):
        return capacity_index_s(self.k, self.kappa_plus, q)

    def beta(self, q):
        """Growth exponent (q+1) kappa_plus + k - 1 of the truncated functional."""
        _require_q(q)
        return (q + 1.0) * self.kappa_plus + self.k - 1.0

    @property
    def nu(self):
        """Kernel order N - 2 + 2 kappa_plus."""
        return self.N - 2.0 + 2.0 * self.kappa_plus

    @property
    def m(self):
        """Edge dimension N - k."""
        return self.N - self.k

    def in_capacity_regime(self, q):
        return self.q_c <= q < self.q_c_star

    def to_dict(self):
        return {"gamma": self.gamma, "lambda_A": self.lambda_A,
                "kappa_plus": self.kappa_plus, "kappa_minus": self.kappa_minus,
                "q_c": self.q_c, "q_c_star": self.q_c_star}


def critical_exponents(N, k, gamma=None):
    """Assemble the full ExponentReport for one stratum.

    gamma is the first Dirichlet eigenvalue of the opening on the
    (k-1)-sphere.  It is required for 2 <= k <= N and ignored for k = 1
    (a face), where kappa_plus = 1 is hard-wired and both thresholds
    collapse to (N+1)/(N-1).
    """
    if not (1 <= k <= N):
        raise CodimensionRangeError("need 1 <= k <= N")
    if N < 2:
        raise DomainError("need N >= 2")
    if k == 1:
        kp = 1.0
        lam = float(N - 1)           # kappa_plus(kappa_plus + N - 2) with kappa_plus = 1
        km = 2.0 - N - kp            # root partner under the sum identity
        qc = (N + 1.0) / (N - 1.0)
        return ExponentReport(N=N, k=k, gamma=0.0, lambda_A=lam,
                              kappa_plus=kp, kappa_minus=km, q_c=qc, q_c_star=qc)
    if gamma is None or not 0.0 < gamma < math.inf:
        raise DomainError("gamma must be finite and > 0 for k >= 2")
    kp = kappa_from_gamma(k, gamma)
    lam = gamma + (N - k) * kp
    kp2, km = kappa_roots(N, lam)
    # the chain exponent and the root of the full quadratic coincide exactly
    if abs(kp2 - kp) > 1e-10 * max(1.0, kp):
        raise DomainError("inconsistent kappa_plus between chain and quadratic")
    qc = q_c_from_kappa(N, kp)
    if k == N:
        qcs = 1.0 - 2.0 / km
    else:
        qcs = 1.0 + (2.0 - k + _sqrt_clamped((k - 2.0) ** 2 + 4.0 * gamma)) / gamma
    return ExponentReport(N=N, k=k, gamma=float(gamma), lambda_A=lam,
                          kappa_plus=kp2, kappa_minus=km, q_c=qc, q_c_star=qcs)


def bookkeeping_identity_gap(report, q):
    """| (s+nu-m)q - 1 - ((q+1) kappa_plus + k - 1) | for the report at q.

    Exactly zero in real arithmetic; kept as a run-time guard wherever
    the weighted functional is re-parameterized by the Besov index.
    """
    s = report.s(q)
    lhs = (s + report.nu - report.m) * q - 1.0
    rhs = report.beta(q)
    return abs(lhs - rhs)
