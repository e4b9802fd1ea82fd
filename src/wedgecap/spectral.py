"""First Dirichlet eigenvalue of a box opening on the sphere.

The Laplace-Beltrami eigenproblem on an angular box separates into a
chain of one-dimensional singular Sturm-Liouville problems

    (sin t)^(-d) d/dt( (sin t)^d f' ) - mu (sin t)^(-2) f + gamma f = 0

where stage j (coordinate theta_j) has weight exponent d = j-1 and
inherits the previous stage's eigenvalue as its inner coefficient mu.
Only the lowest inner mode enters each stage: the stage eigenvalue is
increasing in mu, so higher inner modes cannot produce the global
minimum.  For k = 2 the chain is the bare circle problem and
gamma = (pi/alpha1)^2 in closed form.

Discretization: one conservative second-order finite-difference scheme.
The substitution f = sin^r g with r (r + d - 1) = mu removes the
mu/sin^2 term exactly; at a pole endpoint (t = 0 or pi) r is the
Frobenius exponent of the bounded solution and the pole node is an
unknown with natural flux 0, so the bounded condition is exact (this
mode is opt-in through ``WedgeSpec.allow_pole``).  The lowest eigenvalue
on 32, 64, ... intervals is computed to full relative accuracy and
Richardson-extrapolated in h^2, then h^4.  The lowest eigenvector of the
irreducible scheme is positive (Perron-Frobenius), so no higher mode can
be mistaken for the first.  Refs: J. D. Pryce, Numerical Solution of
Sturm-Liouville Problems (1993); Paine, de Hoog & Anderssen, Computing
26 (1981).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (AccuracyError, DomainError, GeometryError,
                     PoleEndpointError)
from .geometry import cartesian_to_spherical, validate_wedge

PI = math.pi
DEFAULT_TOL = 1e-8
DEFAULT_GRID = 4096
_FD_INTERVALS = tuple(32 << i for i in range(8))    # 32, 64, ..., 4096
# bisection runs to full relative accuracy when its absolute tolerance is
# this small (LAPACK dstebz)
_BISECT_ABSTOL = 4.0 * np.finfo(float).tiny


@dataclass(frozen=True)
class SLProblem:
    """One chain stage.  bc_* is 'dirichlet' or 'bounded' (poles only)."""

    a: float
    b: float
    d: int
    mu: float
    bc_a: str = "dirichlet"
    bc_b: str = "dirichlet"

    def __post_init__(self):
        # the weightless circle stage lives on (0, 2*pi); weighted stages on [0, pi]
        b_max = 2.0 * PI if (self.d == 0 and self.mu == 0.0) else PI
        if not (0.0 <= self.a < self.b <= b_max):
            raise DomainError("need 0 <= a < b <= %.3g for this stage" % b_max)
        if self.d < 0 or int(self.d) != self.d:
            raise DomainError("weight exponent d must be a nonnegative integer")
        if self.mu < 0.0:
            raise DomainError("inner eigenvalue mu must be >= 0")
        for end, bc, at_pole in (("a", self.bc_a, self.a == 0.0),
                                 ("b", self.bc_b, self.b == PI)):
            if bc not in ("dirichlet", "bounded"):
                raise DomainError("bc_%s must be dirichlet|bounded" % end)
            if bc == "bounded" and not at_pole:
                raise DomainError("bounded condition only applies at a pole endpoint")
            if at_pole and bc == "dirichlet" and not (self.d == 0 and self.mu == 0.0):
                raise PoleEndpointError(
                    "interval touches a pole; use the bounded-endpoint mode")
        if self.bc_a == "bounded" and self.bc_b == "bounded":
            raise GeometryError("intervals spanning both poles are not supported")


@dataclass(frozen=True)
class EigenResult:
    gamma: float
    theta: np.ndarray
    values: np.ndarray
    h: float
    error: float

    @property
    def samples(self):
        return tuple(zip(self.theta.tolist(), self.values.tolist()))


def indicial_exponent(d, mu):
    """Frobenius exponent r >= 0 with r (r + d - 1) = mu at a pole."""
    return 0.5 * ((1.0 - d) + math.sqrt((d - 1.0) ** 2 + 4.0 * mu))


def _fd_golub_kahan(problem, n):
    """The stage's FD scheme on n uniform intervals, factored.

    With r (r + d - 1) = mu, f = sin^r g cancels the mu/sin^2 term on the
    whole interval: -(sin^kappa g')'/sin^kappa = (gamma - shift) g with
    kappa = d + 2r and shift = r (r + d).  At a pole r is the Frobenius
    exponent of the bounded solution; mu = 0 needs no substitution.

    The conservative scheme A g = lambda M g has A = D' W D, with D the
    node differences across the n cells, W their fluxes sin^kappa / h
    at the cell midpoints and M the node masses h sin^kappa.  A bounded
    pole node is an unknown with natural flux 0 and the half-cell mass
    (h/2)^(kappa+1)/(kappa+1).

    So the FD eigenvalues are the squared singular values of
    C = W^(1/2) D M^(-1/2).  Its entries follow the path node, cell,
    node, ...; the zero-diagonal tridiagonal with them as off-diagonal
    (Golub-Kahan form) has plus and minus those singular values, and
    zeros, as eigenvalues, the smallest positive one at index n.  The
    entries are square roots of ratios of sines, formed without
    cancellation and free of under- or overflow, so bisection gets that
    eigenvalue to full relative accuracy (Demmel & Kahan 1990), where a
    formed A loses eps * |A|.

    Returns the off-diagonal, the shift r (r + d), the index range of
    the unknowns on linspace(a, b, n + 1) and sin^r at the unknowns.
    """
    d, mu = problem.d, problem.mu
    r = indicial_exponent(d, mu) if mu else 0.0
    kappa, shift = d + 2.0 * r, r * (r + d)
    a, b = problem.a, problem.b
    h = (b - a) / n
    # |sin|: the weightless circle stage may run past pi
    s = np.abs(np.sin(np.linspace(a, b, n + 1)))
    s_mid = np.abs(np.sin(a + h * (np.arange(n) + 0.5)))
    pole = [i for i, bc in ((0, problem.bc_a), (n, problem.bc_b)) if bc == "bounded"]
    s[pole] = 0.0
    lo = 0 if problem.bc_a == "bounded" else 1
    hi = n + 1 if problem.bc_b == "bounded" else n
    # node i has the mass h * beta_i * sig_i^kappa; wall nodes are no
    # unknowns, their entries are dropped
    sig, beta = np.where(s > 0.0, s, 1.0), np.ones(n + 1)
    sig[pole], beta[pole] = 0.5 * h, 0.5 / (kappa + 1.0)
    path = np.empty(2 * n)                 # h C along the path
    path[0::2] = -np.sqrt((s_mid / sig[:-1]) ** kappa / beta[:-1])   # node i, cell i
    path[1::2] = np.sqrt((s_mid / sig[1:]) ** kappa / beta[1:])      # cell i, node i+1
    off = path[lo:n + hi - 1] / h
    return off, shift, (lo, hi), s[lo:hi] ** r


def _smallest_singular_value(off, n):
    from scipy.linalg import eigh_tridiagonal
    return float(eigh_tridiagonal(np.zeros(off.size + 1), off, eigvals_only=True,
                                  select="i", select_range=(n, n),
                                  tol=_BISECT_ABSTOL)[0])


def _fd_eigenfunction(problem, n):
    """Samples of the lowest FD eigenfunction on linspace(a, b, n + 1),
    positive inside, with unit trapezoidal integral.

    Inverse iteration at the FD eigenvalue runs on M^(-1) A in the
    variable g, which lacks the t^r decay of f = sin^r g at a pole, so f
    keeps full relative accuracy there.  The eigenvector M^(1/2) g of the
    Golub-Kahan form would lose those tiny entries to absolute rounding.
    """
    from scipy.linalg import solve_banded
    off, _, (lo, hi), sin_r = _fd_golub_kahan(problem, n)
    lam = _smallest_singular_value(off, n) ** 2
    # row i of M^(-1) A couples node i to its cells with the squares of
    # its two path entries (left, right); walls and poles end the path
    c2 = np.concatenate([[0.0], off ** 2, [0.0]])
    left, right = c2[lo::2][:hi - lo], c2[lo + 1::2][:hi - lo]
    band = np.zeros((3, hi - lo))
    band[0, 1:], band[1], band[2, :-1] = -right[:-1], left + right - lam, -left[1:]
    g = np.ones(hi - lo)
    for _ in range(2):
        g = solve_banded((1, 1), band, g)
        g /= np.max(np.abs(g))
    f = np.zeros(n + 1)
    f[lo:hi] = g * sin_r
    h = (problem.b - problem.a) / n
    return f / (h * (np.sum(f) - 0.5 * (f[0] + f[-1])))


def sl_eigen_fd(problem, n=2000):
    """Lowest eigenvalue of the second-order finite-difference scheme.

    Self-adjoint form -(p f')' + mu p/sin^2 f = gamma p f with p = sin^d
    on n uniform intervals, after f = sin^r g has removed the mu/sin^2
    term; a bounded pole is exact (an unknown with natural flux 0), not
    a wall moved inside.  The error is O(h^2), also at a pole.  This is
    one level of :func:`sl_eigen_1d`'s extrapolation.
    """
    off, shift, _, _ = _fd_golub_kahan(problem, n)
    return _smallest_singular_value(off, n) ** 2 + shift


def _extrapolated_lowest(problem, tol):
    """(gamma, error): the FD eigenvalue on n = 32, 64, ..., 4096
    intervals extrapolated in h^2, then h^4, until two consecutive h^4
    extrapolants agree to tol."""
    if not (1e-12 < tol < 1e-2):
        raise DomainError("tol must lie in (1e-12, 1e-2)")
    lam, h2, h4 = [], [], []     # FD values, extrapolants in h^2, in h^4
    for n in _FD_INTERVALS:
        lam.append(sl_eigen_fd(problem, n))
        if len(lam) > 1:
            h2.append((4.0 * lam[-1] - lam[-2]) / 3.0)
        if len(h2) > 1:
            h4.append((16.0 * h2[-1] - h2[-2]) / 15.0)
        if len(h4) > 1:
            gamma, err = h4[-1], abs(h4[-1] - h4[-2])
            if err <= tol * abs(gamma):
                return gamma, err
    raise AccuracyError("eigenvalue did not stabilize to tol=%g" % tol,
                        value=gamma, error=err)


def sl_eigen_1d(problem, tol=DEFAULT_TOL):
    """Smallest eigenvalue with positive eigenfunction, by Richardson
    extrapolation of the FD scheme.

    Parameters
    ----------
    problem : SLProblem
    tol : float
        Relative eigenvalue tolerance in (1e-12, 1e-2).  The FD eigenvalue
        on n = 32, 64, ..., 4096 intervals is extrapolated in h^2, then
        h^4; two consecutive h^4 extrapolants must agree to tol.

    Returns
    -------
    EigenResult with max-normalized samples, f > 0 inside, f = 0 at
    Dirichlet walls.  The samples are the FD eigenfunctions on
    DEFAULT_GRID and 2 DEFAULT_GRID intervals, extrapolated in h^2.
    """
    gamma, err = _extrapolated_lowest(problem, tol)
    theta = np.linspace(problem.a, problem.b, DEFAULT_GRID + 1)
    values = (4.0 * _fd_eigenfunction(problem, 2 * DEFAULT_GRID)[::2]
              - _fd_eigenfunction(problem, DEFAULT_GRID)) / 3.0
    if not np.all(values[1:-1] > 0.0):
        raise AccuracyError("extrapolated eigenfunction is not positive inside",
                            value=gamma, error=err)
    values /= np.max(values)
    return EigenResult(gamma=gamma, theta=theta, values=values,
                       h=float(theta[1] - theta[0]), error=float(err))


# --------------------------------------------------------------------------
# the chain over a box opening


def _stage_problem(spec, j, mu):
    a, b = spec.intervals[j - 2]
    return SLProblem(a=a, b=b, d=j - 1, mu=mu,
                     bc_a="bounded" if a == 0.0 else "dirichlet",
                     bc_b="bounded" if b == PI else "dirichlet")


def _arc_eigenvalue(spec):
    """(pi/alpha1)^2, the first Dirichlet eigenvalue of the arc (0, alpha1)."""
    try:
        return (PI / spec.alpha1) ** 2
    except OverflowError:
        raise DomainError("alpha1 = %.3g is too small: (pi/alpha1)^2 overflows"
                          % spec.alpha1) from None


@lru_cache(maxsize=256)
def gamma_first_eigenvalue(spec, tol=DEFAULT_TOL):
    """First Dirichlet eigenvalue of the opening A on S^{k-1}.

    k = 2 is the closed form (pi/alpha1)^2; k >= 3 runs the chain with
    mu_1 = (pi/alpha1)^2 and stage weights d = j-1.  Results are cached
    per (spec, tol); the computation is pure.
    """
    validate_wedge(spec)
    if not (2 <= spec.k <= spec.N):
        raise DomainError("gamma is defined for 2 <= k <= N")
    mu = _arc_eigenvalue(spec)
    if spec.k == 2:
        return mu
    for j in range(2, spec.k):
        mu, _ = _extrapolated_lowest(_stage_problem(spec, j, mu), tol)
    return mu


@lru_cache(maxsize=64)
def _opening_chain(spec):
    """gamma plus the per-coordinate factors of the first eigenfunction."""
    from scipy.interpolate import CubicSpline
    validate_wedge(spec)
    mu = _arc_eigenvalue(spec)
    kappa1 = PI / spec.alpha1
    factors = [None]                       # placeholder for the theta_1 factor
    for j in range(2, spec.k):
        res = sl_eigen_1d(_stage_problem(spec, j, mu))
        mu = res.gamma
        factors.append(CubicSpline(res.theta, res.values))
    return mu, kappa1, tuple(factors)


def opening_eigenfunction_factors(spec):
    """Per-angle 1-D factors f_1..f_{k-1} of the opening eigenfunction.

    f_1(t) = sin(kappa1 t) exactly; later factors are spline interpolants
    of the chain stages, all max-normalized.
    """
    gamma, kappa1, factors = _opening_chain(spec)

    def f1(t):
        return math.sin(kappa1 * t)

    return gamma, (f1,) + factors[1:]


def opening_eigenfunction(spec):
    """Eigenfunction of the opening as a callable on unit vectors of R^k.

    Returns (gamma, phi); phi is the ``omega`` handle of
    :func:`wedgecap.kernels.martin_kernel`.  On the wedge's spherical
    section the first eigenfunction is phi of the opening angles times
    (sin theta_k ... sin theta_{N-1})^{kappa_plus}.
    """
    validate_wedge(spec)
    gamma, factors = opening_eigenfunction_factors(spec)
    k = spec.k

    def phi(v):
        v = np.asarray(v, float)
        if v.size != k:
            raise DomainError("direction must live in R^k")
        _, ang = cartesian_to_spherical(v)
        if not (0.0 <= ang[0] <= spec.alpha1):
            raise DomainError("direction outside the opening")
        val = factors[0](ang[0])
        for j in range(2, k):
            a, b = spec.intervals[j - 2]
            if not (a <= ang[j - 1] <= b):
                raise DomainError("direction outside the opening")
            val *= float(factors[j - 1](ang[j - 1]))
        return val

    return gamma, phi
