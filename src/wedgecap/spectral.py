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

Discretization: a second-order finite-difference matrix brackets the
eigenvalue; RK4 shooting with Brent root-finding on gamma refines it.
Pole endpoints (t = 0 or pi) are left via the Frobenius exponent r with
r (r + d - 1) = mu, imposing boundedness; this mode is opt-in through
``WedgeSpec.allow_pole``.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

from .errors import (AccuracyError, BracketError, DomainError, GeometryError,
                     PoleEndpointError)
from .exponents import kappa_from_gamma
from .geometry import cartesian_to_spherical, validate_wedge

PI = math.pi
DEFAULT_TOL = 1e-8
DEFAULT_GRID = 4096


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


def _series_start(d, mu, gamma, theta0):
    """Bounded-solution value and slope a little away from the pole.

    f = t^r (1 + a2 t^2) + O(t^{r+4}) with the a2 fixed by the equation.
    """
    r = indicial_exponent(d, mu)
    a2 = (d * r / 3.0 + mu / 3.0 - gamma) / ((r + 2.0) * (r + 1.0) + d * (r + 2.0) - mu)
    f = theta0 ** r * (1.0 + a2 * theta0 ** 2)
    fp = r * theta0 ** (r - 1.0) + a2 * (r + 2.0) * theta0 ** (r + 1.0)
    return f, fp


def _mesh(problem, n):
    """Integration mesh; geometric grading out of a pole start."""
    a, b = problem.a, problem.b
    if problem.bc_a == "bounded":
        t0 = 1e-6
        t_cut = min(0.02, 0.05 * (b - a))
        ng = max(n // 8, 128)
        graded = t0 * (t_cut / t0) ** (np.arange(ng + 1) / ng)
        uniform = np.linspace(t_cut, b, n + 1)[1:]
        return np.concatenate([graded, uniform])
    return np.linspace(a, b, n + 1)


def _rhs(theta, f, fp, d, mu, gamma):
    acc = -gamma * f
    if d:
        s = math.sin(theta)
        acc -= d * (math.cos(theta) / s) * fp
        if mu:
            acc += mu / (s * s) * f
    elif mu:
        s = math.sin(theta)
        acc += mu / (s * s) * f
    return fp, acc


def _shoot(problem, gamma, mesh):
    """RK4 trajectory of (f, f') along the mesh; returns the f samples."""
    d, mu = problem.d, problem.mu
    if problem.bc_a == "bounded":
        f, fp = _series_start(d, mu, gamma, mesh[0])
    else:
        f, fp = 0.0, 1.0
    out = np.empty(mesh.size)
    out[0] = f
    for i in range(mesh.size - 1):
        t = mesh[i]
        h = mesh[i + 1] - t
        k1f, k1p = _rhs(t, f, fp, d, mu, gamma)
        k2f, k2p = _rhs(t + 0.5 * h, f + 0.5 * h * k1f, fp + 0.5 * h * k1p, d, mu, gamma)
        k3f, k3p = _rhs(t + 0.5 * h, f + 0.5 * h * k2f, fp + 0.5 * h * k2p, d, mu, gamma)
        k4f, k4p = _rhs(t + h, f + h * k3f, fp + h * k3p, d, mu, gamma)
        f += h * (k1f + 2.0 * k2f + 2.0 * k3f + k4f) / 6.0
        fp += h * (k1p + 2.0 * k2p + 2.0 * k3p + k4p) / 6.0
        out[i + 1] = f
    return out


def _reflected(problem):
    """theta -> pi - theta swaps the endpoints and leaves sin invariant."""
    return SLProblem(a=PI - problem.b, b=PI - problem.a, d=problem.d, mu=problem.mu,
                     bc_a=problem.bc_b, bc_b=problem.bc_a)


def sl_eigen_fd(problem, n=2000):
    """Second-order finite-difference estimate of the first eigenvalue.

    Self-adjoint form -(p f')' + mu p/sin^2 f = gamma p f with
    p = sin^d on a uniform interior grid; a pole endpoint is replaced by
    a Dirichlet wall slightly inside, so this value is a bracketing and
    convergence-study tool, not the refined answer.
    """
    a, b = problem.a, problem.b
    if problem.bc_a == "bounded":
        a = a + (b - a) * 1e-3
    if problem.bc_b == "bounded":
        b = b - (b - a) * 1e-3
    h = (b - a) / n
    theta = a + h * np.arange(1, n)
    p = np.sin(theta) ** problem.d
    ph = np.sin(a + h * (np.arange(n) + 0.5)) ** problem.d   # p at half nodes
    diag = (ph[:-1] + ph[1:]) / h ** 2 + problem.mu * p / np.sin(theta) ** 2
    off = -ph[1:-1] / h ** 2
    # symmetric-definite reduction of A f = gamma B f with B = diag(p)
    dsq = np.sqrt(p)
    cd = diag / p
    ce = off / (dsq[:-1] * dsq[1:])
    vals = eigh_tridiagonal(cd, ce, select="i", select_range=(0, 0),
                            eigvals_only=True)
    return float(vals[0])


def _solve_on_mesh(problem, lo, hi, n):
    mesh = _mesh(problem, n)

    def endpoint(g):
        return _shoot(problem, g, mesh)[-1]

    s_lo, s_hi = endpoint(lo), endpoint(hi)
    grow = 0
    while s_lo * s_hi > 0.0:
        grow += 1
        if grow > 40:
            raise BracketError("no sign change for gamma in [%.6g, %.6g]" % (lo, hi))
        if abs(s_lo) < abs(s_hi):
            lo = max(lo / 1.5, 1e-12)
            s_lo = endpoint(lo)
        else:
            hi *= 1.5
            s_hi = endpoint(hi)
    gamma = brentq(endpoint, lo, hi, xtol=1e-14, rtol=8.9e-16)
    traj = _shoot(problem, gamma, mesh)
    return gamma, mesh, traj


def sl_eigen_1d(problem, tol=DEFAULT_TOL, n_samples=DEFAULT_GRID):
    """Smallest eigenvalue with positive eigenfunction, by shooting.

    Parameters
    ----------
    problem : SLProblem
    tol : float
        Relative eigenvalue tolerance in (1e-12, 1e-2), certified by a
        step-halving Richardson estimate of the RK4 trajectory error.
    n_samples : int
        Uniform sample count of the returned eigenfunction.

    Returns
    -------
    EigenResult with max-normalized samples, f > 0 inside, f = 0 at
    Dirichlet walls.
    """
    if not (1e-12 < tol < 1e-2):
        raise DomainError("tol must lie in (1e-12, 1e-2)")
    if problem.bc_b == "bounded":
        refl = sl_eigen_1d(_reflected(problem), tol=tol, n_samples=n_samples)
        return EigenResult(gamma=refl.gamma, theta=(PI - refl.theta)[::-1].copy(),
                           values=refl.values[::-1].copy(), h=refl.h, error=refl.error)

    est = sl_eigen_fd(problem, n=600)
    lo, hi = 0.75 * est, 1.15 * est
    gamma_prev = None
    err = math.inf
    n = 1024
    for _ in range(4):
        gamma, mesh, traj = _solve_on_mesh(problem, lo, hi, n)
        interior = traj[1:-1]
        if np.min(interior) < -1e-10 * np.max(np.abs(traj)):
            # caught a higher mode: push the bracket down once
            gamma, mesh, traj = _solve_on_mesh(problem, max(0.25 * est, 1e-10),
                                               0.98 * gamma, n)
            interior = traj[1:-1]
            if np.min(interior) < -1e-10 * np.max(np.abs(traj)):
                raise BracketError("could not isolate a positive first eigenfunction")
        if gamma_prev is not None:
            err = abs(gamma - gamma_prev)
            if err <= tol * abs(gamma):
                break
        gamma_prev = gamma
        lo, hi = gamma * (1.0 - 1e-3), gamma * (1.0 + 1e-3)
        n *= 2
    else:
        raise AccuracyError("eigenvalue did not stabilize to tol=%g" % tol,
                            value=gamma, error=err)

    # final trajectory directly on the uniform sample grid (no resampling,
    # so the FD residual of the samples is pure truncation error)
    theta = np.linspace(problem.a, problem.b, n_samples + 1)
    if problem.bc_a == "bounded":
        t0 = 1e-6
        ng = max(n_samples // 8, 128)
        graded = t0 * (theta[1] / t0) ** (np.arange(ng + 1) / ng)
        traj_f = _shoot(problem, gamma, np.concatenate([graded, theta[2:]]))
        values = np.empty(n_samples + 1)
        r = indicial_exponent(problem.d, problem.mu)
        values[0] = 0.0 if r > 0 else 1.0
        values[1:] = traj_f[ng:]
    else:
        values = _shoot(problem, gamma, theta)
    values /= np.max(values)
    if problem.bc_a == "dirichlet":
        values[0] = 0.0
    values[-1] = 0.0
    return EigenResult(gamma=gamma, theta=theta, values=values,
                       h=float(theta[1] - theta[0]), error=float(err))


# --------------------------------------------------------------------------
# the chain over a box opening


def _stage_problem(spec, j, mu):
    a, b = spec.intervals[j - 2]
    return SLProblem(a=a, b=b, d=j - 1, mu=mu,
                     bc_a="bounded" if a == 0.0 else "dirichlet",
                     bc_b="bounded" if b == PI else "dirichlet")


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
    mu = (PI / spec.alpha1) ** 2
    if spec.k == 2:
        return mu
    for j in range(2, spec.k):
        mu = sl_eigen_1d(_stage_problem(spec, j, mu), tol=tol).gamma
    return mu


@lru_cache(maxsize=64)
def _opening_chain(spec, tol):
    """gamma plus the per-coordinate factors of the first eigenfunction."""
    validate_wedge(spec)
    mu = (PI / spec.alpha1) ** 2
    kappa1 = PI / spec.alpha1
    factors = [None]                       # placeholder for the theta_1 factor
    for j in range(2, spec.k):
        res = sl_eigen_1d(_stage_problem(spec, j, mu), tol=tol)
        mu = res.gamma
        factors.append(CubicSpline(res.theta, res.values))
    return mu, kappa1, tuple(factors)


def opening_eigenfunction_factors(spec, tol=DEFAULT_TOL):
    """Per-angle 1-D factors f_1..f_{k-1} of the opening eigenfunction.

    f_1(t) = sin(kappa1 t) exactly; later factors are spline interpolants
    of the chain stages, all max-normalized.
    """
    gamma, kappa1, factors = _opening_chain(spec, tol)

    def f1(t):
        return math.sin(kappa1 * t)

    return gamma, (f1,) + factors[1:]


def omega_SA(spec, gamma, kappa_plus, sigma, tol=DEFAULT_TOL):
    """First eigenfunction of the wedge's spherical section, max-normalized.

    omega(sigma) = (sin theta_{N-1} ... sin theta_k)^{kappa_plus}
                   * f_1(theta_1) * prod_j f_j(theta_j)

    Vanishes on the boundary of the section; raises DomainError strictly
    outside its closure.
    """
    validate_wedge(spec)
    sigma = np.asarray(sigma, float)
    if sigma.size != spec.N - 1:
        raise DomainError("sigma must have N-1 = %d angles" % (spec.N - 1))
    k = spec.k
    kp_ref = kappa_from_gamma(k, gamma)
    if abs(kp_ref - kappa_plus) > 1e-6 * max(1.0, kp_ref):
        raise DomainError("kappa_plus inconsistent with gamma (expected %.12g)" % kp_ref)

    theta1 = sigma[0]
    if not (0.0 <= theta1 <= spec.alpha1):
        raise DomainError("theta_1 outside [0, alpha1]")
    for j in range(2, k):
        a, b = spec.intervals[j - 2]
        if not (a <= sigma[j - 1] <= b):
            raise DomainError("theta_%d outside its interval" % j)
    for ell in range(k, spec.N):
        if not (0.0 <= sigma[ell - 1] <= PI):
            raise DomainError("theta_%d outside [0, pi]" % ell)

    g_chain, factors = opening_eigenfunction_factors(spec, tol=tol)
    value = factors[0](theta1)
    for j in range(2, k):
        value *= float(factors[j - 1](sigma[j - 1]))
    pref = 1.0
    for ell in range(k, spec.N):
        pref *= math.sin(sigma[ell - 1])
    return pref ** kappa_plus * value if pref > 0.0 else 0.0


def opening_eigenfunction(spec, tol=DEFAULT_TOL):
    """Eigenfunction of the opening as a callable on unit vectors of R^k."""
    validate_wedge(spec)
    gamma, factors = opening_eigenfunction_factors(spec, tol=tol)
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


# --------------------------------------------------------------------------
# discrete Laplace-Beltrami operator (convergence checks)


def laplace_beltrami(fn, sigma, h):
    """Second-order FD value of the sphere Laplacian at sigma.

    Uses the unrolled form
    sum_l [prod_{j>l} sin^{-2} theta_j] (d^2/dtheta_l^2 + (l-1) cot theta_l d/dtheta_l).
    """
    sigma = np.asarray(sigma, float)
    nang = sigma.size
    total = 0.0
    f0 = fn(sigma)
    for ell in range(1, nang + 1):
        e = np.zeros(nang)
        e[ell - 1] = h
        fp = fn(sigma + e)
        fm = fn(sigma - e)
        d2 = (fp - 2.0 * f0 + fm) / h ** 2
        d1 = (fp - fm) / (2.0 * h)
        pref = 1.0
        for j in range(ell + 1, nang + 1):
            pref /= math.sin(sigma[j - 1]) ** 2
        term = d2
        if ell > 1:
            term += (ell - 1) * (math.cos(sigma[ell - 1]) / math.sin(sigma[ell - 1])) * d1
        total += pref * term
    return total
