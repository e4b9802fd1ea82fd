"""Independent closed forms and reference evaluations the tests check the
library against.  None of these has a caller in the library itself."""

import functools
import math

import numpy as np

from wedgecap.errors import DomainError
from wedgecap.exponents import (_sqrt_clamped, _require_q, kappa_from_gamma,
                                kappa_roots, q_c_from_kappa)
from wedgecap.geometry import validate_wedge
from wedgecap.kernels import martin_kernel
from wedgecap.spectral import _arc_eigenvalue, _stage_problem, sl_eigen_1d

TWO_PI = 2.0 * math.pi


def spherical_to_cartesian(r, sigma):
    """Map (r, theta_1..theta_{N-1}) to a point in R^N, in the nested
    convention of the geometry module.

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


@functools.lru_cache(maxsize=64)
def _opening_chain(spec):
    """gamma plus the per-coordinate factors of the first eigenfunction."""
    from scipy.interpolate import CubicSpline
    validate_wedge(spec)
    mu = _arc_eigenvalue(spec)
    kappa1 = math.pi / spec.alpha1
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


def k_nu_m(tau, zeta, mu, nu):
    """Atom-by-atom sum of the order-nu kernel at (tau, zeta), tau > 0:
    sum_i w_i tau^{nu-m} (tau^2 + |zeta-z_i|^2)^{-nu/2}."""
    tau = np.asarray(tau, float)
    if not np.all((0.0 < tau) & (tau < np.inf)):
        raise DomainError("tau must be finite and > 0")
    zeta = np.atleast_1d(np.asarray(zeta, float))
    if zeta.size != mu.m:
        raise DomainError("zeta must live in R^m")
    acc = 0.0
    for z, w in zip(mu.positions, mu.weights):
        acc = acc + w * (tau ** 2 + float(np.sum((zeta - z) ** 2))) ** (-0.5 * nu)
    out = tau ** (nu - mu.m) * acc
    return float(out) if np.isscalar(out) or out.ndim == 0 else out


def poisson_potential(mu, x, report, omega=None):
    """Edge potential of an atomic measure: weighted sum of Martin kernels."""
    return sum(w * martin_kernel(x, z, report, omega=omega)
               for z, w in zip(mu.positions, mu.weights))


def cone_q_c_direct(N, lambda_A):
    """Vertex-cone threshold written directly in terms of lambda_A."""
    disc = _sqrt_clamped((N - 2.0) ** 2 + 4.0 * lambda_A)
    return (N + 2.0 + disc) / (N - 2.0 + disc)


def absorption_coefficient(N, q):
    """a_{N,q} = (2/(q-1)) ((2q/(q-1)) - N), the self-similar absorption rate."""
    _require_q(q)
    t = 2.0 / (q - 1.0)
    return t * (t * q - N)   # 2q/(q-1) = t*q


def identity_check(N, lambda_A):
    """True iff a_{N, q_c} == lambda_A to 1e-10, with q_c derived from lambda_A:
    kappa_plus (kappa_plus + N - 2) = lambda_A pins the point threshold to
    the absorption rate of the self-similar profile."""
    kp, _ = kappa_roots(N, lambda_A)
    a = absorption_coefficient(N, q_c_from_kappa(N, kp))
    return abs(a - lambda_A) <= 1e-10 * abs(lambda_A)


def omega_SA(spec, gamma, kappa_plus, sigma):
    """First eigenfunction of the wedge's spherical section, max-normalized:
    (sin theta_k ... sin theta_{N-1})^{kappa_plus} times the opening
    eigenfunction at the unit vector of the angles theta_1..theta_{k-1}."""
    sigma = np.asarray(sigma, float)
    if sigma.size != spec.N - 1:
        raise DomainError("sigma must have N-1 = %d angles" % (spec.N - 1))
    kp_ref = kappa_from_gamma(spec.k, gamma)
    if abs(kp_ref - kappa_plus) > 1e-6 * max(1.0, kp_ref):
        raise DomainError("kappa_plus inconsistent with gamma (expected %.12g)" % kp_ref)
    _, phi = opening_eigenfunction(spec)
    pref = float(np.prod(np.sin(sigma[spec.k - 1:])))
    value = phi(spherical_to_cartesian(1.0, sigma[:spec.k - 1]))
    return pref ** kappa_plus * value if pref > 0.0 else 0.0


def laplace_beltrami(fn, sigma, h):
    """Second-order FD value of the sphere Laplacian at sigma, in the form
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
        term = (fp - 2.0 * f0 + fm) / h ** 2
        if ell > 1:
            term += (ell - 1) / math.tan(sigma[ell - 1]) * (fp - fm) / (2.0 * h)
        total += term / np.prod(np.sin(sigma[ell:]) ** 2)
    return total
