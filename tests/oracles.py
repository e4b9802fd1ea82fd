"""Independent closed forms and reference evaluations the tests check the
library against.  None of these has a caller in the library itself."""

import math

import numpy as np

from wedgecap.errors import DomainError
from wedgecap.exponents import (_sqrt_clamped, _require_q, kappa_from_gamma,
                                kappa_roots, q_c_from_kappa)
from wedgecap.geometry import spherical_to_cartesian
from wedgecap.kernels import martin_kernel
from wedgecap.spectral import opening_eigenfunction


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
