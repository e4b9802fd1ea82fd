"""Singular edge kernels and the weighted integral functionals built on them.

The building block is the fractional-order kernel

    k_{nu,m}[mu](tau, zeta) = sum_i w_i tau^{nu-m} (tau^2 + |zeta-z_i|^2)^{-nu/2}

for an atomic measure mu on R^m.  On top of it sit

    F_{nu,m}[mu](tau)        the L^q slice integral over R^m (or the ball B_R),
    M_{nu,s}^m(mu; R)        the tau-weighted aggregate on (0, R),
    J_AR                     the same aggregate in wedge parameters,
    I / reduced_I            the exponential-weight variants and their
                             1-D reduction with weight h_{sigma,j}.

Atoms make the functionals singular at tau -> 0; whenever the parameter
combination makes an integral divergent the functions refuse to chase it
and demand an explicit inner cutoff ``eps`` (the cutoff-scaling API used
by the experiment layer).  All quadrature is deterministic panel
refinement from :mod:`._quad`; every functional returns ``(value,
error_estimate)``.

Normalization: the Martin-kernel constant is fixed to c_A = 1 and the
opening eigenfunction is max-normalized.  Every downstream statement is
a two-sided estimate up to constants, so this choice only fixes a gauge.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma_fn

from ._quad import (gauss_legendre, geometric_edges, integrate_partials,
                    integrate_rows, merge_edges)
from .errors import (AccuracyError, ConfigurationError, DivergenceError,
                     DomainError, SingularityError)
from .exponents import bookkeeping_identity_gap

C_A = 1.0


@dataclass(frozen=True)
class KernelParams:
    """Parameter bundle for the kernel functionals.

    nu > m is the kernel order; s the aggregate smoothness index; sigma
    and j parameterize the exponential-weight family; R > 1 truncates.
    """

    nu: float
    m: int
    q: float
    s: float | None = None
    sigma: float | None = None
    j: int | None = None
    R: float | None = None

    def __post_init__(self):
        for name, value in vars(self).items():
            if value is not None and not math.isfinite(value):
                raise DomainError("%s must be finite" % name)
        if self.m < 1 or int(self.m) != self.m:
            raise DomainError("m must be an integer >= 1")
        if not (self.nu > self.m):
            raise DomainError("need nu > m")
        if not (self.q > 1.0):
            raise DomainError("need q > 1")
        if self.s is not None and not (self.s > 0.0):
            raise DomainError("need s > 0")
        if self.sigma is not None and not (self.sigma > 0.0):
            raise DomainError("need sigma > 0")
        if self.j is not None and (self.j < 1 or int(self.j) != self.j):
            raise DomainError("j must be an integer >= 1")
        if self.R is not None and not (self.R > 1.0):
            raise DomainError("need R > 1")


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy contract for the adaptive quadrature: the relative
    tolerance every refined panel set must meet."""

    rtol: float = 1e-6

    def __post_init__(self):
        if not (1e-10 < self.rtol < 1e-2):
            raise DomainError("rtol must lie in (1e-10, 1e-2)")


DEFAULT_QUAD = QuadratureSpec()


def default_R(mu):
    """Truncation radius 8 * (support diameter + 1), comfortably above 2*supp."""
    return 8.0 * (mu.support_diameter() + 1.0)


def params_from_report(report, q, R=None):
    """Kernel parameters of a stratum: nu = N-2+2k+, m = N-k, s = s(q).

    Asserts the exponent bookkeeping identity
    (s + nu - m) q - 1 = (q+1) kappa_plus + k - 1 before returning.
    """
    if report.m < 1:
        raise ConfigurationError("vertex strata (k = N) have no edge functional")
    gap = bookkeeping_identity_gap(report, q)
    if gap > 1e-12 * max(1.0, report.beta(q)):
        raise ConfigurationError("exponent bookkeeping identity violated (gap %.3g)" % gap)
    return KernelParams(nu=report.nu, m=report.m, q=q, s=report.s(q), R=R)


# --------------------------------------------------------------------------
# pointwise kernels


def k_nu_m(tau, zeta, mu, nu):
    """Exact atom sum of the order-nu kernel at (tau, zeta), tau > 0."""
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


def _split_x(x, k):
    x = np.asarray(x, float)
    return x[:k], x[k:]


def martin_kernel(x, z, report, omega=None):
    """Normalized positive harmonic kernel of the wedge with pole at z.

    x = (x', x'') in the wedge, z on the edge (intrinsic coordinates).
    ``omega`` evaluates the opening eigenfunction on unit vectors of
    R^k; for k = 2 the closed form sin(kappa_plus * theta_1) is used
    when omega is omitted.
    """
    k = report.k
    xp, xpp = _split_x(x, k)
    z = np.atleast_1d(np.asarray(z, float))
    rp = float(np.linalg.norm(xp))
    if rp == 0.0 and np.allclose(xpp, z):
        raise SingularityError("kernel pole reached")
    dist2 = rp ** 2 + float(np.sum((xpp - z) ** 2))
    if dist2 == 0.0:
        raise SingularityError("kernel pole reached")
    if rp == 0.0:
        return 0.0
    if omega is None:
        if k != 2:
            raise ConfigurationError("omega handle required for k != 2")
        theta1 = math.atan2(xp[0], xp[1])
        if theta1 < 0.0:
            theta1 += 2.0 * math.pi
        w = math.sin(report.kappa_plus * theta1)
    else:
        w = float(omega(xp / rp))
    return C_A * rp ** report.kappa_plus * w * dist2 ** (-0.5 * report.nu)


def poisson_potential(mu, x, report, omega=None):
    """Edge potential of an atomic measure: weighted sum of Martin kernels."""
    acc = 0.0
    for z, w in zip(mu.positions, mu.weights):
        acc += w * martin_kernel(x, z, report, omega=omega)
    return acc


def poisson_upper_bound(mu, x, report):
    """c_A (r')^{kappa_plus} sum_i w_i |(x', x''-z_i)|^{2-N-2 kappa_plus}.

    Dominates the potential because the eigenfunction is <= 1.
    """
    k = report.k
    xp, xpp = _split_x(x, k)
    rp = float(np.linalg.norm(xp))
    acc = 0.0
    for z, w in zip(mu.positions, mu.weights):
        acc += w * (rp ** 2 + float(np.sum((xpp - z) ** 2))) ** (-0.5 * report.nu)
    return C_A * rp ** report.kappa_plus * acc


# --------------------------------------------------------------------------
# F_{nu,m}: the L^q slice integral


_BLOCK_CELLS = 1 << 15   # table cells per block: accumulator + scratch fit in L2


def _kernel_sum_m1(tau, y, mu, nu, q):
    """(n_tau, n_y) table of the inner kernel sum raised to q, m = 1.

    The table is built one block of tau rows at a time: each atom's term
    w (tau^2 + (y-z)^2)^{-nu/2} is formed in a block-sized scratch buffer
    and added to the block, which is raised to q while it is still in
    cache.  Every cell sees the same operations in the same order
    whatever the block size.
    """
    t2 = (tau ** 2)[:, None]
    atoms = [(w, (y - z) ** 2) for z, w in zip(mu.positions[:, 0], mu.weights)]
    out = np.empty((tau.size, y.size))
    rows = max(1, _BLOCK_CELLS // y.size)
    scratch = np.empty((min(rows, tau.size), y.size))
    for r0 in range(0, tau.size, rows):
        acc = out[r0:r0 + rows]
        term = scratch[:acc.shape[0]]
        acc.fill(0.0)
        for w, d2 in atoms:
            np.add(t2[r0:r0 + rows], d2, out=term)
            np.power(term, -0.5 * nu, out=term)
            term *= w
            acc += term
        np.power(acc, q, out=acc)
    return out


def _slice_integrand_m1(tau_arr, mu, params):
    """y -> k(tau, y)^q for every tau row."""
    def f(y):
        return _kernel_sum_m1(tau_arr, y, mu, params.nu, params.q)
    return f


def _folded_integrand_m1(tau_arr, mu, params):
    """y -> k(tau, y)^q + k(tau, -y)^q: both half-lines on one y > 0 grid."""
    f = _slice_integrand_m1(tau_arr, mu, params)

    def g(y):
        out = f(np.concatenate([y, -y]))
        return out[:, :y.size] + out[:, y.size:]
    return g


def _widen(shell, tail_bound, vals, errs, Y, rtol):
    """Extend integrals known up to Y to infinity, one shell at a time.

    While the rigorous tail bound beyond Y is not negligible against the
    smallest value, ``shell(Y, 2Y)`` -- per-row (values, errors) of the
    integrand on that shell only -- is added to the running totals and Y
    doubles.  The bound at the final Y lands in the error; a bound still
    above ``0.3 rtol`` after 29 doublings raises :class:`AccuracyError`
    carrying the totals.
    """
    for doublings in range(30):   # Y grows at most 2^29-fold
        tail = tail_bound(Y)
        if tail <= 0.3 * rtol * float(np.min(np.abs(vals))) or tail < 1e-300:
            return vals, errs + tail
        if doublings < 29:
            v, e = shell(Y, 2.0 * Y)
            vals, errs = vals + v, errs + e
            Y *= 2.0
    raise AccuracyError("tail bound %.3g beyond %.3g still above 0.3 rtol "
                        "(rtol %.3g) after 29 doublings" % (tail, Y, rtol),
                        value=vals, error=errs + tail)


def _widen_m1(tau_arr, mu, params, quad, vals, errs, Y):
    """Extend a slice integral known on |y| < Y to the whole line.

    Each shell Y < |y| < 2Y is integrated with both signs folded into one
    call; the tail beyond Y is bounded by the power decay of the kernel.
    """
    nuq = params.nu * params.q
    zmax = mu.support_radius()
    amp = mu.n_atoms ** (params.q - 1.0) * float(np.sum(mu.weights ** params.q))
    folded = _folded_integrand_m1(tau_arr, mu, params)

    def shell(lo, hi):
        return integrate_rows(folded, np.linspace(lo, hi, 9), rtol=quad.rtol)

    def tail_bound(Y):
        return 2.0 * amp * (Y - zmax) ** (1.0 - nuq) / (nuq - 1.0)

    return _widen(shell, tail_bound, vals, errs, Y, quad.rtol)


def _c_ball(nuq, m):
    """integral of (1+|u|^2)^{-nuq/2} over R^m (used in rigorous tail bounds)."""
    if m == 1:
        return math.sqrt(math.pi) * _gamma_fn(0.5 * (nuq - 1.0)) / _gamma_fn(0.5 * nuq)
    if m == 2:
        return 2.0 * math.pi / (nuq - 2.0)
    raise ConfigurationError("tail constants implemented for m in {1, 2}")


def _atom_edges_m1(mu, lo, hi, tau_floor):
    """Mandatory panel edges around each atom position: a 4-fold ladder
    starting at half of min(tau, nearest-atom distance)."""
    edges = []
    zs = np.sort(mu.positions[:, 0])
    for i, z in enumerate(zs):
        gap = np.inf
        if len(zs) > 1:
            others = np.delete(zs, i)
            gap = float(np.min(np.abs(others - z)))
        r0 = 0.5 * min(max(tau_floor, 1e-9), gap if np.isfinite(gap) else 1e9)
        r0 = max(r0, 1e-9)
        ladder = r0 * 4.0 ** np.arange(0, 20)
        ladder = ladder[ladder <= (hi - lo)]
        edges.append(np.concatenate([[z], z + ladder, z - ladder]))
    return np.concatenate(edges) if edges else np.empty(0)


def F_nu_m(tau, mu, params, quad=None, truncated=True):
    """L^q integral over R^m (or the ball |y| < R) of the inner kernel sum.

    tau may be a scalar or an array; all values share one adaptively
    refined panel set.  Returns (values, errors) with tau's shape.
    """
    quad = quad or DEFAULT_QUAD
    tau_arr = np.atleast_1d(np.asarray(tau, float))
    if not np.all((0.0 < tau_arr) & (tau_arr < np.inf)):
        raise DomainError("tau must be finite and > 0")
    if mu.n_atoms == 0:
        z = np.zeros_like(tau_arr)
        return (float(z[0]), 0.0) if np.isscalar(tau) else (z, z)
    nuq = params.nu * params.q
    if truncated and params.R is None:
        raise ConfigurationError("truncated F needs params.R")
    if not truncated and nuq <= params.m:
        raise DivergenceError("F over all of R^m diverges when nu*q <= m")

    if params.m == 1:
        vals, errs = _F_m1(tau_arr, mu, params, quad, truncated)
    elif params.m == 2:
        vals, errs = _F_m2(tau_arr, mu, params, quad, truncated)
    else:
        raise ConfigurationError("F implemented for m in {1, 2}")
    if np.isscalar(tau) or np.asarray(tau).ndim == 0:
        return float(vals[0]), float(errs[0])
    return vals, errs


def _F_m1(tau_arr, mu, params, quad, truncated):
    tau_floor = float(np.min(tau_arr))
    # the ball |y| < R, or for the full line a core around the atoms that
    # _widen_m1 extends shell by shell
    Y = params.R if truncated else (mu.support_radius()
                                    + max(10.0, 4.0 * float(np.max(tau_arr))))
    atom = _atom_edges_m1(mu, -Y, Y, tau_floor)
    edges = merge_edges(-Y, Y, np.linspace(-Y, Y, 9), atom)
    vals, errs = integrate_rows(_slice_integrand_m1(tau_arr, mu, params), edges,
                                rtol=quad.rtol)
    if truncated:
        return vals, errs
    return _widen_m1(tau_arr, mu, params, quad, vals, errs, Y)


def _F_outside_m1(tau_arr, mu, params, R, quad):
    """Slice integral restricted to |y| > R (the truncation deficit), m = 1."""
    Y = R + max(10.0, 10.0 * float(np.max(tau_arr)))
    vals, errs = integrate_rows(_folded_integrand_m1(tau_arr, mu, params),
                                merge_edges(R, Y, geometric_edges(R, Y, 8)),
                                rtol=quad.rtol)
    return _widen_m1(tau_arr, mu, params, quad, vals, errs, Y)


def _F_m2(tau_arr, mu, params, quad, truncated):
    # nested quadrature; adequate at desk scale, documented as the slow path
    nu, q = params.nu, params.q
    nuq = nu * q
    R = params.R if truncated else mu.support_radius() + max(
        10.0, 10.0 * float(np.max(tau_arr)))
    zs = mu.positions
    tau_floor = float(np.min(tau_arr))
    vals = np.empty(tau_arr.size)
    errs = np.empty(tau_arr.size)
    for it, t in enumerate(tau_arr):
        def outer(y1_nodes):
            out = np.empty((1, y1_nodes.size))
            for i, y1 in enumerate(y1_nodes):
                half = math.sqrt(max(R * R - y1 * y1, 0.0)) if truncated else R
                if half <= 0.0:
                    out[0, i] = 0.0
                    continue
                marks = zs[:, 1]
                edges = merge_edges(-half, half, np.linspace(-half, half, 9),
                                    np.concatenate([marks, marks + max(t, tau_floor),
                                                    marks - max(t, tau_floor)]))

                def inner(y2):
                    acc = np.zeros_like(y2)
                    for (z1, z2), w in zip(zs, mu.weights):
                        acc += w * (t * t + (y1 - z1) ** 2 + (y2 - z2) ** 2) ** (-0.5 * nu)
                    return acc ** q

                v, _ = integrate_rows(lambda y: inner(y)[None, :], edges,
                                      rtol=quad.rtol)
                out[0, i] = v[0]
            return out

        marks1 = zs[:, 0]
        edges1 = merge_edges(-R, R, np.linspace(-R, R, 9),
                             np.concatenate([marks1, marks1 + max(t, tau_floor),
                                             marks1 - max(t, tau_floor)]))
        v, e = integrate_rows(outer, edges1, rtol=quad.rtol)
        if not truncated:
            # outside the square lies outside the disk |y| > R, where every
            # atom is at least |y| - rho away: the integrand is at most
            # (mass (|y| - rho)^-nu)^q
            rho = mu.support_radius()
            e = e + 2.0 * math.pi * mu.mass ** q * (
                (R - rho) ** (2.0 - nuq) / (nuq - 2.0)
                + rho * (R - rho) ** (1.0 - nuq) / (nuq - 1.0))
        vals[it], errs[it] = v[0], e if np.isscalar(e) else e[0]
    return vals, errs


# --------------------------------------------------------------------------
# weight functions and tau-aggregates


def h_sigma_j(tau, sigma, j, q):
    """Reduction weight: tau^{(sigma+1)q+j-2} (1+tau)^{-(sigma+1)q} for j >= 2,
    e^{-tau} tau^{(sigma+1)q-1} for j = 1."""
    tau = np.asarray(tau, float)
    p = (sigma + 1.0) * q
    if j >= 2:
        return tau ** (p + j - 2.0) / (1.0 + tau) ** p
    return np.exp(-tau) * tau ** (p - 1.0)


def _small_tau_exponent(params, weight_pow):
    """Power of the aggregate integrand as tau -> 0 for an atomic measure."""
    return params.m - params.nu * params.q + weight_pow


def _tau_integrand(mu, params, quad, weight, truncated):
    """tau -> F(tau) * weight(tau) as one quadrature row."""
    def f(tau):
        fv, _ = F_nu_m(tau, mu, params, quad=quad, truncated=truncated)
        return (np.atleast_1d(fv) * weight(np.asarray(tau, float)))[None, :]
    return f


def _tau_edges(lo, hi, *marks):
    """Initial panels of a tau-integral over (lo, hi): log-graded ones,
    nine uniform ones and the mandatory marks."""
    return merge_edges(lo, hi, geometric_edges(lo, hi, per_decade=6),
                       np.linspace(lo, hi, 9), *marks)


def _tau_ladder(f, cutoffs, Y, tail_bound, quad):
    """Integrals of the tau-integrand ``f`` above each cutoff, one solve.

    The cutoffs are mandatory panel edges of a single adaptive
    decomposition of (min cutoff, Y), so each value is the exact
    aggregate of the refined panels above its cutoff.  With
    ``tail_bound(Y)``, a rigorous bound on the integral beyond Y, the
    range is widened shell by shell from max(Y, 2 * max cutoff) and each
    shell is added to every value; with None, Y is the upper limit.
    Returns (values in the order of ``cutoffs``, error).
    """
    if tail_bound is not None:
        Y = max(Y, 2.0 * max(cutoffs))
    vals, err = integrate_partials(f, _tau_edges(min(cutoffs), Y, cutoffs),
                                   cutoffs, rtol=quad.rtol)
    if tail_bound is None:
        return vals, err

    def shell(lo, hi):
        return integrate_rows(f, _tau_edges(lo, hi), rtol=quad.rtol)

    vals, errs = _widen(shell, tail_bound, vals, np.array([err]), Y, quad.rtol)
    return vals, float(errs[0])


def _require_line_edge(params):
    if params.m != 1:
        raise ConfigurationError(
            "tau-aggregates are implemented for 1-dimensional edges; the "
            "slice integral F itself supports m = 2")


def _tau_aggregate(mu, params, quad, weight, weight_pow, Y, eps, truncated,
                   tail_bound=None):
    """integral_(eps,Y) F(tau) * weight(tau) dtau with divergence guards.

    weight_pow is the small-tau power of the weight.  With a
    ``tail_bound`` the upper limit is infinity and Y is where the
    widening starts (see :func:`_tau_ladder`).  eps <= 0 integrates from
    0, which needs a convergent small-tau exponent.
    """
    if not math.isfinite(eps):
        raise DomainError("eps must be finite")
    if mu.n_atoms == 0:
        return 0.0, 0.0
    _require_line_edge(params)
    q = params.q
    p0 = _small_tau_exponent(params, weight_pow)
    if eps <= 0.0 and p0 <= -1.0:
        raise DivergenceError(
            "aggregate diverges at tau -> 0 for atomic data (exponent %.4g); "
            "pass an inner cutoff eps > 0" % p0)

    lo = eps if eps > 0.0 else min(1e-4 * Y, 1e-4)
    if tail_bound is None and not (lo < Y):
        raise ConfigurationError("empty integration range (eps >= upper limit)")

    if eps <= 0.0:
        # atoms decouple as tau -> 0, so the below-floor piece has the
        # closed form  A tau^{p0+1}/(p0+1)  with A = c_ball * sum w_i^q,
        # accurate to O((lo/gap)^2); the floor is placed deep within the
        # decoupling scale and the piece added analytically
        if mu.n_atoms > 1:
            d = mu.positions[:, None, :] - mu.positions[None, :, :]
            gaps = np.linalg.norm(d, axis=2)
            gap = float(np.min(gaps[gaps > 0])) if np.any(gaps > 0) else 1.0
        else:
            gap = min(1.0, Y)
        lo = min(lo, 1e-3 * gap, 1e-6 * Y)

    f = _tau_integrand(mu, params, quad, weight, truncated)
    vals, err = _tau_ladder(f, [lo], Y, tail_bound, quad)
    value = float(vals[0])

    if eps <= 0.0:
        a_dec = float(np.sum(mu.weights ** q)) * _c_ball(params.nu * q, params.m)
        correction = a_dec * lo ** (p0 + 1.0) / (p0 + 1.0)
        value += correction
        err += correction * min(1.0, (lo / gap) ** 2 + lo / Y) + 1e-3 * quad.rtol * abs(value)

    return value, err + 0.3 * quad.rtol * abs(value)


def M_nu_s(mu, params, quad=None, eps=0.0):
    """Aggregate integral_0^R F^R(tau) tau^{(s+nu-m)q-1} dtau.

    Positive measures supported in B_{R/2} only.  For atomic data with
    s <= m/q' the integral diverges at tau -> 0; pass eps > 0 to get the
    cutoff-regularized value (exactly the integral over (eps, R)).
    q-homogeneous in the measure: M(t mu) = t^q M(mu).
    """
    quad = quad or DEFAULT_QUAD
    if params.s is None or params.R is None:
        raise ConfigurationError("M needs params.s and params.R")
    if mu.support_radius() > 0.5 * params.R + 1e-12:
        raise DomainError("measure must be supported in B_{R/2}")
    p = (params.s + params.nu - params.m) * params.q - 1.0

    def w(tau):
        return tau ** p

    return _tau_aggregate(mu, params, quad, w, p, params.R, eps, truncated=True)


def J_AR(mu, report, q, R=None, quad=None, eps=0.0):
    """Wedge admissibility aggregate; identical to M under the substitution
    nu = N-2+2 kappa_plus, m = N-k, s = 2-(k+kappa_plus)/q'.

    The identity of the two exponents is asserted, not re-integrated.
    """
    if R is None:
        R = default_R(mu)
    params = params_from_report(report, q, R=R)
    return M_nu_s(mu, params, quad=quad, eps=eps)


def _tail_amp(mu, params):
    q = params.q
    return (mu.n_atoms ** (q - 1.0) * float(np.sum(mu.weights ** q))
            * _c_ball(params.nu * q, params.m))


def _reduction_pieces(mu, params):
    """Weight, its small-tau power, the rigorous large-tau tail bound and
    the Y at which the tail widening starts."""
    sigma, j, q = params.sigma, params.j, params.q
    p = (sigma + 1.0) * q
    wpow = p + j - 2.0 if j >= 2 else p - 1.0
    ampc = _tail_amp(mu, params)
    if j >= 2:
        tp = params.m - params.nu * q + j - 2.0
        if tp >= -1.0:
            raise DivergenceError("aggregate diverges at tau -> infinity "
                                  "(need nu*q > m + j - 1)")

        def tail_bound(Y):
            return ampc * Y ** (tp + 1.0) / (-(tp + 1.0))
        Y = max(40.0, 4.0 * abs(wpow) + 8.0 * mu.support_radius())
    else:
        c = params.m - params.nu * q + p - 1.0

        def tail_bound(Y):
            return 2.0 * ampc * Y ** c * math.exp(-Y)
        Y = 20.0

    def w(tau):
        return h_sigma_j(tau, sigma, j, q)

    return w, wpow, tail_bound, Y


def reduced_I(mu, params, quad=None, eps=0.0):
    """integral_0^inf F(tau) h_{sigma,j}(tau) dtau (the 1-D reduction)."""
    quad = quad or DEFAULT_QUAD
    if params.sigma is None or params.j is None:
        raise ConfigurationError("reduced_I needs params.sigma and params.j")
    w, wpow, tail_bound, Y = _reduction_pieces(mu, params)
    return _tau_aggregate(mu, params, quad, w, wpow, Y, eps,
                          truncated=False, tail_bound=tail_bound)


def reduced_I_ladder(mu, params, cutoffs, quad=None):
    """reduced_I at several inner cutoffs from one shared refinement.

    Each ladder value is the exact aggregate of the refined panels above
    its cutoff, and every widening shell beyond the core is added to
    every rung (see :func:`_tau_ladder`).  Returns (values, error) with
    values in the order of ``cutoffs``.
    """
    quad = quad or DEFAULT_QUAD
    if params.sigma is None or params.j is None:
        raise ConfigurationError("reduced_I needs params.sigma and params.j")
    cutoffs = [float(c) for c in cutoffs]
    if not all(0.0 < c < math.inf for c in cutoffs):
        raise DomainError("ladder cutoffs must be finite and > 0")
    if mu.n_atoms == 0:
        return np.zeros(len(cutoffs)), 0.0
    _require_line_edge(params)
    w, _, tail_bound, Y = _reduction_pieces(mu, params)
    f = _tau_integrand(mu, params, quad, w, truncated=False)
    vals, err = _tau_ladder(f, cutoffs, Y, tail_bound, quad)
    return vals, err + 0.3 * quad.rtol * float(np.max(np.abs(vals)))


def _I_angular(tau, sigma, j, q):
    """I_j(tau) = integral_0^{pi/2} e^{-tau cos f} cos^{(sigma+1)q-1} f sin^{j-2} f df."""
    pw = (sigma + 1.0) * q - 1.0
    tau = np.asarray(tau, float)
    tref = max(1.0, float(np.max(tau)))
    marks = math.pi / 2.0 - np.minimum(math.pi / 2.0, 2.0 ** np.arange(-3, 4) / tref)
    edges = merge_edges(0.0, math.pi / 2.0, np.linspace(0, math.pi / 2, 7), marks)
    x, wq = gauss_legendre(16)
    a, b = edges[:-1], edges[1:]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    phi = (mid[:, None] + half[:, None] * x).ravel()
    g = (np.exp(-tau[:, None] * np.cos(phi)[None, :])
         * np.cos(phi)[None, :] ** pw * np.sin(phi)[None, :] ** (j - 2.0))
    wfull = (half[:, None] * wq).ravel()
    return g @ wfull


def I_m_j(mu, params, quad=None, eps=0.0):
    """Exponential-weight functional over the (m+j)-dimensional half space.

    j = 1 coincides with reduced_I exactly; j >= 2 integrates the polar
    form c_{m,j} * F(tau) tau^{(sigma+1)q+j-2} I_j(tau).
    """
    quad = quad or DEFAULT_QUAD
    if params.sigma is None or params.j is None:
        raise ConfigurationError("I needs params.sigma and params.j")
    sigma, j, q = params.sigma, params.j, params.q
    if j == 1:
        return reduced_I(mu, params, quad=quad, eps=eps)
    # reduced_I's power tail, scaled by c 2^{p/2} Gamma(p): the angular
    # factor I_j ~ tau^{-p} kills the tau^p part of the weight
    _, wpow, tail_bound, Y = _reduction_pieces(mu, params)
    c = 2.0 * math.pi ** (0.5 * (j - 1.0)) / _gamma_fn(0.5 * (j - 1.0))
    p = (sigma + 1.0) * q
    scale = c * 2.0 ** (0.5 * p) * _gamma_fn(p)

    def w(tau):
        tau = np.asarray(tau, float)
        return c * tau ** (p + j - 2.0) * _I_angular(tau, sigma, j, q)

    return _tau_aggregate(mu, params, quad, w, wpow, Y, eps, truncated=False,
                          tail_bound=lambda y: scale * tail_bound(y))
