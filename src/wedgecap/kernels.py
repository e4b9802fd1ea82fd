"""Singular edge kernels and the weighted integral functionals built on them.

The building block is the fractional-order kernel

    k_{nu,m}[mu](tau, zeta) = sum_i w_i tau^{nu-m} (tau^2 + |zeta-z_i|^2)^{-nu/2}

for an atomic measure mu on R^m; :func:`martin_kernel` is the wedge's
positive harmonic kernel with its pole on the edge.  On top of the edge
kernel sit

    F_{nu,m}[mu](tau)        the L^q slice integral over R^m (or the ball B_R),
    M_{nu,s}^m(mu; R)        the tau-weighted aggregate on (0, R),
    reduced_I                the 1-D reduction, with weight h_{sigma,j}, of the
                             exponential-weight functional on the
                             (m+j)-dimensional half space (for j = 1 the
                             functional itself).

Atoms make the functionals singular at tau -> 0; whenever the parameter
combination makes an integral divergent the functions refuse to chase it
and demand an explicit inner cutoff ``eps`` (the cutoff-scaling API used
by the experiment layer).  Every tau-aggregate -- above one cutoff, on a
ladder of cutoffs, or on boxes of several radii -- is one call of
:func:`_aggregate`.  All quadrature is deterministic panel refinement
from :mod:`._quad`; every functional returns ``(value, error_estimate)``.

Normalization: the Martin-kernel constant is fixed to c_A = 1 and the
opening eigenfunction is max-normalized.  Every downstream statement is
a two-sided estimate up to constants, so this choice only fixes a gauge.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._quad import (integrate_partials, integrate_rows, merge_edges, panel_width,
                    refined_nodes)
from .errors import (AccuracyError, ConfigurationError, DivergenceError,
                     DomainError, SingularityError)
from .exponents import bookkeeping_identity_gap

C_A = 1.0


def _gamma(x):
    """Gamma(x) for x > 0, inf where it overflows a double (x > 171.6)."""
    try:
        return math.gamma(x)
    except OverflowError:
        return math.inf


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
# the Martin kernel


def martin_kernel(x, z, report, omega=None):
    """Normalized positive harmonic kernel of the wedge with pole at z.

    x = (x', x'') in the wedge, one point or a (..., N) array of points;
    z on the edge (intrinsic coordinates).  ``omega`` evaluates the
    opening eigenfunction on one unit vector of R^k; for k = 2 the closed
    form sin(kappa_plus * theta_1) is used when omega is omitted.
    """
    k = report.k
    x = np.asarray(x, float)
    pts = x.reshape(-1, x.shape[-1])
    xp, xpp = pts[:, :k], pts[:, k:]
    z = np.atleast_1d(np.asarray(z, float))
    rp = np.linalg.norm(xp, axis=1)
    dist2 = rp ** 2 + np.sum((xpp - z) ** 2, axis=1)
    on_edge = rp == 0.0
    if np.any(on_edge & np.all(np.isclose(xpp, z), axis=1)) or np.any(dist2 == 0.0):
        raise SingularityError("kernel pole reached")
    if omega is None:
        if k != 2:
            raise ConfigurationError("omega handle required for k != 2")
        w = np.sin(report.kappa_plus * (np.arctan2(xp[:, 0], xp[:, 1]) % (2.0 * math.pi)))
    else:
        w = np.array([0.0 if r == 0.0 else float(omega(v / r)) for v, r in zip(xp, rp)])
    out = np.where(on_edge, 0.0, C_A * rp ** report.kappa_plus * w
                   * dist2 ** (-0.5 * report.nu))
    return float(out[0]) if x.ndim == 1 else out.reshape(x.shape[:-1])


# --------------------------------------------------------------------------
# F_{nu,m}: the L^q slice integral


_BLOCK_CELLS = 1 << 15   # table cells per block: accumulator + scratch fit in L2


def _kernel_sum(shape, base, mu, nu, q):
    """(n_tau, n_points) table of the inner kernel sum raised to q.

    ``base(k, rows, out)`` writes tau^2 + d^2 (or 1 + (d / tau)^2) into
    ``out``, d the distances from atom k to the points of the tau rows
    ``rows`` (a slice).  Blocks of rows are raised to q while in cache; the
    first atom writes w (tau^2 + d^2)^{-nu/2} into the block, each later one
    goes through a scratch block and is added, at nu = 2 (the Poisson
    kernel of a line edge) as one division.  Every cell sees the same
    operations whatever the block size.
    """
    out = np.empty(shape)
    rows = max(1, _BLOCK_CELLS // shape[1])
    scratch = np.empty((min(rows, shape[0]), shape[1]))
    for r0 in range(0, shape[0], rows):
        block = slice(r0, r0 + rows)
        acc = out[block]
        for k, w in enumerate(mu.weights):
            term = scratch[:acc.shape[0]] if k else acc
            base(k, block, term)
            if nu == 2.0:
                np.divide(w, term, out=term)
            else:
                np.power(term, -0.5 * nu, out=term)
                term *= w
            if k:
                acc += term
        np.power(acc, q, out=acc)
    return out


def _tail_end(tail_bound, low, Y, rtol):
    """The end of a range from Y to infinity (the plane's radii, the tau
    tails), fixed before its one solve: the first doubling Y 2^n, n <= 29
    and a double, whose rigorous tail bound is at most 0.3 rtol times
    ``low``, a closed-form lower bound on the smallest value, or below
    1e-300.  Returns the doublings Y 2^k, k = 0..n, and the bound there."""
    # a bound beyond a double is inf (or nan, as inf * 0), and not negligible
    with np.errstate(over="ignore", invalid="ignore"):
        doublings = Y * 2.0 ** np.arange(30)
        doublings = doublings[doublings < np.inf]
        n = next((n for n, end in enumerate(doublings)
                  if tail_bound(end) <= max(0.3 * rtol * low, 1e-300)), doublings.size - 1)
        return doublings[:n + 1], tail_bound(doublings[n])


def _add_tail(vals, errs, tail, ends, low, rtol):
    """The solved values with the tail bound of :func:`_tail_end` in their
    errors; a bound still above 0.3 rtol of the smallest value (the end
    found none within the budget) raises :class:`AccuracyError`."""
    if tail <= max(0.3 * rtol * max(low, float(np.min(np.abs(vals)))), 1e-300):
        return vals, errs + tail
    raise AccuracyError("tail bound %.3g beyond %.3g still above 0.3 rtol (rtol %.3g) "
                        "after %d doublings" % (tail, ends[-1], rtol, ends.size - 1),
                        value=vals, error=np.atleast_1d(errs + tail))


def _c_ball(nuq):
    """integral of (1+u^2)^{-nuq/2} over R (used in rigorous tail bounds)."""
    return math.sqrt(math.pi) * _gamma(0.5 * (nuq - 1.0)) / _gamma(0.5 * nuq)


def F_nu_m(tau, mu, params, quad=None, truncated=True):
    """L^q integral over R^m (or the ball |y| < R) of the inner kernel sum.

    tau may be a scalar or an array; all values share one adaptively
    refined panel set.  Returns (values, errors) with tau's shape.  On
    the line every value meets ``quad.rtol`` or raises AccuracyError; on
    the plane the radial start panels miss an atom's spike at small tau:
    one atom at the origin (nu = 3, q = 1.5, whole plane) comes out 42 %
    below 2 pi tau^{-2.5} / 2.5 at tau = 1e-6 and 1e-8 with a reported
    error of 1e-6 relative (ROADMAP item 21).
    """
    _require_dimension(mu, params)
    quad = quad or DEFAULT_QUAD
    tau_arr = np.atleast_1d(np.asarray(tau, float))
    if not np.all((0.0 < tau_arr) & (tau_arr < np.inf)):
        raise DomainError("tau must be finite and > 0")
    if mu.mass == 0.0:
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


def _slice_m1(tau, rb, mu, params, quad, truncated):
    """The m = 1 slice integrand of every tau row on shared reference
    panels, in sinh coordinates (Johnston & Elliott, IJNME 62 (2005) 564).

    Each distinct atom z_i of positive weight has a left and a right
    Voronoi half-cell (side -1, +1), the panel (h, h + 1) in u, where
    y = z_i + side tau sinh(s), s = s_lo + (s_hi - s_lo)(u - h): the own
    term tau^{1-nu q} cosh^{1-nu q}(s) is analytic and decays exponentially,
    the others are smooth.  Distances are (z_i - z_j) / tau + side sinh(s)
    in units of tau, never taken from a rounded y, and the integrand
    leaves out tau^{1-nu q}.  Row r keeps |y| < rb_r if ``truncated``, else
    |y| >= rb_r (atoms inside); rb_r = -inf keeps nothing, or everything.
    Every atom is at least tau sinh(s) away, so a half-cell holds at most
    mass^q tau^{1-nu q} 2^{nu q-1} e^{-(nu q-1) s} / (nu q-1) beyond s and at
    least w^q tau^{1-nu q} e^{-(nu q-1) s_lo} / (nu q-1) from its atom's
    weight w: it ends where the ratio is rtol / 100, whatever tau, or is
    capped where y or sinh(s)^2 leave the doubles.  The own term has its
    poles at s = +-i pi/2, so a half-cell starts with as few equal panels
    as are no wider in s than :func:`panel_width` at rtol in every row.
    Returns the integrand, its start edges, ``cells(u)`` (each node's
    atom, side sinh(s) and dy/du / tau), the rows' tail bounds in units of
    tau^{1-nu q} and which rows were capped.
    """
    zs, inv = np.unique(mu.positions[:, 0], return_inverse=True)
    w = np.bincount(inv.ravel(), weights=mu.weights)
    zs, w = zs[w > 0.0], w[w > 0.0]
    centre, side = np.repeat(zs, 2), np.tile([-1.0, 1.0], zs.size)
    length = np.concatenate([[np.inf], np.repeat(0.5 * np.diff(zs), 2), [np.inf]])
    t, rb, sc = tau[:, None], rb[:, None], side * centre
    if truncated:
        a, b = np.maximum(0.0, -rb - sc), np.minimum(length, rb - sc)
    else:
        a, b = np.maximum(0.0, rb - sc), length
    with np.errstate(over="ignore"):   # a subnormal tau overflows here and in F
        s_lo, s_end = (np.where(a < b, np.arcsinh(v / t), 0.0) for v in (a, b))
        inv_tau = 1.0 / t
    nuq, q = params.nu * params.q, params.q
    delta = (q * np.log(mu.mass / np.repeat(w, 2)) + (nuq - 1.0) * math.log(2.0)
             - math.log(1e-2 * quad.rtol)) / (nuq - 1.0)
    s_cap = np.minimum(354.0, 709.0 - np.log(t))   # sinh(s)^2 and y stay doubles
    s_hi = np.minimum(s_end, np.minimum(s_lo + delta, s_cap))
    cut = s_hi < s_end
    if np.any(cut & (s_cap <= s_lo)):
        raise DomainError("the slice range overflows a double at tau = %.3g"
                          % float(np.max(tau)))
    capped = np.any(cut & (s_hi < s_lo + delta), axis=1)
    tail = np.where(cut, np.exp(q * math.log(mu.mass)
                                - (nuq - 1.0) * (s_hi - math.log(2.0))), 0.0)
    ds = s_hi - s_lo
    counts = np.maximum(1, np.ceil(ds.max(axis=0) / panel_width(quad.rtol))).astype(int)
    edges = np.concatenate([h + np.arange(n) / n for h, n in enumerate(counts)]
                           + [[counts.size]])

    def cells(u):
        h = np.minimum(u.astype(int), centre.size - 1)
        dsh = ds[:, h]
        s = s_lo[:, h] + dsh * (u - h)
        return centre[h], side[h] * np.sinh(s), np.cosh(s) * dsh

    def f(u):
        at, x, jac = cells(u)
        off = at - mu.positions[:, :1]

        def base(k, rows, out):
            np.multiply(inv_tau[rows], off[k], out=out)
            out += x[rows]
            np.square(out, out=out)
            out += 1.0
        return _kernel_sum(x.shape, base, mu, params.nu, q) * jac

    return f, edges, cells, tail.sum(axis=1) / (nuq - 1.0), capped


def _F_m1(tau_arr, mu, params, quad, truncated, radii=None):
    """F on m = 1, or with ``radii`` the (radii, tau) slices of the box
    (0, R_i) x (-R_i, R_i), or of its complement if not ``truncated``, in
    one solve of :func:`_slice_m1` where each row meets rtol on its own;
    a row beyond the doubles, or with a tail bound above 0.3 rtol where its
    cells are capped (nu q near 1), raises :class:`AccuracyError`."""
    if radii is None:
        tau, rb = tau_arr, np.full(tau_arr.size, params.R if truncated else -np.inf)
    else:
        tau = np.tile(tau_arr, radii.size)
        rb = np.where(tau_arr < radii[:, None], radii[:, None], -np.inf).ravel()
    f, edges, _, tail, capped = _slice_m1(tau, rb, mu, params, quad, truncated)
    vals, errs = integrate_rows(f, edges, rtol=quad.rtol)
    with np.errstate(over="ignore"):
        scale = tau ** (1.0 - params.nu * params.q)
        vals, errs, tail = vals * scale, (errs + tail) * scale, tail * scale
    if not np.all(np.isfinite(vals + errs)):
        raise AccuracyError("integrand overflowed: F beyond the doubles at tau = %.3g"
                            % float(np.min(tau)), value=vals, error=errs)
    if np.any(capped & (tail > 0.3 * quad.rtol * vals)):
        raise AccuracyError("slice tail bound %.3g above 0.3 rtol of the value %.3g where "
                            "the cells leave the doubles"
                            % (float(np.max(tail)), float(np.min(vals))), value=vals, error=errs)
    shape = (-1,) if radii is None else (radii.size, -1)
    return vals.reshape(shape), errs.reshape(shape)


def _F_m2(tau_arr, mu, params, quad, truncated):
    """F on m = 2 in polar coordinates y = r (cos t, sin t).

    The r-integral runs on the disk r < R, or for the full plane to the
    end :func:`_tail_end` fixes, from a linear core around the atoms and
    one panel per doubling.  Each of its rounds makes one t-solve over
    (0, 2 pi) whose rows are all the (tau, r) pairs of the round, on
    panels marked at every atom's angle and radius.  Each inner row meets
    rtol on a positive integrand, so rtol |value| bounds the inner errors
    carried through the r weights.
    """
    tau_floor = float(np.min(tau_arr))
    rho = mu.support_radius()
    Y = params.R if truncated else rho + max(10.0, 4.0 * float(np.max(tau_arr)))
    if not 2.0 * Y < math.inf:
        raise DomainError("the slice range (-%.3g, %.3g) overflows a double" % (Y, Y))
    radii = np.hypot(*mu.positions.T)
    angles = np.arctan2(mu.positions[:, 1], mu.positions[:, 0])
    spread = tau_floor / np.maximum(radii, tau_floor)
    t_edges = merge_edges(0.0, 2.0 * math.pi, np.linspace(0.0, 2.0 * math.pi, 9),
                          np.concatenate([angles, angles + spread,
                                          angles - spread]) % (2.0 * math.pi))

    t2 = (tau_arr ** 2)[:, None]

    def radial(r):
        def ring(t):
            d2 = ((np.outer(r, np.cos(t)).ravel() - mu.positions[:, :1]) ** 2
                  + (np.outer(r, np.sin(t)).ravel() - mu.positions[:, 1:]) ** 2)

            def base(k, rows, out):
                np.add(t2[rows], d2[k], out=out)
            return _kernel_sum((tau_arr.size, d2.shape[1]), base, mu, params.nu,
                               params.q).reshape(-1, t.size)
        v, _ = integrate_rows(ring, t_edges, rtol=quad.rtol)
        return v.reshape(tau_arr.size, r.size) * r

    ends = np.array([Y])
    if not truncated:
        nuq = params.nu * params.q

        def tail_bound(Y):
            # beyond |y| = Y every atom is at least |y| - rho away: the
            # integrand is at most (mass (|y| - rho)^-nu)^q
            return 2.0 * math.pi * np.float64(mu.mass) ** params.q * (
                (Y - rho) ** (2.0 - nuq) / (nuq - 2.0)
                + rho * (Y - rho) ** (1.0 - nuq) / (nuq - 1.0))

        with np.errstate(all="ignore"):   # F >= each atom's own term; inf reads 0
            low = np.nan_to_num(np.sum(mu.weights ** params.q) * 2.0 * math.pi * np.max(
                tau_arr) ** (2.0 - nuq) / (nuq - 2.0), nan=0.0, posinf=0.0)
        ends, tail = _tail_end(tail_bound, low, Y, quad.rtol)
    vals, errs = integrate_rows(radial, merge_edges(
        0.0, ends[-1], np.linspace(0.0, Y, 9), radii, radii + tau_floor,
        radii - tau_floor, ends), rtol=quad.rtol)
    errs = errs + quad.rtol * np.abs(vals)
    if truncated:
        return vals, errs
    return _add_tail(vals, errs, tail, ends, low, quad.rtol)


# --------------------------------------------------------------------------
# weight functions and tau-aggregates


def h_sigma_j(tau, sigma, j, q):
    """Reduction weight: tau^{(sigma+1)q+j-2} (1+tau)^{-(sigma+1)q} for j >= 2,
    e^{-tau} tau^{(sigma+1)q-1} for j = 1.

    Each is formed so that no factor overflows where the weight itself
    is a double: tau^{j-2} (tau/(1+tau))^p as tau^{j-2} exp(-p log1p(1/tau)),
    which keeps its relative accuracy where p/tau is small but p is not,
    and j = 1 as one exponential of (p-1) log tau - tau.
    """
    tau = np.asarray(tau, float)
    p = (sigma + 1.0) * q
    if j >= 2:
        return tau ** (j - 2.0) * np.exp(-p * np.log1p(1.0 / tau))
    return np.exp((p - 1.0) * np.log(tau) - tau)


def _tau_integrand(mu, params, quad, weight, truncated, radii=None):
    """tau -> F(tau) * weight(tau) as one quadrature row, or with
    ``radii`` as one row per radius of the box slices (see :func:`_F_m1`)."""
    def f(tau):
        fv, _ = (F_nu_m(tau, mu, params, quad=quad, truncated=truncated)
                 if radii is None else _F_m1(tau, mu, params, quad, truncated, radii))
        return np.atleast_2d(fv) * weight(np.asarray(tau, float))
    return f


def _tau_edges(lo, hi, rtol, *marks):
    """Initial panels of a tau-integral over (lo, hi), as edges in
    t = log tau: the marks (the ends and ``marks``) and, in each gap
    between consecutive marks, as few equal panels as are no wider than
    :func:`panel_width` at ``rtol`` (F(e^t) is analytic in |Im t| < pi/2),
    so no start panel is wider than the width.

    Every tau node is a whole y x atom row of the kernel table, so the
    start is as coarse as rtol allows; the K17-G8 refinement adds panels
    only where the error estimate asks for them.  Only the places where
    the integrand's slice jumps (the box radii) need to be marks; a
    ladder cutoff is not one (see :func:`_tau_ladder`).  Each mark c
    enters as np.log(c) exactly.
    """
    fixed = np.log(merge_edges(lo, hi, *marks))
    width = panel_width(rtol)
    gaps = [np.linspace(t0, t1, math.ceil((t1 - t0) / width) + 1)[:-1]
            for t0, t1 in zip(fixed[:-1], fixed[1:])]
    return np.append(np.concatenate(gaps), fixed[-1])


def _in_log_tau(f):
    """The tau-integrand ``f`` as g(t) = f(e^t) e^t in t = log tau, where
    a power tau^{a-1} at tau -> 0 becomes the analytic e^{a t}."""
    def g(t):
        tau = np.exp(t)
        return f(tau) * tau
    return g


def _decade_low(mu, params, weight, a):
    """Closed-form lower bound on the integral of F(tau) weight(tau) over
    (a, 10 a), F over the whole line: F >= sum_i w_i^q c_ball(nu q)
    tau^{1-nu q}, each atom's own term as (x + y)^q >= x^q + y^q, and
    every weight is log-concave in log tau, so at least its smaller end
    value; the integral of tau^{1-nu q} is a^x (10^x - 1) / x, x = 2 - nu q,
    and a^x log 10 at x = 0.  A bound beyond the doubles reads 0."""
    x = 2.0 - params.nu * params.q
    decade = math.expm1(x * math.log(10.0)) / x if x else math.log(10.0)
    with np.errstate(all="ignore"):
        low = (np.sum(mu.weights ** params.q) * _c_ball(params.nu * params.q)
               * np.min(weight(np.array([a, 10.0 * a]))) * np.float64(a) ** x * decade)
    return float(low) if np.isfinite(low) else 0.0


def _tau_ladder(f, cutoffs, end, quad, marks=()):
    """Integrals of the tau-integrand ``f`` from each cutoff up to ``end``
    in one solve in t = log tau (see :func:`_in_log_tau`) on the panels of
    :func:`_tau_edges` from the lowest cutoff, with ``marks`` as edges.
    The other cutoffs are not edges: F * weight is analytic across a
    cutoff, which only limits the integral, so each rung is the refined
    panels above it plus the integral of its panel's K17 interpolant
    above the cutoff (see :func:`integrate_partials`).  Returns
    (values in the order of ``cutoffs``, error); a multi-row ``f`` takes
    one cutoff and returns one value and error per row."""
    return integrate_partials(_in_log_tau(f), _tau_edges(min(cutoffs), end, quad.rtol, marks),
                              np.log(cutoffs), rtol=quad.rtol)


def _require_line_edge(params):
    if params.m != 1:
        raise ConfigurationError(
            "tau-aggregates are implemented for 1-dimensional edges; the "
            "slice integral F itself supports m = 2")


def _require_dimension(mu, params):
    if mu.m != params.m:
        raise DomainError("the measure lives on R^%d but the edge has m = %d"
                          % (mu.m, params.m))


def _M_pieces(params):
    """The aggregate pieces of M_nu_s (see :func:`_aggregate`): the weight
    tau^p, p = (s + nu - m) q - 1, the power of F tau^p at tau -> 0, no
    tail and the upper limit R."""
    p = (params.s + params.nu - params.m) * params.q - 1.0
    return (lambda tau: tau ** p), params.m - params.nu * params.q + p, None, params.R


def _reduction_pieces(mu, params):
    """The aggregate pieces of reduced_I (see :func:`_aggregate`): the
    weight h_{sigma,j}, the power of F h_{sigma,j} at tau -> 0, the
    rigorous large-tau tail bound and the Y from which :func:`_tail_end`
    searches the end.  Y sits at the weight's bulk: for j >= 2 the factor
    (tau / (1 + tau))^p stays near 0 until tau is of order p."""
    _require_line_edge(params)
    sigma, j, q = params.sigma, params.j, params.q
    p = (sigma + 1.0) * q
    if not math.isfinite(p):
        raise DomainError("need (sigma + 1) q finite")
    wpow = p + j - 2.0 if j >= 2 else p - 1.0
    with np.errstate(over="ignore"):   # (sum_i w_i k_i)^q <= n^{q-1} sum_i w_i^q max_i k_i^q
        ampc = np.float64(mu.n_atoms) ** (q - 1.0) * np.sum(mu.weights ** q) * _c_ball(
            params.nu * q)
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
            return 2.0 * ampc * np.exp(c * np.log(Y) - Y)
        Y = 20.0

    def w(tau):
        return h_sigma_j(tau, sigma, j, q)

    return w, params.m - params.nu * q + wpow, tail_bound, Y


def _aggregate(mu, params, quad, pieces, cutoffs, radii=None):
    """Integrals of F(tau) * weight(tau) above each cutoff from one tau solve.

    ``pieces`` = (weight, the power p0 of F * weight at tau -> 0, tail
    bound or None, Y) come from :func:`_M_pieces` or :func:`_reduction_pieces`.
    Without a tail bound F is truncated to |y| < R and Y is the upper limit;
    with one F runs over the whole line up to the end :func:`_tail_end`
    finds from max(Y, 2 max cutoff) against :func:`_decade_low` of the
    decades above the largest cutoff or radius and above Y.  ``radii`` take
    one cutoff and give one row per R_i: the box (0, R_i) x (-R_i, R_i), or
    its complement with a tail bound.  A single cutoff <= 0 integrates from
    0.  The solve (:func:`_tau_ladder`) starts at the lowest cutoff with
    the radii as tau edges; a higher cutoff is no edge, and its rung is
    the refined panels above it plus its panel's interpolant partial.
    Returns (values in the order of ``cutoffs``, error), or per radius.
    """
    _require_line_edge(params)
    _require_dimension(mu, params)
    weight, p0, tail_bound, Y = pieces
    marks = ()
    if radii is not None:
        marks = radii = np.asarray(radii, float)
        Y = max(Y, float(np.max(radii)))
    if 0.0 < min(cutoffs) < np.finfo(float).tiny:
        raise DomainError("inner cutoff eps = %.3g is below the smallest normal double %.3g"
                          % (min(cutoffs), np.finfo(float).tiny))
    floor = min(cutoffs) <= 0.0
    if floor:
        if p0 <= -1.0:
            raise DivergenceError(
                "aggregate diverges at tau -> 0 for atomic data (exponent %.4g); "
                "pass an inner cutoff eps > 0" % p0)
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
        lo = min(1e-4, 1e-3 * gap, 1e-6 * Y)
        cutoffs = [lo]
    elif tail_bound is None and not max(cutoffs) < Y:
        raise ConfigurationError("empty integration range (eps >= upper limit)")
    if tail_bound is not None:
        Y = max(Y, 2.0 * max(cutoffs))
    if not 2.0 * Y < math.inf:
        raise DomainError("the tau range (%.3g, %.3g) overflows a double"
                          % (min(cutoffs), Y))
    ends = [Y]
    if tail_bound is not None:
        low = max(_decade_low(mu, params, weight, a) for a in (max([*cutoffs, *marks]), Y))
        ends, tail = _tail_end(tail_bound, low, Y, quad.rtol)

    f = _tau_integrand(mu, params, quad, weight, tail_bound is None, radii)
    vals, err = _tau_ladder(f, cutoffs, ends[-1], quad, marks)
    if tail_bound is not None:
        vals, err = _add_tail(vals, err, tail, ends, low, quad.rtol)
    if floor:
        a_dec = float(np.sum(mu.weights ** params.q)) * _c_ball(params.nu * params.q)
        correction = a_dec * lo ** (p0 + 1.0) / (p0 + 1.0)
        vals = vals + correction
        err += (correction * min(1.0, (lo / gap) ** 2 + lo / Y)
                + 1e-3 * quad.rtol * abs(vals[0]))

    # The flat 0.3 rtol |value| term stands in for the inner F error,
    # which _tau_integrand drops (fv, _ = F_nu_m(...)); in log tau the
    # tau estimate is far below that error and no longer covers it.  On
    # 180 seeded unit-atom ladders against the closed form (a in
    # [-0.5, 0.6], q in [1.6, 3], log10 eps in [-2.5, -1], 60 each at
    # rtol 1e-8, 1e-6, 1e-4) the worst true/reported error ratio is 0.11,
    # 0.017 and 0.016 with the term and 12.8, 787 and 6.9e4 without it;
    # on linear-tau panels the same draws gave 0.081, 0.015, 0.015 with
    # it and 0.48, 0.20, 0.64 without.
    scale = np.abs(vals) if radii is not None else float(np.max(np.abs(vals)))
    return vals, err + 0.3 * quad.rtol * scale


def _at_cutoff(mu, params, quad, pieces, eps):
    """The aggregate of ``pieces`` above one inner cutoff eps (from 0 if
    eps <= 0) as floats (value, error); an empty measure gives zeros."""
    if not math.isfinite(eps):
        raise DomainError("eps must be finite")
    if mu.n_atoms == 0:
        return 0.0, 0.0
    vals, err = _aggregate(mu, params, quad, pieces, [eps])
    return float(vals[0]), float(err)


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
    return _at_cutoff(mu, params, quad, _M_pieces(params), eps)


def _M_nodes(mu, params, quad, eps):
    """A fixed tensor rule for M_nu_s over (eps, R) x (-R, R), eps > 0:
    the final panels of M's own log-tau solve at ``mu`` (the panels and
    integrand of :func:`_tau_ladder`) and, at all their tau nodes, of
    :func:`_slice_m1`.  Returns the K17 nodes mapped to tau, their
    weights times dtau/dt, the tau weight of M and tau^{-nu q}, and per
    tau row the distances d of the y nodes to the atoms in units of tau,
    formed as in :func:`_slice_m1`, and the y weights: M(mu) to
    ``quad.rtol`` is the sum of (sum_i w_i (1 + d_i^2)^{-nu/2})^q against
    both, on nodes that do not move with the weights."""
    w = _M_pieces(params)[0]
    t, tw = refined_nodes(_in_log_tau(_tau_integrand(mu, params, quad, w, truncated=True)),
                          _tau_edges(eps, params.R, quad.rtol), quad.rtol)
    tau = np.exp(t)
    f, edges, cells, _, _ = _slice_m1(tau, np.full(tau.size, params.R), mu, params,
                                      quad, truncated=True)
    u, uw = refined_nodes(f, edges, quad.rtol)
    at, x, jac = cells(u)
    d = (1.0 / tau)[:, None, None] * (at[:, None] - mu.positions[:, 0]) + x[:, :, None]
    return (tau, tw * w(tau) * tau ** (1.0 - params.nu * params.q), d,
            uw * tau[:, None] * jac)


def reduced_I(mu, params, quad=None, eps=0.0):
    """integral_0^inf F(tau) h_{sigma,j}(tau) dtau (the 1-D reduction)."""
    quad = quad or DEFAULT_QUAD
    if params.sigma is None or params.j is None:
        raise ConfigurationError("reduced_I needs params.sigma and params.j")
    return _at_cutoff(mu, params, quad, _reduction_pieces(mu, params), eps)


def reduced_I_ladder(mu, params, cutoffs, quad=None):
    """reduced_I at several inner cutoffs from one shared refinement.

    All rungs come from one tau solve from the lowest cutoff to the end
    fixed before the solve: each is the refined panels above its cutoff
    plus the integral of its panel's K17 interpolant from the cutoff up,
    whose distance to the G8 interpolant's is in the error, and so is
    the tail bound beyond the end (see :func:`_aggregate`).  Returns
    (values, error) with values in the order of ``cutoffs``.
    """
    quad = quad or DEFAULT_QUAD
    if params.sigma is None or params.j is None:
        raise ConfigurationError("reduced_I needs params.sigma and params.j")
    cutoffs = [float(c) for c in cutoffs]
    if not all(0.0 < c < math.inf for c in cutoffs):
        raise DomainError("ladder cutoffs must be finite and > 0")
    if mu.n_atoms == 0:
        return np.zeros(len(cutoffs)), 0.0
    return _aggregate(mu, params, quad, _reduction_pieces(mu, params), cutoffs)
