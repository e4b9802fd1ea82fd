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

from ._quad import (geometric_edges, integrate_partials, integrate_rows,
                    merge_edges, refined_nodes)
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


def _sq_dists(mu, *coords):
    """(n_atoms, n_points) squared distances from each atom to the points
    with these coordinates, one coordinate array per axis of R^m."""
    return sum((c - z[:, None]) ** 2 for c, z in zip(coords, mu.positions.T))


def _kernel_sum(tau, d2, mu, nu, q):
    """(n_tau, n_points) table of the inner kernel sum raised to q, given
    each atom's squared distances ``d2`` to the points (:func:`_sq_dists`).

    The table is built one block of tau rows at a time, which is raised
    to q while it is still in cache.  The first atom writes its term
    w (tau^2 + d2)^{-nu/2} into the block itself; each later one is
    formed in a block-sized scratch buffer and added.  For nu = 2, the
    Poisson kernel of a line edge, the term is one division
    w / (tau^2 + d2).  Every cell sees the same operations in the same
    order whatever the block size.
    """
    t2 = (tau ** 2)[:, None]
    out = np.empty((tau.size, d2.shape[1]))
    rows = max(1, _BLOCK_CELLS // d2.shape[1])
    scratch = np.empty((min(rows, tau.size), d2.shape[1]))
    for r0 in range(0, tau.size, rows):
        acc = out[r0:r0 + rows]
        for k, (w, d) in enumerate(zip(mu.weights, d2)):
            term = scratch[:acc.shape[0]] if k else acc
            np.add(t2[r0:r0 + rows], d, out=term)
            if nu == 2.0:
                np.divide(w, term, out=term)
            else:
                np.power(term, -0.5 * nu, out=term)
                term *= w
            if k:
                acc += term
        np.power(acc, q, out=acc)
    return out


def _slice_integrand_m1(tau_arr, mu, params):
    """y -> k(tau, y)^q for every tau row."""
    def f(y):
        return _kernel_sum(tau_arr, _sq_dists(mu, y), mu, params.nu, params.q)
    return f


def _widen(shell, tail_bound, vals, errs, Y, rtol):
    """Extend integrals known up to Y to infinity in one shell.

    The widening stops at the first doubling Y 2^n whose rigorous tail
    bound is negligible against the smallest value known before widening
    (the integrands are positive, so the values only grow), and
    ``shell(edges)`` -- per-row (values, errors) of the integrand on
    (Y, Y 2^n), given the doubling edges Y 2^k, k = 0..n -- is added to
    the totals in one call.  The bound at Y 2^n lands in the error; a
    bound still above ``0.3 rtol`` after 29 doublings, or at the last
    doubling below the largest double, raises :class:`AccuracyError`
    carrying the totals.
    """
    def negligible(tail, vals):
        return tail <= 0.3 * rtol * float(np.min(np.abs(vals))) or tail < 1e-300

    # a bound beyond a double is inf (or nan, as inf * 0), and not negligible
    with np.errstate(over="ignore", invalid="ignore"):
        doublings = Y * 2.0 ** np.arange(30)   # Y grows at most 2^29-fold
        doublings = doublings[doublings < np.inf]
        n = next((n for n, end in enumerate(doublings)
                  if negligible(tail_bound(end), vals)), doublings.size - 1)
        if n:
            v, e = shell(doublings[:n + 1])
            vals, errs = vals + v, errs + e
        tail = tail_bound(doublings[n])
    if negligible(tail, vals):
        return vals, errs + tail
    raise AccuracyError("tail bound %.3g beyond %.3g still above 0.3 rtol "
                        "(rtol %.3g) after %d doublings" % (tail, doublings[n], rtol, n),
                        value=vals, error=errs + tail)


def _c_ball(nuq):
    """integral of (1+u^2)^{-nuq/2} over R (used in rigorous tail bounds)."""
    return math.sqrt(math.pi) * _gamma(0.5 * (nuq - 1.0)) / _gamma(0.5 * nuq)


def _atom_edges_m1(mu, lo, hi, tau_floor):
    """Mandatory panel edges around each atom position.

    Each atom z_i gets a 4-fold ladder z_i +- r0 4^k starting at
    r0 = half of min(tau, nearest-atom distance), or 1e-9 for coincident
    atoms.  It has 20 rungs, plus as many as the smallest r0 needs to
    climb to 1e-9, so a spike narrower than 1e-9 is marked down to its
    width.  On each side the ladder stops before the neighbouring atom
    (rungs < z_{i+1} - z_i to the right, < z_i - z_{i-1} to the left),
    where the neighbour's own ladder takes over; only the outer sides of
    the two extreme atoms run up to hi - lo.  A single atom gets the
    full ladder on both sides.
    """
    zs = np.sort(mu.positions[:, 0])
    gaps = zs[1:] - zs[:-1]
    left = np.concatenate([[np.inf], gaps])[:, None]    # gap to the atom below
    right = np.concatenate([gaps, [np.inf]])[:, None]   # and above
    nearest = np.minimum(np.minimum(left, right), 1e9)
    r0 = 0.5 * np.minimum(tau_floor, nearest)
    r0[r0 == 0.0] = 1e-9
    below = math.log(1e-9, 4.0) - math.log(r0.min(), 4.0)
    ladder = r0 * 4.0 ** np.arange(20 + max(0, math.ceil(below)))
    ladder[ladder > hi - lo] = np.inf   # fails both side tests below
    z = zs[:, None]
    return np.concatenate([zs, (z + ladder)[ladder < right],
                           (z - ladder)[ladder < left]])


def _y_edges_m1(mu, Y, tau_floor, cuts=()):
    """Initial y panels of a slice integral over (-Y, Y): 8 uniform
    panels, each atom's ladder (see :func:`_atom_edges_m1`) and the cuts."""
    return merge_edges(-Y, Y, np.linspace(-Y, Y, 9),
                       _atom_edges_m1(mu, -Y, Y, tau_floor), cuts)


def F_nu_m(tau, mu, params, quad=None, truncated=True):
    """L^q integral over R^m (or the ball |y| < R) of the inner kernel sum.

    tau may be a scalar or an array; all values share one adaptively
    refined panel set.  Returns (values, errors) with tau's shape.  Both
    edge dimensions run on one kernel table, panel refinement and tail
    widening, and every value meets ``quad.rtol`` or raises
    :class:`AccuracyError`.
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


def _core(mu, params, tau_arr, truncated):
    """Y of the slice integral's first solve over (-Y, Y): R, or for the
    whole of R^m a core around the atoms that :func:`_widen` extends."""
    tau_max = float(np.max(tau_arr))
    Y = params.R if truncated else mu.support_radius() + max(10.0, 4.0 * tau_max)
    if not 2.0 * Y < math.inf:
        raise DomainError("the slice range (-%.3g, %.3g) overflows a double" % (Y, Y))
    return Y


def _F_m1(tau_arr, mu, params, quad, truncated, radii=None):
    """F on m = 1, or with ``radii`` the (radii, tau) slices of the box
    (0, R_i) x (-R_i, R_i), or of its complement if not ``truncated``:
    masks of one kernel table whose cuts +-R_i are panel edges, so each
    row is exact and meets rtol on its own however small a part of F."""
    tau_floor = float(np.min(tau_arr))
    rho = mu.support_radius()
    Y = _core(mu, params, tau_arr, truncated)
    f = table = _slice_integrand_m1(tau_arr, mu, params)
    cuts = ()
    if radii is not None:
        Y = float(np.max(radii)) if truncated else Y + float(np.max(radii))
        half, cuts = radii[:, None, None], np.concatenate([radii, -radii])

        def f(y):
            in_box = (tau_arr[:, None] < half) & (np.abs(y) < half)
            return (table(y) * (in_box == truncated)).reshape(-1, y.size)
    vals, errs = integrate_rows(f, _y_edges_m1(mu, Y, tau_floor, cuts), rtol=quad.rtol)
    if radii is not None:
        vals, errs = vals.reshape(radii.size, -1), errs.reshape(radii.size, -1)
    if truncated:
        return vals, errs
    # beyond Y > max R_i every row of a column is the same full-line row: the
    # shell Y < |y| < Y 2^n is one call with both signs folded, and the power
    # decay of the kernel bounds the tail beyond it
    nuq = params.nu * params.q
    amp = _amp(mu, params.q)

    def folded(y):
        out = table(np.concatenate([y, -y]))
        return out[:, :y.size] + out[:, y.size:]

    def shell(edges):
        return integrate_rows(folded, edges, rtol=quad.rtol)

    def tail_bound(Y):
        return 2.0 * amp * (Y - rho) ** (1.0 - nuq) / (nuq - 1.0)

    return _widen(shell, tail_bound, vals, errs, Y, quad.rtol)


def _F_m2(tau_arr, mu, params, quad, truncated):
    """F on m = 2 in polar coordinates y = r (cos t, sin t).

    The r-integral runs on the disk r < R, or for the full plane on the
    core (see :func:`_core`) that :func:`_widen` extends in one shell.  Each
    of its rounds makes one t-solve over (0, 2 pi) whose rows are all the
    (tau, r) pairs of the round, on panels marked at every atom's angle
    and radius.  Each inner row meets rtol on a positive integrand, so
    rtol |value| bounds the inner errors carried through the r weights.
    """
    tau_floor = float(np.min(tau_arr))
    rho = mu.support_radius()
    Y = _core(mu, params, tau_arr, truncated)
    radii = np.hypot(*mu.positions.T)
    angles = np.arctan2(mu.positions[:, 1], mu.positions[:, 0])
    spread = tau_floor / np.maximum(radii, tau_floor)
    t_edges = merge_edges(0.0, 2.0 * math.pi, np.linspace(0.0, 2.0 * math.pi, 9),
                          np.concatenate([angles, angles + spread,
                                          angles - spread]) % (2.0 * math.pi))

    def radial(r):
        def ring(t):
            d2 = _sq_dists(mu, np.outer(r, np.cos(t)).ravel(),
                           np.outer(r, np.sin(t)).ravel())
            return _kernel_sum(tau_arr, d2, mu, params.nu, params.q).reshape(-1, t.size)
        v, _ = integrate_rows(ring, t_edges, rtol=quad.rtol)
        return v.reshape(tau_arr.size, r.size) * r

    def shell(edges):
        v, e = integrate_rows(radial, edges, rtol=quad.rtol)
        return v, e + quad.rtol * np.abs(v)

    vals, errs = shell(merge_edges(0.0, Y, np.linspace(0.0, Y, 9), radii,
                                   radii + tau_floor, radii - tau_floor))
    if truncated:
        return vals, errs
    nuq = params.nu * params.q

    def tail_bound(Y):
        # beyond |y| = Y every atom is at least |y| - rho away: the
        # integrand is at most (mass (|y| - rho)^-nu)^q
        return 2.0 * math.pi * np.float64(mu.mass) ** params.q * (
            (Y - rho) ** (2.0 - nuq) / (nuq - 2.0)
            + rho * (Y - rho) ** (1.0 - nuq) / (nuq - 1.0))

    return _widen(shell, tail_bound, vals, errs, Y, quad.rtol)


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


def _tau_edges(lo, hi, *marks):
    """Initial panels of a tau-integral over (lo, hi): one log-graded
    panel per decade, the midpoint and the mandatory marks.

    Every tau node is a whole y x atom row of the kernel table, so the
    start is deliberately coarse; the K17-G8 refinement adds panels
    only where the error estimate asks for them.  A log-graded edge
    within a factor 1.5 of a mark (an end, the midpoint or one of
    ``marks``) is dropped, so it leaves no sliver panel beside the mark.
    """
    fixed = merge_edges(lo, hi, np.linspace(lo, hi, 3), *marks)
    graded = geometric_edges(lo, hi, per_decade=1)
    near = np.abs(np.log(graded[:, None] / fixed)).min(axis=1) < math.log(1.5)
    return merge_edges(lo, hi, graded[~near], fixed)


def _tau_ladder(f, cutoffs, Y, tail_bound, quad, marks=()):
    """Integrals of the tau-integrand ``f`` above each cutoff, one solve.

    The cutoffs and ``marks`` are mandatory panel edges of a single
    adaptive decomposition of (min cutoff, Y), so each value is the
    exact aggregate of the refined panels above its cutoff.  With
    ``tail_bound(Y)``, a rigorous bound on the integral beyond Y, the
    range is widened from Y in one shell (see :func:`_widen`) that is
    added to every value; with None, Y is the upper limit.
    Returns (values in the order of ``cutoffs``, error); a multi-row
    ``f`` takes one cutoff and returns one value and error per row.
    """
    vals, err = integrate_partials(f, _tau_edges(min(cutoffs), Y, cutoffs, marks),
                                   cutoffs, rtol=quad.rtol)
    if tail_bound is None:
        return vals, err

    def shell(edges):
        return integrate_rows(f, _tau_edges(edges[0], edges[-1]), rtol=quad.rtol)

    vals, errs = _widen(shell, tail_bound, vals, np.atleast_1d(err), Y, quad.rtol)
    return vals, errs if np.ndim(err) else float(errs[0])


def _require_line_edge(params):
    if params.m != 1:
        raise ConfigurationError(
            "tau-aggregates are implemented for 1-dimensional edges; the "
            "slice integral F itself supports m = 2")


def _M_pieces(params):
    """The aggregate pieces of M_nu_s (see :func:`_aggregate`): the weight
    tau^p, its power p = (s + nu - m) q - 1, no tail and the upper limit R."""
    p = (params.s + params.nu - params.m) * params.q - 1.0
    return (lambda tau: tau ** p), p, None, params.R


def _amp(mu, q):
    """n^{q-1} sum_i w_i^q, so that (sum_i w_i k_i)^q <= amp max_i k_i^q;
    inf where it overflows a double."""
    with np.errstate(over="ignore"):
        return np.float64(mu.n_atoms) ** (q - 1.0) * np.sum(mu.weights ** q)


def _reduction_pieces(mu, params):
    """The aggregate pieces of reduced_I (see :func:`_aggregate`): the
    weight h_{sigma,j}, its small-tau power, the rigorous large-tau tail
    bound and the Y at which the tail widening starts."""
    _require_line_edge(params)
    sigma, j, q = params.sigma, params.j, params.q
    p = (sigma + 1.0) * q
    if not math.isfinite(p):
        raise DomainError("need (sigma + 1) q finite")
    wpow = p + j - 2.0 if j >= 2 else p - 1.0
    ampc = _amp(mu, q) * _c_ball(params.nu * q)
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

    return w, wpow, tail_bound, Y


def _aggregate(mu, params, quad, pieces, cutoffs, radii=None):
    """Integrals of F(tau) * weight(tau) above each cutoff from one tau solve.

    ``pieces`` = (weight, its small-tau power, tail bound or None, Y)
    come from :func:`_M_pieces` or :func:`_reduction_pieces`.  Without a
    tail bound F is truncated to |y| < R and Y is the upper limit; with
    one F runs over the whole line, widened to infinity from max(Y, 2 max
    cutoff) (see :func:`_tau_ladder`).  ``radii`` take one cutoff and give
    one row per R_i: the box (0, R_i) x (-R_i, R_i), or its complement
    with a tail bound.  A single cutoff <= 0 integrates from 0.  Returns
    (values in the order of ``cutoffs``, error), or per radius.
    """
    _require_line_edge(params)
    weight, wpow, tail_bound, Y = pieces
    if radii is not None:
        radii = np.asarray(radii, float)
        Y = max(Y, float(np.max(radii)))
    p0 = params.m - params.nu * params.q + wpow   # power of F * weight at tau -> 0
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

    f = _tau_integrand(mu, params, quad, weight, tail_bound is None, radii)
    vals, err = _tau_ladder(f, cutoffs, Y, tail_bound, quad, () if radii is None else radii)
    if floor:
        a_dec = float(np.sum(mu.weights ** params.q)) * _c_ball(params.nu * params.q)
        correction = a_dec * lo ** (p0 + 1.0) / (p0 + 1.0)
        vals = vals + correction
        err += (correction * min(1.0, (lo / gap) ** 2 + lo / Y)
                + 1e-3 * quad.rtol * abs(vals[0]))

    # The flat 0.3 rtol |value| term stands in for the inner F error,
    # which _tau_integrand drops (fv, _ = F_nu_m(...)).  On 180 seeded
    # unit-atom ladders against the closed form (a in [-0.5, 0.6],
    # q in [1.6, 3], rtol 1e-8, 1e-6, 1e-4) the worst true/reported error
    # ratio is 0.13 with the term and 0.90 without it; with the former
    # start grid of 6 log panels per decade and 9 uniform edges it was
    # 0.11 and 273.
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
    """A fixed tensor rule for M_nu_s over (eps, R) x (-R, R), eps > 0.

    The tau panels are the final panels of one adaptive solve of M's
    tau-integrand at ``mu`` from the :func:`_tau_edges` start; the y
    panels are one refinement of the slice integrand at all of their
    tau nodes from the :func:`_F_m1` start.  Returns the K17 tau nodes,
    their weights times the tau weight of M, and the K17 y nodes and
    weights: summing k(tau, y)^q against both weights gives M(mu) to
    ``quad.rtol`` on nodes that no longer move with the weights of mu.
    """
    w = _M_pieces(params)[0]
    R = params.R
    tau, tw = refined_nodes(_tau_integrand(mu, params, quad, w, truncated=True),
                            _tau_edges(eps, R), quad.rtol)
    y, yw = refined_nodes(_slice_integrand_m1(tau, mu, params),
                          _y_edges_m1(mu, R, float(tau.min())), quad.rtol)
    return tau, tw * w(tau), y, yw


def reduced_I(mu, params, quad=None, eps=0.0):
    """integral_0^inf F(tau) h_{sigma,j}(tau) dtau (the 1-D reduction)."""
    quad = quad or DEFAULT_QUAD
    if params.sigma is None or params.j is None:
        raise ConfigurationError("reduced_I needs params.sigma and params.j")
    return _at_cutoff(mu, params, quad, _reduction_pieces(mu, params), eps)


def reduced_I_ladder(mu, params, cutoffs, quad=None):
    """reduced_I at several inner cutoffs from one shared refinement.

    Each ladder value is the exact aggregate of the refined panels above
    its cutoff, and every widening shell beyond the core is added to
    every rung (see :func:`_aggregate`).  Returns (values, error) with
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
    return _aggregate(mu, params, quad, _reduction_pieces(mu, params), cutoffs)
