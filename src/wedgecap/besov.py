"""Besov norms: a negative-order proxy for measures, positive norms for functions.

The negative-order proxy is the half-space extension functional

    I(mu) = integral over R_+^n of |P_n[mu](y)|^q e^{-y_1} y_1^{s q - 1} dy,

where P_n is the Poisson kernel of the half space R_+^n, n = m + 1, and
mu lives on the boundary R^m.  I(mu)^{1/q} is equivalent to the
B^{-s,q}(R^m) norm up to constants, and this package standardizes on the
proxy itself: every downstream statement is a two-sided estimate, so no
exact norm values are ever claimed.

Near y_1 = 0 the atoms of a measure decouple and the integrand of the
proxy is a power A y_1^{a-1}, a = q(s - m/q'), A > 0 for a nonzero
measure.  So the proxy of any atomic measure is finite exactly when
a > 0, as for a Dirac mass; :func:`besov_neg_proxy` takes its verdict
from this exponent, and its cutoff ladder measures the rate instead of
chasing the integral.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._quad import fit_loglog
from .errors import ConfigurationError, DomainError, ResolutionError
from .kernels import (DEFAULT_QUAD, KernelParams, _gamma, _reduction_pieces,
                      reduced_I_ladder)


def poisson_constant(n):
    """gamma_n with integral of gamma_n y_1 (y_1^2+|z|^2)^{-n/2} dz = 1."""
    return _gamma(0.5 * n) / math.pi ** (0.5 * n)


@dataclass(frozen=True)
class NormProxyResult:
    """Cutoff-ladder evaluation of the negative-order proxy."""

    value: float
    cutoff: float
    divergent: bool
    fitted_exponent: float | None
    exponent_ci: float | None
    r_squared: float | None
    ladder: tuple


def besov_neg_proxy(mu, s, q, eps=1e-2, quad=None):
    """Negative-order norm proxy of an atomic measure on R^m.

    Evaluates I_eps (the extension integral restricted to y_1 > eps) on
    the ladder eps, eps/2, eps/4, eps/8 and reports the fitted log-log
    slope.  ``divergent`` is the exact rule a <= 0 for the small-y_1
    power y_1^{a-1} of the integrand, a = q(s - m/q'), read from the
    aggregate's own pieces; the fit decides nothing.

    ``value`` is I at the requested cutoff; q-homogeneous and
    translation-invariant at fixed cutoff.
    """
    if not (s > 0.0):
        raise DomainError("need s > 0")
    if not (q > 1.0):
        raise DomainError("need q > 1")
    if not (0.0 < eps < 1.0):
        raise DomainError("need eps in (0, 1)")
    quad = quad or DEFAULT_QUAD
    n = mu.m + 1
    gn = poisson_constant(n)
    params = KernelParams(nu=float(n), m=mu.m, q=q, sigma=s, j=1)
    cutoffs = [eps / 2 ** k for k in range(4)]
    vals, _ = reduced_I_ladder(mu, params, cutoffs, quad=quad)
    values = gn ** q * vals
    ladder = tuple(zip(cutoffs, values.tolist()))
    if np.all(values <= 0.0):   # no atom of positive weight
        return NormProxyResult(0.0, eps, False, None, None, None, ladder)
    slope, _, r2, stderr = fit_loglog(cutoffs, values)
    divergent = _reduction_pieces(mu, params)[1] + 1.0 <= 0.0
    return NormProxyResult(value=float(values[0]), cutoff=eps, divergent=divergent,
                           fitted_exponent=float(slope), exponent_ci=2.0 * stderr,
                           r_squared=float(r2), ladder=ladder)


# --------------------------------------------------------------------------
# positive-order norms of sampled functions


def _check_uniform(x):
    x = np.asarray(x, float)
    h = x[1] - x[0]
    if not np.allclose(np.diff(x), h, rtol=1e-9, atol=0.0):
        raise DomainError("grid must be uniform")
    return x, float(h)


def _lp(values, h, p):
    return (h * np.sum(np.abs(values) ** p)) ** (1.0 / p)


_PAIR_CELLS = 1 << 22   # pair temporaries of one block of hull rows


def _gagliardo_1d(f, x, s, p, h):
    """Truncated double sum plus a certified analytic tail (to the power p).

    The sum runs over pairs of samples at most Y apart, with weight
    w(off) = (off h)^{-(1+sp)}.  Let [a, b] be the hull of f's nonzero
    samples.  Pairs outside it add 0.  A pair with one end i in the hull
    and the other outside adds |f_i|^p times a run of consecutive
    weights, read off the suffix sums of w.  Only pairs inside the hull
    are summed directly, in blocks of hull rows of at most _PAIR_CELLS
    pairs whatever the grid size.
    """
    nz = np.flatnonzero(f)
    if nz.size == 0:
        return 0.0
    a, b = int(nz[0]), int(nz[-1])
    n = x.size
    diameter = float(x[b] - x[a]) if nz.size >= 2 else float(x[-1] - x[0])
    Y = 4.0 * max(diameter, 4.0 * h)
    max_off = min(n - 1, int(math.ceil(Y / h)))
    w = np.zeros(n)
    w[1:max_off + 1] = 1.0 / (np.arange(1, max_off + 1) * h) ** (1.0 + s * p)
    above = np.append(np.cumsum(w[::-1])[::-1], 0.0)   # above[k] = sum of w[k:]
    g = f[a:b + 1]
    m = g.size
    i = np.arange(a, b + 1)
    # the outside partners of hull sample i lie at offsets b+1-i .. n-1-i
    # to the right and i+1-a .. i to the left
    cross = above[b + 1 - i] - above[n - i] + above[i + 1 - a] - above[i + 1]
    total = float(np.dot(np.abs(g) ** p, cross))
    # hull row r pairs with column c > r at weight w[c - r], c <= r at 0;
    # a block of rows takes the columns from its first row on, so with at
    # least 8 blocks the cells below the diagonal add about m^2/16 to the
    # m^2/2 pairs
    w_rows = sliding_window_view(np.concatenate([np.zeros(m - 1), w[:m]]), m)[::-1]
    rows = max(1, min(_PAIR_CELLS // m, -(-m // 8)))
    for r0 in range(0, m, rows):
        d = np.abs(np.subtract.outer(g[r0:r0 + rows], g[r0:]))
        d **= p
        total += float(np.einsum("ij,ij->", d, w_rows[r0:r0 + rows, r0:]))
    total *= 2.0 * h * h
    lp_p = h * float(np.sum(np.abs(f) ** p))
    tail = 2.0 ** (p + 1) * lp_p * Y ** (-s * p) / (s * p)
    return total + tail


def _second_diff_form(f, x, p, h):
    """(3.3)-style form: double sum of |f(x+y)+f(x-y)-2f(x)|^p / |y|^{1+p}.

    The sum runs over every sample i and offset 1 <= off < n, with f = 0
    off the grid, at weight w(off) = (off h)^{-(1+p)}.  Let [a, b] be the
    hull of f's nonzero samples and m its length.  A sample outside it has
    at most one nonzero partner j in the hull, so it adds |f_j|^p times a
    run of consecutive weights, read off the suffix sums of w as in
    :func:`_gagliardo_1d`.  A hull sample at an offset >= m has both
    partners outside and adds |2 f_i|^p w(off).  Only offsets below m are
    summed directly, in blocks of at most _PAIR_CELLS cells.
    """
    n = x.size
    lp_p = h * float(np.sum(np.abs(f) ** p))
    tail = 4.0 ** p * lp_p * (n * h) ** (-p) / p * 2.0
    nz = np.flatnonzero(f)
    if nz.size == 0:
        return tail
    a, b = int(nz[0]), int(nz[-1])
    w = np.zeros(n)
    w[1:] = 1.0 / (np.arange(1, n) * h) ** (1.0 + p)
    above = np.append(np.cumsum(w[::-1])[::-1], 0.0)   # above[k] = sum of w[k:]
    g = f[a:b + 1]
    m = g.size
    gp = np.abs(g) ** p
    j = np.arange(a, b + 1)
    # hull sample j is the partner of i = j - off < a for off = j+1-a .. j,
    # and of i = j + off > b for off = b+1-j .. n-1-j
    cross = above[j + 1 - a] - above[j + 1] + above[b + 1 - j] - above[n - j]
    total = float(np.dot(gp, cross)) + 2.0 ** p * float(np.sum(gp)) * above[m]
    # window k of the zero-padded hull is g shifted by k - (m - 1)
    win = sliding_window_view(np.concatenate([np.zeros(m - 1), g, np.zeros(m - 1)]), m)
    right, left = win[m:], win[m - 2::-1]   # offsets 1 .. m-1 (unused if m = 1)
    rows = max(1, min(_PAIR_CELLS // m, m - 1))
    buf = np.empty((rows, m))   # one block of offsets at a time
    for o0 in range(0, m - 1, rows):
        d = np.add(right[o0:o0 + rows], left[o0:o0 + rows], out=buf[:m - 1 - o0])
        d -= 2.0 * g
        np.abs(d, out=d)
        d **= p
        total += float(w[o0 + 1:o0 + 1 + len(d)] @ d.sum(axis=1))
    total *= 2.0 * h * h
    return total + tail


def _norm_1d(f, x, s, p, h):
    lp = _lp(f, h, p)
    if s < 1.0:
        return lp + _gagliardo_1d(f, x, s, p, h) ** (1.0 / p)
    if s == 1.0:
        return lp + _second_diff_form(f, x, p, h) ** (1.0 / p)
    fp = np.gradient(f, h, edge_order=2)
    w1p = lp + _lp(fp, h, p)
    return w1p + _gagliardo_1d(fp, x, s - 1.0, p, h) ** (1.0 / p)


def besov_pos_norm(f, x, s, p):
    """Positive-order Besov/Sobolev norm of a compactly supported sample f
    on the uniform 1-D grid x.

    s in (0, 2); non-integer s uses the L^p term plus the fractional
    double integral, s = 1 the second-difference form, s in (1, 2) the
    W^{1,p} part plus the fractional seminorm of the first derivative.
    The same norm evaluated on the 2x-coarsened grid must agree within
    5%, otherwise the grid is declared too coarse.
    """
    if not (0.0 < s < 2.0):
        raise DomainError("s must lie in (0, 2)")
    if not (p >= 1.0):
        raise DomainError("p must be >= 1")
    f = np.asarray(f, float)
    if f.ndim != 1:
        raise ConfigurationError("norms implemented for 1-D samples")
    x, h = _check_uniform(x)
    if f.size != x.size:
        raise DomainError("f and x must have equal length")
    full = _norm_1d(f, x, s, p, h)
    coarse = _norm_1d(f[::2], x[::2], s, p, 2.0 * h)
    delta = abs(full - coarse) / max(abs(full), 1e-300)
    if delta >= 0.05:
        raise ResolutionError("grid too coarse: refinement delta %.3g >= 5%%" % delta)
    return float(full)

