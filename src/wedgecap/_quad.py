"""Deterministic adaptive panel quadrature.

Each panel is integrated with the 17-point Gauss-Kronrod rule K17, the
Kronrod extension of the 8-point Gauss rule G8 whose nodes it contains,
so one evaluation at 17 nodes gives both the value (K17) and the local
error estimate |K17 - G8|.  Both rules are applied to every panel and
row at once, each as one matrix-vector product with its weights.  The
panels carrying the bulk of the error are split in half until the global
relative tolerance is met.  The subdivision order is a pure function of
the integrand values, so results are bit-reproducible.

All integrands are vectorized.  One refinement engine serves two entry
points: ``integrate_rows`` evaluates a whole family of integrands (rows)
sharing one panel decomposition in a single call, which is what makes
the kernel functionals cheap at desk scale, and ``integrate_partials``
integrates one row from each of several cuts (or several rows from one
cut) to the end, so a ladder of nested tails costs a single solve.  A
tail is the sum of the final panels above its cut plus, on the panel the
cut straddles, the integral of that panel's K17 interpolant from the cut
up (the spectral indefinite integral); a cut need not be an edge.
``refined_nodes`` hands out the K17 nodes and weights of one solve's
final panels, a fixed rule on which other integrands of the family can
be summed, and ``panel_width`` sizes start panels from the tolerance.
"""

import math

import numpy as np

from .errors import AccuracyError

_TINY = 1e-300
_EPS = np.finfo(float).eps
_MAX_PANELS = 4096   # refinement budget; exceeding it raises AccuracyError


def panel_width(rtol):
    """Width of a start panel on which G8 meets ``rtol`` for an integrand
    analytic in the strip |Im x| < pi/2 about the real axis.

    A panel of width L maps to [-1, 1] by a scale 2 / L, so the strip
    becomes |Im| < pi / L, and the largest Bernstein ellipse inside it
    has rho = e^{asinh(pi / L)}.  The Gauss rule G8, exact to degree 15,
    errs by about rho^{-16} there (Trefethen, *Approximation Theory and
    Approximation Practice*, ch. 19), and rho^{-16} <= rtol gives
    L = pi / sinh(log(1 / rtol) / 16): 5.17 at rtol 1e-4, 3.22 at 1e-6,
    2.21 at 1e-8.  Both line-edge coordinates have that strip: F(e^t) in
    t = log tau is singular where tau^2 + d^2 = 0, at Im t = +-pi/2, and
    the slice's own term cosh(s)^{1 - nu q} has its poles at s = +-i pi/2.
    """
    return math.pi / math.sinh(math.log(1.0 / rtol) / 16.0)


def merge_edges(lo, hi, *edge_sets):
    """Sorted union of edges clipped to [lo, hi], always including both ends."""
    pts = [np.asarray([lo, hi], float)]
    for e in edge_sets:
        e = np.asarray(e, float)
        pts.append(e[(e > lo) & (e < hi)])
    return np.unique(np.concatenate(pts))


# K17 on [-1, 1], nodes x >= 0 (the rule is symmetric): the roots of the
# Stieltjes polynomial E_9 interlaced with the G8 nodes, which sit at the
# odd positions of the full ascending list.  Exact for degree <= 25; G8 is
# exact for degree <= 15.  Computed in 60-digit mpmath and rounded.
_XGK = (0.0, 0.1834346424956498, 0.36070109792813193, 0.525532409916329,
        0.6723540709451586, 0.7966664774136267, 0.8941209068474564,
        0.9602898564975363, 0.9933798758817162)
_WGK = (0.18444640574469165, 0.18140002506803465, 0.1720706085552113,
        0.1566526061681884, 0.1362631092551722, 0.11164637082683962,
        0.08248229893135833, 0.04943939500213931, 0.017822383320710355)
_WG = (0.362683783378362, 0.31370664587788727, 0.22238103445337448,
       0.10122853629037626)

_K17_X = np.concatenate([-np.array(_XGK[:0:-1]), _XGK])
_K17_W = np.concatenate([_WGK[:0:-1], _WGK])
_G8_W = np.concatenate([_WG[::-1], _WG])   # at _K17_X[1::2]


def _lagrange_chebyshev(x):
    """Chebyshev coefficients (degree, node) of each node's Lagrange basis
    polynomial: its values at the Chebyshev points cos(j pi / N), N =
    x.size - 1, as products of its linear factors, and their discrete
    cosine transform, exact to degree N.  Only elementwise numpy: a
    LAPACK or numpy.polynomial call would add to every process's start
    and memory."""
    n = x.size - 1
    theta = np.pi * np.arange(n + 1) / n
    y = np.cos(theta)
    vals = np.ones((n + 1, x.size))
    for j, xj in enumerate(x):   # the factor (y - x_j) / (x_k - x_j) of every k != j
        den = x - xj
        den[j] = 1.0
        factor = (y[:, None] - xj) / den
        factor[:, j] = 1.0
        vals *= factor
    vals[[0, n]] *= 0.5
    coef = (2.0 / n) * (np.cos(np.arange(n + 1)[:, None] * theta)[:, :, None] * vals).sum(axis=1)
    coef[[0, n]] *= 0.5
    return coef


def _partial_table():
    """Chebyshev coefficients, in the cut c in [-1, 1], of the weights of
    the integral over [c, 1] of the K17 interpolant (columns 0-16, of the
    values at _K17_X) and of the G8 interpolant (columns 17-24, of the
    values at _K17_X[1::2]): T(c) @ table, T_n(c) for n = 0 .. 17, gives
    the partial weights of both rules.  Each node's Lagrange basis
    polynomial is antidifferentiated termwise, T_0 -> T_1 and
    T_k -> T_{k+1} / (2 (k+1)) - T_{k-1} / (2 (k-1)) (the T_0 term of T_1
    dropped: a constant cancels in A(1) - A(c)), and T_n(1) = 1."""
    table = np.zeros((_K17_X.size + 1, _K17_X.size + _G8_W.size))
    for cols, x in ((slice(0, _K17_X.size), _K17_X), (slice(_K17_X.size, None), _K17_X[1::2])):
        lagrange = _lagrange_chebyshev(x)
        anti = np.zeros((x.size + 1, x.size))
        anti[1] = lagrange[0]
        for k in range(1, x.size):
            anti[k + 1] += lagrange[k] / (2.0 * (k + 1))
            if k >= 2:
                anti[k - 1] -= lagrange[k] / (2.0 * (k - 1))
        table[:x.size + 1, cols] = -anti
        table[0, cols] += anti.sum(axis=0)
    return table


_PARTIAL = _partial_table()


def _partial_weights(c):
    """Per cut c (panel coordinate in [-1, 1]) the weights of the integral
    over [c, 1] of the K17 interpolant (17) and of the G8 interpolant (8),
    from T_n(c) = cos(n arccos c)."""
    w = np.einsum("cn,nw->cw", np.cos(np.arange(_PARTIAL.shape[0]) * np.arccos(c)[:, None]),
                  _PARTIAL)
    return w[:, :_K17_X.size], w[:, _K17_X.size:]


def k17_nodes(a, b):
    """K17 nodes and weights on every panel [a_i, b_i], panel by panel:
    a sum of f(nodes) * weights is the K17 integral over the panels."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return (mid[:, None] + half[:, None] * _K17_X).ravel(), (half[:, None] * _K17_W).ravel()


def _row_sums(f, a, b):
    """Per-panel K17 and embedded G8 integrals of every row, and the
    (rows, panels, 17) node values they were formed from.

    One integrand call at 17 nodes per panel covers both rules, and each
    rule is one matrix-vector product of the node values.
    """
    half = 0.5 * (b - a)
    nodes, _ = k17_nodes(a, b)
    vals = np.asarray(f(nodes), float)
    if vals.ndim == 1:
        vals = vals[None, :]
    v = vals.reshape(vals.shape[0], a.size, _K17_X.size)
    hi = (v @ _K17_W) * half
    lo = (v[:, :, 1::2] @ _G8_W) * half
    return hi, lo, v


def _straddled(v, a, b, cuts, tol):
    """Per cut the panel it lies in and, on that panel, the (rows, cuts)
    integrals from the cut to the panel's right edge of its K17
    interpolant and their distance to the same integral of its embedded
    G8 interpolant; both are 0 where the cut is within ``tol`` of an edge
    and so straddles nothing."""
    k = np.maximum((a <= cuts[:, None]).sum(axis=1) - 1, 0)
    left, right = a[k], b[k]
    half = 0.5 * (right - left)
    w17, w8 = _partial_weights(np.minimum(np.maximum((cuts - left) / half - 1.0, -1.0), 1.0))
    scale = half * ((cuts - left > tol) & (right - cuts > tol))
    vk = v[:, k, :]
    p17 = np.einsum("rcn,cn->rc", vk, w17) * scale
    return k, p17, np.abs(p17 - np.einsum("rcn,cn->rc", vk[:, :, 1::2], w8) * scale)


def _with_roundoff(errs, hi):
    """Reported errors no smaller than the rounding of the panel sums.

    |K17 - G8| can fall below the rounding error of the sum itself on a
    smooth integrand; as in QUADPACK, the reported error of a row is at
    least 50 eps times the sum of its |K17| panel values.
    """
    return np.maximum(errs, 50.0 * _EPS * np.abs(hi).sum(axis=1))


def _refine(f, edges, rtol, cuts=()):
    """The refinement engine behind :func:`integrate_rows` and
    :func:`integrate_partials`.

    Splits the panels carrying half of the worst relative error until
    every row meets ``rtol``, keeping the panels sorted so the
    floating-point reduction order is fixed.  Returns the final panels'
    left edges, their K17 sums of shape ``(nrows, npanels)``, the per-row
    values and error estimates, and the ``(nrows, ncuts)`` integrals from
    each of ``cuts`` to the right edge of the panel it straddles (0 where
    it straddles none).  The stopping test uses the K17 - G8 estimates; a
    panel a cut straddles adds the distance between the integrals of its
    K17 and G8 interpolants above the cut (:func:`_straddled`) to its
    estimate, in the test, in the choice of panels to split and in the
    reported error, so a rung whose partial is not resolved is cut into a
    narrower panel.  The reported
    errors are floored at the rounding of the sums (:func:`_with_roundoff`).
    A row whose value or estimate is not finite raises
    :class:`AccuracyError` in the round it appears.
    """
    edges = np.asarray(edges, float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("edges must be strictly increasing with >= 2 entries")
    cuts = np.asarray(cuts, float)
    tol = 1e-15 * np.maximum(np.abs(cuts), 1.0)
    a = edges[:-1].copy()
    b = edges[1:].copy()
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        hi, lo, v = _row_sums(f, a, b)
        while True:
            pan = np.abs(hi - lo)
            p17 = np.zeros((hi.shape[0], cuts.size))
            if cuts.size:
                k, p17, gap = _straddled(v, a, b, cuts, tol)
                np.add.at(pan, (slice(None), k), gap)
            vals = hi.sum(axis=1)
            errs = pan.sum(axis=1)
            finite = np.isfinite(vals) & np.isfinite(errs)
            if not np.all(finite):
                row = int(np.argmin(finite))
                raise AccuracyError(
                    "integrand overflowed: row %d has value %r and error %r"
                    % (row, float(vals[row]), float(errs[row])), value=vals, error=errs)
            scale = np.maximum(np.abs(vals), _TINY)
            if np.all(errs <= rtol * scale):
                return a, hi, vals, _with_roundoff(errs, hi), p17
            if a.size >= _MAX_PANELS:
                raise AccuracyError(
                    "quadrature stalled at %d panels (worst relative error %.3g, target %.3g)"
                    % (a.size, float(np.max(errs / scale)), rtol),
                    value=vals, error=_with_roundoff(errs, hi))
            pe = (pan / scale[:, None]).max(axis=0)
            order_idx = np.argsort(pe, kind="stable")[::-1]
            csum = np.cumsum(pe[order_idx])
            ncut = int(np.searchsorted(csum, 0.5 * csum[-1])) + 1
            ncut = min(ncut, max(1, _MAX_PANELS - a.size))
            sel = np.zeros(a.size, bool)
            sel[order_idx[:ncut]] = True
            am, bm = a[sel], b[sel]
            mid = 0.5 * (am + bm)
            na = np.concatenate([am, mid])
            nb = np.concatenate([mid, bm])
            nhi, nlo, nv = _row_sums(f, na, nb)
            a = np.concatenate([a[~sel], na])
            b = np.concatenate([b[~sel], nb])
            hi = np.concatenate([hi[:, ~sel], nhi], axis=1)
            lo = np.concatenate([lo[:, ~sel], nlo], axis=1)
            perm = np.argsort(a, kind="stable")
            a, b = a[perm], b[perm]
            hi, lo = hi[:, perm], lo[:, perm]
            if cuts.size:   # the node values are kept for the straddled partials
                v = np.concatenate([v[:, ~sel], nv], axis=1)[:, perm]


def integrate_rows(f, edges, rtol=1e-8):
    """Integrate every row of a vectorized integrand family over one interval.

    Parameters
    ----------
    f : callable
        ``f(nodes)`` with ``nodes`` a 1-D array returns an array of shape
        ``(nrows, len(nodes))`` (or 1-D for a single row).
    edges : array_like
        Initial panel edges; singular or peaked locations should appear here.
    rtol : float
        Target relative error for every row.  Exceeding the budget of
        ``_MAX_PANELS`` panels raises :class:`AccuracyError` carrying the
        best values and error estimates.

    Returns
    -------
    (values, errors) : ndarray, ndarray of shape (nrows,)
    """
    _, _, vals, errs, _ = _refine(f, edges, rtol)
    return vals, errs


def refined_nodes(f, edges, rtol):
    """K17 nodes and weights (see :func:`k17_nodes`) of the final panels
    of the solve :func:`integrate_rows` makes: a fixed rule on which
    every row of ``f`` meets ``rtol``."""
    a = _refine(f, edges, rtol)[0]
    return k17_nodes(a, np.append(a[1:], edges[-1]))


def integrate_partials(f, edges, cuts, rtol=1e-8):
    """One adaptive solve, many nested tails: integrals over [cut, edges[-1]].

    A cut may lie anywhere in [edges[0], edges[-1]]: its tail is the sum
    of the refined panels above it plus, on the one panel it straddles,
    the integral of that panel's K17 interpolant over [cut, b], whose
    distance to the same integral of the G8 interpolant is in the error
    and drives the refinement like a panel's |K17 - G8| (see
    :func:`_refine`).  A cut within 1e-15 (relative, at least absolute)
    of an edge is that edge and straddles nothing.  For ``f`` returning
    one row, returns (values, error) with one value per cut (same order
    as ``cuts``) and the global error estimate; for several rows and one
    cut, each row's value above it and the per-row errors.
    """
    edges = np.asarray(edges, float)
    cuts = np.asarray(cuts, float)
    tol = 1e-15 * np.maximum(np.abs(cuts), 1.0)
    if np.any(cuts < edges[0] - tol) or np.any(cuts > edges[-1] + tol):
        raise ValueError("every cut must lie within [edges[0], edges[-1]]")
    inner = ~np.any(np.abs(edges[:, None] - cuts) <= tol, axis=0)   # the others never straddle
    a, hi, _, errs, p17 = _refine(f, edges, rtol, cuts[inner])
    tails = np.stack([hi[:, a >= c - t].sum(axis=1) for c, t in zip(cuts, tol)], axis=1)
    tails[:, inner] += p17
    if hi.shape[0] > 1:
        if cuts.size != 1:
            raise ValueError("several rows take a single cut")
        return tails[:, 0], errs
    return tails[0], float(errs[0])


def fit_line(x, y):
    """Least-squares line y ~ c + b x in closed form, b from the centred
    sums and c from the means.  Returns ``(b, c, residuals, sxx)``: the
    residuals y - (c + b x) formed explicitly, so a misfit far below |y|
    keeps its digits, and the centred sum of squares of x, where 0 makes
    b nan (x without spread fixes no slope)."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    xm, ym = float(x.sum()) / x.size, float(y.sum()) / y.size
    dx = x - xm
    sxx = float(dx @ dx)
    b = float(dx @ (y - ym)) / sxx if sxx > 0.0 else math.nan
    c = ym - b * xm
    return b, c, y - (c + b * x), sxx


def fit_loglog(x, y):
    """Least-squares slope of log(y) against log(x) in closed form
    (:func:`fit_line`): ``(slope, r_squared, slope_stderr)``, the standard
    error 0 for two points.  Non-positive x or y are rejected."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    if (y <= 0).any() or (x <= 0).any():
        raise ValueError("log-log fit needs positive data")
    ly = np.log(y)
    slope, _, resid, sxx = fit_line(np.log(x), ly)
    ss_res = float(resid @ resid)
    dy = ly - float(ly.sum()) / ly.size
    ss_tot = float((dy * dy).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    stderr = math.sqrt(ss_res / (x.size - 2) / max(sxx, _TINY)) if x.size > 2 else 0.0
    return slope, r2, stderr
