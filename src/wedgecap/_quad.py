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
sums the final panels of one row above each of several cuts (or of
several rows above one cut), so a ladder of nested tails costs a single
solve.  ``refined_nodes`` hands out the K17 nodes and weights of one
solve's final panels, a fixed rule on which other integrands of the
family can be summed, and ``panel_width`` sizes start panels from the
tolerance.
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


def k17_nodes(a, b):
    """K17 nodes and weights on every panel [a_i, b_i], panel by panel:
    a sum of f(nodes) * weights is the K17 integral over the panels."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return (mid[:, None] + half[:, None] * _K17_X).ravel(), (half[:, None] * _K17_W).ravel()


def _row_sums(f, a, b):
    """Per-panel K17 and embedded G8 integrals of every row.

    One integrand call at 17 nodes per panel covers both rules, and each
    rule is one matrix-vector product of the (rows, panels, 17) values.
    """
    half = 0.5 * (b - a)
    nodes, _ = k17_nodes(a, b)
    vals = np.asarray(f(nodes), float)
    if vals.ndim == 1:
        vals = vals[None, :]
    v = vals.reshape(vals.shape[0], a.size, _K17_X.size)
    hi = (v @ _K17_W) * half
    lo = (v[:, :, 1::2] @ _G8_W) * half
    return hi, lo


def _with_roundoff(errs, hi):
    """Reported errors no smaller than the rounding of the panel sums.

    |K17 - G8| can fall below the rounding error of the sum itself on a
    smooth integrand; as in QUADPACK, the reported error of a row is at
    least 50 eps times the sum of its |K17| panel values.
    """
    return np.maximum(errs, 50.0 * _EPS * np.abs(hi).sum(axis=1))


def _refine(f, edges, rtol):
    """The refinement engine behind :func:`integrate_rows` and
    :func:`integrate_partials`.

    Splits the panels carrying half of the worst relative error until
    every row meets ``rtol``, keeping the panels sorted so the
    floating-point reduction order is fixed.  Returns the final panels'
    left edges, their K17 sums of shape ``(nrows, npanels)``, and
    the per-row values and error estimates.  The stopping test uses the
    K17 - G8 estimates; the reported errors are floored at the rounding
    of the sums (:func:`_with_roundoff`).  A row whose value or estimate
    is not finite raises :class:`AccuracyError` in the round it appears.
    """
    edges = np.asarray(edges, float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("edges must be strictly increasing with >= 2 entries")
    a = edges[:-1].copy()
    b = edges[1:].copy()
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        hi, lo = _row_sums(f, a, b)
        while True:
            vals = hi.sum(axis=1)
            errs = np.abs(hi - lo).sum(axis=1)
            finite = np.isfinite(vals) & np.isfinite(errs)
            if not np.all(finite):
                row = int(np.argmin(finite))
                raise AccuracyError(
                    "integrand overflowed: row %d has value %r and error %r"
                    % (row, float(vals[row]), float(errs[row])), value=vals, error=errs)
            scale = np.maximum(np.abs(vals), _TINY)
            if np.all(errs <= rtol * scale):
                return a, hi, vals, _with_roundoff(errs, hi)
            if a.size >= _MAX_PANELS:
                raise AccuracyError(
                    "quadrature stalled at %d panels (worst relative error %.3g, target %.3g)"
                    % (a.size, float(np.max(errs / scale)), rtol),
                    value=vals, error=_with_roundoff(errs, hi))
            pe = (np.abs(hi - lo) / scale[:, None]).max(axis=0)
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
            nhi, nlo = _row_sums(f, na, nb)
            a = np.concatenate([a[~sel], na])
            b = np.concatenate([b[~sel], nb])
            hi = np.concatenate([hi[:, ~sel], nhi], axis=1)
            lo = np.concatenate([lo[:, ~sel], nlo], axis=1)
            perm = np.argsort(a, kind="stable")
            a, b = a[perm], b[perm]
            hi, lo = hi[:, perm], lo[:, perm]


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
    _, _, vals, errs = _refine(f, edges, rtol)
    return vals, errs


def refined_nodes(f, edges, rtol):
    """K17 nodes and weights (see :func:`k17_nodes`) of the final panels
    of the solve :func:`integrate_rows` makes: a fixed rule on which
    every row of ``f`` meets ``rtol``."""
    a = _refine(f, edges, rtol)[0]
    return k17_nodes(a, np.append(a[1:], edges[-1]))


def integrate_partials(f, edges, cuts, rtol=1e-8):
    """One adaptive solve, many nested tails: integrals over [cut, edges[-1]].

    Every cut must appear among the initial edges, so panels never
    straddle a cut and the partial sums are exact panel aggregates of
    the single refined decomposition.  For ``f`` returning one row,
    returns (values, error) with one value per cut (same order as
    ``cuts``) and the global error estimate; for several rows and one
    cut, each row's value above it and the per-row errors.
    """
    edges = np.asarray(edges, float)
    cuts = np.asarray(cuts, float)
    tol = 1e-15 * np.maximum(np.abs(cuts), 1.0)
    if not np.all(np.any(np.abs(edges[:, None] - cuts) <= tol, axis=0)):
        raise ValueError("every cut must be an initial panel edge")
    a, hi, _, errs = _refine(f, edges, rtol)
    if hi.shape[0] > 1:
        if cuts.size != 1:
            raise ValueError("several rows take a single cut")
        return hi[:, a >= cuts[0] - tol[0]].sum(axis=1), errs
    vals = np.array([hi[0, a >= c - t].sum() for c, t in zip(cuts, tol)])
    return vals, float(errs[0])


def fit_loglog(x, y):
    """Ordinary least squares fit of log(y) against log(x).

    Returns ``(slope, intercept, r_squared, slope_stderr)``.  Points with
    non-positive y are rejected.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    if np.any(y <= 0) or np.any(x <= 0):
        raise ValueError("log-log fit needs positive data")
    lx, ly = np.log(x), np.log(y)
    n = lx.size
    A = np.vstack([lx, np.ones(n)]).T
    coef, res, _, _ = np.linalg.lstsq(A, ly, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    pred = A @ coef
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    if n > 2:
        sxx = float(np.sum((lx - lx.mean()) ** 2))
        stderr = np.sqrt(max(ss_res, 0.0) / (n - 2) / max(sxx, _TINY))
    else:
        stderr = 0.0
    return slope, intercept, r2, float(stderr)
