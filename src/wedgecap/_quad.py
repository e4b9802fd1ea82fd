"""Deterministic adaptive panel quadrature.

Gauss-Legendre panels with an embedded half-order rule for local error
estimation; the panels carrying the bulk of the error are split in half
until the global relative tolerance is met.  The subdivision order is a
pure function of the integrand values, so results are bit-reproducible.

All integrands are vectorized.  One refinement engine serves two entry
points: ``integrate_rows`` evaluates a whole family of integrands (rows)
sharing one panel decomposition in a single call, which is what makes
the kernel functionals cheap at desk scale, and ``integrate_partials``
sums the final panels of one row above each of several cuts, so a
ladder of nested tails costs a single solve.
"""

from functools import lru_cache

import numpy as np

from .errors import AccuracyError

_TINY = 1e-300


@lru_cache(maxsize=32)
def gauss_legendre(order):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def geometric_edges(lo, hi, per_decade=8):
    """Edges of log-graded panels covering [lo, hi], 0 < lo < hi."""
    if not (0.0 < lo < hi):
        raise ValueError("geometric_edges needs 0 < lo < hi")
    n = max(1, int(np.ceil(per_decade * np.log10(hi / lo))))
    return lo * (hi / lo) ** np.linspace(0.0, 1.0, n + 1)


def merge_edges(lo, hi, *edge_sets, min_gap=0.0):
    """Sorted union of edges clipped to [lo, hi], always including both ends."""
    pts = [np.asarray([lo, hi], float)]
    for e in edge_sets:
        e = np.asarray(e, float)
        pts.append(e[(e > lo) & (e < hi)])
    edges = np.unique(np.concatenate(pts))
    if min_gap > 0.0:
        keep = [0]
        for i in range(1, len(edges) - 1):
            if edges[i] - edges[keep[-1]] >= min_gap:
                keep.append(i)
        keep.append(len(edges) - 1)
        edges = edges[np.array(keep)]
    return edges


def _row_sums(f, a, b, order):
    """Per-panel integrals with the full rule and the embedded half rule.

    One integrand call covers both rules on all panels.
    """
    xh, wh = gauss_legendre(order)
    xl, wl = gauss_legendre(order // 2)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = np.concatenate([
        (mid[:, None] + half[:, None] * xh).ravel(),
        (mid[:, None] + half[:, None] * xl).ravel(),
    ])
    vals = np.asarray(f(nodes), float)
    if vals.ndim == 1:
        vals = vals[None, :]
    nh = a.size * order
    vh = vals[:, :nh].reshape(vals.shape[0], a.size, order)
    vl = vals[:, nh:].reshape(vals.shape[0], a.size, order // 2)
    hi = (vh * wh).sum(axis=2) * half
    lo = (vl * wl).sum(axis=2) * half
    return hi, lo


def _refine(f, edges, rtol, max_panels, order):
    """The refinement engine behind :func:`integrate_rows` and
    :func:`integrate_partials`.

    Splits the panels carrying half of the worst relative error until
    every row meets ``rtol``, keeping the panels sorted so the
    floating-point reduction order is fixed.  Returns the final panels'
    left edges, their full-rule sums of shape ``(nrows, npanels)``, and
    the per-row values and error estimates.
    """
    edges = np.asarray(edges, float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("edges must be strictly increasing with >= 2 entries")
    a = edges[:-1].copy()
    b = edges[1:].copy()
    hi, lo = _row_sums(f, a, b, order)
    while True:
        vals = hi.sum(axis=1)
        errs = np.abs(hi - lo).sum(axis=1)
        scale = np.maximum(np.abs(vals), _TINY)
        if np.all(errs <= rtol * scale):
            return a, hi, vals, errs
        if a.size >= max_panels:
            raise AccuracyError(
                "quadrature stalled at %d panels (worst relative error %.3g, target %.3g)"
                % (a.size, float(np.max(errs / scale)), rtol),
                value=vals, error=errs)
        pe = (np.abs(hi - lo) / scale[:, None]).max(axis=0)
        order_idx = np.argsort(pe, kind="stable")[::-1]
        csum = np.cumsum(pe[order_idx])
        ncut = int(np.searchsorted(csum, 0.5 * csum[-1])) + 1
        ncut = min(ncut, max(1, max_panels - a.size))
        sel = np.zeros(a.size, bool)
        sel[order_idx[:ncut]] = True
        am, bm = a[sel], b[sel]
        mid = 0.5 * (am + bm)
        na = np.concatenate([am, mid])
        nb = np.concatenate([mid, bm])
        nhi, nlo = _row_sums(f, na, nb, order)
        a = np.concatenate([a[~sel], na])
        b = np.concatenate([b[~sel], nb])
        hi = np.concatenate([hi[:, ~sel], nhi], axis=1)
        lo = np.concatenate([lo[:, ~sel], nlo], axis=1)
        perm = np.argsort(a, kind="stable")
        a, b = a[perm], b[perm]
        hi, lo = hi[:, perm], lo[:, perm]


def integrate_rows(f, edges, rtol=1e-8, max_panels=4096, order=16):
    """Integrate every row of a vectorized integrand family over one interval.

    Parameters
    ----------
    f : callable
        ``f(nodes)`` with ``nodes`` a 1-D array returns an array of shape
        ``(nrows, len(nodes))`` (or 1-D for a single row).
    edges : array_like
        Initial panel edges; singular or peaked locations should appear here.
    rtol : float
        Target relative error for every row.
    max_panels : int
        Refinement budget.  Exceeding it raises :class:`AccuracyError`
        carrying the best values and error estimates.

    Returns
    -------
    (values, errors) : ndarray, ndarray of shape (nrows,)
    """
    _, _, vals, errs = _refine(f, edges, rtol, max_panels, order)
    return vals, errs


def integrate(f, edges, rtol=1e-8, max_panels=4096, order=16):
    """Single-integrand version of :func:`integrate_rows`.

    Returns ``(value, error_estimate)`` as floats.
    """
    vals, errs = integrate_rows(lambda x: np.asarray(f(x), float)[None, :],
                                edges, rtol=rtol, max_panels=max_panels, order=order)
    return float(vals[0]), float(errs[0])


def integrate_partials(f, edges, cuts, rtol=1e-8, max_panels=4096, order=16):
    """One adaptive solve, many nested tails: integrals over [cut, edges[-1]].

    Every cut must appear among the initial edges, so panels never
    straddle a cut and the partial sums are exact panel aggregates of
    the single refined decomposition.  ``f`` returns one row.  Returns
    (values, error) with one value per cut (same order as ``cuts``) and
    the global error estimate.
    """
    edges = np.asarray(edges, float)
    cuts = np.asarray(cuts, float)
    for c in cuts:
        if not np.any(np.isclose(edges, c, rtol=0.0, atol=1e-15 * max(abs(c), 1.0))):
            raise ValueError("every cut must be an initial panel edge")
    a, hi, _, errs = _refine(f, edges, rtol, max_panels, order)
    vals = np.array([hi[0, a >= c - 1e-15 * max(abs(c), 1.0)].sum() for c in cuts])
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
