"""Bessel kernels, Bessel capacities, and the weighted edge capacity.

The Bessel kernel of order alpha on R^ell is evaluated through its heat
subordination integral

    G_alpha(x) = (4 pi)^{-ell/2} / Gamma(alpha/2)
                 * integral_0^inf t^{(alpha-ell)/2 - 1} e^{-t - |x|^2/(4t)} dt,

normalized so that its Fourier transform is (1 + |xi|^2)^{-alpha/2} and
its total integral is 1.  Capacities of finite point sets come from the
discretized min-norm program

    min ||g||_p^p   over g >= 0 on a source grid,  (G_alpha * g)(x) >= 1 on K,

solved by projected gradient ascent on the dual, with the cell integrals
of G_alpha taken from the same subordination integral; the weighted edge
capacity in its sup-mass form reduces, by q-homogeneity of
the admissibility functional J, to minimizing J over the weight simplex.

Capacity zero is a limit statement.  The refinement histories (over grid
resolution, or over the inner cutoff for the edge capacity) are fitted
on a log-log scale: a confident positive decay slope earns the verdict
"vanishing", a flat stabilizing history earns "positive", anything else
is reported as "inconclusive" rather than guessed.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, gammainc, gammaln

from ._quad import gauss_legendre, geometric_edges, integrate_rows, merge_edges
from .errors import (ConfigurationError, DomainError, SingularityError,
                     SolverError)
from .geometry import DiscreteMeasure
from .kernels import M_nu_s, params_from_report

# pre-declared verdict thresholds for the extrapolated refinement fit
FIT_RESIDUAL_TOL = 0.05     # relative misfit above which no verdict is issued
CRITICAL_THETA = 0.02       # |correction exponent| below which the case is critical


@dataclass(frozen=True)
class CapacityResult:
    value: float
    resolution: float
    history: tuple          # ((resolution-or-cutoff, value), ...) coarse -> fine
    verdict: str            # positive | vanishing | inconclusive
    gap: float
    iterations: int
    limit: float | None = None   # extrapolated continuum value when resolvable


def _verdict_from_history(history, theta):
    """Classify the continuum limit of a refinement history.

    The leading discretization correction of both capacity programs is a
    power of the refinement parameter with known exponent theta
    (alpha p - ell for the grid program, q (s - m/q') for the cutoff
    ladder).  Fitting 1/value = C + b * r^theta extrapolates the limit:
    for theta < 0 a positive b drives 1/value to infinity (vanishing
    capacity); for theta > 0 the limit is 1/C.  A poor two-parameter fit
    or a near-critical exponent yields "inconclusive", never a guess.
    """
    res = np.array([r for r, _ in history], float)
    vals = np.array([v for _, v in history], float)
    if np.all(vals == 0.0):
        return "vanishing", 0.0
    if np.any(vals <= 0.0) or res.size < 3:
        return "inconclusive", None
    if abs(theta) < CRITICAL_THETA:
        return "inconclusive", None
    u = 1.0 / vals
    x = res ** theta
    A = np.vstack([x, np.ones_like(x)]).T
    (b, C), _, _, _ = np.linalg.lstsq(A, u, rcond=None)
    resid = float(np.sqrt(np.mean((A @ np.array([b, C]) - u) ** 2))) / float(np.mean(u))
    if resid > FIT_RESIDUAL_TOL:
        return "inconclusive", None
    if theta < 0.0:
        if b > 0.0:
            return "vanishing", 0.0
        return ("positive", 1.0 / C) if C > 0.0 else ("inconclusive", None)
    if C > 0.0:
        return "positive", 1.0 / C
    return "inconclusive", None


# --------------------------------------------------------------------------
# Bessel kernel


def _subordinate(rows, c, u_lo, log_norm):
    """Each row's integral of rows(u, log_w) over u = log t in [u_lo, 9];
    log_w = log_norm + c u - e^u is the log of the normalized Gamma weight,
    in range for large c where its factors are not, and < -8000 past u = 9."""
    vals, _ = integrate_rows(lambda u: rows(u, log_norm + c * u - np.exp(u)),
                             np.linspace(u_lo, 9.0, 25), rtol=1e-10)
    return vals


def bessel_kernel_radial(r, alpha, ell):
    """G_alpha(|x|) on R^ell via the subordination integral, vectorized in r.

    Positive and radially decreasing; singular at r = 0 when alpha <= ell.
    """
    if not (0.0 < alpha < math.inf):
        raise DomainError("alpha must be finite and > 0")
    if ell < 1 or int(ell) != ell:
        raise DomainError("ell must be a positive integer")
    r = np.atleast_1d(np.asarray(r, float))
    if np.any(r < 0.0):
        raise DomainError("radius must be >= 0")
    out = np.empty(r.size)
    log_norm = -0.5 * ell * math.log(4.0 * math.pi) - gammaln(0.5 * alpha)
    zero = r == 0.0
    if np.any(zero):
        if alpha <= ell:
            raise SingularityError("G_alpha singular at 0 for alpha <= ell")
        out[zero] = math.exp(log_norm + gammaln(0.5 * (alpha - ell)))
    pos = ~zero
    if np.any(pos):
        b2 = (r[pos] ** 2 / 4.0)[:, None]
        u_lo = min(float(np.min(np.log(b2))) - 12.0, -12.0)

        def rows(u, log_w):
            return np.exp(log_w[None, :] - b2 * np.exp(-u)[None, :])

        out[pos] = _subordinate(rows, 0.5 * (alpha - ell), u_lo, log_norm)
    return out if out.size > 1 else float(out[0])


def bessel_kernel(x, alpha):
    """G_alpha at a point of R^ell (ell = len(x))."""
    x = np.atleast_1d(np.asarray(x, float))
    return bessel_kernel_radial(float(np.linalg.norm(x)), alpha, x.size)


def _cell_matrix(targets, centers, h, alpha):
    """A[j, l] = integral of G_alpha on R^1 over cell l seen from target j.

    G_alpha is a Gamma(alpha/2) mixture of heat kernels, and a heat
    kernel's cell integral is an erf difference.  With t = e^u, the cell
    [d - h/2, d + h/2] (d the target-to-center distance) gives

        A = 1/(2 Gamma(alpha/2)) integral e^{(alpha/2) u - e^u}
            [erfc(a / 2 sqrt t) - erfc(b / 2 sqrt t)] du,   a, b = d -+ h/2,

    with erfc so that far cells do not cancel.  Below u_lo every nonzero
    erfc argument exceeds 6 in size, so the bracket is 1 - sign(a) to
    double precision and that piece is (1 - sign(a)) P(alpha/2, e^{u_lo}) / 2
    in closed form.  A depends on |d| only: one row per distinct |d|.
    """
    d = np.abs(targets[:, None] - centers[None, :])
    dist, inv = np.unique(d, return_inverse=True)
    a, b = dist - 0.5 * h, dist + 0.5 * h
    ends = np.abs(np.concatenate([a, b]))
    u_lo = min(2.0 * math.log(float(np.min(ends[ends > 0.0])) / 12.0), -12.0)

    def rows(u, log_w):
        s = 0.5 * np.exp(-0.5 * u)         # 1 / (2 sqrt t)
        return np.exp(log_w) * (erfc(np.outer(a, s)) - erfc(np.outer(b, s)))

    vals = (_subordinate(rows, 0.5 * alpha, u_lo,
                         math.log(0.5) - gammaln(0.5 * alpha))
            + 0.5 * (1.0 - np.sign(a)) * gammainc(0.5 * alpha, math.exp(u_lo)))
    return vals[inv].reshape(d.shape)


# --------------------------------------------------------------------------
# min-norm Bessel capacity


def _dual_ascent(A, h, p, gap_tol=1e-6, max_iter=20000):
    """max over lam >= 0 of the dual of  min h sum g^p  s.t.  A g >= 1, g >= 0."""
    nk = A.shape[0]
    pp = p / (p - 1.0)
    lam = np.full(nk, 1e-3)
    eta = 1.0

    def g_of(lam_):
        t = np.maximum(A.T @ lam_, 0.0) / (p * h)
        return t ** (1.0 / (p - 1.0))

    def dual(lam_):
        g = g_of(lam_)
        return float(np.sum(lam_) - (p - 1.0) * h * np.sum(g ** p)), g

    d_val, g = dual(lam)
    gap = np.inf
    primal = np.inf
    for it in range(1, max_iter + 1):
        grad = 1.0 - A @ g
        for _ in range(60):
            lam_new = np.maximum(lam + eta * grad, 0.0)
            d_new, g_new = dual(lam_new)
            if d_new >= d_val - 1e-18:
                break
            eta *= 0.5
        lam, d_val, g = lam_new, d_new, g_new
        eta *= 1.25
        if it % 10 == 0 or it == max_iter:
            c = A @ g
            cmin = float(np.min(c))
            if cmin <= 0.0:
                continue
            g_feas = g / cmin
            primal = float(h * np.sum(g_feas ** p))
            gap = (primal - d_val) / max(abs(primal), 1e-300)
            if gap <= gap_tol:
                return primal, gap, it, g_feas
    raise SolverError("dual ascent stalled (gap %.3g after %d iterations)"
                      % (gap, max_iter), gap=gap)


def bessel_capacity(points, alpha, p, resolution=0.05, levels=4,
                    dilation_radii=3.0):
    """Discretized Bessel capacity of a finite point set K in R^1.

    Source grid: K dilated by ``dilation_radii`` kernel effective radii,
    cell size ``resolution``; the Schwartz class is relaxed to
    nonnegative grid functions (a documented lower-bound bias) and
    nonnegativity is imposed, which leaves capacities of compacta
    unchanged but makes the program convex-conic.  Solved at ``levels``
    resolutions (coarsest first) to populate the refinement history.
    """
    if not (1.0 < p < math.inf):
        raise DomainError("p must be finite and > 1")
    if not (0.0 < alpha < math.inf):
        raise DomainError("alpha must be finite and > 0")
    if not (0.0 < resolution < math.inf):
        raise DomainError("resolution must be finite and > 0")
    pts = np.atleast_1d(np.asarray(points, float))
    if pts.ndim > 1:
        if pts.shape[1] != 1:
            raise ConfigurationError("numeric capacity implemented on R^1")
        pts = pts[:, 0]
    if pts.size == 0:
        hist = tuple((resolution * 2.0 ** (levels - 1 - i), 0.0) for i in range(levels))
        return CapacityResult(0.0, resolution, hist, "vanishing", 0.0, 0)

    reff = max(1.0, alpha)
    lo = float(np.min(pts)) - dilation_radii * reff
    hi = float(np.max(pts)) + dilation_radii * reff
    history = []
    value = gap = np.nan
    iters = 0
    for level in range(levels - 1, -1, -1):
        h = resolution * 2.0 ** level
        # anchor the grid so pts[0] sits at a cell center at every level,
        # keeping the singular-cell geometry consistent across refinements
        j_lo = math.floor((lo - pts[0]) / h)
        j_hi = math.ceil((hi - pts[0]) / h)
        centers = pts[0] + h * np.arange(j_lo, j_hi + 1)
        if centers.size == 0:
            raise ConfigurationError("empty source grid")
        A = _cell_matrix(pts, centers, h, alpha)   # cell integrals of the kernel
        value, gap, iters, _ = _dual_ascent(A, h, p)
        history.append((h, value))
    verdict, limit = _verdict_from_history(history, alpha * p - 1.0)
    return CapacityResult(float(value), resolution, tuple(history), verdict,
                          float(gap), iters, limit)


# --------------------------------------------------------------------------
# weighted edge capacity (sup-mass form)


def _simplex_project(v):
    """Euclidean projection onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u - css / (np.arange(v.size) + 1.0) > 0)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _J_fixed_grid(points, w, report, q, R, eps):
    """J and its weight-gradient on a fixed deterministic quadrature grid.

    Fixed panels keep J(w) smooth during optimization; the reported
    value is recomputed adaptively afterwards.
    """
    nu = report.nu
    p_exp = report.beta(q)   # tau weight power: (s+nu-m)q - 1 == (q+1)kappa+ + k - 1
    tau_edges = merge_edges(eps, R, geometric_edges(eps, R, per_decade=8),
                            np.linspace(eps, R, 9))
    x16, w16 = gauss_legendre(16)
    ta, tb = tau_edges[:-1], tau_edges[1:]
    tmid, thalf = 0.5 * (ta + tb), 0.5 * (tb - ta)
    tau = (tmid[:, None] + thalf[:, None] * x16).ravel()
    tw = (thalf[:, None] * w16).ravel()

    zs = points[:, 0]
    y_edges = merge_edges(-R, R, np.linspace(-R, R, 13),
                          np.concatenate([zs, zs + eps, zs - eps,
                                          zs + 8 * eps, zs - 8 * eps]))
    ya, yb = y_edges[:-1], y_edges[1:]
    ymid, yhalf = 0.5 * (ya + yb), 0.5 * (yb - ya)
    y = (ymid[:, None] + yhalf[:, None] * x16).ravel()
    yw = (yhalf[:, None] * w16).ravel()

    K = (tau[:, None, None] ** 2
         + (y[None, :, None] - zs[None, None, :]) ** 2) ** (-0.5 * nu)
    S = K @ w
    tau_w = tw * tau ** p_exp
    J = float(np.einsum("t,ty,y->", tau_w, S ** q, yw))
    grad = q * np.einsum("t,ty,y,tyi->i", tau_w, S ** (q - 1.0), yw, K)
    return J, grad


def rho_capacity(points, report, q, R=None, levels=4):
    """Sup-mass capacity of a finite edge set under the weighted functional.

    Maximizing mass(mu)^q subject to J(mu) = 1 reduces, because J is
    q-homogeneous, to sup mass/J^{1/q} over the weight simplex, i.e. to
    minimizing J there; the value is 1/min J.  The constraint functional
    is the cutoff-regularized admissibility aggregate, and the history
    tracks the cutoff ladder 1e-2 / 2^level: supercritical configurations
    drive the value to zero as the cutoff shrinks.
    """
    eps, gap_tol, max_iter = 1e-2, 1e-6, 2000   # cutoff, Frank-Wolfe gap, budget
    pts = np.atleast_2d(np.asarray(points, float))
    if pts.size == 0:
        hist = tuple((eps / 2.0 ** i, 0.0) for i in range(levels))
        return CapacityResult(0.0, eps, hist, "vanishing", 0.0, 0)
    if pts.shape[1] != report.m:
        raise ConfigurationError("points must live on the edge R^{N-k}")
    if report.m != 1:
        raise ConfigurationError("numeric edge capacity implemented for N-k = 1")
    if R is None:
        diam = float(np.max(pts) - np.min(pts)) if pts.shape[0] > 1 else 0.0
        R = 8.0 * (diam + 1.0)

    nk = pts.shape[0]
    history = []
    w = np.full(nk, 1.0 / nk)
    total_iters = 0
    fw_gap = 0.0
    for lev in range(levels):
        e_lev = eps / 2.0 ** lev
        if nk == 1:
            w = np.array([1.0])
            fw_gap = 0.0
        else:
            eta = 1.0
            J_cur, grad = _J_fixed_grid(pts, w, report, q, R, e_lev)
            for it in range(max_iter):
                w_new = _simplex_project(w - eta * grad / max(np.max(np.abs(grad)), 1e-300))
                J_new, grad_new = _J_fixed_grid(pts, w_new, report, q, R, e_lev)
                if J_new <= J_cur:
                    w, J_cur, grad = w_new, J_new, grad_new
                    eta *= 1.2
                else:
                    eta *= 0.5
                fw_gap = float(grad @ w - np.min(grad)) / max(abs(J_cur), 1e-300)
                total_iters += 1
                if fw_gap <= gap_tol or eta < 1e-12:
                    break
            else:
                raise SolverError("simplex descent stalled (FW gap %.3g)" % fw_gap,
                                  gap=fw_gap)
        mu = DiscreteMeasure(report.m, [(z, wi) for z, wi in zip(pts, w)])
        params = params_from_report(report, q, R=R)
        J_star, _ = M_nu_s(mu, params, eps=e_lev)
        # built-in homogeneity check: the objective is weight-scale invariant
        J_double, _ = M_nu_s(mu.scaled(2.0), params, eps=e_lev)
        obj1 = mu.mass / J_star ** (1.0 / q)
        obj2 = 2.0 * mu.mass / J_double ** (1.0 / q)
        if abs(obj1 - obj2) > 1e-8 * max(abs(obj1), 1e-300):
            raise SolverError("homogeneity self-check failed")
        history.append((e_lev, 1.0 / J_star))
    qp = q / (q - 1.0)
    theta = q * (report.s(q) - report.m / qp)
    verdict, limit = _verdict_from_history(history, theta)
    return CapacityResult(float(history[-1][1]), eps, tuple(history), verdict,
                          float(fw_gap), total_iters, limit)


# --------------------------------------------------------------------------
# analytic shortcuts


def capacity_null_test(piece, alpha, p, ell):
    """Analytic null/positive decision for point and ball pieces.

    A point is null iff alpha p <= ell; a piece of intrinsic dimension d
    is null iff alpha p <= ell - d (nonempty interior, d = ell, is always
    positive).  Grids defer to the numeric program.
    """
    if not (0.0 < alpha < math.inf and 1.0 < p < math.inf):
        raise DomainError("need finite alpha > 0 and p > 1")
    if piece.kind == "point":
        return "null" if alpha * p <= ell else "positive"
    if piece.kind == "ball":
        d = piece.dim if piece.dim is not None else ell
        if d >= ell:
            return "positive"
        return "null" if alpha * p <= ell - d else "positive"
    return "needs-numeric"
