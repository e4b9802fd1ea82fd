"""Bessel kernels, Bessel capacities, and the weighted edge capacity.

The Bessel kernel of order alpha on R^ell is evaluated through its heat
subordination integral

    G_alpha(x) = (4 pi)^{-ell/2} / Gamma(alpha/2)
                 * integral_0^inf t^{(alpha-ell)/2 - 1} e^{-t - |x|^2/(4t)} dt,

normalized so that its Fourier transform is (1 + |xi|^2)^{-alpha/2} and
its total integral is 1.  Capacities of finite point sets come from the
discretized min-norm program

    min ||g||_p^p   over g >= 0 on a source grid,  (G_alpha * g)(x) >= 1 on K,

solved through its dual, with the cell integrals of G_alpha taken from the
same subordination integral; the weighted edge capacity in its sup-mass form
reduces, by q-homogeneity of the admissibility functional J, to minimizing J
over the weight simplex, with J summed on the nodes of one adaptive M_nu_s
solve.  One projected Newton method solves both to round-off.

Capacity zero is a limit statement, but for the finite sets both solvers
take it is known exactly: a point set is null iff the exponent theta of
the leading refinement correction is <= 0 (Adams & Hedberg, Function
Spaces and Potential Theory, 1996, the rule of capacity_null_test).  The
verdict is that sign; the refinement histories (over grid resolution, or
over the inner cutoff for the edge capacity) only extrapolate the limit
of a positive capacity.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._quad import integrate_rows
from .errors import (ConfigurationError, DomainError, SingularityError,
                     SolverError)
from .geometry import DiscreteMeasure
from .kernels import DEFAULT_QUAD, M_nu_s, _M_nodes, default_R, params_from_report

FIT_RESIDUAL_TOL = 0.05     # relative misfit above which no limit is extrapolated


@dataclass(frozen=True)
class CapacityResult:
    value: float
    resolution: float
    history: tuple          # ((resolution-or-cutoff, value), ...) coarse -> fine
    verdict: str            # positive | vanishing, from the sign of theta
    gap: float              # relative duality gap (grid) or Newton decrement (edge)
    iterations: int         # Newton steps (finest level; all levels for the edge)
    limit: float | None = None   # extrapolated continuum value when resolvable


def _verdict_from_history(history, theta):
    """(verdict, limit) of a finite set from its refinement history.

    The leading discretization correction of both capacity programs is a
    power of the refinement parameter with exponent theta (alpha p - 1
    for the grid program, q (s - m/q') for the cutoff ladder), and the set
    is null exactly when theta <= 0: "vanishing" with limit 0.  Otherwise
    it is "positive", and fitting 1/value = C + b * r^theta extrapolates
    the limit 1/C; the limit is None when the history cannot be fitted,
    C <= 0 or the misfit exceeds FIT_RESIDUAL_TOL.
    """
    res = np.array([r for r, _ in history], float)
    vals = np.array([v for _, v in history], float)
    if theta <= 0.0 or np.all(vals == 0.0):
        return "vanishing", 0.0
    if np.any(vals <= 0.0) or res.size < 3:
        return "positive", None
    u = 1.0 / vals
    x = res ** theta
    A = np.vstack([x, np.ones_like(x)]).T
    (b, C), _, _, _ = np.linalg.lstsq(A, u, rcond=None)
    resid = float(np.sqrt(np.mean((A @ np.array([b, C]) - u) ** 2))) / float(np.mean(u))
    if resid > FIT_RESIDUAL_TOL or C <= 0.0:
        return "positive", None
    return "positive", 1.0 / C


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
    from scipy.special import gammaln
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
    from scipy.special import erfc, gammainc, gammaln
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
# projected Newton on the nonnegative orthant

_CERTIFIED = 1e-9   # largest relative decrement returned
_EPS = np.finfo(float).eps


def _orthant_newton(phi, x0):
    """Minimize f(x) = phi(x) - sum(x) over x >= 0; phi(x) returns the
    value, gradient and Hessian of a convex function.

    Bertsekas' projected Newton method: the eps-active coordinates take a
    projected Jacobi step, those the Newton step pushes out of the bound
    stay, and the rest take a Newton step through the eigendecomposition
    of their Hessian block, dropping eigenvalues below 1e-14 of the
    largest (coinciding targets).  Steps backtrack along the projection
    arc and never raise f beyond its rounding.  Returns (x, relative
    decrement, steps); raises SolverError unless it is within _CERTIFIED.
    """
    x = np.maximum(np.asarray(x0, float), 0.0)
    val, grad, H = phi(x)
    f, last = val - x.sum(), False
    for step in range(101):
        gr, diag, e = grad - 1.0, np.diag(H), np.linalg.eigvalsh(H)
        if not (np.all(diag > 0.0) and e[0] >= -1e-8 * e[-1]):   # beyond round-off
            raise SolverError("objective is not convex", gap=math.inf)
        scaled = x - np.maximum(x - gr / diag, 0.0)
        eps = np.max(np.abs(scaled))
        fr = (x > eps) | (gr <= 0.0)
        d = -scaled
        while np.any(fr):
            e, V = np.linalg.eigh(H[np.ix_(fr, fr)])
            keep = e > 1e-14 * e[-1]
            d[fr] = -V[:, keep] @ ((V[:, keep].T @ gr[fr]) / e[keep])
            out = fr & (x <= eps) & (d < 0.0)
            if not np.any(out):
                break
            fr &= ~out
            d[out] = 0.0
        dec = gr[~fr] @ scaled[~fr] - 0.5 * (gr[fr] @ d[fr])
        rel = dec / max(abs(f), 1e-300)
        if last or step == 100 or np.all(abs(np.maximum(x + d, 0.0) - x) <= 4 * _EPS * x):
            break
        noise = _EPS * (abs(val) + x.sum())
        last = dec <= noise   # f can no longer rank steps: take the full one, stop
        down = fr & (d < 0.0)     # first backtrack: the arc's first kink
        kink = np.min(x[down] / -d[down], initial=0.5)
        for t in np.append(1.0, kink * 0.5 ** np.arange(60)):
            xn = np.maximum(x + t * d, 0.0)
            with np.errstate(over="ignore"):   # an overflowing trial is rejected
                vn, gn, Hn = phi(xn)
            fn = vn - xn.sum()
            if (fn <= f + noise) if last else (fn < f and f - fn >= 1e-4 * (gr @ (x - xn))):
                break
        else:
            break
        x, f, val, grad, H = xn, fn, vn, gn, Hn
    if not rel <= _CERTIFIED:
        raise SolverError("projected Newton stopped at relative decrement %.3g "
                          "after %d steps" % (rel, step), gap=rel)
    return x, rel, step


def _ray_start(phi, u, degree):
    """argmin of phi(x) - sum(x) on the ray through u, phi homogeneous."""
    return u * (u.sum() / (degree * phi(u)[0])) ** (1.0 / (degree - 1.0))


def _check_levels(levels):
    if not (isinstance(levels, numbers.Integral) and levels >= 1):
        raise DomainError("levels must be an integer >= 1")


# --------------------------------------------------------------------------
# min-norm Bessel capacity


def bessel_capacity(points, alpha, p, resolution=0.05, levels=4):
    """Discretized Bessel capacity of a finite point set K in R^1.

    Source grid: K dilated by three kernel effective radii max(1, alpha),
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
    _check_levels(levels)
    pts = np.atleast_1d(np.asarray(points, float))
    if pts.ndim > 1:
        if pts.shape[1] != 1:
            raise ConfigurationError("numeric capacity implemented on R^1")
        pts = pts[:, 0]
    if not np.all(np.isfinite(pts)):
        raise DomainError("points must be finite")
    if pts.size == 0:
        hist = tuple((resolution * 2.0 ** (levels - 1 - i), 0.0) for i in range(levels))
        return CapacityResult(0.0, resolution, hist, "vanishing", 0.0, 0)

    reff = 3.0 * max(1.0, alpha)
    lo, hi = float(np.min(pts)) - reff, float(np.max(pts)) + reff
    history = []
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

        def phi(lam):   # dual: the optimal g is (A^T lam / p h)^{1/(p-1)}
            s = A.T @ lam
            g = (s / (p * h)) ** (1.0 / (p - 1.0))
            dg = np.divide(g, (p - 1.0) * s, out=np.zeros_like(s), where=s > 0.0)
            return (p - 1.0) * h * float(np.sum(g ** p)), A @ g, (A * dg) @ A.T

        lam, _, iters = _orthant_newton(phi, _ray_start(phi, np.ones(pts.size),
                                                        p / (p - 1.0)))
        g = (A.T @ lam / (p * h)) ** (1.0 / (p - 1.0))
        value = h * float(np.sum((g / np.min(A @ g)) ** p))   # g made feasible
        gap = 1.0 - (lam.sum() - phi(lam)[0]) / value         # relative duality gap
        history.append((h, value))
    verdict, limit = _verdict_from_history(history, alpha * p - 1.0)
    return CapacityResult(float(value), resolution, tuple(history), verdict,
                          float(gap), iters, limit)


# --------------------------------------------------------------------------
# weighted edge capacity (sup-mass form)


def _J_phi(uniform, params, eps):
    """phi(w) = (J, gradient, Hessian) for weights w on the atoms of
    ``uniform``, J the M_nu_s aggregate over (eps, R).

    J is summed on the nodes of one adaptive M_nu_s solve at ``uniform``
    (see kernels._M_nodes): the same integrand, rule and panels as the
    reported value, held fixed so that J(w) stays smooth during the
    optimization.  The w-independent (tau, y, atom) kernel tensor is
    built once.
    """
    tau, tw, y, yw = _M_nodes(uniform, params, DEFAULT_QUAD, eps)
    zs, q = uniform.positions[:, 0], params.q
    K = ((tau[:, None, None] ** 2 + (y[:, :, None] - zs) ** 2)
         ** (-0.5 * params.nu)).reshape(-1, zs.size)
    cw = (tw[:, None] * yw).ravel()

    def phi(w):
        S = K @ w
        c = cw * S ** (q - 2.0)
        return (float(c @ (S * S)), q * (K.T @ (c * S)),
                q * (q - 1.0) * (K.T @ (K * c[:, None])))
    return phi


def rho_capacity(points, report, q, R=None, levels=4):
    """Sup-mass capacity of a finite edge set under the weighted functional.

    Maximizing mass(mu)^q subject to J(mu) = 1 reduces, because J is
    q-homogeneous, to sup mass/J^{1/q} over the weight simplex, i.e. to
    minimizing J there, or J(w) - sum(w) over w >= 0 up to scale; the
    value is 1/min J.  The constraint functional is the cutoff-regularized
    admissibility aggregate M_nu_s, optimized on the nodes of one adaptive
    M_nu_s solve per cutoff and reported by M_nu_s at the optimal weights.
    The history tracks the cutoff ladder 1e-2 / 2^level: supercritical
    configurations drive the value to zero as the cutoff shrinks.
    """
    eps = 1e-2   # coarsest cutoff
    _check_levels(levels)
    pts = np.atleast_2d(np.asarray(points, float))
    if pts.size == 0:
        hist = tuple((eps / 2.0 ** i, 0.0) for i in range(levels))
        return CapacityResult(0.0, eps, hist, "vanishing", 0.0, 0)
    if pts.shape[1] != report.m:
        raise ConfigurationError("points must live on the edge R^{N-k}")
    if report.m != 1:
        raise ConfigurationError("numeric edge capacity implemented for N-k = 1")
    if not np.all(np.isfinite(pts)):
        raise DomainError("points must be finite")

    uniform = DiscreteMeasure(report.m, [(z, 1.0 / len(pts)) for z in pts])
    params = params_from_report(report, q, R=default_R(uniform) if R is None else R)
    rho = uniform.support_radius()
    if rho > 0.5 * params.R + 1e-12:
        raise DomainError("points must lie in B_{R/2}: R = %g is below 2 max|z| = %g"
                          % (params.R, 2.0 * rho))
    history = []
    total_iters = 0
    for lev in range(levels):
        e_lev = eps / 2.0 ** lev
        phi = _J_phi(uniform, params, e_lev)
        x, decrement, steps = _orthant_newton(phi, _ray_start(phi, np.ones(len(pts)), q))
        total_iters += steps
        mu = DiscreteMeasure(report.m, [(z, wi) for z, wi in zip(pts, x / x.sum())])
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
                          float(decrement), total_iters, limit)


# --------------------------------------------------------------------------
# analytic shortcuts


def capacity_null_test(piece, alpha, p, ell):
    """Analytic null/positive decision for a piece of R^ell.

    A point is null iff alpha p <= ell, and so is a grid, a finite union
    of points (capacity is countably subadditive).  A ball of intrinsic
    dimension d is null iff alpha p <= ell - d (nonempty interior,
    d = ell, is always positive).  ell is an integer >= 0; a vertex
    point has ell = 0.
    """
    if not (0.0 < alpha < math.inf and 1.0 < p < math.inf):
        raise DomainError("need finite alpha > 0 and p > 1")
    if not (isinstance(ell, numbers.Integral) and ell >= 0):
        raise DomainError("ell must be an integer >= 0 (got %r)" % (ell,))
    if piece.kind == "ball":
        d = piece.dim if piece.dim is not None else ell
        if d >= ell:
            return "positive"
        return "null" if alpha * p <= ell - d else "positive"
    return "null" if alpha * p <= ell else "positive"
