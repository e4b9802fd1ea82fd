"""Desk-scale numerical experiments behind the package's quantitative claims.

Each experiment measures a scaling exponent, a ratio spread, or a
convergence order, compares it against a pre-declared tolerance, and
returns an :class:`ExperimentReport` carrying the raw data.  Pass/fail
thresholds are fixed here as module constants, never adjusted after the
fact, and every random family is drawn from an explicit seed.  An
experiment whose measurement contradicts the analytic prediction raises
:class:`AnomalyError` with the report attached instead of failing quietly.

Constants in the underlying two-sided estimates are not explicit, so all
acceptance is ratio- or exponent-based; nothing here asserts an absolute
constant.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from ._quad import fit_loglog, geometric_edges, integrate_rows, merge_edges
from .besov import besov_neg_proxy, besov_pos_norm
from .errors import AnomalyError, ConfigurationError, DomainError
from .exponents import capacity_index_s, critical_exponents
from .geometry import DiscreteMeasure, dirac
from .kernels import (DEFAULT_QUAD, KernelParams, M_nu_s, QuadratureSpec,
                      _F_outside_m1, h_sigma_j, params_from_report)

DEFAULT_SEED = 42

# pre-declared pass thresholds
DICHOTOMY_SLOPE_RTOL = 0.05      # fitted vs predicted slope, well-resolved cases
DICHOTOMY_FLAT_ATOL = 0.05       # |fitted slope| bound for convergent cases
DICHOTOMY_RESOLVED = 0.2         # |e+1| above which the I(eps) slope is checked
FIT_R2_MIN = 0.99
EQUIV_SPREAD_MAX = 1e3
EQUIV_HOMOG_RTOL = 1e-4
EQUIV_GROWTH_SLACK = 1.10
REMAINDER_SLACK = 0.1
HARMONIC_ORDER_BAND = (1.8, 2.2)
HARMONIC_EXACT_RESIDUAL = 1e-10
HEAT_OVERSHOOT_MAX = 1e-12
HEAT_ORDER_BAND = (1.7, 2.3)
HEAT_RATIO_SPREAD_MAX = 100.0
HEAT_ZETA_GROWTH_MAX = 1.5


@dataclass
class ExperimentReport:
    name: str
    params: dict
    metrics: dict
    tolerances: dict
    passed: bool
    runtime: float
    rows: list = field(default_factory=list, repr=False)

    def to_dict(self, include_runtime=False):
        d = {"name": self.name, "params": dict(self.params),
             "metrics": dict(self.metrics), "tolerances": dict(self.tolerances),
             "passed": self.passed}
        if include_runtime:
            d["runtime"] = self.runtime
        return d


CSV_HEADER = ("experiment", "params", "metric", "value")


def reports_csv(reports):
    """CSV text with one row per (experiment, parameter tuple, metric); LF endings."""
    import csv
    import io
    import json

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_HEADER)
    for rep in reports:
        pstr = json.dumps(rep.params, sort_keys=True, separators=(",", ":"))
        for key in sorted(rep.metrics):
            w.writerow((rep.name, pstr, key, repr(rep.metrics[key])))
        for row in rep.rows:
            rp = json.dumps(row.get("params", {}), sort_keys=True,
                            separators=(",", ":"))
            w.writerow((rep.name, rp, row["metric"], repr(row["value"])))
    return buf.getvalue()


def write_reports_csv(reports, path):
    """Write :func:`reports_csv` of the reports to ``path`` as UTF-8."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(reports_csv(reports))


def measure_family(m, R, n_measures=20, seed=DEFAULT_SEED,
                   max_atoms=10):
    """Seeded positive atomic measures supported in B_{R/4} of R^m."""
    rng = np.random.default_rng(seed)
    fam = []
    for _ in range(n_measures):
        na = int(rng.integers(1, max_atoms + 1))
        atoms = []
        for _ in range(na):
            while True:
                z = rng.uniform(-R / 4.0, R / 4.0, size=m)
                if np.linalg.norm(z) <= R / 4.0:
                    break
            atoms.append((z, 1.0 - rng.random()))   # weight in (0, 1]
        fam.append(DiscreteMeasure(m, atoms))
    return fam


# --------------------------------------------------------------------------
# point-singularity dichotomy


def dichotomy_experiment(N, k, gamma, q, eps_grid=None, R=1.0, quad=None):
    """Cutoff scaling of the admissibility integral of a unit edge atom.

    The radially reduced integrand is w(r) = r^{(q+1)kappa+ + k - 1} T(r)
    with T the cross-edge slice; the full integral I(eps) over r > eps
    diverges as eps -> 0 exactly when the boundary exponent
    e = q(2-N-kappa+) + kappa+ + N - 1 satisfies e + 1 <= 0, i.e. q >= q_c.

    Two fits are reported: the slope of log I(eps) (compared with
    min(0, e+1) when |e+1| >= 0.2, where it is numerically resolvable)
    and the local integrand exponent (slope of log w(eps)), whose
    comparison with -1 decides the divergence verdict sharply even
    within 0.01 of the critical q.
    """
    t0 = time.perf_counter()
    quad = quad or DEFAULT_QUAD
    rep = critical_exponents(N, k, gamma)
    kp = rep.kappa_plus
    if eps_grid is None:
        eps_grid = tuple(10.0 ** (-ex) for ex in (6, 5, 4, 3, 2))
    eps_grid = tuple(sorted(eps_grid))
    if len(eps_grid) < 4:
        raise ConfigurationError("need a geometric eps grid with >= 4 points")
    e_exp = q * (2.0 - N - kp) + kp + N - 1.0
    predicted = min(0.0, e_exp + 1.0)

    jq = q * (2.0 - N - 2.0 * kp)        # kernel power |x|^{jq}
    rpow = (q + 1.0) * kp + k - 1.0      # edge-distance weight power
    mpow = N - k - 1.0                   # cross-edge polar weight power

    def slice_T(r_nodes):
        def f(rpp):
            return ((r_nodes[:, None] ** 2 + rpp[None, :] ** 2) ** (0.5 * jq)
                    * rpp[None, :] ** mpow)
        edges = merge_edges(1e-12 * R, R, geometric_edges(1e-12 * R, R, 4),
                            np.linspace(1e-12 * R, R, 9))
        vals, _ = integrate_rows(f, edges, rtol=quad.rtol,
                                 max_panels=quad.max_panels)
        return vals

    def integrand(r_nodes):
        return (r_nodes ** rpow * slice_T(r_nodes))[None, :]

    I_vals = []
    for eps in eps_grid:
        edges = merge_edges(eps, R, geometric_edges(eps, R, 6),
                            np.linspace(eps, R, 9))
        v, _ = integrate_rows(integrand, edges, rtol=quad.rtol,
                              max_panels=quad.max_panels)
        I_vals.append(float(v[0]))
    slope_I, _, r2_I, se_I = fit_loglog(eps_grid, I_vals)

    w_vals = np.array([float(integrand(np.array([e]))[0, 0]) for e in eps_grid])
    slope_w, _, r2_w, se_w = fit_loglog(eps_grid, w_vals)
    divergent = bool(slope_w <= -1.0)

    metrics = {
        "I_slope": slope_I, "I_r2": r2_I, "I_slope_stderr": se_I,
        "boundary_exponent": slope_w, "boundary_exponent_stderr": se_w,
        "boundary_exponent_r2": r2_w,
        "predicted_exponent": e_exp, "predicted_slope": predicted,
        "verdict": "divergent" if divergent else "convergent",
        "q_c": rep.q_c,
    }
    rows = [{"params": {"eps": e}, "metric": "I_eps", "value": v}
            for e, v in zip(eps_grid, I_vals)]
    tolerances = {"slope_rtol": DICHOTOMY_SLOPE_RTOL,
                  "flat_atol": DICHOTOMY_FLAT_ATOL,
                  "resolved_band": DICHOTOMY_RESOLVED, "r2_min": FIT_R2_MIN}

    passed = True
    if r2_w < FIT_R2_MIN:
        metrics["verdict"] = "inconclusive"
        passed = False
    elif divergent != (q >= rep.q_c):
        report = ExperimentReport("dichotomy", _dichotomy_params(N, k, gamma, q, R),
                                  metrics, tolerances, False,
                                  time.perf_counter() - t0, rows)
        raise AnomalyError("divergence verdict contradicts the critical "
                           "threshold (q=%.6g, q_c=%.6g)" % (q, rep.q_c), report)
    if e_exp + 1.0 <= -DICHOTOMY_RESOLVED:
        passed &= abs(slope_I - predicted) <= DICHOTOMY_SLOPE_RTOL * abs(predicted)
    elif e_exp + 1.0 >= DICHOTOMY_RESOLVED:
        passed &= abs(slope_I) <= DICHOTOMY_FLAT_ATOL
    metrics["passed_slope_check"] = bool(passed)
    return ExperimentReport("dichotomy", _dichotomy_params(N, k, gamma, q, R),
                            metrics, tolerances, bool(passed),
                            time.perf_counter() - t0, rows)


def _dichotomy_params(N, k, gamma, q, R):
    return {"N": N, "k": k, "gamma": gamma, "q": q, "R": R}


# --------------------------------------------------------------------------
# two-sided norm equivalence


def equivalence_experiment(N, k, gamma, q, R=8.0, n_measures=20,
                           seed=DEFAULT_SEED, eps=1e-2, R_grid=(4.0, 8.0, 16.0),
                           quad=None, family=None):
    """Ratio statistics of the weighted aggregate against the Besov proxy.

    In the capacity window atomic measures make both functionals diverge
    at the same cutoff rate, so the comparison is made between their
    regularizations at one matched inner cutoff ``eps``.  Checks: (a)
    exact q-homogeneity of both sides under mu -> 2 mu, (b) bounded
    ratio spread across the seeded family, (c) growth of the largest
    ratio in the truncation radius no faster than R^{(s+nu-m)q+1}.

    A built-in threshold guard evaluates the proxy ladder of a unit atom
    at the window index (must diverge) and at an index above m/q' (must
    converge); a mismatch is an anomaly and raises.
    """
    t0 = time.perf_counter()
    quad = quad or QuadratureSpec(rtol=1e-4)   # the declared quadrature tol
    rep = critical_exponents(N, k, gamma)
    if not rep.in_capacity_regime(q):
        raise ConfigurationError("equivalence experiment needs q_c <= q < q_c_star")
    m = rep.m
    s = rep.s(q)
    qp = q / (q - 1.0)
    growth_bound = (s + rep.nu - m) * q + 1.0

    fam = (list(family) if family is not None
           else measure_family(m, R, n_measures=n_measures, seed=seed))
    if any(mu.support_radius() > 0.5 * min(R_grid) for mu in fam):
        raise ConfigurationError("family must be supported in B_{R/2} for the "
                                 "smallest truncation radius")
    params = {"N": N, "k": k, "gamma": gamma, "q": q, "R": R, "eps": eps,
              "seed": seed, "n_measures": len(fam)}
    tolerances = {"spread_max": EQUIV_SPREAD_MAX, "homog_rtol": EQUIV_HOMOG_RTOL,
                  "growth_bound": growth_bound, "growth_slack": EQUIV_GROWTH_SLACK}

    # threshold guard on a unit atom
    guard_div = besov_neg_proxy(dirac(m), s, q, eps=eps, quad=quad)
    s_conv = 0.5 * (m / qp + min(2.0, 2.0 * m / qp))   # strictly above m/q'
    guard_conv = besov_neg_proxy(dirac(m), s_conv, q, eps=eps, quad=quad)
    expected_div = s < m / qp - 1e-12
    if (expected_div and not guard_div.divergent) or guard_conv.divergent:
        raise AnomalyError(
            "proxy divergence detector contradicts the s = m/q' threshold",
            None)

    kp = params_from_report(rep, q, R=R)
    ratios = []
    homog_err_M = []
    homog_err_P = []
    rows = []
    proxies = []
    for i, mu in enumerate(fam):
        Mv, _ = M_nu_s(mu, kp, quad=quad, eps=eps)
        P = besov_neg_proxy(mu, s, q, eps=eps, quad=quad).value
        M2, _ = M_nu_s(mu.scaled(2.0), kp, quad=quad, eps=eps)
        P2 = besov_neg_proxy(mu.scaled(2.0), s, q, eps=eps, quad=quad).value
        ratios.append(Mv / P)
        proxies.append(P)
        homog_err_M.append(abs(M2 / (2.0 ** q * Mv) - 1.0))
        homog_err_P.append(abs(P2 / (2.0 ** q * P) - 1.0))
        rows.append({"params": {"measure": i}, "metric": "ratio", "value": Mv / P})

    spread = max(ratios) / min(ratios)

    growth = []
    for Rg in R_grid:
        kg = params_from_report(rep, q, R=Rg)
        vals = [M_nu_s(mu, kg, quad=quad, eps=eps)[0] / P
                for mu, P in zip(fam, proxies)]
        growth.append(max(vals))
        rows.append({"params": {"R": Rg}, "metric": "max_ratio", "value": max(vals)})
    growth_slope, _, growth_r2, _ = fit_loglog(R_grid, growth)

    metrics = {
        "ratio_spread": spread,
        "ratio_min": min(ratios), "ratio_max": max(ratios),
        "homog_max_rel_err_M": max(homog_err_M),
        "homog_max_rel_err_proxy": max(homog_err_P),
        "growth_fitted": growth_slope, "growth_r2": growth_r2,
        "growth_bound": growth_bound, "s": s,
    }
    passed = (spread <= EQUIV_SPREAD_MAX
              and max(homog_err_M) <= EQUIV_HOMOG_RTOL
              and max(homog_err_P) <= EQUIV_HOMOG_RTOL
              and growth_slope <= growth_bound * EQUIV_GROWTH_SLACK)
    return ExperimentReport("equivalence", params, metrics, tolerances,
                            bool(passed), time.perf_counter() - t0, rows)


# --------------------------------------------------------------------------
# truncation remainder scaling


def remainder_experiment(nu, sigma, m, j, q, mu=None, R_grid=(2.0, 4.0, 8.0, 16.0),
                         quad=None):
    """Truncation error of the reduced aggregate against its power bound.

    Delta(R) = integral_R^inf F h dtau + integral_0^R (F - F^R) h dtau,
    the two finite pieces of the difference between the full and the
    truncated functionals.  The fitted R-exponent must stay below
    (sigma+1-nu)q + m + j - 1 (+0.1 slack) and Delta must be nonincreasing.
    """
    t0 = time.perf_counter()
    quad = quad or DEFAULT_QUAD
    if m != 1:
        raise ConfigurationError("remainder experiment implemented for m = 1")
    mu = mu if mu is not None else dirac(1)
    R_grid = tuple(sorted(R_grid))
    if mu.support_radius() > 0.5 * R_grid[0]:
        raise DomainError("measure must be supported in B_{R/2} for the smallest R")
    params = KernelParams(nu=nu, m=m, q=q, sigma=sigma, j=j)
    nuq = nu * q
    if not (m < nuq and j - 1 < nuq):
        raise DomainError("need m < nu q and j - 1 < nu q")
    bound = (sigma + 1.0 - nu) * q + m + j - 1.0

    from .kernels import F_nu_m

    deltas = []
    for R in R_grid:
        # tail: integral over tau > R of the full slice integral
        def f_tail(tau):
            fv, _ = F_nu_m(tau, mu, params, quad=quad, truncated=False)
            return (np.atleast_1d(fv) * h_sigma_j(tau, sigma, j, q))[None, :]

        Y = max(60.0, 3.0 * R)
        edges = merge_edges(R, Y, geometric_edges(R, Y, 8))
        tail_v, _ = integrate_rows(f_tail, edges, rtol=quad.rtol,
                                   max_panels=quad.max_panels)

        # deficit: integral over tau < R of the outside-ball slice integral
        def f_def(tau):
            fv, _ = _F_outside_m1(np.asarray(tau, float), mu, params, R, quad)
            return (fv * h_sigma_j(tau, sigma, j, q))[None, :]

        edges2 = merge_edges(1e-6 * R, R, geometric_edges(1e-6 * R, R, 5),
                             np.linspace(1e-6 * R, R, 9))
        def_v, _ = integrate_rows(f_def, edges2, rtol=quad.rtol,
                                  max_panels=quad.max_panels)
        deltas.append(float(tail_v[0] + def_v[0]))

    slope, _, r2, se = fit_loglog(R_grid, deltas)
    monotone = bool(np.all(np.diff(deltas) <= 1e-12 * np.array(deltas[:-1])))
    metrics = {"fitted_exponent": slope, "r2": r2, "stderr": se,
               "bound": bound, "monotone": monotone}
    rows = [{"params": {"R": R}, "metric": "Delta", "value": d}
            for R, d in zip(R_grid, deltas)]
    tolerances = {"bound_slack": REMAINDER_SLACK, "r2_min": FIT_R2_MIN}
    if r2 < FIT_R2_MIN:
        passed = False
        metrics["verdict"] = "inconclusive"
    else:
        passed = (slope <= bound + REMAINDER_SLACK) and monotone
    return ExperimentReport("remainder",
                            {"nu": nu, "sigma": sigma, "m": m, "j": j, "q": q,
                             "R_grid": list(R_grid)},
                            metrics, tolerances, bool(passed),
                            time.perf_counter() - t0, rows)


# --------------------------------------------------------------------------
# harmonicity of the wedge profiles


def _wedge_points(alpha, h_max):
    pts = []
    for tfrac in (0.25, 0.4, 0.5, 0.6, 0.75):
        for rp in (0.6, 1.0, 1.4):
            for x3 in (-0.4, 0.0, 0.4):
                th = tfrac * alpha
                pts.append((rp * math.sin(th), rp * math.cos(th), x3))
    pts = np.array(pts)
    # keep points at distance > 10 h from the two walls
    rp = np.hypot(pts[:, 0], pts[:, 1])
    th = np.arctan2(pts[:, 0], pts[:, 1]) % (2.0 * math.pi)
    dist = rp * np.sin(np.minimum(th, alpha - th))
    return pts[dist > 10.0 * h_max]


def harmonicity_experiment(target="v_A", alpha=math.pi / 2, N=3,
                           h_grid=(0.02, 0.01, 0.005, 0.0025)):
    """Second-order decay of the discrete Laplacian on the wedge profiles.

    target 'v_A' is the homogeneous positive profile |x'|^kappa
    sin(kappa theta_1); 'martin' is the edge kernel with pole at the
    origin.  Polynomial cases (integer kappa for v_A) sit at machine
    epsilon; all others must show order-2 decay of the residual.
    """
    t0 = time.perf_counter()
    if N != 3:
        raise ConfigurationError("harmonicity experiment implemented for N = 3, k = 2")
    kappa = math.pi / alpha
    nu = N - 2.0 + 2.0 * kappa

    def v_A(x):
        rp = np.hypot(x[..., 0], x[..., 1])
        th = np.arctan2(x[..., 0], x[..., 1]) % (2.0 * math.pi)
        return rp ** kappa * np.sin(kappa * th)

    if target == "v_A":
        fn = v_A
    elif target == "martin":
        def fn(x):
            r2 = np.sum(x ** 2, axis=-1)
            return v_A(x) * r2 ** (-0.5 * nu)
    else:
        raise ConfigurationError("target must be v_A|martin")

    h_grid = tuple(sorted(h_grid, reverse=True))
    pts = _wedge_points(alpha, h_grid[0])
    residuals = []
    for h in h_grid:
        acc = -2.0 * 3 * fn(pts)
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = h
            acc += fn(pts + e) + fn(pts - e)
        residuals.append(float(np.max(np.abs(acc / h ** 2))))
    orders = [math.log2(residuals[i] / residuals[i + 1])
              for i in range(len(residuals) - 1)]
    exact = max(residuals) <= 1e-9
    if exact:
        # roundoff in the second difference grows like eps/h^2, so the
        # exact-polynomial residual is read at the coarsest step
        passed = residuals[0] <= HARMONIC_EXACT_RESIDUAL
    else:
        passed = all(HARMONIC_ORDER_BAND[0] <= o <= HARMONIC_ORDER_BAND[1]
                     for o in orders)
    metrics = {"residuals": residuals, "orders": orders,
               "mode": "exact" if exact else "order2",
               "max_residual": max(residuals), "coarse_residual": residuals[0]}
    rows = [{"params": {"h": h}, "metric": "residual", "value": r}
            for h, r in zip(h_grid, residuals)]
    return ExperimentReport("harmonicity",
                            {"target": target, "alpha": alpha, "N": N,
                             "h_grid": list(h_grid)},
                            metrics,
                            {"order_band": list(HARMONIC_ORDER_BAND),
                             "exact_residual": HARMONIC_EXACT_RESIDUAL},
                            bool(passed), time.perf_counter() - t0, rows)


# --------------------------------------------------------------------------
# harmonic lifting through the heat semigroup


class HeatLift:
    """Dirichlet heat evolution on (-R, R), exact in time on the FD grid.

    The second-order space discretization is propagated through its
    eigendecomposition, so evaluation at any t is exact for the
    semi-discrete system, time derivatives are analytic, and the
    discrete maximum principle holds to roundoff.  The lift is
    H(x', x'') = w(|x'|^2, x'').
    """

    def __init__(self, eta_fn, R, n=1024):
        self.R = R
        self.n = n
        self.x = np.linspace(-R, R, n + 1)
        self.h = self.x[1] - self.x[0]
        self.eta = np.asarray(eta_fn(self.x), float)
        if self.eta[0] != 0.0 or self.eta[-1] != 0.0:
            raise DomainError("eta must vanish at the ends of the ball")
        hi = np.full(n - 1, -2.0) / self.h ** 2
        off = np.full(n - 2, 1.0) / self.h ** 2
        lam, V = eigh_tridiagonal(-hi, -off)   # eigenvalues of -Laplacian > 0
        self.lam = lam
        self.V = V
        self.c = V.T @ self.eta[1:-1]

    def _assemble(self, interior):
        out = np.zeros(self.n + 1)
        out[1:-1] = interior
        return out

    def w(self, t):
        return self._assemble(self.V @ (np.exp(-self.lam * t) * self.c))

    def wt(self, t):
        return self._assemble(self.V @ (-self.lam * np.exp(-self.lam * t) * self.c))

    def wtt(self, t):
        return self._assemble(self.V @ (self.lam ** 2 * np.exp(-self.lam * t) * self.c))

    def H(self, y):
        return self.w(y * y)


def _cos2_bump(center, width):
    def eta(x):
        u = np.clip((x - center) / width, -1.0, 1.0)
        out = np.cos(0.5 * math.pi * u) ** 2
        out[np.abs((x - center) / width) >= 1.0] = 0.0
        return out
    return eta


def _cutoff_profile(u):
    """1 below 1/2, 0 above 3/4, smooth in between."""
    out = np.ones_like(u)
    mid = (u > 0.5) & (u < 0.75)
    out[mid] = np.cos(2.0 * math.pi * (u[mid] - 0.5)) ** 2
    out[u >= 0.75] = 0.0
    return out


def heat_lifting(R=4.0, k=2, kappa_plus=2.0, q=1.8, edge_dim=1, n_solve=1024,
                 h_grid=(1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0), eta_fn=None):
    """Lift boundary bumps through the heat flow and check the estimates.

    (a) the maximum principle 0 <= H <= max eta holds to roundoff;
    (b) the chain-rule Laplacian identity
        Delta H = 4 y^2 w_tt + (2k+1) w_t   (t = y^2)
        is verified by comparing the spatial FD Laplacian of H with the
        analytic-in-time right side, at second order in the FD step;
    (c) the weighted gradient functional of the lift is controlled by a
        fractional edge norm of eta, reported as a ratio spread over a
        bump family;
    (d) the test-function Laplacian |Delta zeta| stays dominated by the
        product eigenfunction surrogate, reported as a sup-ratio.

    Returns (lift, report) where lift is the HeatLift of the primary bump.
    """
    t0 = time.perf_counter()
    if edge_dim != 1:
        raise ConfigurationError("heat lifting implemented at desk scale N-k = 1")
    qp = q / (q - 1.0)
    s = capacity_index_s(k, kappa_plus, q)
    if not (0.0 < s < 2.0):
        raise ConfigurationError(
            "edge index s = 2-(k+kappa_plus)/q' = %.6g is outside (0, 2); "
            "pick q inside the capacity window of this opening" % s)

    lift = HeatLift(eta_fn or _cos2_bump(0.0, R / 2.0), R, n=n_solve)
    if np.min(lift.eta) < 0.0 or np.max(lift.eta) > 1.0:
        raise DomainError("eta must take values in [0, 1]")
    outside = np.abs(lift.x) > 0.5 * R
    if np.any(np.abs(lift.eta[outside]) > 0.0):
        raise DomainError("eta must be supported in B_{R/2}")
    x = lift.x
    h_s = lift.h

    # (a) maximum principle + exact initial trace
    t_samples = np.concatenate([[0.0], np.geomspace(1e-6, R * R, 60)])
    overshoot = 0.0
    eta_max = float(np.max(lift.eta))
    for t in t_samples:
        wv = lift.w(t)
        overshoot = max(overshoot, float(np.max(wv) - eta_max), float(-np.min(wv)))
    init_err = float(np.max(np.abs(lift.w(0.0) - lift.eta)))
    overshoot = max(overshoot, init_err)

    # (b) Laplacian identity at three FD resolutions
    resid = []
    for frac in sorted(h_grid, reverse=True):
        h = frac * R
        stride = int(round(h / h_s))
        if abs(stride * h_s - h) > 1e-12 * h:
            raise ConfigurationError("h_grid entries must be multiples of the "
                                     "solver step")
        ys = np.arange(0.15 * R, 0.7 * R, h)
        cols = np.arange(stride, x.size - stride, stride)
        worst = 0.0
        for y in ys:
            w0 = lift.w(y * y)
            wp = lift.w((y + h) ** 2)
            wm = lift.w((y - h) ** 2)
            lhs = ((wp - 2.0 * w0 + wm) / h ** 2
                   + (k - 1.0) / y * (wp - wm) / (2.0 * h))
            lhs = lhs[cols] + (w0[cols + stride] - 2.0 * w0[cols]
                               + w0[cols - stride]) / h ** 2
            rhs = 4.0 * y * y * lift.wtt(y * y)[cols] \
                + (2.0 * k + 1.0) * lift.wt(y * y)[cols]
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        resid.append(worst)
    orders = [math.log2(resid[i] / resid[i + 1]) for i in range(len(resid) - 1)]

    # (c) gradient functional vs fractional edge norm, over a bump family
    family = [(0.0, R / 4.0), (0.0, R / 6.0), (R / 8.0, R / 8.0),
              (-R / 8.0, R / 6.0), (R / 16.0, R / 4.0)]
    ys = np.arange(0.05 * R, 0.72 * R, R / 64.0)
    cols = np.arange(1, x.size - 1)
    psi = _cutoff_profile(ys / R)
    dpsi = np.gradient(_cutoff_profile(np.abs(ys) / R), ys)
    rho_R = np.cos(0.5 * math.pi * x[cols] / R)
    drho_R = -0.5 * math.pi / R * np.sin(0.5 * math.pi * x[cols] / R)
    ratios = []
    for center, width in family:
        lf = HeatLift(_cos2_bump(center, width), R, n=n_solve)
        Lq = 0.0
        for iy, y in enumerate(ys):
            t = y * y
            w0, wt, wtt = lf.w(t), lf.wt(t), lf.wtt(t)
            lapH = 4.0 * t * wtt[cols] + (2.0 * k + 1.0) * wt[cols]
            dyH = 2.0 * y * wt[cols]
            dxH = (w0[cols + 1] - w0[cols - 1]) / (2.0 * h_s)
            rho_A = y ** kappa_plus * psi[iy]
            rho = rho_A * rho_R
            drho_y = (kappa_plus * y ** (kappa_plus - 1.0) * psi[iy]
                      + y ** kappa_plus * dpsi[iy]) * rho_R
            drho_x = rho_A * drho_R
            grad_term = np.abs(drho_y * dyH + drho_x * dxH)
            Lval = (np.maximum(rho, 0.0) ** (1.0 / qp) * np.abs(lapH)
                    + 2.0 * np.maximum(rho, 1e-300) ** (-1.0 / q) * grad_term)
            Lq += float(np.sum(Lval ** qp) * h_s * (R / 64.0)) * y ** (k - 1.0)
        eta_norm = besov_pos_norm(lf.eta, x, s, qp)
        ratios.append(Lq ** (1.0 / qp) / eta_norm)
    ratio_spread = max(ratios) / min(ratios)

    # (d) |Delta zeta| <= c rho^R rho_A^R as a finite-sample sup-ratio
    gamma_open = kappa_plus ** 2 + (k - 2.0) * kappa_plus
    sup_ratios = []
    for frac in sorted(h_grid, reverse=True)[-2:]:
        h = frac * R
        stride = int(round(h / h_s))
        ys2 = np.arange(max(0.1 * R, 2.0 * h), 0.7 * R, h)
        cols2 = np.arange(stride, x.size - stride, stride)
        worst = 0.0
        for y in ys2:
            def zeta_slice(yv):
                val = lift.w(yv * yv) ** qp
                return (yv ** kappa_plus
                        * _cutoff_profile(np.array([yv / R]))[0] * val)
            z0, zp, zm = zeta_slice(y), zeta_slice(y + h), zeta_slice(y - h)
            lap = ((zp - 2.0 * z0 + zm) / h ** 2
                   + (k - 1.0) / y * (zp - zm) / (2.0 * h)
                   - gamma_open / y ** 2 * z0)
            lap = lap[cols2] + (z0[cols2 + stride] - 2.0 * z0[cols2]
                                + z0[cols2 - stride]) / h ** 2
            dom = (np.cos(0.5 * math.pi * x[cols2] / R)
                   * y ** kappa_plus * _cutoff_profile(np.array([y / R]))[0])
            mask = dom > 1e-8
            worst = max(worst, float(np.max(np.abs(lap[mask]) / dom[mask])))
        sup_ratios.append(worst)
    zeta_growth = sup_ratios[-1] / sup_ratios[0] if sup_ratios[0] > 0 else np.inf

    metrics = {
        "overshoot": overshoot, "initial_trace_error": init_err,
        "identity_residuals": resid, "identity_orders": orders,
        "gradient_ratio_spread": ratio_spread,
        "gradient_ratios": ratios,
        "zeta_sup_ratios": sup_ratios, "zeta_growth": zeta_growth,
    }
    passed = (overshoot <= HEAT_OVERSHOOT_MAX
              and all(HEAT_ORDER_BAND[0] <= o <= HEAT_ORDER_BAND[1]
                      for o in orders)
              and ratio_spread <= HEAT_RATIO_SPREAD_MAX
              and zeta_growth <= HEAT_ZETA_GROWTH_MAX)
    rows = [{"params": {"h": f * R}, "metric": "identity_residual", "value": r}
            for f, r in zip(sorted(h_grid, reverse=True), resid)]
    report = ExperimentReport("heat_lifting",
                              {"R": R, "k": k, "kappa_plus": kappa_plus, "q": q,
                               "edge_dim": edge_dim, "n_solve": n_solve},
                              metrics,
                              {"overshoot_max": HEAT_OVERSHOOT_MAX,
                               "order_band": list(HEAT_ORDER_BAND),
                               "ratio_spread_max": HEAT_RATIO_SPREAD_MAX,
                               "zeta_growth_max": HEAT_ZETA_GROWTH_MAX},
                              bool(passed), time.perf_counter() - t0, rows)
    return lift, report
