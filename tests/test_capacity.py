import json
import math
import os
import re
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize, minimize_scalar
from scipy.special import gamma as G, kv, modstruve

from wedgecap import _quad, capacity, kernels
from wedgecap.capacity import (FIT_RESIDUAL_TOL, _cell_matrix, _J_phi,
                               _orthant_newton, _ray_start, bessel_capacity,
                               bessel_kernel_radial, capacity_null_test,
                               rho_capacity)
from wedgecap.errors import DomainError, SingularityError, SolverError
from wedgecap.exponents import critical_exponents
from wedgecap.geometry import DiscreteMeasure, SetPiece, set_from_dict
from wedgecap.kernels import (DEFAULT_QUAD, F_nu_m, M_nu_s, QuadratureSpec, _M_nodes,
                              params_from_report)
from wedgecap._quad import integrate_rows, merge_edges

QUARTER = critical_exponents(3, 2, 4.0)
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _uniform(pts):
    return DiscreteMeasure(1, [(z, 1.0 / len(pts)) for z in pts])


def _edge_J(zs, R, eps, rtol):
    """w -> M_nu_s of the weights w on the atoms zs, the oracle's J."""
    params = params_from_report(QUARTER, 1.5, R=R)

    def J(w):
        mu = DiscreteMeasure(1, [((z,), wi) for z, wi in zip(zs, w)])
        return M_nu_s(mu, params, quad=QuadratureSpec(rtol), eps=eps)[0]
    return J


class TestBesselKernel:
    def test_exponential_closed_form(self):
        xs = np.linspace(0.05, 6.0, 10)
        g = bessel_kernel_radial(xs, 2.0, 1)
        assert np.max(np.abs(g - np.exp(-xs) / 2.0)) < 1e-8

    def test_bessel_k_oracle(self):
        # subordination vs the K_nu closed form, fractional orders
        xs = np.array([0.3, 1.0, 2.5])
        for alpha, ell in ((0.4, 1), (1.3, 1), (0.8, 2)):
            nuo = 0.5 * (alpha - ell)
            ref = ((4 * math.pi) ** (-0.5 * ell) * 2.0 / G(alpha / 2)
                   * (xs / 2.0) ** nuo * kv(nuo, xs))
            got = bessel_kernel_radial(xs, alpha, ell)
            assert np.max(np.abs(got - ref) / ref) < 1e-10

    def test_radial_decrease(self):
        xs = np.linspace(0.05, 4.0, 40)
        g = bessel_kernel_radial(xs, 0.7, 1)
        assert np.all(np.diff(g) < 0)

    def test_unit_mass(self):
        v, _ = integrate_rows(lambda r: bessel_kernel_radial(r, 0.7, 1)[None, :],
                              merge_edges(1e-12, 40.0, np.geomspace(1e-12, 40.0, 83)),
                              rtol=1e-9)
        assert abs(2.0 * v[0] - 1.0) < 1e-6

    def test_singularity_guard(self):
        with pytest.raises(SingularityError):
            bessel_kernel_radial(0.0, 0.5, 1)
        assert bessel_kernel_radial(0.0, 1.5, 1) > 0   # finite above alpha = ell


def _struve_primitive(t, alpha):
    # integral_0^t G_alpha on R^1 from DLMF 10.43 (Struve L), odd in t
    c = 0.5 * (alpha - 1.0)
    at = np.abs(t)
    return np.sign(t) * 0.5 * at * (kv(c, at) * modstruve(c - 1.0, at)
                                    + modstruve(c, at) * kv(c - 1.0, at))


@pytest.mark.parametrize("alpha", [0.35, 0.6, 1.3])
def test_cell_matrix_matches_struve_closed_form(alpha):
    # every cell, including the one holding each target and those at
    # |d| = 0.5, where an interpolated primitive was off by 3e-4 and 1.5e-2
    h = 0.02
    pts = np.array([-0.6, 0.1, 0.6])
    centers = np.arange(-3.0, 3.0 + h / 2, h)
    d = pts[:, None] - centers[None, :]
    ref = (_struve_primitive(d + 0.5 * h, alpha)
           - _struve_primitive(d - 0.5 * h, alpha))
    A = _cell_matrix(pts, centers, h, alpha)
    assert np.any(np.isclose(np.abs(d), 0.5)) and np.any(np.abs(d) < 0.5 * h)
    assert np.max(np.abs(A - ref) / ref) < 1e-7


class TestBesselCapacity:
    def test_empty_set(self):
        res = bessel_capacity(np.array([]), 0.5, 2.0, resolution=0.05)
        assert res.value == 0.0 and res.verdict == "vanishing"

    @pytest.mark.parametrize("pts", [[np.nan], [np.inf, 0.0], [0.0, -np.inf]])
    def test_non_finite_points(self, pts):
        # NaN was a bare ValueError from the grid anchor, inf an OverflowError
        with pytest.raises(DomainError, match="points must be finite"):
            bessel_capacity(np.array(pts), 0.6, 2.0, resolution=0.05)

    def test_threshold_vanishing(self):
        res = bessel_capacity(np.array([0.0]), 0.4, 2.0, resolution=0.02)
        assert res.verdict == "vanishing"
        vals = [v for _, v in res.history]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_threshold_positive(self):
        res = bessel_capacity(np.array([0.0]), 0.6, 2.0, resolution=0.02)
        assert res.verdict == "positive"
        assert res.limit is not None and res.limit > 0

    def test_monotone_in_sets(self):
        r1 = bessel_capacity(np.array([0.0]), 0.6, 2.0, resolution=0.04)
        r2 = bessel_capacity(np.array([0.0, 1.5]), 0.6, 2.0, resolution=0.04)
        assert r1.value <= r2.value + 2e-6

    def test_subadditive(self):
        ra = bessel_capacity(np.array([0.0]), 0.6, 2.0, resolution=0.04)
        rb = bessel_capacity(np.array([2.0]), 0.6, 2.0, resolution=0.04)
        rc = bessel_capacity(np.array([0.0, 2.0]), 0.6, 2.0, resolution=0.04)
        assert rc.value <= ra.value + rb.value + 2e-6

    def test_translation_invariance(self):
        vals = [bessel_capacity(np.array([c]), 0.6, 2.0, resolution=0.04).value
                for c in (-1.3, -0.25, 0.0, 0.4, 1.7)]
        assert (max(vals) - min(vals)) / min(vals) < 1e-6

    def test_against_slsqp_oracle(self):
        # same discretized program solved by an independent SLSQP solver
        alpha, p, h = 0.6, 2.0, 0.1
        pts = np.array([0.0, 0.5])
        centers = np.arange(-3.0, 3.0 + h / 2, h)
        A = _cell_matrix(pts, centers, h, alpha)
        res = minimize(lambda g: h * np.sum(g ** p), np.full(centers.size, 0.1),
                       jac=lambda g: 2.0 * h * g,
                       constraints=[{"type": "ineq",
                                     "fun": lambda g: A @ g - 1.0,
                                     "jac": lambda g: A}],
                       bounds=[(0.0, None)] * centers.size, method="SLSQP",
                       options={"maxiter": 400, "ftol": 1e-12})
        assert res.success
        mine = bessel_capacity(pts, alpha, p, resolution=h)
        # grids differ slightly in extent; values agree to solver scale
        assert abs(mine.value - res.fun) < 2e-3 * res.fun

    @pytest.mark.parametrize("alpha", [0.35, 0.6, 1.3])
    def test_p2_matches_closed_form(self, alpha):
        # p = 2 with every constraint active: g = A^T lam / 2h and the value
        # is h 1^T (A A^T)^{-1} 1 on the very cell matrix the solver sees
        pts, h = np.array([-0.6, 0.1, 0.6]), 0.04
        lo, hi = pts.min() - 3.0 * max(1.0, alpha), pts.max() + 3.0 * max(1.0, alpha)
        centers = pts[0] + h * np.arange(math.floor((lo - pts[0]) / h),
                                         math.ceil((hi - pts[0]) / h) + 1)
        A = _cell_matrix(pts, centers, h, alpha)
        exact = h * np.sum(np.linalg.solve(A @ A.T, np.ones(pts.size)))
        res = bessel_capacity(pts, alpha, 2.0, resolution=h)
        assert abs(res.value - exact) <= 1e-12 * exact
        assert res.gap <= 1e-14

    @pytest.mark.parametrize("p", [1.25, 1.5, 3.0, 6.0])
    def test_gap_closes_for_every_p(self, p):
        res = bessel_capacity(np.array([-1.0, -0.3, 0.2, 0.5, 1.4]), 0.8, p,
                              resolution=0.04)
        assert res.gap <= 1e-13
        assert res.iterations <= 20

    def test_subnormal_column_sums_divide_nothing(self):
        # at alpha = 400 some cells' column sums are subnormal, and
        # (p - 1) s rounds to 0 for p < 2: phi's Hessian divided 0 by 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = bessel_capacity(np.array([-0.6, 0.1, 0.6]), 400.0, 1.5, resolution=1.0)
        assert res.verdict == "positive" and math.isfinite(res.limit)

    def test_steep_dual_at_p_near_one(self):
        # g ~ (A^T lam)^100: trial steps overflow and are rejected; the
        # first-order ascent stalled here at gap 1.7e-5
        res = bessel_capacity(np.array([-0.6, 0.1, 0.6]), 30.0, 1.01,
                              resolution=0.05)
        assert res.gap <= 1e-13 and res.iterations <= 20

    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    @pytest.mark.parametrize("d", [0.0, 1e-12, 1e-9, 1e-6, 1e-3])
    def test_near_coincident_targets(self, d, p):
        # coinciding or nearly coinciding targets make the dual Hessian
        # singular or nearly so; the first-order ascent stalled on these
        res = bessel_capacity(np.array([0.0, d, 0.5]), 0.6, p, resolution=0.05)
        ref = bessel_capacity(np.array([0.0, 0.5]), 0.6, p, resolution=0.05)
        assert np.isfinite(res.value) and res.gap <= 1e-7
        assert res.verdict == ref.verdict


class TestOrthantNewton:
    def test_quadratic_with_active_bound(self):
        # phi = x^T H x / 2: the unconstrained minimizer H^{-1} 1 is
        # (0.8, -0.2) / 0.56, so the answer sits on the face x_2 = 0 at
        # x_1 = 1 / H_11, where the gradient pushes x_2 outward by 0.2
        H = np.array([[1.0, 1.2], [1.2, 2.0]])
        x, dec, steps = _orthant_newton(lambda x: (0.5 * x @ H @ x, H @ x, H),
                                        np.ones(2))
        assert np.abs(x - [1.0, 0.0]).max() <= 1e-15 and dec <= 1e-15
        assert steps <= 3

    def test_non_convex_phi_raises(self):
        H = np.array([[1.0, 2.0], [2.0, 1.0]])          # eigenvalues 3 and -1
        with pytest.raises(SolverError):
            _orthant_newton(lambda x: (0.5 * x @ H @ x, H @ x, H), np.ones(2))
        with pytest.raises(SolverError):                # concave
            _orthant_newton(lambda x: (-x @ x, -2.0 * x, -2.0 * np.eye(2)),
                            np.ones(2))

    def test_rho_level_kkt(self):
        # on a dense cluster the optimal weights sit on a few atoms: the
        # gradient of J is equal on the support and no smaller off it
        pts = np.linspace(0.0, 0.05, 9)[:, None]
        phi = _J_phi(_uniform(pts), params_from_report(QUARTER, 1.5, R=16.0), 1e-2)
        x, dec, _ = _orthant_newton(phi, _ray_start(phi, np.full(9, 1.0 / 9), 1.5))
        w = x / x.sum()
        _, grad, _ = phi(w)
        on = w > 0.0
        assert 1 < np.count_nonzero(on) < 9 and dec <= 1e-20
        g0 = grad[on].mean()
        assert np.all(np.abs(grad[on] / g0 - 1.0) <= 1e-12)
        assert np.all(grad[~on] / g0 - 1.0 >= 1e-6)


class TestRhoCapacity:
    def test_empty(self):
        res = rho_capacity(np.zeros((0, 1)), QUARTER, q=1.8)
        assert res.value == 0.0 and res.verdict == "vanishing"

    def test_supercritical_singleton_vanishes(self):
        res = rho_capacity(np.array([[0.0]]), QUARTER, q=1.8)
        assert res.verdict == "vanishing"
        vals = [v for _, v in res.history]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_subcritical_singleton_positive(self):
        res = rho_capacity(np.array([[0.0]]), QUARTER, q=1.5)
        assert res.verdict == "positive"
        assert res.limit is not None and res.limit > 0

    def test_two_point_optimization(self):
        # more support can't hurt; R follows the set's diameter, so the
        # sets compared have the same one
        res = rho_capacity(np.array([[0.0], [0.5], [1.0]]), QUARTER, q=1.5)
        assert res.verdict == "positive"
        pair = rho_capacity(np.array([[0.0], [1.0]]), QUARTER, q=1.5)
        assert res.value >= pair.value * (1 - 1e-6)

    def test_single_point_starts_at_the_optimum(self):
        # the uniform ray start is the minimizer: at most one step per
        # level, which polishes round-off
        res = rho_capacity(np.array([[0.0]]), QUARTER, q=1.5)
        assert res.iterations <= capacity.LEVELS and res.gap <= 1e-15

    @pytest.mark.parametrize("d", [0.0, 1e-9, 1e-6, 1e-4])
    def test_near_coincident_points(self, d):
        # a second atom within d of the first; the projected-gradient
        # descent stalled at d = 1e-4.  Up to d = 1e-6 the extra atom
        # leaves the value unchanged; at d = 1e-4 it really raises it, by
        # 1.97e-8 (1.5e-7 relative), with weight 0.076 on the middle atom,
        # as a Nelder-Mead search of M_nu_s itself confirms.
        ref = rho_capacity(np.array([[0.0], [1.0]]), QUARTER, q=1.5)
        res = rho_capacity(np.array([[0.0], [d], [1.0]]), QUARTER, q=1.5)
        assert res.verdict == ref.verdict and res.gap <= 1e-15
        if d < 1e-4:
            assert abs(res.value - ref.value) <= 1e-9
            return
        assert res.value >= ref.value
        J = _edge_J([0.0, d, 1.0], 16.0, res.history[-1][0], 1e-8)

        def ratio(v):   # J / mass^q on the weights (|u|, |v|, 1)
            w = np.array([abs(v[0]), abs(v[1]), 1.0])
            return J(w) / w.sum() ** 1.5

        opt = minimize(ratio, [1.0, 0.1], method="Nelder-Mead",
                       options={"xatol": 1e-4, "fatol": 1e-13})
        assert abs(res.value * opt.fun - 1.0) <= 1e-9

    def test_two_points_match_a_bounded_oracle(self):
        # a bounded 1-D search of M_nu_s itself; the former fixed G16 grid
        # sent Newton to weights 2.5e-7 short of this optimum
        res = rho_capacity(np.array([[0.0], [1.0]]), QUARTER, q=1.5)
        J = _edge_J([0.0, 1.0], 16.0, res.history[-1][0], 1e-9)
        opt = minimize_scalar(lambda t: J([t, 1.0 - t]), bounds=(0.0, 1.0),
                              method="bounded")
        assert abs(res.value * opt.fun - 1.0) <= 1e-9

    def test_node_set_work_guard(self):
        # the five-point finest level sums J on 34 680 (tau, y) cells, y
        # per tau row; 126 582 on one y grid shared by every row, and the
        # fixed grid used 378 880
        pts = np.array([[-1.0], [-0.2], [0.3], [0.9], [1.6]])
        params = params_from_report(QUARTER, 1.5, R=16.0)
        tau, _, d, _ = _M_nodes(_uniform(pts), params, DEFAULT_QUAD, 1e-2 / 8)
        assert d.shape[0] == tau.size and d[:, :, 0].size <= 130_000

    def test_J_at_uniform_weights_is_M(self):
        # J sums the kernel in M's own distance form (units of tau) on the
        # nodes of M's own solve: at the weights of that solve it is
        # M_nu_s within M_nu_s's reported error
        rng = np.random.default_rng(26)
        for n in (1, 2, 3, 4):
            mu = _uniform(rng.uniform(-2.0, 2.0, (n, 1)))
            params = params_from_report(QUARTER, rng.uniform(1.5, 1.8),
                                        R=kernels.default_R(mu))
            eps = 1e-2 / 2.0 ** rng.integers(0, 4)
            M, err = M_nu_s(mu, params, eps=eps)
            assert abs(_J_phi(mu, params, eps)(mu.weights)[0] - M) <= err

    def test_node_set_is_M_own_solve(self, monkeypatch):
        # J sums on the tau nodes of the final panels of M's own log-tau
        # solve, node for node, and each is a tau at which M evaluated F
        pts = np.array([[-1.0], [-0.2], [0.3], [0.9], [1.6]])
        params = params_from_report(QUARTER, 1.5, R=16.0)
        eps = 1e-2 / 8
        final, seen, depth = [], [], []
        refine, F = _quad._refine, kernels.F_nu_m

        def tracking(f, edges, *args):
            out = refine(f, edges, *args)
            if not depth:   # the tau solve, not a y-solve inside F
                final.append(np.append(out[0], edges[-1]))
            return out

        def recording(tau, *args, **kwargs):
            seen.append(np.array(tau, float))
            depth.append(1)
            try:
                return F(tau, *args, **kwargs)
            finally:
                depth.pop()

        monkeypatch.setattr(_quad, "_refine", tracking)
        monkeypatch.setattr(kernels, "F_nu_m", recording)
        value, err = M_nu_s(_uniform(pts), params, quad=DEFAULT_QUAD, eps=eps)
        monkeypatch.undo()
        assert len(final) == 1
        t, _ = _quad.k17_nodes(final[0][:-1], final[0][1:])
        tau, tw, _, _ = _M_nodes(_uniform(pts), params, DEFAULT_QUAD, eps)
        assert np.array_equal(tau, np.exp(t))
        assert np.all(np.isin(tau, np.concatenate(seen)))
        Fv, _ = F_nu_m(tau, _uniform(pts), params)
        assert abs((tw * tau ** (params.nu * params.q)) @ Fv - value) <= err

    @pytest.mark.parametrize("pts", [[[np.nan]], [[0.0], [np.inf]]])
    def test_non_finite_points(self, pts):
        # NaN reached Newton and was reported as a non-convex objective
        with pytest.raises(DomainError, match="points must be finite"):
            rho_capacity(np.array(pts), QUARTER, q=1.5)

    def test_support_outside_the_half_ball(self, monkeypatch):
        # R = 8 (diameter + 1) = 16 follows the set, and far-off points
        # still leave B_{R/2}: checked with the other inputs, before any
        # node or Newton solve
        calls = []

        def counting_nodes(*args):
            calls.append(1)
            return _M_nodes(*args)
        monkeypatch.setattr(capacity, "_M_nodes", counting_nodes)
        with pytest.raises(DomainError,
                           match=re.escape("R = 16 is below 2 max|z| = 202")):
            rho_capacity(np.array([[100.0], [101.0]]), QUARTER, q=1.5)
        assert calls == []


class TestNullTest:
    def test_point_rules(self):
        pt2 = SetPiece("s", "point", z=(0.0, 0.0))
        assert capacity_null_test(pt2, 0.5, 2.0, 2) == "null"
        pt1 = SetPiece("s", "point", z=(0.0,))
        assert capacity_null_test(pt1, 0.9, 2.0, 1) == "positive"

    def test_ball_positive(self):
        ball = SetPiece("s", "ball", radius=0.5, dim=1)
        assert capacity_null_test(ball, 0.3, 2.0, 1) == "positive"

    def test_lower_dimensional_ball(self):
        flat = SetPiece("s", "ball", radius=0.5, dim=1)
        assert capacity_null_test(flat, 0.4, 2.0, 2) == "null"   # 0.8 <= 2-1
        assert capacity_null_test(flat, 0.6, 2.0, 2) == "positive"

    def test_grid_defers(self):
        # a grid defers to the point rule: a finite union of points is null
        # exactly when a point is
        grid = SetPiece("s", "grid", points=((0.0,), (1.0,)))
        assert capacity_null_test(grid, 0.5, 2.0, 1) == "null"
        assert capacity_null_test(grid, 0.6, 2.0, 1) == "positive"
        plane = SetPiece("s", "grid", points=((0.0, 0.0), (1.0, 0.5)))
        assert capacity_null_test(plane, 0.9, 2.0, 2) == "null"

    def test_numeric_verdict_matches_the_point_rule(self):
        # both solvers take the verdict of a finite set from the sign of
        # theta, the rule capacity_null_test applies: alpha p = 0.5, 0.85,
        # 1.3 and 1.9, then a seeded (alpha, p) sweep with half of its
        # draws within 0.02 of alpha p = 1, where the former fit said
        # "inconclusive", and edge sets with |theta| < 0.02 around q_c
        with open(os.path.join(GOLDEN, "grid_set.json"), encoding="utf-8") as fh:
            piece = set_from_dict(json.load(fh)).pieces[0]
        points = np.array(piece.points)[:, 0]
        rng = np.random.default_rng(22)
        draws = [(alpha, 2.0) for alpha in (0.25, 0.425, 0.65, 0.95)]
        for i in range(12):
            p = rng.uniform(1.3, 3.0)
            ap = rng.uniform(0.98, 1.02) if i % 2 else rng.uniform(0.5, 1.6)
            draws.append((ap / p, p))
        verdicts = []
        for alpha, p in draws:
            numeric = bessel_capacity(points, alpha, p, resolution=0.05).verdict
            analytic = capacity_null_test(piece, alpha, p, 1)
            expect = ("vanishing", "null") if alpha * p <= 1.0 else ("positive", "positive")
            assert (numeric, analytic) == expect, (alpha, p)
            verdicts.append(numeric)
        for q in QUARTER.q_c + rng.uniform(-0.006, 0.006, 4):
            theta = q * (QUARTER.s(q) - QUARTER.m * (q - 1.0) / q)
            assert abs(theta) < 0.02
            res = rho_capacity(np.array([[0.0], [1.0]]), QUARTER, q)
            assert res.verdict == ("vanishing" if theta <= 0.0 else "positive"), q
            verdicts.append(res.verdict)
        assert "inconclusive" not in verdicts

    def test_history_decays_or_settles_with_theta(self):
        # away from the threshold the numerics agree with the rule: fitted
        # as 1/value = C + b r^theta, a history with theta < -0.1 drives
        # 1/value to infinity (b > 0) and one with theta > 0.1 settles at
        # 1/C > 0, both within FIT_RESIDUAL_TOL
        rng = np.random.default_rng(5)
        cases = []
        for i in range(8):
            p = rng.uniform(1.3, 3.0)
            theta = rng.uniform(0.1, 0.6) * (1 if i % 2 else -1)
            cases.append((bessel_capacity(np.array([-0.6, 0.1, 0.6]),
                                          (1.0 + theta) / p, p, resolution=0.05), theta))
        for q in (1.5, 1.6, 1.75, 1.8):
            theta = q * (QUARTER.s(q) - QUARTER.m * (q - 1.0) / q)
            cases.append((rho_capacity(np.array([[0.0], [1.0]]), QUARTER, q), theta))
        for res, theta in cases:
            assert abs(theta) > 0.1
            r = np.array([h for h, _ in res.history])
            u = 1.0 / np.array([v for _, v in res.history])
            A = np.vstack([r ** theta, np.ones_like(r)]).T
            (b, C), _, _, _ = np.linalg.lstsq(A, u, rcond=None)
            assert np.sqrt(np.mean((A @ [b, C] - u) ** 2)) <= FIT_RESIDUAL_TOL * np.mean(u)
            assert (b > 0.0) if theta < 0.0 else (C > 0.0), theta
            # the closed-form fit on the scaled abscissa meets this lstsq
            # fit on the raw one where theta is small
            if theta > 0.0:
                assert abs(res.limit * C - 1.0) <= 1e-12, theta

    def test_limit_is_the_fit_at_large_theta(self):
        # alpha p - 1 = 23: lstsq on the raw abscissa r^23 dropped the b
        # column below its rank cut and reported the harmonic mean of the
        # history, 12.09531, as the limit; np.polyfit scales its columns
        res = bessel_capacity(np.array([-0.6, 0.1, 0.6]), 12.0, 2.0, resolution=0.02)
        r = np.array([h for h, _ in res.history])
        u = 1.0 / np.array([v for _, v in res.history])
        _, C = np.polyfit(r ** 23.0, u, 1)
        assert abs(res.limit * C - 1.0) <= 1e-12
        assert abs(res.limit - 12.09504) < 1e-5
        assert abs(res.limit - u.size / u.sum()) > 2e-4

    def test_limit_at_theta_599(self):
        # an exact history of 1/value = C + b (r / 8)^599: r^599 overflowed
        # and the raw lstsq raised "SVD did not converge"
        r = np.array([8.0, 4.0, 2.0, 1.0])
        C, b = 1.0 / 66.0, 1e-3
        history = tuple(zip(r, 1.0 / (C + b * (r / 8.0) ** 599.0)))
        verdict, limit = capacity._verdict_from_history(history, 599.0)
        assert verdict == "positive" and abs(limit * C - 1.0) <= 1e-12

    def test_no_limit_from_an_abscissa_without_spread(self):
        # (r / max r)^theta rounds to 1 at every r: no slope, no limit (the
        # raw lstsq split 1/value evenly between b and C and reported 2.0)
        history = ((0.16, 1.003), (0.08, 1.002), (0.04, 1.001), (0.02, 1.0))
        assert capacity._verdict_from_history(history, 1e-18) == ("positive", None)

    def test_domain(self):
        with pytest.raises(DomainError):
            capacity_null_test(SetPiece("s", "point", z=(0.0,)), -1.0, 2.0, 1)
        for ell in (-2, 1.5):
            with pytest.raises(DomainError, match="ell must be an integer >= 0"):
                capacity_null_test(SetPiece("s", "point", z=(0.0,)), 0.6, 2.0, ell)
