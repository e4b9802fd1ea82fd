import functools
import math

import mpmath
import numpy as np
import pytest

from wedgecap.errors import DomainError, PoleEndpointError
from wedgecap.exponents import critical_exponents
from wedgecap.geometry import WedgeSpec
from wedgecap.spectral import (SLProblem, gamma_first_eigenvalue, sl_eigen_1d,
                               sl_eigen_fd)
from oracles import laplace_beltrami, omega_SA, opening_eigenfunction

PI = math.pi


@functools.lru_cache(maxsize=None)
def _legendre_gamma(mu, b):
    """nu (nu + 1) at the first zero nu of P_nu^{-sqrt(mu)}(cos b), 30 digits."""
    with mpmath.workdps(30):
        def p(nu):
            return mpmath.legenp(nu, -mpmath.sqrt(mu), mpmath.cos(b))
        lo = mpmath.mpf(0)
        while p(lo + 0.25) > 0:      # eigenvalue gaps in nu exceed 1
            lo += 0.25
        hi = lo + 0.25
        for _ in range(60):          # bisection: p is tiny at large order
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if p(mid) > 0 else (lo, mid)
        return float(lo * (lo + 1))


class TestSLSolver:
    def test_pure_second_derivative(self):
        # f'' + gamma f = 0 on (0, pi/2): gamma = 4, f = sin 2t
        res = sl_eigen_1d(SLProblem(0.0, PI / 2, 0, 0.0))
        assert abs(res.gamma - 4.0) < 1e-8 * 4.0
        ref = np.sin(2.0 * res.theta)
        assert np.max(np.abs(res.values - ref)) < 1e-7

    def test_degree_three_harmonic(self):
        # x y z on the sphere: d=1, mu=4, bounded at the pole, gamma = 12
        # (hand check: f = sin^2 t cos t satisfies the stage equation)
        res = sl_eigen_1d(SLProblem(0.0, PI / 2, 1, 4.0, bc_a="bounded"))
        assert abs(res.gamma - 12.0) < 1e-8 * 12.0
        ref = np.sin(res.theta) ** 2 * np.cos(res.theta)
        ref /= ref.max()
        assert np.max(np.abs(res.values - ref)) < 1e-7

    def test_against_matrix_oracle(self):
        prob = SLProblem(PI / 4, PI / 2, 1, 0.0)
        res = sl_eigen_1d(prob, tol=1e-8)
        oracle = sl_eigen_fd(prob, n=10000)
        # the matrix oracle itself carries O(h^2) ~ 1e-7 discretization error
        assert abs(res.gamma - oracle) < 5e-7 * abs(oracle)

    def test_reflected_pole(self):
        # bounded at pi instead of 0: same spectrum by the sin symmetry
        res = sl_eigen_1d(SLProblem(PI / 2, PI, 1, 4.0, bc_b="bounded"))
        assert abs(res.gamma - 12.0) < 1e-7 * 12.0
        assert res.values[0] == 0.0   # Dirichlet wall now on the left

    @pytest.mark.parametrize("tol", [1e-8, 1e-10])
    @pytest.mark.parametrize("mu, b", [(0.3, 1.2), (1.3, 2.0), (400.0, 1.0)])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_pole_matches_associated_legendre(self, mu, b, tol, side):
        # d = 1: f(t) = P_nu^{-sqrt(mu)}(cos t) is the bounded solution at
        # t = 0 and gamma = nu (nu + 1), where nu is the first zero of
        # nu -> P_nu^{-sqrt(mu)}(cos b).  The Frobenius exponent is not an
        # integer for mu = 0.3, 1.3; for mu = 400 it is 20, so f ~ t^20
        # spans 70 decades and must stay positive near the pole.
        exact = _legendre_gamma(mu, b)
        if side == "left":
            prob = SLProblem(0.0, b, 1, mu, bc_a="bounded")
        else:
            prob = SLProblem(PI - b, PI, 1, mu, bc_b="bounded")
        res = sl_eigen_1d(prob, tol=tol)
        assert abs(res.gamma - exact) <= tol * exact
        assert abs(res.gamma - exact) <= res.error

    @pytest.mark.parametrize("prob", [
        SLProblem(0.7530442341822747, 2.689413101439338, 1, 1.3583346615282204),
        SLProblem(0.32272789319176, 2.355323851117069, 1, 1.5576326545953718),
    ])
    def test_tight_tolerance_certified(self, prob):
        # chain stages whose tol-1e-11 extrapolation stalls in roundoff when
        # the FD matrix is formed before its eigenvalue is computed
        tight = sl_eigen_1d(prob, tol=1e-11)
        assert tight.error <= 1e-11 * tight.gamma
        assert abs(tight.gamma - sl_eigen_1d(prob).gamma) <= 1e-8 * tight.gamma

    def test_eigenfunction_contract(self):
        res = sl_eigen_1d(SLProblem(0.3, 2.1, 2, 3.0))
        assert res.values[0] == 0.0 and res.values[-1] == 0.0
        assert np.min(res.values[1:-1]) > 0.0
        assert abs(np.max(res.values) - 1.0) < 1e-14
        # samples satisfy the ODE at second order in the sample step
        th = res.theta[1:-1]
        f = res.values
        h = res.h
        lap = (f[2:] - 2 * f[1:-1] + f[:-2]) / h ** 2
        dd = (f[2:] - f[:-2]) / (2 * h)
        resid = (lap + 2.0 / np.tan(th) * dd
                 + (res.gamma - 3.0 / np.sin(th) ** 2) * f[1:-1])
        assert np.max(np.abs(resid)) < 50.0 * h ** 2 * res.gamma

    def test_pole_requires_mode(self):
        with pytest.raises(PoleEndpointError):
            SLProblem(0.0, PI / 2, 1, 4.0)

    def test_tolerance_domain(self):
        with pytest.raises(DomainError):
            sl_eigen_1d(SLProblem(0.1, 1.0, 1, 0.0), tol=0.5)

    def test_fd_second_order_convergence(self):
        errs = [abs(sl_eigen_fd(SLProblem(0.0, PI / 2, 0, 0.0), n=n) - 4.0)
                for n in (250, 500, 1000)]
        for e1, e2 in zip(errs, errs[1:]):
            assert 3.5 <= e1 / e2 <= 4.5


class TestGammaChain:
    def test_k2_closed_form(self):
        rng = np.random.default_rng(9)
        for alpha in rng.uniform(0.1, 2 * PI - 0.1, 20):
            spec = WedgeSpec(3, 2, float(alpha))
            assert gamma_first_eigenvalue(spec) == (PI / alpha) ** 2

    def test_half_circle(self):
        assert abs(gamma_first_eigenvalue(WedgeSpec(3, 2, PI)) - 1.0) < 1e-15

    def test_octant(self):
        spec = WedgeSpec(3, 3, PI / 2, intervals=((0.0, PI / 2),), allow_pole=True)
        g = gamma_first_eigenvalue(spec, tol=1e-8)
        assert abs(g - 12.0) < 1e-6 * 12.0

    def test_circle_stage_matches_closed_form(self):
        # the generic solver reproduces (pi/alpha)^2 including alpha > pi
        for alpha in (PI / 3, PI / 2, PI, 1.5 * PI):
            res = sl_eigen_1d(SLProblem(0.0, alpha, 0, 0.0))
            assert abs(res.gamma - (PI / alpha) ** 2) < 1e-8 * (PI / alpha) ** 2

    def test_domain_monotonicity(self):
        g_small = gamma_first_eigenvalue(WedgeSpec(3, 2, 1.0))
        g_large = gamma_first_eigenvalue(WedgeSpec(3, 2, 1.5))
        assert g_small > g_large
        a = WedgeSpec(4, 3, PI / 2, intervals=((0.6, 2.0),))
        b = WedgeSpec(4, 3, PI / 2, intervals=((0.7, 1.9),))
        assert gamma_first_eigenvalue(b) > gamma_first_eigenvalue(a)

    @pytest.mark.parametrize("alpha1, intervals, expected", [
        # stage 3's first eigenvalue gap lies inside a [0.75, 1.15] bracket
        # around the coarse FD estimate
        (2.2240803047901485, ((0.670983078554521, 0.8826308639743676),
                              (0.7728504859576815, 2.583903730810266)), 238.1166294),
        # stage 3 (mu = 531.39) is oscillatory only on (1.37, 1.77); a
        # one-sided shot to the wall at 2.81 grows its error about 6e10-fold
        (2.1086284516044005, ((0.5031327813828171, 0.6402597861672545),
                              (0.6186579083412748, 2.8148826710148165)), 553.9422974),
    ], ids=["seed185", "seed139"])
    def test_narrow_first_interval_k4(self, alpha1, intervals, expected):
        # boxes of the benchmark's cli-demos generator (seeds 185 and 139);
        # expected: Richardson in h^2 of a plain Dirichlet FD chain solved by
        # bisection on 2000/4000 and 4000/8000 intervals (agreeing to 8e-9)
        g = gamma_first_eigenvalue(WedgeSpec(5, 4, alpha1, intervals=intervals))
        assert abs(g - expected) < 1e-8 * expected

    def test_k1_rejected(self):
        with pytest.raises(DomainError):
            gamma_first_eigenvalue(WedgeSpec(3, 1))


class TestOmega:
    def test_max_point(self):
        # quarter wedge in R^3: omega = sin^2(theta_2) sin(2 theta_1), max 1
        spec = WedgeSpec(3, 2, PI / 2)
        val = omega_SA(spec, 4.0, 2.0, [PI / 4, PI / 2])
        assert abs(val - 1.0) < 1e-12

    def test_dirichlet_boundary(self):
        spec = WedgeSpec(3, 2, PI / 2)
        assert omega_SA(spec, 4.0, 2.0, [0.0, PI / 2]) == 0.0

    def test_outside_domain(self):
        spec = WedgeSpec(3, 2, PI / 2)
        with pytest.raises(DomainError):
            omega_SA(spec, 4.0, 2.0, [0.9 * PI, PI / 2])

    def test_kappa_consistency_guard(self):
        spec = WedgeSpec(3, 2, PI / 2)
        with pytest.raises(DomainError):
            omega_SA(spec, 4.0, 2.5, [PI / 4, PI / 2])

    def test_beltrami_residual_second_order(self):
        # non-polynomial opening: alpha = 2.0, lambda_A = gamma + kappa_plus
        spec = WedgeSpec(3, 2, 2.0)
        gamma = gamma_first_eigenvalue(spec)
        rep = critical_exponents(3, 2, gamma)
        lam = rep.lambda_A
        sigma = np.array([0.8, 1.1])

        def fn(s):
            return omega_SA(spec, gamma, rep.kappa_plus, s)

        res = []
        for h in (0.02, 0.01, 0.005):
            res.append(abs(laplace_beltrami(fn, sigma, h) + lam * fn(sigma)))
        order = math.log2(res[0] / res[1]), math.log2(res[1] / res[2])
        assert all(1.7 <= o <= 2.3 for o in order)

    def test_chain_eigenfunction_residual(self):
        # octant: omega' on S^2 built from the chain satisfies the opening
        # equation with eigenvalue gamma at second order
        spec = WedgeSpec(3, 3, PI / 2, intervals=((0.0, PI / 2),), allow_pole=True)
        gamma, phi = opening_eigenfunction(spec)

        def fn(s):
            v = np.array([math.sin(s[1]) * math.sin(s[0]),
                          math.sin(s[1]) * math.cos(s[0]), math.cos(s[1])])
            return phi(v)

        sigma = np.array([PI / 4, 1.1])
        res = []
        for h in (0.02, 0.01):
            res.append(abs(laplace_beltrami(fn, sigma, h) + gamma * fn(sigma)))
        assert res[0] < 1e-2
        assert 2.5 <= res[0] / res[1] <= 6.0


class TestVertexAssembly:
    def test_omega_equals_opening_eigenfunction_at_kN(self):
        # k = N: no sine prefactor; omega is the opening eigenfunction itself
        spec = WedgeSpec(3, 3, PI / 2, intervals=((0.0, PI / 2),),
                         allow_pole=True)
        gamma, phi = opening_eigenfunction(spec)
        from wedgecap.exponents import kappa_from_gamma
        kp = kappa_from_gamma(3, gamma)
        sigma = np.array([PI / 3, 1.0])
        v = np.array([math.sin(sigma[1]) * math.sin(sigma[0]),
                      math.sin(sigma[1]) * math.cos(sigma[0]),
                      math.cos(sigma[1])])
        a = omega_SA(spec, gamma, kp, sigma)
        assert abs(a - phi(v)) < 1e-10
