import math

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import gamma as G, kv, modstruve

from wedgecap.capacity import (CapacityResult, _cell_matrix,
                               bessel_capacity, bessel_kernel,
                               bessel_kernel_radial, capacity_null_test,
                               rho_capacity)
from wedgecap.errors import DomainError, SingularityError
from wedgecap.exponents import critical_exponents
from wedgecap.geometry import SetPiece
from wedgecap._quad import geometric_edges, integrate, merge_edges

QUARTER = critical_exponents(3, 2, 4.0)


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
        v, _ = integrate(lambda r: bessel_kernel_radial(r, 0.7, 1),
                         merge_edges(1e-12, 40.0, geometric_edges(1e-12, 40.0, 6)),
                         rtol=1e-9)
        assert abs(2.0 * v - 1.0) < 1e-6

    def test_singularity_guard(self):
        with pytest.raises(SingularityError):
            bessel_kernel(np.zeros(1), 0.5)
        assert bessel_kernel(np.zeros(1), 1.5) > 0   # finite above alpha = ell

    def test_point_evaluation(self):
        v = bessel_kernel(np.array([0.3, 0.4]), 2.5)
        r = bessel_kernel_radial(0.5, 2.5, 2)
        assert abs(v - r) < 1e-12 * abs(r)


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
        res = bessel_capacity(np.array([]), 0.5, 2.0)
        assert res.value == 0.0 and res.verdict == "vanishing"

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
        r1 = bessel_capacity(np.array([0.0]), 0.6, 2.0, resolution=0.04, levels=2)
        r2 = bessel_capacity(np.array([0.0, 1.5]), 0.6, 2.0, resolution=0.04,
                             levels=2)
        assert r1.value <= r2.value + 2e-6

    def test_subadditive(self):
        ra = bessel_capacity(np.array([0.0]), 0.6, 2.0, resolution=0.04, levels=2)
        rb = bessel_capacity(np.array([2.0]), 0.6, 2.0, resolution=0.04, levels=2)
        rc = bessel_capacity(np.array([0.0, 2.0]), 0.6, 2.0, resolution=0.04,
                             levels=2)
        assert rc.value <= ra.value + rb.value + 2e-6

    def test_translation_invariance(self):
        vals = [bessel_capacity(np.array([c]), 0.6, 2.0, resolution=0.04,
                                levels=2).value
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
        mine = bessel_capacity(pts, alpha, p, resolution=h, levels=1,
                               dilation_radii=3.0 / max(1.0, alpha))
        # grids differ slightly in extent; values agree to solver scale
        assert abs(mine.value - res.fun) < 2e-3 * res.fun


class TestRhoCapacity:
    def test_empty(self):
        res = rho_capacity(np.zeros((0, 1)), QUARTER, q=1.8)
        assert res.value == 0.0 and res.verdict == "vanishing"

    def test_supercritical_singleton_vanishes(self):
        res = rho_capacity(np.array([[0.0]]), QUARTER, q=1.8, R=8.0)
        assert res.verdict == "vanishing"
        vals = [v for _, v in res.history]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_subcritical_singleton_positive(self):
        res = rho_capacity(np.array([[0.0]]), QUARTER, q=1.5, R=8.0)
        assert res.verdict == "positive"
        assert res.limit is not None and res.limit > 0

    def test_two_point_optimization(self):
        res = rho_capacity(np.array([[0.0], [1.0]]), QUARTER, q=1.5, R=16.0,
                           levels=2)
        assert res.verdict in ("positive", "inconclusive")
        single = rho_capacity(np.array([[0.0]]), QUARTER, q=1.5, R=16.0, levels=2)
        assert res.value >= single.value * (1 - 1e-6)   # more support can't hurt


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
        grid = SetPiece("s", "grid", points=((0.0,), (1.0,)))
        assert capacity_null_test(grid, 0.5, 2.0, 1) == "needs-numeric"

    def test_domain(self):
        with pytest.raises(DomainError):
            capacity_null_test(SetPiece("s", "point", z=(0.0,)), -1.0, 2.0, 1)
