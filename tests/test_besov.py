import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wedgecap import besov
from wedgecap.besov import besov_neg_proxy, besov_pos_norm, poisson_constant
from wedgecap.errors import DomainError, ResolutionError
from wedgecap.geometry import DiscreteMeasure, dirac


def tent(x):
    return np.clip(1.0 - np.abs(x), 0.0, None)


class TestNegativeProxy:
    def test_poisson_constant(self):
        assert abs(poisson_constant(2) - 1.0 / math.pi) < 1e-15

    def test_dirac_threshold(self):
        # finite iff s > m/q'; at q = 2, m = 1 the threshold is 1/2
        assert not besov_neg_proxy(dirac(1), 0.75, 2.0).divergent
        res = besov_neg_proxy(dirac(1), 0.25, 2.0)
        assert res.divergent
        assert res.fitted_exponent < -0.1
        assert res.r_squared > 0.99

    def test_divergence_exponent_value(self):
        # ladder slope approaches q (s - m/q') as the cutoff shrinks
        res = besov_neg_proxy(dirac(1), 0.25, 2.0, eps=1e-4)
        assert abs(res.fitted_exponent - (-0.5)) < 0.05
        assert res.exponent_ci is not None

    def test_homogeneity(self):
        mu = DiscreteMeasure(1, [((0.2,), 1.0), ((-0.1,), 0.5)])
        r1 = besov_neg_proxy(mu, 0.3, 1.8)
        r2 = besov_neg_proxy(mu.scaled(2.0), 0.3, 1.8)
        assert abs(r2.value / r1.value - 2.0 ** 1.8) < 1e-10

    def test_translation_invariance(self):
        mu = DiscreteMeasure(1, [((0.2,), 1.0), ((-0.1,), 0.5)])
        r1 = besov_neg_proxy(mu, 0.3, 1.8)
        r2 = besov_neg_proxy(mu.translated([0.9]), 0.3, 1.8)
        assert abs(r2.value - r1.value) < 1e-8 * r1.value

    def test_mollified_atom_converges(self):
        # spreading the atom over width h: proxy approaches the Dirac value
        ref = besov_neg_proxy(dirac(1), 0.8, 2.0).value
        errs = []
        for h in (0.2, 0.1, 0.05):
            z = np.linspace(-h / 2, h / 2, 5)
            mu = DiscreteMeasure(1, [((zi,), 0.2) for zi in z])
            errs.append(abs(besov_neg_proxy(mu, 0.8, 2.0).value - ref))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.03 * ref

    @settings(max_examples=40, deadline=None)
    @given(a=st.floats(-0.5, 0.6), q=st.floats(1.6, 3.0), log_eps=st.floats(-2.5, -1.0),
           several=st.booleans())
    def test_verdict_is_the_sign_of_a(self, a, q, log_eps, several):
        # divergent exactly when a = q (s - m/q') <= 0, for one atom or
        # several; the ladder fit called 0 < a < 0.25 divergent.  a is
        # taken exactly from the doubles s and q the proxy gets; within
        # 1e-12 of 0 its sign is below the rounding of the exponent
        s = (a + q - 1.0) / q
        mu = (DiscreteMeasure(1, [((0.0,), 1.0), ((0.7,), 0.5), ((-1.2,), 2.0)])
              if several else dirac(1))
        res = besov_neg_proxy(mu, s, q, eps=10.0 ** log_eps)
        a_exact = Fraction(q) * Fraction(s) - (Fraction(q) - 1)
        if abs(a_exact) > 1e-12:
            assert res.divergent == (a_exact <= 0)

    def test_zero_measure(self):
        res = besov_neg_proxy(DiscreteMeasure(1), 0.5, 2.0)
        assert res.value == 0.0 and not res.divergent

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            besov_neg_proxy(dirac(1), -0.1, 2.0)
        with pytest.raises(DomainError):
            besov_neg_proxy(dirac(1), 0.5, 0.9)
        with pytest.raises(DomainError):
            besov_neg_proxy(dirac(1), 0.5, 2.0, eps=2.0)


class TestPositiveNorm:
    def test_zero_function(self):
        x = np.linspace(-2, 2, 257)
        assert besov_pos_norm(np.zeros_like(x), x, 0.5, 2.0) == 0.0

    def test_absolute_homogeneity(self):
        x = np.linspace(-2, 2, 513)
        f = tent(x)
        v = besov_pos_norm(f, x, 0.5, 2.0)
        assert abs(besov_pos_norm(-3.0 * f, x, 0.5, 2.0) - 3.0 * v) < 1e-12 * v

    def test_tent_refined_grid_oracle(self):
        x1 = np.linspace(-2, 2, 513)
        x2 = np.linspace(-2, 2, 1025)
        v1 = besov_pos_norm(tent(x1), x1, 0.5, 2.0)
        v2 = besov_pos_norm(tent(x2), x2, 0.5, 2.0)
        assert abs(v1 - v2) / v2 < 0.02

    def test_triangle_inequality(self):
        rng = np.random.default_rng(31)
        x = np.linspace(-2, 2, 513)
        window = np.exp(-1.0 / np.maximum(1 - (x / 2) ** 2, 1e-9)) * (np.abs(x) < 2)
        for _ in range(5):
            f = window * np.sin(rng.uniform(0.5, 3.0) * x + rng.uniform(0, 6))
            g = window * np.cos(rng.uniform(0.5, 3.0) * x)
            for s in (0.4, 1.0, 1.5):
                vf = besov_pos_norm(f, x, s, 2.0)
                vg = besov_pos_norm(g, x, s, 2.0)
                vfg = besov_pos_norm(f + g, x, s, 2.0)
                assert vfg <= 1.01 * (vf + vg)

    def test_integer_and_high_order_paths(self):
        x = np.linspace(-3, 3, 769)
        f = np.exp(-x ** 2) * (1 + np.cos(x))
        v1 = besov_pos_norm(f, x, 1.0, 2.0)
        v2 = besov_pos_norm(f, x, 1.5, 2.0)
        assert v1 > 0 and v2 > v1 * 0.1

    def test_resolution_error(self):
        x = np.linspace(-2, 2, 33)
        f = np.sin(12.0 * x) * tent(x)
        with pytest.raises(ResolutionError):
            besov_pos_norm(f, x, 0.9, 2.0)

    def test_smooth_family_norm_comparison(self):
        # second-difference construction vs the W^{1,p} norm: comparable
        # within a fixed constant on a family of smooth bumps (p = 2)
        x = np.linspace(-3, 3, 769)
        h = x[1] - x[0]
        ratios = []
        for width in (0.8, 1.2, 1.8, 2.4):
            f = np.where(np.abs(x) < width,
                         np.cos(0.5 * np.pi * np.clip(x / width, -1, 1)) ** 2, 0.0)
            b = besov_pos_norm(f, x, 1.0, 2.0)
            w = (np.sum(np.abs(f) ** 2) * h) ** 0.5 \
                + (np.sum(np.abs(np.gradient(f, h)) ** 2) * h) ** 0.5
            ratios.append(b / w)
        assert max(ratios) / min(ratios) < 10.0

    def test_2d_gagliardo(self):
        ax = np.linspace(-1.5, 1.5, 33)
        X, Y = np.meshgrid(ax, ax, indexing="ij")
        f = np.clip(1 - np.hypot(X, Y), 0, None)
        v = besov_pos_norm(f, (ax, ax), 0.5, 2.0)
        assert v == 4.117417641645603
        assert abs(besov_pos_norm(2 * f, (ax, ax), 0.5, 2.0) - 2 * v) < 1e-10 * v

    def test_2d_coarse_grid_raises(self):
        # as in 1-D, the norm on the 2x-coarsened grid must agree within
        # 5 %: the cone above moves by 1.2 % from 17 x 17 to 33 x 33
        # points, but by 8.1 % from 5 x 5 to 9 x 9
        ax = np.linspace(-1.5, 1.5, 9)
        X, Y = np.meshgrid(ax, ax, indexing="ij")
        f = np.clip(1 - np.hypot(X, Y), 0, None)
        with pytest.raises(ResolutionError):
            besov_pos_norm(f, (ax, ax), 0.5, 2.0)

    @pytest.mark.parametrize("s, p", [(0.5, 2.0), (0.3, 1.5)])
    def test_2d_pair_blocks(self, monkeypatch, s, p):
        # the 1089 x 1089 pairs of the grid above in blocks of 40 rows,
        # the last one partial, against the default single block
        ax = np.linspace(-1.5, 1.5, 33)
        X, Y = np.meshgrid(ax, ax, indexing="ij")
        f = np.clip(1 - np.hypot(X - 0.2, Y), 0, None) * (1.0 + 0.3 * X)
        one = besov_pos_norm(f, (ax, ax), s, p)
        monkeypatch.setattr(besov, "_PAIR_CELLS", 40 * ax.size ** 2)
        assert abs(besov_pos_norm(f, (ax, ax), s, p) - one) <= 1e-13 * one


def _gagliardo_loop(f, x, s, p, h):
    """Reference: the double sum as one pass per offset over the whole grid."""
    nz = np.nonzero(np.abs(f) > 0.0)[0]
    diameter = float(x[-1] - x[0]) if nz.size < 2 else float(x[nz[-1]] - x[nz[0]])
    Y = 4.0 * max(diameter, 4.0 * h)
    n = x.size
    total = 0.0
    for off in range(1, min(n - 1, int(math.ceil(Y / h))) + 1):
        d = np.abs(f[off:] - f[:-off]) ** p
        total += 2.0 * np.sum(d) / (off * h) ** (1.0 + s * p)
    lp_p = h * float(np.sum(np.abs(f) ** p))
    return total * h * h + 2.0 ** (p + 1) * lp_p * Y ** (-s * p) / (s * p)


def _bump(x, center, width):
    u = (x - center) / width
    return np.where(np.abs(u) < 1.0, np.cos(0.5 * np.pi * np.clip(u, -1, 1)) ** 2, 0.0)


_GRID = np.linspace(-8.0, 8.0, 1025)


def _holed(x):
    f = _bump(x, 0.0, 3.0)
    f[np.abs(x - 0.2) < 0.5] = 0.0
    return f


def _spike(index):
    def f(x):
        out = np.zeros_like(x)
        out[index] = 1.3
        return out
    return f


HULL_CASES = {
    "centred": lambda x: _bump(x, 0.0, 2.0),
    "off_centre": lambda x: _bump(x, 1.0, 2.0),
    "narrow": lambda x: _bump(x, -3.3, 0.4),
    "touches_left_end": lambda x: _bump(x, -7.5, 1.0),
    "touches_right_end": lambda x: _bump(x, 7.7, 1.0),
    "whole_grid": lambda x: _bump(x, 0.0, 8.0),
    "zeros_inside_hull": _holed,
    "two_bumps": lambda x: _bump(x, -2.0, 1.0) + 0.5 * _bump(x, 2.5, 1.5),
    "one_sample": _spike(300),
    "one_sample_at_end": _spike(0),
    "all_zero": np.zeros_like,
    "full_support": lambda x: 1.0 + 0.5 * np.cos(x),
}


def _second_diff_loop(f, x, p, h):
    """Reference: the s = 1 form as one pass per offset over the whole grid."""
    n = x.size
    fpad = np.concatenate([np.zeros(n), f, np.zeros(n)])
    base = np.arange(n) + n
    total = 0.0
    for off in range(1, n):
        d = np.abs(fpad[base + off] + fpad[base - off] - 2.0 * f) ** p
        total += 2.0 * np.sum(d) / (off * h) ** (1.0 + p)
    lp_p = h * float(np.sum(np.abs(f) ** p))
    return total * h * h + 4.0 ** p * lp_p * (n * h) ** (-p) / p * 2.0


class TestHullSum:
    """The hull sum against the offset loop it replaced, on 1025 points."""

    @pytest.mark.parametrize("p", [1.0, 2.0, 2.43])
    @pytest.mark.parametrize("s", [0.2, 0.5, 0.9])
    @pytest.mark.parametrize("case", sorted(HULL_CASES))
    def test_matches_offset_loop(self, case, s, p):
        x = _GRID
        f = HULL_CASES[case](x)
        h = x[1] - x[0]
        ref = _gagliardo_loop(f, x, s, p, h)
        got = besov._gagliardo_1d(f, x, s, p, h)
        assert abs(got - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("p", [1.0, 2.0, 2.43])
    @pytest.mark.parametrize("case", ["off_centre", "touches_right_end", "two_bumps"])
    def test_derivative_branch_matches_offset_loop(self, case, p, monkeypatch):
        # s in (1, 2) takes the fractional seminorm of f'
        f = HULL_CASES[case](_GRID)
        got = besov_pos_norm(f, _GRID, 1.5, p)
        monkeypatch.setattr(besov, "_gagliardo_1d", _gagliardo_loop)
        ref = besov_pos_norm(f, _GRID, 1.5, p)
        assert abs(got - ref) <= 1e-12 * ref

    def test_pair_temporaries_bounded(self):
        # a hull over all 4097 samples has 8.4e6 pairs; the blocks never
        # hold more than two buffers of _PAIR_CELLS doubles
        x = np.linspace(-8.0, 8.0, 4097)
        f = _bump(x, 0.0, 8.0)
        tracemalloc.start()
        try:
            besov._gagliardo_1d(f, x, 0.5, 2.0, x[1] - x[0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * besov._PAIR_CELLS * 8

    @pytest.mark.parametrize("p", [1.0, 2.0, 2.43])
    @pytest.mark.parametrize("case", sorted(HULL_CASES))
    def test_second_diff_matches_offset_loop(self, case, p):
        x = _GRID
        f = HULL_CASES[case](x)
        h = x[1] - x[0]
        ref = _second_diff_loop(f, x, p, h)
        got = besov._second_diff_form(f, x, p, h)
        assert abs(got - ref) <= 1e-12 * abs(ref)

    def test_second_diff_temporaries_bounded(self):
        x = np.linspace(-8.0, 8.0, 4097)
        f = _bump(x, 0.0, 8.0)
        tracemalloc.start()
        try:
            besov._second_diff_form(f, x, 2.0, x[1] - x[0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * besov._PAIR_CELLS * 8
