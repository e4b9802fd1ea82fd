import math

import numpy as np
import pytest
from scipy.integrate import quad

from wedgecap import _quad
from wedgecap._quad import (_G8_W, _K17_W, _K17_X, fit_loglog, integrate_partials,
                            integrate_rows, merge_edges)
from wedgecap.errors import AccuracyError


def test_smooth_integral_matches_quadpack():
    f = lambda x: np.exp(-x) * np.sin(3 * x)
    (val,), (err,) = integrate_rows(lambda x: f(x)[None, :], np.linspace(0, 10, 5),
                                    rtol=1e-10)
    ref, _ = quad(lambda x: float(np.exp(-x) * np.sin(3 * x)), 0, 10)
    assert abs(val - ref) < 1e-9
    assert abs(val - ref) <= max(err, 1e-12)


def test_algebraic_singularity_with_edge():
    # integral of x^{-1/2} over (0,1) = 2; singular endpoint carried by grading
    edges = merge_edges(1e-12, 1.0, np.geomspace(1e-12, 1.0, 49))
    val, _ = integrate_rows(lambda x: 1.0 / np.sqrt(x), edges, rtol=1e-9)
    exact = 2.0 - 2.0 * math.sqrt(1e-12)
    assert abs(val[0] - exact) < 1e-8


def test_rows_share_panels():
    taus = np.array([0.5, 1.0, 2.0])

    def f(y):
        return 1.0 / (taus[:, None] ** 2 + y[None, :] ** 2)

    vals, errs = integrate_rows(f, np.linspace(-50, 50, 11), rtol=1e-9)
    ref = 2.0 * np.arctan(50.0 / taus) / taus
    assert np.all(np.abs(vals - ref) < 1e-7 * ref)


def test_budget_exhaustion_raises_with_estimate(monkeypatch):
    # a needle the budget cannot resolve at this tolerance
    monkeypatch.setattr(_quad, "_MAX_PANELS", 8)
    f = lambda x: 1.0 / (1e-14 + x ** 2)
    with pytest.raises(AccuracyError) as exc:
        integrate_rows(f, [-1.0, 1.0], rtol=1e-12)
    assert exc.value.value is not None


def test_partials_match_separate_runs():
    f = lambda x: np.exp(-x) * x
    cuts = [0.5, 1.0, 2.0]
    edges = merge_edges(0.5, 20.0, np.linspace(0.5, 20.0, 9), cuts)
    vals, _ = integrate_partials(lambda x: f(x)[None, :], edges, cuts, rtol=1e-10)
    for c, v in zip(cuts, vals):
        ref, _ = integrate_rows(f, merge_edges(c, 20.0, np.linspace(c, 20.0, 9)),
                                rtol=1e-12)
        assert abs(v - ref[0]) < 1e-9


def test_fit_loglog_recovers_exponent():
    x = np.array([1e-4, 1e-3, 1e-2, 1e-1])
    slope, r2, se = fit_loglog(x, 3.0 * x ** -0.7)
    assert abs(slope + 0.7) < 1e-12
    assert r2 > 0.999999
    assert se < 1e-10


def test_fit_loglog_matches_polyfit():
    # seeded scattered power laws on 3 to 6 points: the closed-form slope,
    # r^2 and slope stderr against np.polyfit's coefficients, residual sum
    # and covariance, which scales by ss_res / (n - 2)
    rng = np.random.default_rng(47)
    for _ in range(200):
        n = int(rng.integers(3, 7))
        lx = rng.uniform(-8.0, 3.0, n)
        ly = rng.normal(0.0, 2.0) + rng.normal(0.0, 2.0) * lx + rng.normal(0.0, 0.3, n)
        slope, r2, se = fit_loglog(np.exp(lx), np.exp(ly))
        (b, _), (ss_res,), _, _, _ = np.polyfit(lx, ly, 1, full=True)
        _, cov = np.polyfit(lx, ly, 1, cov=True)
        ref = (b, 1.0 - ss_res / np.sum((ly - ly.mean()) ** 2), math.sqrt(cov[0, 0]))
        for got, want in zip((slope, r2, se), ref):
            assert abs(got - want) <= 1e-12 * abs(want), (n, got, want)


def test_determinism():
    f = lambda x: np.abs(x - 0.3) ** -0.4
    edges = merge_edges(0.0, 1.0, [0.3])
    v1 = integrate_rows(f, edges, rtol=1e-8)
    v2 = integrate_rows(f, edges, rtol=1e-8)
    assert np.array_equal(v1, v2)


def _monomial_integral(k):
    return 2.0 / (k + 1) if k % 2 == 0 else 0.0


def test_kronrod_rule_exact_to_degree_25():
    for k in range(26):
        assert abs(np.dot(_K17_W, _K17_X ** k) - _monomial_integral(k)) <= 1e-15


def test_kronrod_rule_embeds_gauss_8():
    x, _ = np.polynomial.legendre.leggauss(8)
    assert np.all(np.abs(_K17_X[1::2] - x) <= 2e-16)
    for k in range(16):
        assert abs(np.dot(_G8_W, _K17_X[1::2] ** k) - _monomial_integral(k)) <= 1e-15


def test_rows_evaluate_17_nodes_per_panel():
    sizes = []

    def f(x):
        sizes.append(x.size)
        return np.exp(x)[None, :]

    vals, _ = integrate_rows(f, np.linspace(0.0, 1.0, 6), rtol=1e-10)
    assert sizes == [17 * 5]
    assert abs(vals[0] - math.expm1(1.0)) < 1e-14


def test_row_sums_exact_on_monomials():
    # three rows x^d, x^(d+1), x^(d+2) at once on panels of different
    # widths and offsets: the K17 matrix-vector sums are exact to degree
    # 25 and the G8 sums to degree 15 on every panel, and on the widest
    # panel the next even degree is not
    a = np.array([-1.0, 0.0, 0.5, -2.0, 1.0])
    b = np.array([0.0, 0.5, 2.0, 2.0, 3.0])
    for rule, top in ((0, 25), (1, 15)):
        for d in range(top):
            degs = np.arange(d, d + 3)[:, None]
            sums = _quad._row_sums(lambda x: x[None, :] ** degs, a, b)[rule]
            assert sums.shape == (3, a.size)
            ref = (b ** (degs + 1) - a ** (degs + 1)) / (degs + 1)
            scale = (np.abs(b) ** (degs + 1) + np.abs(a) ** (degs + 1)) / (degs + 1)
            exact = np.abs(sums - ref) <= 1e-13 * scale
            assert np.all(exact[degs[:, 0] <= top])
            assert not np.any(exact[degs[:, 0] == top + 1, 3])


def test_determinism_multi_row():
    taus = np.array([0.01, 0.3, 2.0])

    def f(y):
        return np.abs(y[None, :] - 0.3) ** -0.4 / (taus[:, None] ** 2 + y[None, :] ** 2)

    edges = merge_edges(-5.0, 5.0, [0.3])
    v1, e1 = integrate_rows(f, edges, rtol=1e-8)
    v2, e2 = integrate_rows(f, edges, rtol=1e-8)
    assert np.array_equal(v1, v2) and np.array_equal(e1, e2)


def test_partial_weights_integrate_their_interpolants_exactly():
    # from any cut c in [-1, 1], the K17 partial weights integrate every
    # polynomial of degree <= 16 over [c, 1] exactly (the K17 interpolant
    # reproduces it) and the G8 ones every polynomial of degree <= 7
    c = np.concatenate([[-1.0, 1.0], np.random.default_rng(3).uniform(-1.0, 1.0, 40)])
    w17, w8 = _quad._partial_weights(c)
    assert w17.shape == (c.size, 17) and w8.shape == (c.size, 8)
    for weights, x, top in ((w17, _K17_X, 16), (w8, _K17_X[1::2], 7)):
        for d in range(top + 1):
            exact = (1.0 - c ** (d + 1)) / (d + 1)
            assert np.all(np.abs(weights @ x ** d - exact) <= 1e-14)
    assert np.all(np.abs(w17[0] - _K17_W) <= 1e-14) and np.all(np.abs(w17[1]) <= 1e-14)


@pytest.mark.parametrize("rtol", [1e-4, 1e-6, 1e-8])
def test_interior_cut_within_reported_error(rtol):
    # 1/cosh x has its poles at +-i pi/2, the strip panel_width is sized
    # for: on one panel that wide the tail from an interior cut is the
    # integral of the panel's K17 interpolant, within the reported error
    rng = np.random.default_rng(int(-math.log10(rtol)))
    L = _quad.panel_width(rtol)
    antideriv = lambda x: 2.0 * math.atan(math.tanh(0.5 * x))
    for _ in range(20):
        lo = rng.uniform(-L, 0.0)
        cut = rng.uniform(lo, lo + L)
        vals, err = integrate_partials(lambda x: (1.0 / np.cosh(x))[None, :], [lo, lo + L],
                                       [lo, cut], rtol=rtol)
        for c, v in zip((lo, cut), vals):
            assert abs(v - (antideriv(lo + L) - antideriv(c))) <= err


def test_partials_reject_a_cut_outside_the_edges():
    f = lambda x: np.exp(-x)[None, :]
    edges = np.linspace(0.0, 2.0, 5)
    (v,), _ = integrate_partials(f, edges, [2.0 + 1e-15], rtol=1e-10)   # within the tolerance
    assert v == 0.0
    for cuts in ([-0.25], [0.5, 2.5]):
        with pytest.raises(ValueError, match="within"):
            integrate_partials(f, edges, cuts, rtol=1e-10)


@pytest.mark.parametrize("f, edges", [(np.exp, [0.0, 1.0]),
                                      (np.cos, [0.0, 1.0]),
                                      (lambda x: 1.0 / (1.0 + x * x), [0.0, 0.5, 1.0])],
                         ids=["exp", "cos", "arctan"])
def test_reported_error_not_below_roundoff(f, edges):
    # K17 and G8 agree to the last bits on a smooth integrand, so |K17 - G8|
    # alone can report 0; the error is floored at 50 eps times the sum of
    # the |K17| panel values, as in QUADPACK
    (val,), (err,) = integrate_rows(f, edges, rtol=1e-10)
    assert err >= 50.0 * np.finfo(float).eps * abs(val) > 0.0
