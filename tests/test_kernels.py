import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import wedgecap.kernels as kernels
from wedgecap.errors import (AccuracyError, DivergenceError, DomainError,
                             SingularityError)
from wedgecap.exponents import critical_exponents
from wedgecap.geometry import DiscreteMeasure, dirac
from wedgecap.kernels import (KernelParams, QuadratureSpec, F_nu_m, I_m_j,
                              J_AR, M_nu_s, default_R, k_nu_m, martin_kernel,
                              params_from_report, poisson_potential,
                              poisson_upper_bound, reduced_I, reduced_I_ladder)

QUARTER = critical_exponents(3, 2, 4.0)


class TestPointKernels:
    def test_dirac_at_origin(self):
        # single atom at 0 evaluated on the axis: tau^{nu-m} tau^{-nu} = tau^{-m}
        for tau in (0.5, 1.0, 2.0):
            assert abs(k_nu_m(tau, 0.0, dirac(1), 2.5) - tau ** -1.0) < 1e-14

    def test_scaling_homogeneity(self):
        mu = dirac(2)
        v1 = k_nu_m(0.7, [0.3, 0.1], mu, 3.5)
        v2 = k_nu_m(1.4, [0.6, 0.2], mu, 3.5)
        assert abs(v2 - v1 * 2.0 ** -2.0) < 1e-14 * v1

    def test_two_atom_hand_sum(self):
        mu = DiscreteMeasure(1, [((1.0,), 1.0), ((-1.0,), 1.0)])
        assert abs(k_nu_m(1.0, 0.0, mu, 2.0) - 1.0) < 1e-15

    def test_tau_domain(self):
        with pytest.raises(DomainError):
            k_nu_m(0.0, 0.0, dirac(1), 2.0)


class TestMartinKernel:
    def test_homogeneity(self):
        x = np.array([0.3, 0.5, 0.7])
        z = np.array([0.2])
        v1 = martin_kernel(x, z, QUARTER)
        v2 = martin_kernel(2.0 * x, 2.0 * z, QUARTER)
        expect = 2.0 ** (2.0 - 3.0 - QUARTER.kappa_plus)
        assert abs(v2 / v1 - expect) < 1e-12

    def test_on_axis_power(self):
        # x'' at the pole coordinate: value = omega * |x'|^{2-N-kappa_plus}
        x = np.array([0.3, 0.4, 0.0])
        rp = math.hypot(0.3, 0.4)
        th = math.atan2(0.3, 0.4)
        v = martin_kernel(x, np.array([0.0]), QUARTER)
        assert abs(v - math.sin(2 * th) * rp ** (2 - 3 - 2.0)) < 1e-12 * abs(v)

    def test_pole_error(self):
        with pytest.raises(SingularityError):
            martin_kernel(np.array([0.0, 0.0, 0.2]), np.array([0.2]), QUARTER)

    def test_vanishes_on_wall(self):
        x = np.array([0.0, 0.5, 0.3])   # theta_1 = 0 wall
        assert martin_kernel(x, np.array([0.0]), QUARTER) == 0.0

    def test_potential_matches_unit_atom(self):
        x = np.array([0.3, 0.5, 0.7])
        mu = dirac(1, [0.2])
        assert (poisson_potential(mu, x, QUARTER)
                == martin_kernel(x, np.array([0.2]), QUARTER))

    def test_potential_linear(self):
        x = np.array([0.3, 0.5, 0.7])
        mu = DiscreteMeasure(1, [((0.0,), 1.0), ((0.5,), 2.0)])
        v = poisson_potential(mu, x, QUARTER)
        v1 = martin_kernel(x, np.array([0.0]), QUARTER)
        v2 = martin_kernel(x, np.array([0.5]), QUARTER)
        assert abs(v - (v1 + 2.0 * v2)) < 1e-12 * abs(v)

    def test_upper_bound(self):
        mu = DiscreteMeasure(1, [((0.0,), 1.0), ((0.5,), 2.0)])
        for x in ([0.3, 0.5, 0.7], [0.1, 0.9, -0.4]):
            x = np.array(x)
            assert poisson_potential(mu, x, QUARTER) <= poisson_upper_bound(
                mu, x, QUARTER) * (1 + 1e-12)

    def test_discrete_harmonicity(self):
        x = np.array([0.4, 0.6, 0.5])
        res = []
        for h in (0.02, 0.01):
            acc = -6.0 * martin_kernel(x, np.array([0.0]), QUARTER)
            for ax in range(3):
                e = np.zeros(3)
                e[ax] = h
                acc += martin_kernel(x + e, np.array([0.0]), QUARTER)
                acc += martin_kernel(x - e, np.array([0.0]), QUARTER)
            res.append(abs(acc) / h ** 2)
        assert 3.0 <= res[0] / res[1] <= 5.5


class TestF:
    def test_arctan_oracle(self):
        # nu q = 2: the slice integral of a unit atom is pi/tau exactly
        p = KernelParams(nu=1.25, m=1, q=1.6)
        for tau in (0.25, 1.0, 3.0):
            v, e = F_nu_m(tau, dirac(1), p, truncated=False)
            assert abs(v - math.pi / tau) < 5e-6 * (math.pi / tau)

    def test_against_quadpack(self):
        mu = DiscreteMeasure(1, [((0.2,), 1.0), ((-0.4,), 0.5)])
        p = KernelParams(nu=2.0, m=1, q=1.5, R=4.0)
        v, _ = F_nu_m(1.0, mu, p, truncated=True)

        def f(y):
            s = 1.0 * (1.0 + (y - 0.2) ** 2) ** -1.0 + 0.5 * (1.0 + (y + 0.4) ** 2) ** -1.0
            return s ** 1.5

        ref = quad(f, -4.0, 4.0, epsabs=1e-12, epsrel=1e-12)[0]
        assert abs(v - ref) < 1e-6 * ref

    def test_small_tau_kernel_bound(self):
        # pointwise bound mass^q tau^{-nu q} dominates where c_m tau^m <= 1
        p = KernelParams(nu=2.0, m=1, q=2.0)
        for tau in (0.05, 0.1, 0.2):
            v, _ = F_nu_m(tau, dirac(1), p, truncated=False)
            assert v <= tau ** (-4.0)

    def test_truncation_monotone(self):
        mu = dirac(1)
        v_full, _ = F_nu_m(1.0, mu, KernelParams(nu=2.0, m=1, q=2.0),
                           truncated=False)
        vals = []
        for R in (2.0, 8.0, 32.0):
            v, _ = F_nu_m(1.0, mu, KernelParams(nu=2.0, m=1, q=2.0, R=R),
                          truncated=True)
            vals.append(v)
        assert vals[0] < vals[1] < vals[2] <= v_full * (1 + 1e-9)
        assert v_full - vals[-1] < 1e-4 * v_full

    def test_atom_monotonicity(self):
        p = KernelParams(nu=2.0, m=1, q=2.0, R=4.0)
        mu1 = dirac(1)
        mu2 = DiscreteMeasure(1, [((0.0,), 1.0), ((0.7,), 0.5)])
        v1, _ = F_nu_m(0.5, mu1, p)
        v2, _ = F_nu_m(0.5, mu2, p)
        assert v2 > v1

    def test_m2_single_atom_oracle(self):
        # radial closed form in R^2: integral (tau^2+r^2)^{-nuq/2} 2 pi r dr
        p = KernelParams(nu=3.0, m=2, q=2.0)
        v, _ = F_nu_m(1.0, dirac(2), p, truncated=False)
        ref = 2.0 * math.pi * quad(lambda r: r * (1.0 + r * r) ** -3.0, 0, np.inf)[0]
        assert abs(v - ref) < 1e-4 * ref

    @pytest.mark.parametrize("z, nu, q, tau", [((8.0, 0.0), 3.0, 1.5, 0.5),
                                               ((12.0, 0.0), 2.5, 1.7, 1.0)])
    def test_m2_off_centre_tail_bound(self, z, nu, q, tau):
        # F over R^2 is translation invariant: one atom anywhere gives the
        # radial closed form 2 pi tau^{2-nuq} / (nuq - 2); the reported
        # error must cover the square cut off around the off-centre atom
        mu = DiscreteMeasure(2, [(z, 1.0)])
        v, e = F_nu_m(tau, mu, KernelParams(nu=nu, m=2, q=q),
                      quad=QuadratureSpec(rtol=1e-8), truncated=False)
        ref = 2.0 * math.pi * tau ** (2.0 - nu * q) / (nu * q - 2.0)
        assert abs(v - ref) <= e


def test_kernel_table_matches_atom_loop():
    # the blocked in-place table must equal the plain per-atom expression
    # raised to q bit for bit, also where the tau rows cross block
    # boundaries (300 x 2000) and where a block holds one row (40 000)
    mu = DiscreteMeasure(1, [((0.3,), 1.0), ((-0.45,), 0.7), ((2.0,), 0.25)])
    shapes = ((37, 401), (300, 2000), (5, 40000))
    for (n_tau, n_y) in shapes:
        tau = np.geomspace(1e-3, 20.0, n_tau)
        y = np.linspace(-30.0, 30.0, n_y)
        for nu in (2.0, 3.3):
            ref = np.zeros((tau.size, y.size))
            for z, w in zip(mu.positions[:, 0], mu.weights):
                ref += w * ((tau ** 2)[:, None] + (y[None, :] - z) ** 2) ** (-0.5 * nu)
            for q in (1.0, 1.8):
                assert np.array_equal(kernels._kernel_sum_m1(tau, y, mu, nu, q),
                                      ref ** q)


def test_full_line_widening_evaluates_each_node_once(monkeypatch):
    seen = []
    table = kernels._kernel_sum_m1

    def recording(tau, y, mu, nu, q):
        seen.append(np.array(y))
        return table(tau, y, mu, nu, q)

    calls = []
    rows = kernels.integrate_rows

    def counting(*args, **kwargs):
        calls.append(1)
        return rows(*args, **kwargs)

    monkeypatch.setattr(kernels, "_kernel_sum_m1", recording)
    monkeypatch.setattr(kernels, "integrate_rows", counting)
    tau = np.geomspace(1e-3, 20.0, 12)
    F_nu_m(tau, dirac(1), KernelParams(nu=2.0, m=1, q=1.8), truncated=False)
    assert len(calls) >= 3   # the core solve and at least two widenings
    nodes = np.concatenate(seen)
    assert np.unique(nodes).size == nodes.size


TWO_ATOMS = ((0.3, 1.0), (-0.45, 0.7))


@functools.lru_cache(maxsize=None)
def _two_atom_F_mpmath(tau, truncated, nu=2.0, q=1.8, R=8.0):
    # 30-digit tanh-sinh reference, split at each atom and at z +- tau 10^e
    with mpmath.workdps(30):
        t2 = mpmath.mpf(tau) ** 2

        def k(y):
            return sum(w * (t2 + (y - z) ** 2) ** (-0.5 * nu) for z, w in TWO_ATOMS) ** q

        lim = R if truncated else mpmath.inf
        pts = sorted({z + d * tau * 10 ** e for z, _ in TWO_ATOMS
                      for d in (-1, 1) for e in range(4)} | {z for z, _ in TWO_ATOMS})
        return float(mpmath.quad(k, [-lim] + [p for p in pts if -R < p < R] + [lim]))


@pytest.mark.parametrize("rtol", [1e-4, 1e-8])
@pytest.mark.parametrize("truncated", [True, False])
@pytest.mark.parametrize("tau", [1e-3, 0.1, 5.0])
def test_two_atom_F_within_reported_error(tau, truncated, rtol):
    # no closed form for two atoms: the slice integral against mpmath
    mu = DiscreteMeasure(1, [((z,), w) for z, w in TWO_ATOMS])
    p = KernelParams(nu=2.0, m=1, q=1.8, R=8.0 if truncated else None)
    v, e = F_nu_m(tau, mu, p, quad=QuadratureSpec(rtol=rtol), truncated=truncated)
    assert abs(v - _two_atom_F_mpmath(tau, truncated)) <= e


@settings(max_examples=40, deadline=None)
@given(nu=st.floats(1.05, 4.0), q=st.floats(1.05, 3.0),
       tau=st.floats(1e-3, 20.0), log_rtol=st.floats(-8.0, -3.0))
def test_full_line_dirac_within_reported_error(nu, q, tau, log_rtol):
    # F(tau) of a unit atom = tau^{1-nu q} sqrt(pi) G((nu q-1)/2) / G(nu q/2)
    nuq = nu * q
    exact = (tau ** (1.0 - nuq) * math.sqrt(math.pi)
             * math.gamma(0.5 * (nuq - 1.0)) / math.gamma(0.5 * nuq))
    try:
        v, e = F_nu_m(tau, dirac(1), KernelParams(nu=nu, m=1, q=q),
                      quad=QuadratureSpec(rtol=10.0 ** log_rtol), truncated=False)
    except AccuracyError as exc:
        # at nu q near 1 the widening runs out; the raise carries the totals
        v, e = float(exc.value[0]), float(exc.error[0])
    # at nu q near 1 the power tail bound is nearly exact, so the error
    # bar meets the true error up to the rounding of both sides
    assert abs(v - exact) <= e + 1e-13 * exact


def test_exhausted_full_line_widening_raises():
    # the power tail bound decays like Y^{1 - nu q} = Y^{-0.265625}: 29
    # doublings leave it near 3e-3 relative, above the requested 1e-3
    nuq = 1.125 * 1.125
    exact = (2.19 ** (1.0 - nuq) * math.sqrt(math.pi)
             * math.gamma(0.5 * (nuq - 1.0)) / math.gamma(0.5 * nuq))
    with pytest.raises(AccuracyError) as exc:
        F_nu_m(2.19, dirac(1), KernelParams(nu=1.125, m=1, q=1.125),
               quad=QuadratureSpec(rtol=1e-3), truncated=False)
    v, e = float(exc.value.value[0]), float(exc.value.error[0])
    assert e > 1e-3 * v
    # the tail bound is exact to rounding here, as in the oracle test above
    assert abs(v - exact) <= e + 1e-13 * exact


def test_exhausted_ladder_widening_raises():
    # nu q = 2.4 leaves the j = 2 tail bound decaying like Y^{-0.4}
    p = KernelParams(nu=1.5, m=1, q=1.6, sigma=0.5, j=2)
    with pytest.raises(AccuracyError) as exc:
        reduced_I_ladder(dirac(1), p, (0.01, 0.005), quad=QuadratureSpec(rtol=1e-6))
    assert exc.value.value.shape == (2,)
    assert float(exc.value.error[0]) > 3e-7 * float(np.min(exc.value.value))


@settings(max_examples=30, deadline=None)
@given(a=st.floats(-0.5, 0.6), q=st.floats(1.6, 3.0),
       log_eps=st.floats(-2.5, -1.0), rtol=st.sampled_from([1e-6, 1e-4]))
def test_dirac_ladder_within_reported_error(a, q, log_eps, rtol):
    # a unit atom on R^1 at nu = 2, sigma = s, j = 1 has the closed form
    # I(cut) = c(2q) Gamma(a, cut) with a = s q - q + 1 and
    # c(2q) = integral of (1 + y^2)^{-q} dy = sqrt(pi) G(q - 1/2) / G(q)
    s = (a + q - 1.0) / q
    eps = 10.0 ** log_eps
    cutoffs = [eps / 2 ** k for k in range(4)]
    p = KernelParams(nu=2.0, m=1, q=q, sigma=s, j=1)
    vals, err = reduced_I_ladder(dirac(1), p, cutoffs, quad=QuadratureSpec(rtol=rtol))
    c2q = math.sqrt(math.pi) * math.gamma(q - 0.5) / math.gamma(q)
    for cut, v in zip(cutoffs, vals):
        exact = c2q * float(mpmath.gammainc(a, cut))
        assert abs(v - exact) <= err


def test_ladder_widening_integrates_each_tau_once(monkeypatch):
    # the ladder solves (min cutoff, Y) once and adds each shell (Y, 2Y)
    # to every rung instead of re-solving the whole range per doubling
    p = KernelParams(nu=2.0, m=1, q=1.8, sigma=0.5, j=2)
    quad = QuadratureSpec(rtol=1e-6)
    cutoffs = (0.01, 0.005)
    nodes, spans, depth = [], [], []
    F = kernels.F_nu_m

    def recording(tau, *args, **kwargs):
        nodes.append(np.array(tau, float))
        depth.append(1)
        try:
            return F(tau, *args, **kwargs)
        finally:
            depth.pop()

    def spanning(engine):
        def run(f, edges, *args, **kwargs):
            if not depth:   # a tau-quadrature, not a y-quadrature inside F
                spans.append((edges[0], edges[-1]))
            return engine(f, edges, *args, **kwargs)
        return run

    monkeypatch.setattr(kernels, "F_nu_m", recording)
    monkeypatch.setattr(kernels, "integrate_rows", spanning(kernels.integrate_rows))
    monkeypatch.setattr(kernels, "integrate_partials",
                        spanning(kernels.integrate_partials))
    vals, err = reduced_I_ladder(dirac(1), p, cutoffs, quad=quad)
    monkeypatch.undo()
    assert len(spans) >= 3   # the core solve and at least two widenings
    spans.sort()
    assert spans[0][0] == min(cutoffs)
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))   # no overlap
    nodes = np.concatenate(nodes)
    assert np.unique(nodes).size == nodes.size
    for c, v in zip(cutoffs, vals):
        ref, ref_err = reduced_I(dirac(1), p, quad=quad, eps=c)
        assert abs(v - ref) <= err + ref_err


class TestAggregates:
    def test_homogeneity(self):
        mu = DiscreteMeasure(1, [((0.3,), 1.0), ((-0.2,), 0.7)])
        p = params_from_report(QUARTER, 1.8, R=8.0)
        v1, _ = M_nu_s(mu, p, eps=1e-2)
        v2, _ = M_nu_s(mu.scaled(2.0), p, eps=1e-2)
        assert abs(v2 / v1 - 2.0 ** 1.8) < 1e-10

    def test_exponent_identity_value(self):
        p = params_from_report(QUARTER, 1.8, R=8.0)
        lhs = (p.s + p.nu - p.m) * p.q - 1.0
        assert abs(lhs - 6.6) < 1e-12
        assert abs(QUARTER.beta(1.8) - 6.6) < 1e-12

    def test_J_aliases_M(self):
        mu = dirac(1)
        vj, _ = J_AR(mu, QUARTER, 1.8, R=8.0, eps=1e-2)
        vm, _ = M_nu_s(mu, params_from_report(QUARTER, 1.8, R=8.0), eps=1e-2)
        assert vj == vm

    def test_translation_stability(self):
        # finite-M configuration: s above m/q' so the aggregate converges
        p = KernelParams(nu=5.0, m=1, q=1.8, s=0.6, R=16.0)
        mu = DiscreteMeasure(1, [((0.0,), 1.0), ((0.5,), 1.0)])
        v0, _ = M_nu_s(mu, p)
        v1, _ = M_nu_s(mu.translated([1.0]), p)
        assert abs(v1 - v0) / v0 < 0.05

    def test_divergence_guard(self):
        p = params_from_report(QUARTER, 1.8, R=8.0)   # s below m/q'
        with pytest.raises(DivergenceError):
            M_nu_s(dirac(1), p)

    def test_support_check(self):
        p = params_from_report(QUARTER, 1.8, R=8.0)
        with pytest.raises(DomainError):
            M_nu_s(dirac(1, [7.0]), p, eps=1e-2)

    def test_default_R(self):
        mu = DiscreteMeasure(1, [((0.0,), 1.0), ((2.0,), 1.0)])
        assert default_R(mu) == 24.0
        assert default_R(dirac(1)) == 8.0

    def test_sandwich_in_nu(self):
        # integrand decreases in nu pointwise: M_n <= M_nu <= M_{n-1}
        rng = np.random.default_rng(23)
        nu = 4.5
        for _ in range(10):
            na = int(rng.integers(1, 5))
            mu = DiscreteMeasure(1, [(rng.uniform(-2, 2, 1), 1 - rng.random())
                                     for _ in range(na)])
            vals = {}
            for nv in (4.0, 4.5, 5.0):
                p = KernelParams(nu=nv, m=1, q=2.0, s=0.7, R=8.0)
                vals[nv], _ = M_nu_s(mu, p, eps=1e-3)
            assert vals[5.0] <= vals[4.5] <= vals[4.0]

    def test_self_consistency_under_tol_halving(self):
        mu = DiscreteMeasure(1, [((0.3,), 1.0), ((-0.2,), 0.7)])
        p = params_from_report(QUARTER, 1.8, R=8.0)
        v1, e1 = M_nu_s(mu, p, quad=QuadratureSpec(rtol=1e-5), eps=1e-2)
        v2, _ = M_nu_s(mu, p, quad=QuadratureSpec(rtol=5e-6), eps=1e-2)
        assert abs(v1 - v2) <= e1


class TestExponentialFamily:
    def test_j1_equals_reduction(self):
        p = KernelParams(nu=3.0, m=1, q=2.0, sigma=2.0, j=1)
        v_full, _ = I_m_j(dirac(1), p)
        v_red, _ = reduced_I(dirac(1), p)
        assert v_full == v_red

    def test_j2_ratio_stable(self):
        p = KernelParams(nu=3.0, m=1, q=2.0, sigma=2.0, j=2)
        ratios = []
        for t in (0.5, 1.0, 2.0):
            mu = dirac(1, [t])
            ratios.append(I_m_j(mu, p)[0] / reduced_I(mu, p)[0])
        mid = ratios[1]
        assert all(abs(r / mid - 1.0) < 0.2 for r in ratios)

    def test_I_homogeneous(self):
        p = KernelParams(nu=3.0, m=1, q=2.0, sigma=2.0, j=2)
        v1, _ = I_m_j(dirac(1), p)
        v2, _ = I_m_j(dirac(1).scaled(3.0), p)
        assert abs(v2 / v1 - 3.0 ** 2.0) < 1e-8

    def test_ladder_matches_single_runs(self):
        mu = DiscreteMeasure(1, [((0.1,), 1.0), ((-0.3,), 0.5)])
        p = KernelParams(nu=2.0, m=1, q=1.8, sigma=0.3, j=1)
        cutoffs = [1e-2, 5e-3, 2.5e-3]
        vals, _ = reduced_I_ladder(mu, p, cutoffs)
        for c, v in zip(cutoffs, vals):
            ref, err = reduced_I(mu, p, eps=c)
            assert abs(v - ref) <= 2e-5 * ref + err
            # a one-rung ladder is the very solve reduced_I runs
            one, one_err = reduced_I_ladder(mu, p, [c])
            assert (float(one[0]), one_err) == (ref, err)

    def test_monotone_in_atoms(self):
        p = KernelParams(nu=3.0, m=1, q=2.0, sigma=2.0, j=2)
        v1, _ = reduced_I(dirac(1), p)
        v2, _ = reduced_I(DiscreteMeasure(1, [((0.0,), 1.0), ((0.4,), 0.3)]), p)
        assert v2 > v1

    def test_tail_divergence_guard(self):
        # nu q <= m + j - 1 diverges at infinity
        with pytest.raises(DivergenceError):
            reduced_I(dirac(1), KernelParams(nu=1.2, m=1, q=1.1, sigma=2.0, j=2))


class TestClosedFormOracles:
    # for a unit atom, F(tau) = c tau^{1-nu q} with c = sqrt(pi) G((nq-1)/2)/G(nq/2),
    # which collapses the exponential family to Gamma/Beta integrals
    C = math.sqrt(math.pi) * 1.3293403881791372 / 2.0   # G(2.5)/G(3), nu q = 6

    def test_j1_gamma_integral(self):
        p = KernelParams(nu=3.0, m=1, q=2.0, sigma=2.0, j=1)
        v, _ = I_m_j(dirac(1), p)
        assert abs(v - self.C) < 1e-7 * self.C

    def test_j2_beta_integral(self):
        p = KernelParams(nu=3.0, m=1, q=2.0, sigma=2.0, j=2)
        v, _ = reduced_I(dirac(1), p)
        beta24 = 1.0 / 20.0   # B(2, 4)
        assert abs(v - self.C * beta24) < 1e-6 * self.C * beta24

    def test_cutoff_beyond_widening_start(self):
        # eps = 60 lies above the j = 2 widening start Y = 40: the range
        # starts at 2 eps instead of coming out empty
        p = KernelParams(nu=3.0, m=1, q=1.8, sigma=0.5, j=2)
        v, e = reduced_I(dirac(1), p, eps=60.0)
        c = mpmath.sqrt(mpmath.pi) * mpmath.gamma(2.2) / mpmath.gamma(2.7)
        with mpmath.workdps(30):
            exact = float(c * mpmath.quad(
                lambda t: t ** -4.4 * t ** 2.7 / (1 + t) ** 2.7, [60, 240, mpmath.inf]))
        assert abs(v - exact) <= e

    def test_j2_full_is_half_pi(self):
        # c = 3 pi / 8 and the polar reduction integrates to exactly pi/2
        p = KernelParams(nu=3.0, m=1, q=2.0, sigma=2.0, j=2)
        v, _ = I_m_j(dirac(1), p)
        assert abs(v - math.pi / 2.0) < 1e-7


class TestVertexCone:
    def test_martin_kernel_octant_harmonic(self):
        # k = N: the edge is a point and the kernel is |x|^{kappa_minus} phi
        from wedgecap.spectral import opening_eigenfunction
        from wedgecap.geometry import WedgeSpec

        spec = WedgeSpec(3, 3, math.pi / 2, intervals=((0.0, math.pi / 2),),
                         allow_pole=True)
        gamma, phi = opening_eigenfunction(spec)
        rep = critical_exponents(3, 3, gamma)
        x0 = np.array([0.5, 0.6, 0.7])
        v = martin_kernel(x0, np.zeros(0), rep, omega=phi)
        r = np.linalg.norm(x0)
        assert abs(v - r ** rep.kappa_minus * phi(x0 / r)) < 1e-10 * abs(v)
        res = []
        for h in (0.02, 0.01):
            acc = -6.0 * martin_kernel(x0, np.zeros(0), rep, omega=phi)
            for ax in range(3):
                e = np.zeros(3)
                e[ax] = h
                acc += martin_kernel(x0 + e, np.zeros(0), rep, omega=phi)
                acc += martin_kernel(x0 - e, np.zeros(0), rep, omega=phi)
            res.append(abs(acc) / h ** 2)
        assert 3.0 <= res[0] / res[1] <= 5.5


def test_aggregate_against_quadpack_2d():
    # subcritical configuration: the whole nested aggregate has a finite
    # value that an independent 2-D QUADPACK integration reproduces
    from scipy.integrate import dblquad

    rep = critical_exponents(3, 2, 4.0)
    q = 1.5
    p = params_from_report(rep, q, R=8.0)
    mu = dirac(1, [0.2])
    mine, err = M_nu_s(mu, p)
    nuq = p.nu * q
    wp = rep.beta(q)
    ref, _ = dblquad(lambda y, t: (t * t + (y - 0.2) ** 2) ** (-0.5 * nuq) * t ** wp,
                     0.0, 8.0, lambda t: -8.0, lambda t: 8.0,
                     epsabs=1e-10, epsrel=1e-10)
    assert abs(mine - ref) <= max(err, 1e-10 * ref)


def test_m2_aggregate_fails_fast():
    rep4 = critical_exponents(4, 2, 4.0)
    p = params_from_report(rep4, 1.4, R=6.0)
    from wedgecap.errors import ConfigurationError
    with pytest.raises(ConfigurationError):
        M_nu_s(dirac(2), p)
