import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import wedgecap.kernels as kernels
from wedgecap import _quad
from wedgecap.besov import besov_neg_proxy
from wedgecap.errors import (AccuracyError, DivergenceError, DomainError,
                             SingularityError)
from wedgecap.experiments import (_stencil_residuals, equivalence_experiment,
                                  measure_family, remainder_experiment)
from wedgecap.exponents import critical_exponents
from wedgecap.geometry import DiscreteMeasure, dirac
from wedgecap.kernels import (KernelParams, QuadratureSpec, F_nu_m, M_nu_s,
                              default_R, martin_kernel, params_from_report,
                              reduced_I, reduced_I_ladder)
from oracles import k_nu_m, poisson_potential

QUARTER = critical_exponents(3, 2, 4.0)


def poisson_upper_bound(mu, x, report):
    """c_A (r')^{kappa_plus} sum_i w_i |(x', x''-z_i)|^{2-N-2 kappa_plus}.

    Dominates the potential because the eigenfunction is <= 1.
    """
    xp, xpp = x[:report.k], x[report.k:]
    rp = float(np.linalg.norm(xp))
    acc = sum(w * (rp ** 2 + float(np.sum((xpp - z) ** 2))) ** (-0.5 * report.nu)
              for z, w in zip(mu.positions, mu.weights))
    return kernels.C_A * rp ** report.kappa_plus * acc


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
        res = _stencil_residuals(lambda x: martin_kernel(x, np.array([0.0]), QUARTER),
                                 np.array([[0.4, 0.6, 0.5]]), (0.02, 0.01))
        assert 3.0 <= res[0] / res[1] <= 5.5

    def test_points_array_is_pointwise(self):
        # a (..., N) array of points is the kernel at each point: the closed
        # form |x'|^2 sin(2 theta_1) |x - z|^{-5} of the quarter wedge, 0 on
        # the edge, and the pole still refused
        x = np.array([[[0.3, 0.5, 0.7], [0.0, 0.5, 0.3]],
                      [[0.0, 0.0, 0.9], [0.1, 0.9, -0.4]]])
        z = np.array([0.2])
        got = martin_kernel(x, z, QUARTER)
        assert got.shape == (2, 2)
        for idx in np.ndindex(2, 2):
            x1, x2, x3 = x[idx]
            expect = ((x1 * x1 + x2 * x2) * math.sin(2.0 * math.atan2(x1, x2))
                      * (x1 * x1 + x2 * x2 + (x3 - 0.2) ** 2) ** -2.5)
            assert abs(got[idx] - expect) <= 1e-14 * abs(expect)
            assert got[idx] == martin_kernel(x[idx], z, QUARTER)
        assert got[1, 0] == 0.0
        with pytest.raises(SingularityError):
            martin_kernel(np.vstack([x[0], [[0.0, 0.0, 0.2]]]), z, QUARTER)


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
                                               ((12.0, 0.0), 2.5, 1.7, 1.0),
                                               ((0.1, 0.2), 2.5, 1.1, 0.5)])
    def test_m2_off_centre_tail_bound(self, z, nu, q, tau):
        # F over R^2 is translation invariant: one atom anywhere gives the
        # radial closed form 2 pi tau^{2-nuq} / (nuq - 2); the reported
        # error must cover the tail beyond the disk widened around the
        # off-centre atom, and stay within m = 1's rtol, its 0.3 rtol tail
        # and the rtol bound of the inner angular rows
        mu = DiscreteMeasure(2, [(z, 1.0)])
        ref = 2.0 * math.pi * tau ** (2.0 - nu * q) / (nu * q - 2.0)
        for rtol in (1e-6, 1e-8):
            try:
                v, e = F_nu_m(tau, mu, KernelParams(nu=nu, m=2, q=q),
                              quad=QuadratureSpec(rtol=rtol), truncated=False)
            except AccuracyError as exc:
                # nu q = 2.75: the tail bound ~ Y^{-3/4} is still above
                # 0.3 rtol after 29 doublings; the totals it carries hold
                assert rtol < 1e-6 and nu * q < 3.0
                assert abs(float(exc.value[0]) - ref) <= float(exc.error[0])
                continue
            assert abs(v - ref) <= e <= 2.3 * rtol * v

    @pytest.mark.parametrize("tau, R", [(0.5, 4.0), (0.05, 2.0)])
    def test_m2_disk_closed_form(self, tau, R):
        # one atom at the origin on the disk |y| < R:
        # 2 pi [tau^{2-nuq} - (tau^2 + R^2)^{1-nuq/2}] / (nuq - 2)
        nu, q = 3.0, 1.5
        nuq = nu * q
        ref = 2.0 * math.pi * (tau ** (2.0 - nuq)
                               - (tau * tau + R * R) ** (1.0 - 0.5 * nuq)) / (nuq - 2.0)
        for rtol in (1e-6, 1e-8):
            v, e = F_nu_m(tau, dirac(2), KernelParams(nu=nu, m=2, q=q, R=R),
                          quad=QuadratureSpec(rtol=rtol))
            assert abs(v - ref) <= e <= 2.3 * rtol * v

    @pytest.mark.parametrize("tau, R", [(0.4, 3.0), (0.4, math.inf), (0.1, math.inf)])
    def test_m2_two_atoms_against_quadpack(self, tau, R):
        mu = DiscreteMeasure(2, list(TWO_ATOMS_PLANE))
        ref = _two_atom_F_plane(tau, R)
        params = KernelParams(nu=3.0, m=2, q=1.8, R=R if R < math.inf else None)
        for rtol in (1e-6, 1e-8):
            v, e = F_nu_m(tau, mu, params, quad=QuadratureSpec(rtol=rtol),
                          truncated=R < math.inf)
            assert abs(v - ref) <= e <= 2.3 * rtol * v

    def test_m2_polar_solve_work(self, monkeypatch):
        # the full-plane F of three atoms at rtol 1e-9: one radial solve to
        # the end fixed before it, and its angular rounds (290 solves with
        # one inner solve per outer node)
        calls = []
        refine = _quad._refine

        def counting(f, edges, rtol):
            calls.append(1)
            return refine(f, edges, rtol)

        monkeypatch.setattr(_quad, "_refine", counting)
        mu = DiscreteMeasure(2, [((0.0, 0.0), 1.0), ((1.0, 0.5), 1.0),
                                 ((-0.8, 0.3), 1.0)])
        F_nu_m(0.5, mu, KernelParams(nu=3.0, m=2, q=1.5),
               quad=QuadratureSpec(rtol=1e-9), truncated=False)
        assert len(calls) <= 10


TWO_ATOMS_PLANE = (((0.3, -0.2), 1.0), ((-0.5, 0.4), 0.6))


@functools.lru_cache(maxsize=None)
def _two_atom_F_plane(tau, R, nu=3.0, q=1.8):
    # nested QUADPACK in polar coordinates at rtol 1e-13, split at the
    # atoms' angles and radii; beyond r = 4 the tail is one more piece
    radii = [math.hypot(*z) for z, _ in TWO_ATOMS_PLANE]
    angles = [math.atan2(z[1], z[0]) % (2.0 * math.pi) for z, _ in TWO_ATOMS_PLANE]

    def ring(r):
        def k(t):
            y1, y2 = r * math.cos(t), r * math.sin(t)
            return sum(w * (tau * tau + (y1 - z1) ** 2 + (y2 - z2) ** 2) ** (-0.5 * nu)
                       for (z1, z2), w in TWO_ATOMS_PLANE) ** q
        return r * quad(k, 0.0, 2.0 * math.pi, points=angles, epsabs=0.0,
                        epsrel=1e-13, limit=200)[0]

    cut = min(R, 4.0)
    v = quad(ring, 0.0, cut, points=radii, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    if R > cut:
        v += quad(ring, cut, R, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return v


def test_kernel_table_matches_atom_loop():
    # the blocked in-place table must equal the plain per-atom expression
    # raised to q bit for bit, on distances that differ from row to row,
    # also where the tau rows cross block boundaries (300 x 2000) and
    # where a block holds one row (40 000); at nu = 2 the term is
    # w / (tau^2 + d^2), within 2 ulp of w x^{-1}
    mu = DiscreteMeasure(1, [((0.3,), 1.0), ((-0.45,), 0.7), ((2.0,), 0.25)])
    shapes = ((37, 401), (300, 2000), (5, 40000))
    for (n_tau, n_y) in shapes:
        tau = np.geomspace(1e-3, 20.0, n_tau)
        y = np.linspace(-30.0, 30.0, n_y) * (1.0 + tau[:, None])   # per row
        d2 = (y - mu.positions[:, :1, None]) ** 2
        t2 = (tau ** 2)[:, None]
        for nu in (2.0, 3.3):
            ref = np.zeros((tau.size, n_y))
            power = np.zeros((tau.size, n_y))
            for d, w in zip(d2, mu.weights):
                base = t2 + d
                ref += w / base if nu == 2.0 else w * base ** (-0.5 * nu)
                power += w * base ** (-0.5 * nu)

            def fill(k, rows, out):
                np.add(t2[rows], d2[k, rows], out=out)
            for q in (1.0, 1.8):
                table = kernels._kernel_sum(y.shape, fill, mu, nu, q)
                assert np.array_equal(table, ref ** q)
            table = kernels._kernel_sum(y.shape, fill, mu, nu, 1.0)
            assert np.all(np.abs(table - power) <= 2.0 * np.spacing(power))


def test_full_line_F_is_one_solve(monkeypatch):
    # m = 1 F over the whole line is one integrate_rows call in sinh
    # coordinates, and no node is evaluated twice
    seen, calls = [], []
    rows = kernels.integrate_rows

    def counting(f, edges, **kwargs):
        calls.append(1)

        def recording(u):
            seen.append(np.array(u))
            return f(u)
        return rows(recording, edges, **kwargs)

    monkeypatch.setattr(kernels, "integrate_rows", counting)
    tau = np.geomspace(1e-3, 20.0, 12)
    for mu in (dirac(1), DiscreteMeasure(1, [((0.3,), 1.0), ((-0.45,), 0.7)])):
        calls.clear()
        seen.clear()
        F_nu_m(tau, mu, KernelParams(nu=2.0, m=1, q=1.8), truncated=False)
        assert len(calls) == 1
        nodes = np.concatenate(seen)
        assert np.unique(nodes).size == nodes.size


TWO_ATOMS = ((0.3, 1.0), (-0.45, 0.7))
CLOSE_PAIR = ((0.0, 1.0), (1e-3, 1e-3))   # a heavy atom and a light one beside it


@functools.lru_cache(maxsize=None)
def _two_atom_F_mpmath(atoms, tau, truncated, nu=2.0, q=1.8, R=8.0):
    # 30-digit tanh-sinh reference, split at each atom and at z +- tau 10^e
    with mpmath.workdps(30):
        t2 = mpmath.mpf(tau) ** 2

        def k(y):
            return sum(w * (t2 + (y - z) ** 2) ** (-0.5 * nu) for z, w in atoms) ** q

        lim = R if truncated else mpmath.inf
        pts = sorted({z + d * tau * 10 ** e for z, _ in atoms
                      for d in (-1, 1) for e in range(4)} | {z for z, _ in atoms})
        return float(mpmath.quad(k, [-lim] + [p for p in pts if -R < p < R] + [lim]))


def _check_two_atom_F(atoms, tau, truncated, rtol):
    # no closed form for two atoms: the slice integral against mpmath
    mu = DiscreteMeasure(1, [((z,), w) for z, w in atoms])
    p = KernelParams(nu=2.0, m=1, q=1.8, R=8.0 if truncated else None)
    v, e = F_nu_m(tau, mu, p, quad=QuadratureSpec(rtol=rtol), truncated=truncated)
    assert abs(v - _two_atom_F_mpmath(atoms, tau, truncated)) <= e


@pytest.mark.parametrize("rtol", [1e-4, 1e-8])
@pytest.mark.parametrize("truncated", [True, False])
@pytest.mark.parametrize("tau", [1e-3, 0.1, 5.0])
def test_two_atom_F_within_reported_error(tau, truncated, rtol):
    _check_two_atom_F(TWO_ATOMS, tau, truncated, rtol)


@pytest.mark.parametrize("rtol", [1e-4, 1e-8])
@pytest.mark.parametrize("truncated", [True, False])
@pytest.mark.parametrize("tau", [1e-3, 0.1, 5.0])
def test_close_pair_F_within_reported_error(tau, truncated, rtol):
    # the light atom's cells end halfway to the heavy one 1e-3 away
    _check_two_atom_F(CLOSE_PAIR, tau, truncated, rtol)


@pytest.mark.parametrize("tau", [1e-14, 1e-16, 1e-17, 1e-20, 1e-30])
def test_two_atom_spikes_below_the_double_spacing(tau):
    # the spike at 0.3 is narrower than the spacing of doubles there
    # (5.6e-17) from tau ~ 1e-17 on; in sinh coordinates each atom's
    # distance is never formed from a rounded y, so both atoms count (the
    # shared y grid was 1.1e-4 low at 1e-14 and 20 % low from 1e-17 on).
    # The limit sum_i w_i^q c_ball(4) tau^{-3}, c_ball(4) = pi / 2, is
    # exact to 1e-26 relative here
    mu = DiscreteMeasure(1, [((0.0,), 1.0), ((0.3,), 0.5)])
    v, e = F_nu_m(tau, mu, KernelParams(nu=2.0, m=1, q=2.0), truncated=False)
    exact = (1.0 + 0.5 ** 2) * 0.5 * math.pi * tau ** -3.0
    assert abs(v - exact) <= e <= 1e-6 * exact


@pytest.mark.parametrize("truncated", [True, False])
def test_coincident_atoms_are_one_atom(truncated):
    # two atoms at one position weigh as one atom with the summed weight,
    # and an atom of weight 0 drops out
    tau = np.geomspace(1e-4, 10.0, 9)
    p = KernelParams(nu=3.0, m=1, q=1.7, R=6.0)
    split = DiscreteMeasure(1, [((0.2,), 0.4), ((-1.1,), 1.0), ((0.2,), 0.6),
                                ((3.0,), 0.0)])
    whole = DiscreteMeasure(1, [((0.2,), 1.0), ((-1.1,), 1.0)])
    v1, e1 = F_nu_m(tau, split, p, truncated=truncated)
    v2, e2 = F_nu_m(tau, whole, p, truncated=truncated)
    assert np.allclose(v1, v2, rtol=1e-13, atol=0.0)
    assert np.allclose(e1, e2, rtol=1e-3, atol=0.0)   # |K17 - G8| cancels
    zero = DiscreteMeasure(1, [((0.2,), 0.0)])
    assert not np.any(F_nu_m(tau, zero, p, truncated=truncated)[0])


@settings(max_examples=40, deadline=None)
@given(nu=st.floats(1.05, 4.0), q=st.floats(1.05, 3.0),
       tau=st.floats(1e-3, 20.0), log_rtol=st.floats(-8.0, -3.0))
def test_full_line_dirac_within_reported_error(nu, q, tau, log_rtol):
    # F(tau) of a unit atom = tau^{1-nu q} sqrt(pi) G((nu q-1)/2) / G(nu q/2)
    nuq = nu * q
    exact = (tau ** (1.0 - nuq) * math.sqrt(math.pi)
             * math.gamma(0.5 * (nuq - 1.0)) / math.gamma(0.5 * nuq))
    v, e = F_nu_m(tau, dirac(1), KernelParams(nu=nu, m=1, q=q),
                  quad=QuadratureSpec(rtol=10.0 ** log_rtol), truncated=False)
    # the bound 2^{nu q-1} e^{-(nu q-1) s} on the dropped tail is nearly
    # exact, so the error bar meets the true error up to the rounding of
    # both sides
    assert abs(v - exact) <= e + 1e-13 * exact


def _dirac_F(tau, nuq):
    with mpmath.workdps(30):
        return float(mpmath.mpf(tau) ** (1 - nuq) * mpmath.sqrt(mpmath.pi)
                     * mpmath.gamma((nuq - 1) / 2) / mpmath.gamma(mpmath.mpf(nuq) / 2))


def test_slow_full_line_tail_meets_rtol():
    # the tail decays like e^{-(nu q - 1) s} = e^{-0.265625 s}: the sinh
    # cells reach s = 45 and meet rtol (a power-law widening in y ran out
    # after 29 doublings near 3e-3 relative)
    nuq = 1.125 * 1.125
    v, e = F_nu_m(2.19, dirac(1), KernelParams(nu=1.125, m=1, q=1.125),
                  quad=QuadratureSpec(rtol=1e-3), truncated=False)
    assert abs(v - _dirac_F(2.19, nuq)) <= e <= 1e-3 * v


def test_full_line_tail_beyond_the_doubles_raises():
    # at nu q - 1 = 2e-4 the tail cut s_max ~ 1e5 leaves the doubles: the
    # cells stop where sinh(s)^2 would overflow, near s = 354, and the
    # raise carries a bound on the rest
    nu = q = math.sqrt(1.0002)
    with pytest.raises(AccuracyError) as exc:
        F_nu_m(2.19, dirac(1), KernelParams(nu=nu, m=1, q=q),
               quad=QuadratureSpec(rtol=1e-3), truncated=False)
    v, e = float(exc.value.value[0]), float(exc.value.error[0])
    assert e > 1e-3 * v
    assert abs(v - _dirac_F(2.19, nu * q)) <= e


def test_exhausted_ladder_widening_raises():
    # nu q = 2.4 leaves the j = 2 tail bound decaying like Y^{-0.4}
    p = KernelParams(nu=1.5, m=1, q=1.6, sigma=0.5, j=2)
    with pytest.raises(AccuracyError) as exc:
        reduced_I_ladder(dirac(1), p, (0.01, 0.005), quad=QuadratureSpec(rtol=1e-6))
    assert exc.value.value.shape == (2,)
    assert float(exc.value.error[0]) > 3e-7 * float(np.min(exc.value.value))


def _recorded_lows(monkeypatch):
    """The lower bounds every tail end is fixed against, as they are used."""
    lows, end = [], kernels._tail_end

    def recording(tail_bound, low, Y, rtol):
        lows.append(low)
        return end(tail_bound, low, Y, rtol)

    monkeypatch.setattr(kernels, "_tail_end", recording)
    return lows


@pytest.mark.parametrize("seed", range(16))
def test_tau_tail_lower_bound_never_exceeds_the_value(seed, monkeypatch):
    # the end of a tau tail is fixed against a closed-form lower bound on
    # the smallest value: it never exceeds a computed value, nor the
    # decade integral each of its two bounds stands for.  1-10 atoms,
    # j in {1, 2, 3}, the ladder or box-complement rows, nu q - j in
    # (1.5, 3) so the end lies within the budget, and sigma up to 1e16
    # for j >= 2 (for j = 1 the value leaves the doubles near p = 170)
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 11))
    mu = DiscreteMeasure(1, list(zip(rng.uniform(-2.0, 2.0, (n, 1)),
                                     10.0 ** rng.uniform(-1.0, 1.0, n))))
    j = int(rng.integers(1, 4))
    q = float(rng.uniform(1.3, 2.4))
    nu = (j + float(rng.uniform(1.5, 3.0))) / q
    sigma = 10.0 ** float(rng.uniform(-1.0, 16.0 if j >= 2 else 1.5))
    params = KernelParams(nu=nu, m=1, q=q, sigma=sigma, j=j)
    quad = QuadratureSpec(rtol=1e-4)
    pieces = kernels._reduction_pieces(mu, params)
    eps = 10.0 ** float(rng.uniform(-2.5, -0.5))
    radii = np.sort(rng.uniform(5.0, 20.0, 2)) if seed % 2 else None
    cutoffs = [eps] if seed % 2 else [eps, eps / 2.0]
    lows = _recorded_lows(monkeypatch)
    vals, _ = kernels._aggregate(mu, params, quad, pieces, cutoffs, radii)
    monkeypatch.undo()
    assert len(lows) == 1 and 0.0 < lows[0] <= np.min(vals)
    top = max(cutoffs) if radii is None else float(radii[-1])
    for a in (top, max(pieces[3], 2.0 * max(cutoffs), top)):
        ladder, err = reduced_I_ladder(mu, params, [a, 10.0 * a], quad=quad)
        assert kernels._decade_low(mu, params, pieces[0], a) <= ladder[0] - ladder[1] + err


@pytest.mark.parametrize("seed", range(4))
def test_plane_tail_lower_bound_never_exceeds_F(seed, monkeypatch):
    # the plane's radial end is fixed against sum_i w_i^q 2 pi
    # tau_max^{2-nu q} / (nu q - 2), which never exceeds F at any tau row
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    mu = DiscreteMeasure(2, list(zip(rng.uniform(-1.5, 1.5, (n, 2)),
                                     10.0 ** rng.uniform(-1.0, 1.0, n))))
    q = float(rng.uniform(1.2, 2.0))
    nu = float(rng.uniform(2.5, 4.0))
    tau = np.sort(10.0 ** rng.uniform(-1.5, 0.5, 3))
    lows = _recorded_lows(monkeypatch)
    vals, _ = F_nu_m(tau, mu, KernelParams(nu=nu, m=2, q=q),
                     quad=QuadratureSpec(rtol=1e-6), truncated=False)
    assert len(lows) == 1 and 0.0 < lows[0] <= np.min(vals)


@settings(max_examples=30, deadline=None)
@given(a=st.floats(-0.5, 0.6), q=st.floats(1.6, 3.0),
       log_eps=st.floats(-2.5, -1.0), rtol=st.sampled_from([1e-8, 1e-6, 1e-4]))
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
    # the ladder's end Y 2^n is fixed from closed-form bounds before the
    # solve, so (min cutoff, Y 2^n) is one tau span, solved once
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
            if not depth:   # a tau-quadrature (in log tau), not a y-quadrature inside F
                spans.append((np.exp(edges[0]), np.exp(edges[-1])))
            return engine(f, edges, *args, **kwargs)
        return run

    monkeypatch.setattr(kernels, "F_nu_m", recording)
    monkeypatch.setattr(kernels, "integrate_rows", spanning(kernels.integrate_rows))
    monkeypatch.setattr(kernels, "integrate_partials",
                        spanning(kernels.integrate_partials))
    vals, err = reduced_I_ladder(dirac(1), p, cutoffs, quad=quad)
    monkeypatch.undo()
    assert len(spans) == 1
    assert spans[0][0] == pytest.approx(min(cutoffs), rel=1e-15, abs=0.0)
    assert spans[0][1] == pytest.approx(40.0 * 2 ** round(math.log2(spans[0][1] / 40.0)),
                                        rel=1e-15, abs=0.0)   # a doubling of Y = 40
    nodes = np.concatenate(nodes)
    assert np.unique(nodes).size == nodes.size
    for c, v in zip(cutoffs, vals):
        ref, ref_err = reduced_I(dirac(1), p, quad=quad, eps=c)
        assert abs(v - ref) <= err + ref_err


def _check_tau_start(lo, hi, marks):
    """The start in t = log tau: every mark c is the edge np.log(c), no
    panel is wider than a decade, and a panel narrower than log 1.5 lies
    between two marks (the ends or ``marks``)."""
    edges = kernels._tau_edges(lo, hi, *marks)
    fixed = np.log(_quad.merge_edges(lo, hi, *marks))
    assert np.all(np.isin(fixed, edges))
    width = np.diff(edges)
    assert np.all(width <= math.log(10.0) * (1.0 + 1e-12))
    sliver = width < math.log(1.5)
    assert np.all(np.isin(edges[:-1][sliver], fixed) & np.isin(edges[1:][sliver], fixed))
    return edges


def test_tau_start_has_no_sliver_panels():
    # the equivalence proxy start (eps = 1e-2, Y = 20) had the panel
    # [8.66e-3, 1e-2], and the dichotomy start three panels as narrow as
    # [9.999999999999997e-06, 1e-05]: each costs 17 whole table rows; the
    # ladder start is 7 panels in log tau (8 with a mark at the midpoint)
    cutoffs = [1e-2 / 2 ** k for k in range(4)]
    assert _check_tau_start(cutoffs[-1], 20.0, (cutoffs,)).size == 8   # 7 panels
    decades = 10.0 ** -np.arange(6.0, 1.0, -1.0)
    edges = _check_tau_start(1e-6, 1.0, (decades,))
    assert np.all(np.diff(edges) >= math.log(1.5))
    for lo, hi, marks in ((1e-2, 8.0, ()), (2e-6, 40.0, ([2.0, 4.0, 8.0],)),
                          (40.0, 40.0 * 2 ** 7, ()), (3e-3, 0.0101, ([0.01],))):
        _check_tau_start(lo, hi, marks)


def test_equivalence_op_tau_work(monkeypatch):
    # one criterion-6 op on a 6-atom member: the tau start grid is coarse
    # and refined on demand in log tau (170 tau-nodes; 204 on linear-tau
    # panels, 1037 with 6 log panels per decade and 9 uniform edges), and
    # each tau row integrates its atoms' cells in sinh coordinates (69 360
    # tau x y cells; 83 232 on linear-tau panels, 272 816 on one y grid
    # shared by every row, with a 4-fold ladder around each atom)
    mu = next(mu for mu in measure_family(1, 8.0, n_measures=60, seed=42)
              if mu.n_atoms == 6)
    q, quad = 1.8, QuadratureSpec(rtol=1e-4)
    nodes, cells = [], []
    F = kernels.F_nu_m
    table = kernels._kernel_sum

    def recording(tau, *args, **kwargs):
        nodes.append(np.size(tau))
        return F(tau, *args, **kwargs)

    def counting(*args):
        out = table(*args)
        cells.append(out.size)
        return out

    monkeypatch.setattr(kernels, "F_nu_m", recording)
    monkeypatch.setattr(kernels, "_kernel_sum", counting)
    besov_neg_proxy(mu, QUARTER.s(q), q, eps=1e-2, quad=quad)
    M_nu_s(mu, params_from_report(QUARTER, q, R=8.0), quad=quad, eps=1e-2)
    assert sum(nodes) <= 300
    assert sum(cells) <= 350_000


def test_equivalence_truncated_tau_solves(monkeypatch):
    # criterion 6 as in the acceptance suite: one truncated-M solve per
    # measure for all of R_grid and R, and one for 2 mu (80 with a solve
    # per radius)
    truncated = []
    integrand = kernels._tau_integrand

    def counting(mu, params, quad, weight, is_truncated, *args):
        truncated.append(is_truncated)
        return integrand(mu, params, quad, weight, is_truncated, *args)

    monkeypatch.setattr(kernels, "_tau_integrand", counting)
    equivalence_experiment(3, 2, 4.0, 1.8, R=8.0, n_measures=20, seed=42,
                           R_grid=(4.0, 8.0, 16.0))
    assert sum(truncated) <= 40


def test_remainder_is_one_tau_solve(monkeypatch):
    # every Delta(R) from one tau quadrature from 1e-6 R_min to the end
    # fixed before the solve, and no other quadrature outside the y-solves
    spans, depth = [], [0]
    refine = _quad._refine

    def tracking(f, edges, rtol):
        if not depth[0]:   # the tau solves run in log tau
            spans.append((np.exp(edges[0]), np.exp(edges[-1])))
        depth[0] += 1
        try:
            return refine(f, edges, rtol)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(_quad, "_refine", tracking)
    remainder_experiment(nu=3.0, sigma=0.5, m=1, j=2, q=1.8)
    assert len(spans) == 1
    assert spans[0][0] == pytest.approx(2e-6, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("member", [0, 1])
def test_box_ladder_matches_per_radius_M(member):
    # the box rows of the equivalence call share one solve, so they meet
    # M at each radius to rtol; a one-radius call is M's own solve
    mu = measure_family(1, 8.0, n_measures=2, seed=42)[member]
    q, quad, radii = 1.8, QuadratureSpec(rtol=1e-6), (4.0, 8.0, 16.0)
    params = params_from_report(QUARTER, q, R=8.0)
    vals, errs = kernels._aggregate(mu, params, quad, kernels._M_pieces(params),
                                    [1e-2], radii)
    assert vals.shape == errs.shape == (3,)
    for R, v in zip(radii, vals):
        p_R = params_from_report(QUARTER, q, R=R)
        ref, ref_err = M_nu_s(mu, p_R, quad=quad, eps=1e-2)
        assert abs(v - ref) <= quad.rtol * ref
        one, one_err = kernels._aggregate(mu, p_R, quad, kernels._M_pieces(p_R),
                                          [1e-2], [R])
        assert (float(one[0]), float(one_err[0])) == (ref, ref_err)


@pytest.mark.parametrize("nu, q, sigma, j", [(2.0, 1.8, 0.3, 1), (3.0, 2.0, 2.0, 2),
                                             (4.0, 1.6, 0.5, 3)])
def test_one_rung_is_the_ladder_solve(nu, q, sigma, j):
    # reduced_I above eps and the one-rung ladder at eps run one aggregate
    # call: value and error agree bit for bit
    mu = DiscreteMeasure(1, [((0.1,), 1.0), ((-0.3,), 0.5)])
    p = KernelParams(nu=nu, m=1, q=q, sigma=sigma, j=j)
    for eps in (1e-2, 0.37):
        vals, err = reduced_I_ladder(mu, p, [eps])
        assert (float(vals[0]), err) == reduced_I(mu, p, eps=eps)


def test_dirac_proxy_table_work(monkeypatch):
    # in log tau the power tau^{a-1} is analytic, so the start panels meet
    # rtol in one round: one F solve and 13 872 tau x y cells (three F
    # solves and 25 432 cells on linear-tau panels, 96 526 with a y core
    # and one widening shell, 324 836 with a y call per doubling)
    cells, calls = [], []
    table, F = kernels._kernel_sum, kernels.F_nu_m

    def recording(*args):
        out = table(*args)
        cells.append(out.size)
        return out

    def counting(*args, **kwargs):
        calls.append(1)
        return F(*args, **kwargs)

    monkeypatch.setattr(kernels, "_kernel_sum", recording)
    monkeypatch.setattr(kernels, "F_nu_m", counting)
    besov_neg_proxy(dirac(1), 0.7, 2.0, eps=2e-2)
    assert len(calls) == 1
    assert sum(cells) <= 15_000


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

    def test_translation_stability(self):
        # finite-M configuration: s above m/q' so the aggregate converges
        p = KernelParams(nu=5.0, m=1, q=1.8, s=0.6, R=16.0)
        mu = DiscreteMeasure(1, [((0.0,), 1.0), ((0.5,), 1.0)])
        v0, _ = M_nu_s(mu, p)
        v1, _ = M_nu_s(DiscreteMeasure(1, [((1.0,), 1.0), ((1.5,), 1.0)]), p)
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
    def test_I_homogeneous(self):
        p = KernelParams(nu=3.0, m=1, q=2.0, sigma=2.0, j=2)
        v1, _ = reduced_I(dirac(1), p)
        v2, _ = reduced_I(dirac(1).scaled(3.0), p)
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
        v, _ = reduced_I(dirac(1), p)
        assert abs(v - self.C) < 1e-7 * self.C

    def test_j2_beta_integral(self):
        p = KernelParams(nu=3.0, m=1, q=2.0, sigma=2.0, j=2)
        v, _ = reduced_I(dirac(1), p)
        beta24 = 1.0 / 20.0   # B(2, 4)
        assert abs(v - self.C * beta24) < 1e-6 * self.C * beta24

    def test_cutoff_beyond_widening_start(self):
        # eps = 60 lies above the j = 2 start Y = 40 of the end search:
        # the search starts at 2 eps instead of the range coming out empty
        p = KernelParams(nu=3.0, m=1, q=1.8, sigma=0.5, j=2)
        v, e = reduced_I(dirac(1), p, eps=60.0)
        c = mpmath.sqrt(mpmath.pi) * mpmath.gamma(2.2) / mpmath.gamma(2.7)
        with mpmath.workdps(30):
            exact = float(c * mpmath.quad(
                lambda t: t ** -4.4 * t ** 2.7 / (1 + t) ** 2.7, [60, 240, mpmath.inf]))
        assert abs(v - exact) <= e

    def test_j1_at_nu_q_2(self):
        # nu q = 2, where the decade bound's tau-integral is log 10, not
        # 0/0: F = c_ball(2) / tau = pi / tau, and above eps the integral
        # of pi tau^{0.4} e^{-tau} is pi Gamma(1.4, eps)
        v, e = reduced_I(dirac(1), KernelParams(nu=1.25, m=1, q=1.6, sigma=0.5, j=1),
                         eps=0.01)
        exact = math.pi * float(mpmath.gammainc(1.4, 0.01))
        assert abs(v - exact) <= e

    @pytest.mark.parametrize("sigma, j", [(100.0, 2), (1e16, 2), (60.0, 1), (84.5, 1)])
    def test_large_p_weights_against_mpmath(self, sigma, j):
        # p = (sigma + 1) q = 202, 2e16, 122 and 171: tau^p or (1+tau)^p
        # overflows inside the solve (the j = 2 weight was inf/inf, the
        # j = 1 weight and tail bound inf * 0), and at p = 2e16 the ratio
        # tau/(1+tau) rounds to a step function of tau, while the
        # integral is a double
        q, nu, eps = 2.0, 3.0, 0.5
        p = (sigma + 1.0) * q
        v, e = reduced_I(dirac(1), KernelParams(nu=nu, m=1, q=q, sigma=sigma, j=j),
                         eps=eps)
        with mpmath.workdps(30):
            c = mpmath.sqrt(mpmath.pi) * mpmath.gamma(2.5) / mpmath.gamma(3)
            if j == 2:
                # in u = p / tau the integrand peaks near u = nu q - 3
                top = p / eps
                exact = c * p ** (2 - nu * q) * mpmath.quad(
                    lambda u: u ** (nu * q - 3) * mpmath.exp(-p * mpmath.log1p(u / p)),
                    [0] + [u for u in (1, 4, 10, 40, 100) if u < top] + [top])
            else:
                exact = c * mpmath.gammainc(p - nu * q + 1, eps)
        assert abs(v - float(exact)) <= e


class TestVertexCone:
    def test_martin_kernel_octant_harmonic(self):
        # k = N: the edge is a point and the kernel is |x|^{kappa_minus} phi
        from oracles import opening_eigenfunction
        from wedgecap.geometry import WedgeSpec

        spec = WedgeSpec(3, 3, math.pi / 2, intervals=((0.0, math.pi / 2),),
                         allow_pole=True)
        gamma, phi = opening_eigenfunction(spec)
        rep = critical_exponents(3, 3, gamma)
        x0 = np.array([0.5, 0.6, 0.7])
        v = martin_kernel(x0, np.zeros(0), rep, omega=phi)
        r = np.linalg.norm(x0)
        assert abs(v - r ** rep.kappa_minus * phi(x0 / r)) < 1e-10 * abs(v)
        res = _stencil_residuals(lambda x: martin_kernel(x, np.zeros(0), rep, omega=phi),
                                 x0[None, :], (0.02, 0.01))
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
