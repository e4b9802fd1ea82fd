import json
import math
import os

import mpmath
import numpy as np
import pytest
import scipy.fft
from scipy.linalg import eigh_tridiagonal

from wedgecap import experiments
from wedgecap.errors import ConfigurationError, DomainError
from wedgecap.experiments import (HeatLift, _cos2_bump, dichotomy_experiment,
                                  equivalence_experiment, harmonicity_experiment,
                                  heat_lifting, measure_family,
                                  remainder_experiment, reports_csv)


class TestDichotomy:
    def test_divergent_slope_minus_one(self):
        r = dichotomy_experiment(3, 2, 4.0, 2.0)
        assert r.metrics["verdict"] == "divergent"
        assert abs(r.metrics["I_slope"] + 1.0) < 0.05
        assert abs(r.metrics["predicted_exponent"] - (-2.0)) < 1e-12
        assert r.passed

    def test_convergent_flat(self):
        r = dichotomy_experiment(3, 2, 4.0, 1.5)
        assert r.metrics["verdict"] == "convergent"
        assert abs(r.metrics["I_slope"]) < 0.05
        assert r.passed

    def test_exponent_arithmetic(self):
        # e(q) = -3q + 4 for the quarter wedge in R^3
        for q in (1.5, 1.7, 2.0):
            r = dichotomy_experiment(3, 2, 4.0, q)
            assert abs(r.metrics["predicted_exponent"] - (-3.0 * q + 4.0)) < 1e-12
            assert abs(r.metrics["boundary_exponent"]
                       - r.metrics["predicted_exponent"]) < 5e-3

    def test_flip_at_critical(self):
        qc = 5.0 / 3.0
        below = dichotomy_experiment(3, 2, 4.0, qc - 0.01)
        above = dichotomy_experiment(3, 2, 4.0, qc + 0.01)
        assert below.metrics["verdict"] == "convergent"
        assert above.metrics["verdict"] == "divergent"

    def test_seeded_reproducibility(self):
        r1 = dichotomy_experiment(3, 2, 4.0, 1.8)
        r2 = dichotomy_experiment(3, 2, 4.0, 1.8)
        assert r1.to_dict() == r2.to_dict()

    def test_eps_grid_validation(self):
        with pytest.raises(ConfigurationError):
            dichotomy_experiment(3, 2, 4.0, 1.8, eps_grid=(1e-3, 1e-2))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_slice_closed_form_matches_mpmath(self, m):
        # T(r) = integral_0^R (r^2 + rho^2)^{jq/2} rho^{m-1} drho, including
        # the piece below 1e-12 R that a quadrature started there drops
        jq, R = -4.7, 1.0
        r = np.array([1e-6, 1e-3, 0.5])
        got = experiments._slice_T(r, jq, m, R)
        for ri, g in zip(r, got):
            ref = mpmath.quad(
                lambda rho: (ri ** 2 + rho ** 2) ** (jq / 2) * rho ** (m - 1),
                [0, ri, 10 * ri, R])
            assert abs(g / float(ref) - 1.0) < 1e-13

    def test_boundary_exponent_is_exact_power(self):
        # the closed-form slice makes w(r) an exact power law on the eps grid
        r = dichotomy_experiment(3, 2, 4.0, 2.0)
        assert abs(r.metrics["boundary_exponent"] + 2.0) < 1e-12


class TestEquivalence:
    def test_small_family(self):
        r = equivalence_experiment(3, 2, 4.0, 1.8, n_measures=3)
        assert r.passed
        assert r.metrics["ratio_spread"] <= 1e3
        assert r.metrics["homog_max_rel_err_M"] <= 1e-4
        assert r.metrics["homog_max_rel_err_proxy"] <= 1e-4
        assert (r.metrics["growth_fitted"]
                <= r.metrics["growth_bound"] * 1.10)

    def test_out_of_regime_rejected(self):
        with pytest.raises(ConfigurationError):
            equivalence_experiment(3, 2, 4.0, 1.5)

    def test_plane_edge_rejected(self):
        # N = 4, k = 2 has an m = 2 edge, where no tau-aggregate is implemented
        with pytest.raises(ConfigurationError):
            equivalence_experiment(4, 2, 4.0, 1.5, n_measures=1)

    def test_family_is_seeded(self):
        def same(a, b):
            return (np.array_equal(a.positions, b.positions)
                    and np.array_equal(a.weights, b.weights))

        f1 = measure_family(1, 8.0, n_measures=5, seed=7)
        f2 = measure_family(1, 8.0, n_measures=5, seed=7)
        assert all(same(a, b) for a, b in zip(f1, f2))
        f3 = measure_family(1, 8.0, n_measures=5, seed=8)
        assert not all(same(a, b) for a, b in zip(f1, f3))
        for mu in f1:
            assert 1 <= mu.n_atoms <= 10
            assert mu.support_radius() <= 2.0
            assert np.all(mu.weights > 0) and np.all(mu.weights <= 1.0)


class TestRemainder:
    def test_reference_configuration(self):
        r = remainder_experiment(nu=3.0, sigma=0.5, m=1, j=2, q=2.0)
        assert r.passed
        assert r.metrics["fitted_exponent"] <= -1.0 + 0.1
        assert r.metrics["monotone"]

    def test_homogeneity_of_delta(self):
        from wedgecap.geometry import dirac
        r1 = remainder_experiment(nu=3.0, sigma=0.5, m=1, j=2, q=2.0,
                                  R_grid=(2.0, 4.0))
        mu2 = dirac(1).scaled(2.0)
        r2 = remainder_experiment(nu=3.0, sigma=0.5, m=1, j=2, q=2.0,
                                  mu=mu2, R_grid=(2.0, 4.0))
        d1 = [row["value"] for row in r1.rows]
        d2 = [row["value"] for row in r2.rows]
        assert all(abs(b / a - 4.0) < 1e-3 for a, b in zip(d1, d2))

    @pytest.mark.parametrize("nu, sigma, j, q", [(3.0, 0.5, 2, 1.8), (3.0, 0.5, 1, 2.0)])
    def test_dirac_box_complement_oracle(self, nu, sigma, j, q):
        # a unit atom has F(tau) = B(1/2, c) tau^{1 - nu q}, c = (nu q - 1)/2,
        # and over |y| > R the incomplete-beta part of it,
        # F(tau) I_x(c, 1/2), x = tau^2 / (tau^2 + R^2)
        c = 0.5 * (nu * q - 1.0)
        p = (sigma + 1.0) * q

        def F(t):
            return mpmath.beta(0.5, c) * t ** (1.0 - nu * q)

        def h(t):
            if j == 1:
                return mpmath.exp(-t) * t ** (p - 1.0)
            return t ** (p + j - 2.0) / (1.0 + t) ** p

        r = remainder_experiment(nu=nu, sigma=sigma, m=1, j=j, q=q)
        for row in r.rows:
            R = row["params"]["R"]
            outside = mpmath.quad(lambda t: F(t) * h(t) * mpmath.betainc(
                c, 0.5, 0, t * t / (t * t + R * R), regularized=True),
                [0, R / 4, R / 2, R])
            ref = outside + mpmath.quad(lambda t: F(t) * h(t), [R, 2 * R, mpmath.inf])
            assert abs(row["value"] / float(ref) - 1.0) < 1e-6

    def test_support_precondition(self):
        from wedgecap.geometry import dirac
        with pytest.raises(DomainError):
            remainder_experiment(nu=3.0, sigma=0.5, m=1, j=2, q=2.0,
                                 mu=dirac(1, [3.0]))


class TestHarmonicity:
    def test_exact_polynomial(self):
        r = harmonicity_experiment("v_A", alpha=math.pi / 2)
        assert r.metrics["mode"] == "exact"
        assert r.metrics["coarse_residual"] <= 1e-10
        assert r.passed

    def test_fractional_power_order2(self):
        r = harmonicity_experiment("v_A", alpha=3 * math.pi / 4)
        assert r.metrics["mode"] == "order2"
        assert all(1.8 <= o <= 2.2 for o in r.metrics["orders"])
        assert r.passed

    def test_martin_kernel_order2(self):
        r = harmonicity_experiment("martin", alpha=math.pi / 2)
        assert r.metrics["mode"] == "order2"
        assert r.passed

    @pytest.mark.parametrize("alpha", [math.pi / 2, 3 * math.pi / 4])
    def test_martin_target_evaluates_the_library_kernel(self, monkeypatch, alpha):
        # the experiment checks kernels.martin_kernel itself, once for the
        # centre points and twice per axis at each step
        calls = []
        original = experiments.martin_kernel

        def counting(x, *args, **kwargs):
            calls.append(np.shape(x))
            return original(x, *args, **kwargs)

        monkeypatch.setattr(experiments, "martin_kernel", counting)
        r = harmonicity_experiment("martin", alpha=alpha)
        assert len(calls) == 7 * len(r.params["h_grid"])
        assert all(len(shape) == 2 and shape[1] == 3 for shape in calls)
        assert all(1.8 <= o <= 2.2 for o in r.metrics["orders"])
        assert r.passed


@pytest.fixture(scope="module")
def heat_run():
    return heat_lifting()


class TestHeatLifting:
    @pytest.fixture()
    def run(self, heat_run):
        return heat_run

    def test_maximum_principle(self, run):
        _, rep = run
        assert rep.metrics["overshoot"] <= 1e-12

    def test_initial_trace_exact(self, run):
        lift, rep = run
        assert rep.metrics["initial_trace_error"] <= 1e-12
        assert np.max(np.abs(lift.w(0.0) - lift.eta)) <= 1e-12

    def test_identity_order2(self, run):
        _, rep = run
        assert all(1.7 <= o <= 2.3 for o in rep.metrics["identity_orders"])

    def test_gradient_ratio_bounded(self, run):
        _, rep = run
        assert rep.metrics["gradient_ratio_spread"] <= 100.0

    def test_zeta_ratio_stable(self, run):
        _, rep = run
        assert rep.metrics["zeta_growth"] <= 1.5
        assert rep.passed


def _skewed_bump(x):
    # asymmetric, so a transform that mixes up odd and even modes shows
    return _cos2_bump(0.5, 1.5)(x) * (1.0 + 0.3 * x)


def _dense_lift(lift):
    """w, w_t, w_tt from a dense eigendecomposition of the FD Laplacian."""
    n, h2 = lift.n, lift.h ** 2
    lam, V = eigh_tridiagonal(np.full(n - 1, 2.0 / h2), np.full(n - 2, -1.0 / h2))
    c = V.T @ lift.eta[1:-1]

    def at(power, t):
        out = np.zeros(n + 1)
        out[1:-1] = V @ ((-lam) ** power * np.exp(-lam * t) * c)
        return out
    return at


class TestHeatLiftOracle:
    @pytest.mark.parametrize("n", [64, 1024])
    def test_eigenvalues_match_dense_laplacian(self, n):
        lift = HeatLift(_skewed_bump, 4.0, n=n)
        h2 = lift.h ** 2
        ref = eigh_tridiagonal(np.full(n - 1, 2.0 / h2), np.full(n - 2, -1.0 / h2),
                               eigvals_only=True)
        assert np.all(np.abs(lift.lam - ref) <= 1e-9 * ref)

    @pytest.mark.parametrize("t", [0.0, 1e-6, 1e-2, 1.0, 16.0])
    def test_evolution_matches_dense_eigh(self, t):
        lift = HeatLift(_skewed_bump, 4.0, n=256)
        dense = _dense_lift(lift)
        for power, got in enumerate((lift.w(t), lift.wt(t), lift.wtt(t))):
            ref = dense(power, t)
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))

    @pytest.mark.parametrize("t", [0.0, 1e-3, 0.1, 2.0])
    def test_time_derivatives_are_fd_laplacians(self, t):
        lift = HeatLift(_skewed_bump, 4.0, n=512)

        def lap(u):
            return (u[2:] - 2.0 * u[1:-1] + u[:-2]) / lift.h ** 2
        w, wt, wtt = lift.w(t), lift.wt(t), lift.wtt(t)
        # roundoff in a second difference is eps * |u| / h^2
        for u, du in ((w, wt), (wt, wtt)):
            scale = 4.0 * np.max(np.abs(u)) / lift.h ** 2
            assert np.max(np.abs(du[1:-1] - lap(u))) <= 1e-14 * scale
            assert du[0] == 0.0 and du[-1] == 0.0

    def test_time_array_rows_are_scalar_calls(self):
        lift = HeatLift(_skewed_bump, 4.0, n=256)
        ts = np.array([0.0, 1e-3, 0.1, 2.0])
        for method in (lift.w, lift.wt, lift.wtt):
            rows = method(ts)
            assert rows.shape == (4, lift.n + 1)
            for i, t in enumerate(ts):
                assert np.array_equal(rows[i], method(t))

    def test_initial_value_is_eta(self):
        lift = HeatLift(_skewed_bump, 4.0)
        assert np.max(np.abs(lift.w(0.0) - lift.eta)) <= 1e-14

    @pytest.mark.parametrize("R", [0.0, -8.0])
    def test_nonpositive_radius(self, R):
        with pytest.raises(DomainError, match="need R > 0"):
            HeatLift(_skewed_bump, R)

    def test_too_few_intervals(self):
        with pytest.raises(DomainError):
            HeatLift(_skewed_bump, 4.0, n=1)

    def test_heat_lifting_transform_work(self, monkeypatch):
        # the rows at y +- h share the transform of the rows at y
        rows = []
        real_dst = scipy.fft.dst

        def counting_dst(a, *args, **kwargs):
            rows.append(1 if np.ndim(a) == 1 else len(a))
            return real_dst(a, *args, **kwargs)
        monkeypatch.setattr(scipy.fft, "dst", counting_dst)
        heat_lifting(R=8.0, q=1.7)
        assert 0 < sum(rows) <= 700

    def test_heat_lifting_exp_table_work(self, monkeypatch):
        # one exp(-t lam) table per time set, shared by w, the chain-rule
        # right side and the whole bump family
        rows = []
        real_decay = HeatLift._decay

        def counting_decay(self, t):
            rows.append(np.size(t))
            return real_decay(self, t)
        monkeypatch.setattr(HeatLift, "_decay", counting_decay)
        heat_lifting(R=8.0, q=1.7)
        assert sum(rows) <= 250

    @pytest.mark.parametrize("t", [1e-3, 0.1, 2.0])
    def test_chain_rule_multiplier_is_one_transform(self, t):
        # 4 t w_tt + (2k+1) w_t as the one multiplier 4 t lam^2 - (2k+1) lam
        k = 2
        lift = HeatLift(_skewed_bump, 4.0, n=256)
        dense = _dense_lift(lift)
        E = lift._decay(np.array([t]))
        got, = lift._rows(E * (4.0 * t * lift.lam ** 2 - (2.0 * k + 1.0) * lift.lam))
        for ref in (4.0 * t * lift.wtt(t) + (2.0 * k + 1.0) * lift.wt(t),
                    4.0 * t * dense(2, t) + (2.0 * k + 1.0) * dense(1, t)):
            assert got[0].shape == ref.shape
            assert np.max(np.abs(got[0] - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_tiny_radius(self):
        # the (d) sup-ratio mask is relative to the dominating profile, so
        # the whole experiment is scale-invariant in R
        _, rep = heat_lifting(R=1e-3, q=1.7)
        assert rep.passed
        assert abs(rep.metrics["zeta_growth"] - 1.00903) < 1e-5


class TestReporting:
    def test_csv_format(self, tmp_path):
        r = dichotomy_experiment(3, 2, 4.0, 2.0)
        path = os.path.join(tmp_path, "out.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(reports_csv([r]))
        with open(path, "rb") as fh:
            raw = fh.read()
        assert b"\r\n" not in raw            # LF endings
        text = raw.decode("utf-8")
        lines = text.strip().split("\n")
        assert lines[0] == "experiment,params,metric,value"
        assert any(line.startswith("dichotomy,") for line in lines[1:])
        # raw eps rows present
        assert any("I_eps" in line for line in lines)

    def test_report_dict_excludes_runtime(self):
        r = dichotomy_experiment(3, 2, 4.0, 2.0)
        assert "runtime" not in r.to_dict()
        assert "runtime" in r.to_dict(include_runtime=True)
        json.dumps(r.to_dict())   # serializable


def test_anomaly_escalation_path(monkeypatch):
    # force the measured boundary exponent to contradict the threshold and
    # check the loud failure carries the report
    import wedgecap.experiments as exp
    from wedgecap.errors import AnomalyError

    real = exp.fit_loglog

    def skewed(x, y):
        slope, intercept, r2, se = real(x, y)
        return slope + 2.0, intercept, r2, se   # divergent looks convergent

    monkeypatch.setattr(exp, "fit_loglog", skewed)
    with pytest.raises(AnomalyError) as err:
        exp.dichotomy_experiment(3, 2, 4.0, 2.0)
    assert err.value.report is not None
    assert err.value.report.metrics["q_c"] > 0
