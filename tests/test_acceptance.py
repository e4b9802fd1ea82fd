"""Acceptance suite: one test per criterion, each printing a pass line.

Every tolerance here is fixed by the criteria themselves; nothing is
calibrated after the fact.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

from wedgecap.capacity import bessel_capacity, bessel_kernel_radial
from wedgecap.classify import classify_polyhedron, removable_check
from wedgecap.errors import DivergenceError
from wedgecap.exponents import (bookkeeping_identity_gap, critical_exponents,
                                kappa_roots)
from wedgecap.experiments import (dichotomy_experiment, equivalence_experiment,
                                  harmonicity_experiment, heat_lifting,
                                  remainder_experiment)
from wedgecap.geometry import (CompactSetDescription, ConeOpening,
                               PolyhedronSpec, SetPiece, Stratum, WedgeSpec)
from wedgecap.spectral import SLProblem, gamma_first_eigenvalue, sl_eigen_1d
from oracles import absorption_coefficient, cone_q_c_direct

PI = math.pi


def _announce(n, text):
    print("\n[acceptance] criterion %2d: PASS  %s" % (n, text))


def test_criterion_01_closed_form_eigenvalues():
    alphas = (PI / 3, PI / 2, PI, 1.5 * PI)
    t0 = time.perf_counter()
    for alpha in alphas:
        got = gamma_first_eigenvalue(WedgeSpec(3, 2, alpha))
        ref = (PI / alpha) ** 2
        assert abs(got - ref) <= 1e-8 * ref
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    # substance cross-check: the generic solver reproduces the closed form
    for alpha in alphas:
        res = sl_eigen_1d(SLProblem(0.0, alpha, 0, 0.0))
        assert abs(res.gamma - (PI / alpha) ** 2) <= 1e-8 * (PI / alpha) ** 2
    _announce(1, "k=2 eigenvalues match (pi/alpha)^2 (%.3fs)" % elapsed)


def test_criterion_02_octant_cone():
    t0 = time.perf_counter()
    spec = WedgeSpec(3, 3, PI / 2, intervals=((0.0, PI / 2),), allow_pole=True)
    gamma = gamma_first_eigenvalue(spec, tol=1e-8)
    assert abs(gamma - 12.0) <= 1e-6 * 12.0
    rep = critical_exponents(3, 3, gamma)
    assert abs(rep.kappa_plus - 3.0) <= 1e-6
    assert abs(rep.kappa_minus + 4.0) <= 1e-6
    assert abs(rep.q_c - 1.5) <= 1e-6
    # two-formula agreement at the same gamma, to 1e-10
    assert abs(rep.q_c - cone_q_c_direct(3, rep.lambda_A)) <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _announce(2, "octant chain gamma=%.9f, kappa=(3,-4), q_c=3/2 (%.2fs)"
              % (gamma, elapsed))


def test_criterion_03_algebraic_identities():
    rng = np.random.default_rng(42)
    for _ in range(50):
        N = int(rng.integers(2, 9))
        lam = float(rng.uniform(0.1, 100.0))
        kp, km = kappa_roots(N, lam)
        assert abs(kp + km - (2.0 - N)) <= 1e-10 * max(1.0, abs(2.0 - N))
        assert abs(kp * km + lam) <= 1e-10 * lam
        qc = (kp + N) / (kp + N - 2.0)
        assert abs(absorption_coefficient(N, qc) - lam) <= 1e-10 * lam
    _announce(3, "Vieta and absorption identities on 50 random samples")


def test_criterion_04_dichotomy():
    t0 = time.perf_counter()
    qc = 5.0 / 3.0
    below = dichotomy_experiment(3, 2, 4.0, qc - 0.01)
    above = dichotomy_experiment(3, 2, 4.0, qc + 0.01)
    assert below.metrics["verdict"] == "convergent"
    assert above.metrics["verdict"] == "divergent"
    at2 = dichotomy_experiment(3, 2, 4.0, 2.0)
    assert abs(at2.metrics["I_slope"] - (-1.0)) <= 0.05
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _announce(4, "verdict flips across q_c +/- 0.01; slope at q=2 is %.4f (%.1fs)"
              % (at2.metrics["I_slope"], elapsed))


def test_criterion_05_exponent_bookkeeping():
    count = 0
    for N in (3, 4, 5):
        for k in range(2, N):
            for gamma in (0.5, 1.0, 2.0, 4.0, 9.0):
                rep = critical_exponents(N, k, gamma)
                for t in np.linspace(0.0, 0.999, 5):
                    q = rep.q_c + float(t) * (rep.q_c_star - rep.q_c)
                    gap = bookkeeping_identity_gap(rep, q)
                    assert gap <= 1e-12 * max(1.0, rep.beta(q))
                    count += 1
    assert count >= 100
    _announce(5, "(s+nu-m)q-1 == (q+1)kappa+k-1 on %d grid points" % count)


def test_criterion_06_equivalence_suite():
    t0 = time.perf_counter()
    r = equivalence_experiment(3, 2, 4.0, 1.8, R=8.0, n_measures=20, seed=42)
    assert r.metrics["homog_max_rel_err_M"] <= 1e-4
    assert r.metrics["homog_max_rel_err_proxy"] <= 1e-4
    assert r.metrics["ratio_spread"] <= 1e3
    bound = r.metrics["growth_bound"]
    assert r.metrics["growth_fitted"] <= bound * 1.10
    assert r.passed
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _announce(6, "spread %.3g, homogeneity %.1e, R-growth %.3f <= %.2f (%.0fs)"
              % (r.metrics["ratio_spread"], r.metrics["homog_max_rel_err_M"],
                 r.metrics["growth_fitted"], bound, elapsed))


def test_criterion_07_remainder_scaling():
    t0 = time.perf_counter()
    r = remainder_experiment(nu=3.0, sigma=0.5, j=2, q=2.0)
    bound = (0.5 + 1.0 - 3.0) * 2.0 + 1.0 + 2.0 - 1.0
    assert abs(bound - (-1.0)) < 1e-14
    assert r.metrics["fitted_exponent"] <= bound + 0.1
    assert r.passed
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _announce(7, "truncation exponent %.3f <= %.1f (%.1fs)"
              % (r.metrics["fitted_exponent"], bound + 0.1, elapsed))


def test_criterion_08_harmonicity():
    t0 = time.perf_counter()
    exact = harmonicity_experiment("v_A", alpha=PI / 2)
    assert exact.metrics["coarse_residual"] <= 1e-10
    frac = harmonicity_experiment("v_A", alpha=3 * PI / 4)
    assert all(1.8 <= o <= 2.2 for o in frac.metrics["orders"])
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _announce(8, "exact residual %.2e; fractional orders %s (%.1fs)"
              % (exact.metrics["coarse_residual"],
                 ["%.2f" % o for o in frac.metrics["orders"]], elapsed))


def test_criterion_09_capacity_thresholds():
    t0 = time.perf_counter()
    van = bessel_capacity(np.array([0.0]), 0.4, 2.0, resolution=0.02)
    pos = bessel_capacity(np.array([0.0]), 0.6, 2.0, resolution=0.02)
    assert van.verdict == "vanishing"
    assert pos.verdict == "positive"
    xs = np.linspace(0.2, 5.0, 10)
    g = bessel_kernel_radial(xs, 2.0, 1)
    assert np.max(np.abs(g - np.exp(-xs) / 2.0)) <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _announce(9, "singleton verdicts vanish@0.4 / positive@0.6; G_2 = e^-|x|/2 (%.1fs)"
              % elapsed)


def _cube():
    return PolyhedronSpec(N=3, strata=(
        Stratum("face", 1, None),
        Stratum("edge", 2, WedgeSpec(3, 2, PI / 2)),
        Stratum("vertex", 3, ConeOpening(12.0)),
    ))


def test_criterion_10_classification_table():
    cube = _cube()
    verdicts = {v.stratum: v for v in classify_polyhedron(cube, 1.7)}
    assert verdicts["face"].regime == "subcritical"
    assert abs(verdicts["face"].q_c - 2.0) <= 1e-4
    assert verdicts["edge"].regime == "capacity-regime"
    assert abs(verdicts["edge"].q_c - 5.0 / 3.0) <= 1e-4
    assert abs(verdicts["edge"].q_c_star - 2.0) <= 1e-4
    assert abs(verdicts["edge"].s - 0.3529411764705883) <= 1e-4
    assert verdicts["vertex"].regime == "vertex-supercritical"
    assert abs(verdicts["vertex"].q_c - 1.5) <= 1e-4

    vertex_set = CompactSetDescription((SetPiece("vertex", "point", z=()),))
    assert removable_check(cube, vertex_set, 1.5).removable == "removable"
    segment = CompactSetDescription(
        (SetPiece("edge", "ball", radius=0.5, dim=1, z=(0.0,)),))
    assert removable_check(cube, segment, 1.7).removable == "not-removable"
    _announce(10, "cube verdict table and removability calls match hand values")


def test_criterion_11_heat_lifting():
    t0 = time.perf_counter()
    _, rep = heat_lifting(R=4.0, q=1.8)
    assert rep.metrics["overshoot"] <= 1e-12
    orders = rep.metrics["identity_orders"]
    assert all(1.7 <= o <= 2.3 for o in orders)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _announce(11, "overshoot %.1e; identity orders %s (%.1fs)"
              % (rep.metrics["overshoot"], ["%.2f" % o for o in orders], elapsed))
