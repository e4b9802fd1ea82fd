import math

import numpy as np
import pytest

from wedgecap.errors import DomainError
from wedgecap.exponents import (ExponentReport, bookkeeping_identity_gap,
                                capacity_index_s, critical_exponents,
                                kappa_from_gamma, kappa_roots)
from oracles import absorption_coefficient, cone_q_c_direct, identity_check


def test_kappa_from_gamma_examples():
    assert abs(kappa_from_gamma(2, 4.0) - 2.0) < 1e-14
    assert abs(kappa_from_gamma(2, 1.0) - 1.0) < 1e-14   # half-space opening
    assert abs(kappa_from_gamma(3, 12.0) - 3.0) < 1e-14
    with pytest.raises(DomainError):
        kappa_from_gamma(2, 0.0)


def test_kappa_roots_examples():
    assert np.allclose(kappa_roots(3, 6.0), (2.0, -3.0))
    assert np.allclose(kappa_roots(3, 12.0), (3.0, -4.0))
    rng = np.random.default_rng(5)
    for _ in range(50):
        N = int(rng.integers(2, 9))
        lam = rng.uniform(0.1, 100.0)
        kp, km = kappa_roots(N, lam)
        assert abs(kp + km - (2.0 - N)) < 1e-12 * max(1.0, N)
        assert abs(kp * km + lam) < 1e-12 * lam


def test_quarter_wedge_report():
    rep = critical_exponents(3, 2, 4.0)
    assert abs(rep.lambda_A - 6.0) < 1e-12
    assert abs(rep.kappa_plus - 2.0) < 1e-12
    assert abs(rep.q_c - 5.0 / 3.0) < 1e-12
    assert abs(rep.q_c_star - 2.0) < 1e-12


def test_octant_cone_cross_check():
    rep = critical_exponents(3, 3, 12.0)
    assert abs(rep.q_c - 1.5) < 1e-12
    assert rep.q_c == rep.q_c_star
    # the direct vertex formula agrees with 1 - 2/kappa_minus
    assert abs(rep.q_c - cone_q_c_direct(3, 12.0)) < 1e-12


def test_flat_wedge_equals_half_space_threshold():
    rep = critical_exponents(4, 2, 1.0)   # alpha = pi opening
    assert abs(rep.kappa_plus - 1.0) < 1e-14
    assert abs(rep.q_c - 5.0 / 3.0) < 1e-14   # (N+1)/(N-1) at N = 4


def test_face_report():
    rep = critical_exponents(5, 1)
    assert rep.kappa_plus == 1.0
    assert rep.q_c == rep.q_c_star == 1.5
    assert abs(rep.lambda_A - 4.0) < 1e-14


def test_capacity_index_s():
    assert abs(capacity_index_s(2, 2.0, 1.8) - (2.0 - 4.0 * 0.8 / 1.8)) < 1e-14
    # endpoint: s at q_c equals m/q' for the quarter wedge in R^3
    rep = critical_exponents(3, 2, 4.0)
    qc = rep.q_c
    qp = qc / (qc - 1.0)
    assert abs(rep.s(qc) - rep.m / qp) < 1e-12
    # s decreases to 0 at q_c_star
    qs = np.linspace(rep.q_c, rep.q_c_star - 1e-9, 50)
    ss = [rep.s(q) for q in qs]
    assert all(a > b for a, b in zip(ss, ss[1:]))
    assert ss[-1] < 1e-7


def test_absorption_identity():
    assert abs(absorption_coefficient(3, 5.0 / 3.0) - 6.0) < 1e-12
    assert abs(absorption_coefficient(3, 1.5) - 12.0) < 1e-12
    assert identity_check(3, 6.0)
    assert identity_check(3, 12.0)
    rng = np.random.default_rng(17)
    for _ in range(50):
        N = int(rng.integers(2, 8))
        lam = rng.uniform(0.1, 100.0)
        assert identity_check(N, lam)


def test_kappa_monotone_in_lambda():
    lams = np.sort(np.random.default_rng(2).uniform(0.1, 50.0, 30))
    kps = [kappa_roots(4, lam)[0] for lam in lams]
    assert all(a < b for a, b in zip(kps, kps[1:]))


def test_qcstar_decreasing_in_kappa():
    kps = np.linspace(0.6, 5.0, 40)
    k = 2
    qcs = []
    for kp in kps:
        gamma = kp ** 2 + (k - 2) * kp
        qcs.append(critical_exponents(3, k, gamma).q_c_star)
    assert all(a > b for a, b in zip(qcs, qcs[1:]))


def test_k2_kappa_above_half():
    for alpha in np.linspace(0.1, 2 * math.pi - 0.01, 25):
        kp = critical_exponents(3, 2, (math.pi / alpha) ** 2).kappa_plus
        assert kp > 0.5


def test_k2_trichotomy():
    for alpha, cmp in ((math.pi / 2, "gt"), (math.pi, "eq"), (1.5 * math.pi, "lt")):
        kp = critical_exponents(3, 2, (math.pi / alpha) ** 2).kappa_plus
        if cmp == "gt":
            assert kp > 1.0
        elif cmp == "eq":
            assert abs(kp - 1.0) < 1e-14
        else:
            assert kp < 1.0


def test_lift_dimension_bound():
    # ceil(N - 2 + 2 kappa_plus) - N + k >= 2 across openings
    for N in (3, 4, 5):
        for k in range(2, N + 1):
            for gamma in (0.3, 1.0, 4.0, 12.0):
                kp = critical_exponents(N, k, gamma).kappa_plus
                n = math.ceil(N - 2 + 2 * kp)
                assert n - N + k >= 2


def test_bookkeeping_identity_grid():
    count = 0
    for N in (3, 4, 5):
        for k in range(2, N):
            for gamma in (0.5, 1.0, 2.0, 4.0, 9.0):
                rep = critical_exponents(N, k, gamma)
                for t in np.linspace(0.0, 0.999, 5):
                    q = rep.q_c + t * (rep.q_c_star - rep.q_c)
                    gap = bookkeeping_identity_gap(rep, q)
                    assert gap <= 1e-12 * max(1.0, rep.beta(q))
                    count += 1
    assert count >= 100


def test_report_invariants_enforced():
    with pytest.raises(DomainError):
        ExponentReport(N=3, k=2, gamma=4.0, lambda_A=6.0, kappa_plus=2.0,
                       kappa_minus=-2.5, q_c=1.6, q_c_star=2.0)
