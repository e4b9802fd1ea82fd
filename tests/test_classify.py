import math

import numpy as np
import pytest

from wedgecap.classify import (classify_polyhedron, good_measure_check,
                               removable_check, stratum_report, stratum_verdict)
from wedgecap.errors import DomainError
from wedgecap.exponents import critical_exponents
from wedgecap.geometry import (CompactSetDescription, ConeOpening,
                               DiscreteMeasure, PolyhedronSpec, SetPiece,
                               Stratum, WedgeSpec, dirac)

PI = math.pi


def cube():
    # faces k=1; edges k=2 with alpha = pi/2; vertices are octant cones
    return PolyhedronSpec(N=3, strata=(
        Stratum("face", 1, None),
        Stratum("edge", 2, WedgeSpec(3, 2, PI / 2)),
        Stratum("vertex", 3, ConeOpening(12.0)),
    ))


class TestStratumVerdicts:
    def test_cube_table_at_17(self):
        verdicts = {v.stratum: v for v in classify_polyhedron(cube(), 1.7)}
        assert verdicts["face"].regime == "subcritical"
        assert abs(verdicts["face"].q_c - 2.0) < 1e-10
        e = verdicts["edge"]
        assert e.regime == "capacity-regime"
        assert abs(e.q_c - 5.0 / 3.0) < 1e-10
        assert abs(e.q_c_star - 2.0) < 1e-10
        assert abs(e.s - 6.0 / 17.0) < 1e-10
        v = verdicts["vertex"]
        assert v.regime == "vertex-supercritical"
        assert abs(v.q_c - 1.5) < 1e-12

    def test_edge_regimes_sweep(self):
        st = Stratum("edge", 2, WedgeSpec(3, 2, PI / 2))
        assert stratum_verdict(st, 1.6, 3).regime == "subcritical"
        assert stratum_verdict(st, 5.0 / 3.0, 3).regime == "capacity-regime"
        assert stratum_verdict(st, 1.99, 3).regime == "capacity-regime"
        assert stratum_verdict(st, 2.0, 3).regime == "removable-stratum"

    def test_warning_exactly_at_qc(self):
        st = Stratum("edge", 2, WedgeSpec(3, 2, PI / 2))
        rep = critical_exponents(3, 2, 4.0)
        assert stratum_verdict(st, rep.q_c, 3).warning is not None
        assert stratum_verdict(st, 1.8, 3).warning is None

    def test_verdict_serialization(self):
        v = stratum_verdict(Stratum("edge", 2, WedgeSpec(3, 2, PI / 2)), 1.7, 3)
        d = v.to_dict()
        assert d["stratum"] == "edge" and d["regime"] == "capacity-regime"
        assert set(d) == {"stratum", "regime", "q_c", "q_c_star", "s",
                          "reason", "warning"}

    def test_gamma_supplied_directly(self):
        rep = stratum_report(Stratum("v", 3, ConeOpening(12.0)), N=3)
        assert abs(rep.kappa_plus - 3.0) < 1e-12

    def test_q_domain(self):
        with pytest.raises(DomainError):
            stratum_verdict(Stratum("face", 1, None), 0.5, N=3)


class TestGoodMeasures:
    def test_atom_on_vertex_rejected(self):
        mu = {"vertex": DiscreteMeasure(0, [((), 1.0)])}
        res = good_measure_check(cube(), mu, 1.6)
        assert res.verdict == "reject"
        assert any("zero" in d.reason for d in res.per_stratum
                   if d.stratum == "vertex")

    def test_atom_on_subcritical_edge_accepted(self):
        res = good_measure_check(cube(), {"edge": dirac(1, [0.3])}, 1.6)
        assert res.verdict == "accept"

    def test_atom_in_capacity_regime_rejected(self):
        res = good_measure_check(cube(), {"edge": dirac(1, [0.3])}, 1.7)
        assert res.verdict == "reject"

    def test_atom_rejected_by_the_regime(self):
        # every point of the edge is null in the capacity window, so an atom
        # is rejected whatever the capacity of a larger piece around it
        res = good_measure_check(cube(), {"edge": dirac(1, [0.0])}, 1.7)
        assert res.verdict == "reject"
        edge = [d for d in res.per_stratum if d.stratum == "edge"]
        assert edge[0].status == "reject"
        assert edge[0].reason.startswith("atom at (0.0,) charges")

    def test_zero_measure_accepted_everywhere(self):
        res = good_measure_check(cube(), {}, 1.9)
        assert res.verdict == "accept"


class TestRemovability:
    def test_vertex_removable_at_threshold(self):
        E = CompactSetDescription((SetPiece("vertex", "point", z=()),))
        assert removable_check(cube(), E, 1.5).removable == "removable"
        assert removable_check(cube(), E, 1.45).removable == "not-removable"

    def test_edge_point(self):
        E = CompactSetDescription((SetPiece("edge", "point", z=(0.0,)),))
        assert removable_check(cube(), E, 1.7).removable == "removable"
        # subcritical: point data exists
        assert removable_check(cube(), E, 1.6).removable == "not-removable"

    def test_edge_segment_not_removable(self):
        E = CompactSetDescription(
            (SetPiece("edge", "ball", radius=0.5, dim=1, z=(0.0,)),))
        assert removable_check(cube(), E, 1.7).removable == "not-removable"
        # whole-edge removability kicks in at q_c_star
        assert removable_check(cube(), E, 2.0).removable == "removable"

    def test_grid_removable_by_the_point_rule(self):
        # a grid is a finite union of points: null in the capacity window,
        # carrying point data below q_c
        E = CompactSetDescription(
            (SetPiece("edge", "grid", points=((0.0,), (0.5,))),))
        res = removable_check(cube(), E, 1.7)
        assert res.removable == "removable"
        assert res.per_piece[0].status == "removable"
        assert removable_check(cube(), E, 1.6).removable == "not-removable"
        # one piece of positive capacity makes the set not removable
        E2 = CompactSetDescription(E.pieces + (
            SetPiece("edge", "ball", radius=0.5, dim=1, z=(0.0,)),))
        res2 = removable_check(cube(), E2, 1.7)
        assert [d.status for d in res2.per_piece] == ["removable", "not-removable"]
        assert res2.removable == "not-removable"

    def test_monotone_in_q(self):
        pieces = {
            "vertex": CompactSetDescription((SetPiece("vertex", "point", z=()),)),
            "point": CompactSetDescription((SetPiece("edge", "point", z=(0.0,)),)),
            "segment": CompactSetDescription(
                (SetPiece("edge", "ball", radius=0.5, dim=1, z=(0.0,)),)),
        }
        for E in pieces.values():
            removable_seen = False
            for q in np.linspace(1.05, 2.6, 60):
                r = removable_check(cube(), E, float(q)).removable
                if removable_seen and r != "removable":
                    raise AssertionError("removability lost as q grew")
                removable_seen = r == "removable"

    def test_consistency_with_good_measures(self):
        # measure supported in a removable set is rejected
        E = CompactSetDescription((SetPiece("edge", "point", z=(0.0,)),))
        q = 1.7
        assert removable_check(cube(), E, q).removable == "removable"
        res = good_measure_check(cube(), {"edge": dirac(1, [0.0])}, q)
        assert res.verdict == "reject"


class TestFlatEdgeCoherence:
    def test_qc_matches_face_for_flat_edge(self):
        for N in (3, 4, 5):
            edge = Stratum("edge", 2, WedgeSpec(N, 2, PI))
            face = Stratum("face", 1, None)
            ve = stratum_verdict(edge, 1.2, N=N)
            vf = stratum_verdict(face, 1.2, N=N)
            assert abs(ve.q_c - vf.q_c) < 1e-12
            assert abs(ve.q_c - (N + 1.0) / (N - 1.0)) < 1e-12

    def test_regimes_agree_below_qc(self):
        N = 3
        edge = Stratum("edge", 2, WedgeSpec(N, 2, PI))
        face = Stratum("face", 1, None)
        for q in np.linspace(1.05, 1.99, 20):
            assert (stratum_verdict(edge, float(q), N=N).regime
                    == stratum_verdict(face, float(q), N=N).regime
                    == "subcritical")


def test_decomposed_family_feeds_good_measure_check():
    # the per-stratum family produced by the decomposition is exactly the
    # input shape of the admissibility check
    from wedgecap.geometry import decompose_measure

    poly = cube()
    fam = decompose_measure(poly, {"edge": dirac(1, [0.3])})
    assert good_measure_check(poly, fam, 1.6).verdict == "accept"
    assert good_measure_check(poly, fam, 1.7).verdict == "reject"


@pytest.mark.parametrize("N, k", [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4)])
def test_points_null_at_exact_q_c(monkeypatch, N, k):
    # at q = q_c, s q' = N - k in exact arithmetic, and the computed product
    # exceeds N - k by a few ulp in 1 210 of these 2 400 cases (for N = 3,
    # k = 2, gamma = (pi/0.5)^2 it is 1 + 2.7e-15): the regime alone must
    # decide that a point is null there
    import wedgecap.classify as classify

    poly = PolyhedronSpec(N=N, strata=(Stratum(
        "edge", k, WedgeSpec(N, k, PI / 2, intervals=((0.5, 2.5),) * (k - 2))),))
    point = CompactSetDescription((SetPiece("edge", "point", z=(0.0,) * (N - k)),))
    atom = {"edge": dirac(N - k)}
    gammas = list(np.linspace(0.3, 40.0, 400))
    if (N, k) == (3, 2):
        gammas.append((PI / 0.5) ** 2)
    for gamma in gammas:
        rep = critical_exponents(N, k, gamma)
        monkeypatch.setattr(classify, "stratum_report", lambda *a, **kw: rep)
        assert removable_check(poly, point, rep.q_c).removable == "removable", gamma
        assert good_measure_check(poly, atom, rep.q_c).verdict == "reject", gamma
