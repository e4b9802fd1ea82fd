import json
import math
import os

import numpy as np
import pytest

from wedgecap.errors import (CodimensionRangeError, DegenerateOpeningError,
                             DomainError, GeometryError, PoleEndpointError,
                             UnknownStratumError)
from wedgecap.geometry import (CompactSetDescription, ConeOpening,
                               DiscreteMeasure, PolyhedronSpec, SetPiece,
                               Stratum, WedgeSpec, decompose_measure, dirac,
                               dumps, measure_from_dict, polyhedron_from_dict,
                               set_from_dict, validate_wedge, wedge_from_dict)

from oracles import cartesian_to_spherical, spherical_to_cartesian

PI = math.pi
CUBE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "demos", "cube.json")


class TestSphericalCoordinates:
    def test_unit_along_x1(self):
        # theta_1 = 0 with all polar angles at pi/2 lands on the x2 axis
        x = spherical_to_cartesian(1.0, [0.0, PI / 2])
        assert np.allclose(x, [0.0, 1.0, 0.0], atol=1e-15)

    def test_origin(self):
        x = spherical_to_cartesian(0.0, [1.0, 2.0])
        assert np.allclose(x, 0.0)

    def test_radius_two_equator(self):
        # hand evaluation of the nested sines at theta_1 = theta_2 = pi/2
        x = spherical_to_cartesian(2.0, [PI / 2, PI / 2])
        assert np.allclose(x, [2.0, 0.0, 0.0], atol=1e-15)

    def test_norm_preserved(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            N = int(rng.integers(2, 7))
            sigma = np.concatenate([[rng.uniform(0, 2 * PI)],
                                    rng.uniform(0.05, PI - 0.05, N - 2)])
            r = rng.uniform(0.1, 5.0)
            assert abs(np.linalg.norm(spherical_to_cartesian(r, sigma)) - r) < 1e-12 * r

    def test_round_trip_open_chart(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            N = int(rng.integers(2, 7))
            sigma = np.concatenate([[rng.uniform(1e-3, 2 * PI - 1e-3)],
                                    rng.uniform(0.05, PI - 0.05, N - 2)])
            r = rng.uniform(0.1, 4.0)
            x = spherical_to_cartesian(r, sigma)
            r2, sigma2 = cartesian_to_spherical(x)
            assert abs(r2 - r) < 1e-12 * r
            assert np.max(np.abs(sigma2 - sigma)) < 1e-11

    def test_angle_range_errors(self):
        with pytest.raises(DomainError):
            spherical_to_cartesian(1.0, [7.0, PI / 2])
        with pytest.raises(DomainError):
            spherical_to_cartesian(1.0, [0.5, 3.5])
        with pytest.raises(DomainError):
            cartesian_to_spherical(np.zeros(3))


class TestValidateWedge:
    def test_quarter_wedge_accepted(self):
        spec = WedgeSpec(3, 2, PI / 2)
        assert validate_wedge(spec) is spec

    def test_degenerate_opening(self):
        with pytest.raises(DegenerateOpeningError):
            validate_wedge(WedgeSpec(3, 2, 2 * PI))

    def test_pole_endpoint_rejected(self):
        with pytest.raises(PoleEndpointError):
            validate_wedge(WedgeSpec(4, 3, PI / 2, intervals=((0.2, 3.2),)))

    def test_pole_endpoint_mode(self):
        spec = WedgeSpec(4, 3, PI / 2, intervals=((0.0, PI / 2),), allow_pole=True)
        assert validate_wedge(spec) is spec

    def test_codimension_range(self):
        with pytest.raises(CodimensionRangeError):
            validate_wedge(WedgeSpec(3, 4, PI / 2, intervals=((0.1, 0.2), (0.1, 0.2))))

    def test_fuzz_accept_iff_inequalities(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            alpha = rng.uniform(-0.5, 2 * PI + 0.5)
            a = rng.uniform(-0.2, PI)
            b = rng.uniform(-0.2, PI + 0.2)
            ok = (0 < alpha < 2 * PI) and (0 < a < b < PI)
            spec = WedgeSpec(4, 3, alpha, intervals=((a, b),))
            if ok:
                assert validate_wedge(spec) is spec
            else:
                with pytest.raises(GeometryError):
                    validate_wedge(spec)


def _cube():
    return PolyhedronSpec(N=3, strata=(
        Stratum("face", 1, None),
        Stratum("edge", 2, WedgeSpec(3, 2, PI / 2)),
        Stratum("vertex", 3, ConeOpening(12.0)),
    ))


class TestMeasures:
    def test_invariants(self):
        with pytest.raises(GeometryError):
            DiscreteMeasure(1, [((0.0,), -1.0)])
        with pytest.raises(GeometryError):
            DiscreteMeasure(1, [((float("nan"),), 1.0)])
        with pytest.raises(GeometryError):
            DiscreteMeasure(2, [((0.0,), 1.0)])

    def test_mass_and_scaling(self):
        mu = DiscreteMeasure(1, [((0.0,), 1.0), ((2.0,), 2.0)])
        assert mu.mass == 3.0
        assert mu.scaled(2.0).mass == 6.0
        assert mu.support_diameter() == 2.0

    def test_decompose_single_atom(self):
        fam = decompose_measure(_cube(), {"edge": dirac(1, [0.5])})
        assert fam["edge"].mass == 1.0
        assert fam["face"].mass == 0.0 and fam["vertex"].mass == 0.0

    def test_decompose_empty(self):
        fam = decompose_measure(_cube(), {})
        assert all(m.mass == 0.0 for m in fam.values())

    def test_decompose_mass_preserved(self):
        mu = {"edge": DiscreteMeasure(1, [((0.1,), 1.0)]),
              "face": DiscreteMeasure(2, [((0.2, 0.3), 2.0)])}
        fam = decompose_measure(_cube(), mu)
        assert fam["edge"].mass == 1.0
        assert fam["face"].mass == 2.0
        assert sum(m.mass for m in fam.values()) == 3.0

    def test_decompose_idempotent(self):
        fam = decompose_measure(_cube(), {"edge": dirac(1, [0.5])})
        again = decompose_measure(_cube(), fam)
        assert all(np.array_equal(again[k].positions, fam[k].positions)
                   and np.array_equal(again[k].weights, fam[k].weights) for k in fam)

    def test_unknown_stratum(self):
        with pytest.raises(UnknownStratumError):
            decompose_measure(_cube(), {"ridge": dirac(1)})

    def test_wrong_dimension(self):
        with pytest.raises(GeometryError):
            decompose_measure(_cube(), {"edge": dirac(2)})


class TestJSON:
    def test_wedge_round_trip(self):
        doc = {"N": 4, "k": 3, "alpha1": 1.25, "intervals": [[0.3, 2.0]]}
        again = wedge_from_dict(json.loads(dumps(doc)))
        assert again == WedgeSpec(4, 3, 1.25, intervals=((0.3, 2.0),))

    def test_seventeen_digit_floats(self):
        assert '"0.10000000000000001"'[1:-1] in dumps({"x": 0.1})
        assert "1.5" in dumps({"x": 1.5})

    def test_measure_schema(self):
        doc = {"m": 2, "atoms": [{"z": [0.1, 0.2], "w": 1.5}]}
        mu = measure_from_dict(doc)
        assert mu.mass == 1.5
        assert mu.positions.tolist() == [[0.1, 0.2]] and mu.weights.tolist() == [1.5]

    def test_polyhedron_schema(self):
        with open(CUBE, encoding="utf-8") as fh:
            poly = polyhedron_from_dict(json.load(fh))
        assert poly == _cube()

    def test_polyhedron_infers_N_from_wedge(self):
        with open(CUBE, encoding="utf-8") as fh:
            doc = json.load(fh)
        del doc["N"]
        assert polyhedron_from_dict(doc).N == 3

    def test_polyhedron_needs_N(self):
        with pytest.raises(GeometryError):
            polyhedron_from_dict({"strata": [{"id": "f", "k": 1, "opening": None}]})

    def test_malformed_measure_names_field(self):
        with pytest.raises(GeometryError) as exc:
            measure_from_dict({"atoms": []})
        assert "m" in str(exc.value)

    def test_set_schema(self):
        doc = {"pieces": [
            {"stratum": "edge", "kind": "point", "z": [0.0]},
            {"stratum": "edge", "kind": "ball", "radius": 0.5, "dim": 1},
            {"stratum": "edge", "kind": "grid", "points": [[0.0], [1.0]]},
        ]}
        E = set_from_dict(doc)
        E.validate_against(_cube())
        assert [p.kind for p in E.pieces] == ["point", "ball", "grid"]
        bad = CompactSetDescription((SetPiece("ridge", "point", z=(0.0,)),))
        with pytest.raises(UnknownStratumError):
            bad.validate_against(_cube())


def test_zero_dimensional_measure():
    # a vertex measure lives in R^0: one atom with an empty position
    mu = DiscreteMeasure(0, [((), 2.0)])
    assert mu.mass == 2.0 and mu.n_atoms == 1
    assert mu.support_radius() == 0.0
    assert mu.scaled(0.5).mass == 1.0
