"""Per-curve multiplicities, curve validation, JSON round-trips and fixtures."""

import importlib.util
import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from refinedcount import curves as curves_module
from refinedcount.curves import (
    CurveCombinatorics,
    CurveEdge,
    CurveValidationError,
    VertexStar,
    curve_multiplicities,
    delta_class,
    property_report,
    vertex_complex_mult,
    vertex_interior_points,
    vertex_real_mult,
    vertex_refined_mult,
)
from refinedcount.geometry import BalancedDegree, cross, p2_degree, parse_degree
from refinedcount.laurent import RefinedPoly, quantum_integer

DATA_DIR = Path(__file__).parent / "data" / "curves"

_spec = importlib.util.spec_from_file_location(
    "make_curves", Path(__file__).parent / "data" / "make_curves.py"
)
make_curves = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_curves)

FIXTURES = sorted(DATA_DIR.glob("*.json"))


def load(name: str) -> CurveCombinatorics:
    return CurveCombinatorics.from_json((DATA_DIR / name).read_text())


def test_fixture_roster_is_complete():
    assert len(FIXTURES) == 20
    assert {p.name for p in FIXTURES} == set(make_curves.EXPECTED)
    # the committed files are what the builders make (run without writing them)
    built = {name: curve.to_json() for name, curve in make_curves.build_all()}
    assert built == {p.name: p.read_text(encoding="utf-8") for p in FIXTURES}


def test_vertex_star_validation():
    with pytest.raises(ValueError):
        VertexStar((1, 0), (0, 0), (-1, 0))
    with pytest.raises(ValueError):
        VertexStar((1, 0), (0, 1), (-1, 0))
    star = VertexStar((2, 0), (0, 2), (-2, -2))
    assert star.weights() == (2, 2, 2)


def test_vertex_multiplicities():
    unimodular = VertexStar((1, 0), (0, 1), (-1, -1))
    assert vertex_complex_mult(unimodular) == 1
    assert vertex_interior_points(unimodular) == 0
    assert vertex_real_mult(unimodular) == 1
    assert vertex_refined_mult(unimodular) == RefinedPoly.one()

    doubled = VertexStar((2, 0), (0, 2), (-2, -2))
    assert vertex_complex_mult(doubled) == 4
    assert vertex_interior_points(doubled) == 0
    assert vertex_real_mult(doubled) == 0
    assert vertex_refined_mult(doubled) == quantum_integer(4)

    m3 = VertexStar((2, 1), (-1, 1), (-1, -2))
    assert vertex_complex_mult(m3) == 3
    assert vertex_interior_points(m3) == 1
    assert vertex_real_mult(m3) == -1

    m9 = VertexStar((3, 0), (0, 3), (-3, -3))
    assert vertex_complex_mult(m9) == 9
    assert vertex_interior_points(m9) == 1
    assert vertex_real_mult(m9) == -1

    with pytest.raises(ValueError):
        vertex_complex_mult(VertexStar((1, 0), (1, 0), (-2, 0)))


def test_four_valent_vertex_resolutions_obey_the_local_identity():
    """A 4-valent vertex with outgoing a, b, c, d (in CCW order) resolves into
    two trivalent vertices in three pairings (ij|kl), each weighing
    [|det(i,j)|] * [|det(k,l)|].  One pairing weighs the other two together,
    and the sign of det(a,c) * det(b,d) says which; the crossing pairing
    (ac|bd) is never that one.  At y=1 this is the Plücker relation.  Where
    all three products have integer powers (3,496 of the 6,112 quads) the
    relation holds at y=-1 too."""

    def weight(u, v):
        return vertex_refined_mult(VertexStar(u, v, (-u[0] - v[0], -u[1] - v[1])))

    # every balanced 4-tuple in [-4, 4]^2 with no zero determinant, once each:
    # a has the least angle and the angles rise from a to d
    vecs = sorted(((x, y) for x in range(-4, 5) for y in range(-4, 5) if (x, y) != (0, 0)),
                  key=lambda v: math.atan2(v[1], v[0]))
    rank = {v: n for n, v in enumerate(vecs)}
    seen = at_minus_one = 0
    for i, a in enumerate(vecs):
        for j in range(i + 1, len(vecs)):
            b = vecs[j]
            for k in range(j + 1, len(vecs)):
                c = vecs[k]
                d = (-a[0] - b[0] - c[0], -a[1] - b[1] - c[1])
                if rank.get(d, -1) <= k:
                    continue
                quad = (a, b, c, d)
                if any(cross(u, v) == 0 for n, u in enumerate(quad) for v in quad[n + 1:]):
                    continue
                seen += 1
                ab, ac, ad = (weight(a, b) * weight(c, d), weight(a, c) * weight(b, d),
                              weight(a, d) * weight(b, c))
                assert ac != ab + ad
                if cross(a, c) * cross(b, d) > 0:
                    assert ab == ac + ad
                else:
                    assert ad == ab + ac
                if all(p.has_integer_powers() for p in (ab, ac, ad)):
                    at_minus_one += 1
                    ab1, ac1, ad1 = (p.evaluate(-1) for p in (ab, ac, ad))
                    if cross(a, c) * cross(b, d) > 0:
                        assert ab1 == ac1 + ad1
                    else:
                        assert ad1 == ab1 + ac1
    assert seen == 6112
    assert at_minus_one == 3496


def test_validation_stage_connectivity():
    with pytest.raises(CurveValidationError) as exc:
        CurveCombinatorics([0, 0], [])
    assert exc.value.stage == "connectivity"
    with pytest.raises(CurveValidationError, match="curve has no vertices") as exc:
        CurveCombinatorics([], [])
    assert exc.value.stage == "connectivity"
    with pytest.raises(CurveValidationError) as exc:
        CurveCombinatorics([0], [CurveEdge(0, 7, (1, 0), 1)])
    assert exc.value.stage == "connectivity"
    # ids are ints, never coerced: a float id or endpoint is refused
    tripod = [CurveEdge(0, None, (1, 0), 1), CurveEdge(0, None, (0, 1), 1),
              CurveEdge(0, None, (-1, -1), 1)]
    with pytest.raises(CurveValidationError, match="vertex id: 0.7 is not an integer") as exc:
        CurveCombinatorics([0.7], tripod)
    assert exc.value.stage == "connectivity"
    with pytest.raises(CurveValidationError, match="0.0 is not an integer") as exc:
        CurveCombinatorics([0], [CurveEdge(0.0, None, (1, 0), 1), *tripod[1:]])
    assert exc.value.stage == "connectivity"
    with pytest.raises(CurveValidationError) as exc:
        CurveCombinatorics(
            [0, 1],
            [
                CurveEdge(0, None, (1, 0), 1),
                CurveEdge(0, None, (-1, 1), 1),
                CurveEdge(0, None, (0, -1), 1),
                CurveEdge(1, None, (1, 0), 1),
                CurveEdge(1, None, (-1, 1), 1),
                CurveEdge(1, None, (0, -1), 1),
            ],
        )
    assert exc.value.stage == "connectivity"


def test_validation_stage_valence():
    with pytest.raises(CurveValidationError) as exc:
        CurveCombinatorics([0], [CurveEdge(0, None, (1, 0), 1),
                                 CurveEdge(0, None, (-1, 0), 1)])
    assert exc.value.stage == "valence"


def test_validation_stage_germ():
    edges = [
        CurveEdge(0, None, (2, 0), 1),
        CurveEdge(0, None, (0, 1), 2),
        CurveEdge(0, None, (-1, -1), 2),
    ]
    with pytest.raises(CurveValidationError) as exc:
        CurveCombinatorics([0], edges)
    assert exc.value.stage == "germ"
    with pytest.raises(CurveValidationError) as exc:
        CurveCombinatorics([0], [CurveEdge(0, None, (1, 0), 0),
                                 CurveEdge(0, None, (0, 1), 1),
                                 CurveEdge(0, None, (-1, -1), 1)])
    assert exc.value.stage == "germ"
    with pytest.raises(CurveValidationError, match="edge at vertex 0 has zero direction") as exc:
        CurveCombinatorics([0], [CurveEdge(0, None, (0, 0), 1),
                                 CurveEdge(0, None, (1, 0), 1),
                                 CurveEdge(0, None, (-1, 0), 1)])
    assert exc.value.stage == "germ"
    # a bool weight or a float direction is not an integer, whatever it equals
    for edge in (CurveEdge(0, None, (1, 0), True), CurveEdge(0, None, (1.0, 0), 1)):
        with pytest.raises(CurveValidationError, match="is not an integer") as exc:
            CurveCombinatorics([0], [edge, CurveEdge(0, None, (0, 1), 1),
                                     CurveEdge(0, None, (-1, -1), 1)])
        assert exc.value.stage == "germ"


def test_validation_stage_balancing():
    with pytest.raises(CurveValidationError) as exc:
        CurveCombinatorics([0], [CurveEdge(0, None, (1, 0), 1),
                                 CurveEdge(0, None, (0, 1), 1),
                                 CurveEdge(0, None, (-1, -1), 2)])
    assert exc.value.stage == "balancing"


def test_validation_rejects_a_degenerate_vertex():
    # balanced, but the three vectors are parallel: no multiplicity to score
    with pytest.raises(CurveValidationError, match="vertex 0 is degenerate") as exc:
        CurveCombinatorics([0], [CurveEdge(0, None, (1, 0), 1),
                                 CurveEdge(0, None, (1, 0), 1),
                                 CurveEdge(0, None, (-1, 0), 2)])
    assert exc.value.stage == "balancing"
    # every vertex is checked for balance first: an unbalanced vertex after a
    # degenerate one is still the failure reported
    with pytest.raises(CurveValidationError, match=r"vertex 1 sums to \(-1,-1\)") as exc:
        CurveCombinatorics([0, 1], [CurveEdge(0, 1, (1, 0), 1),
                                    CurveEdge(0, None, (1, 0), 1),
                                    CurveEdge(0, None, (-1, 0), 2),
                                    CurveEdge(1, None, (0, 1), 1),
                                    CurveEdge(1, None, (0, -1), 2)])
    assert exc.value.stage == "balancing"


# balanced at every vertex, yet scoring needs a degree: a two-vertex bubble
# with one end each way, and a theta graph with no ends at all
BUBBLE = [CurveEdge(0, None, (-1, 0), 2), CurveEdge(0, 1, (1, 1), 1),
          CurveEdge(0, 1, (1, -1), 1), CurveEdge(1, None, (1, 0), 2)]
THETA = [CurveEdge(0, 1, (1, 0), 1), CurveEdge(0, 1, (0, 1), 1),
         CurveEdge(0, 1, (-1, -1), 1)]


def test_validation_rejects_ends_that_do_not_form_a_degree():
    for edges in (BUBBLE, THETA):
        with pytest.raises(CurveValidationError,
                           match="the unbounded ends do not form a degree: "
                                 "degree needs at least three vectors") as exc:
            CurveCombinatorics([0, 1], edges)
        assert exc.value.stage == "balancing"
    # a curve that loads keeps the degree of its ends for scoring
    for path in FIXTURES:
        curve = CurveCombinatorics.from_json(path.read_text())
        ends = BalancedDegree(Counter([e.u() for e in curve.infinite_edges()]))
        assert curve.degree() == ends == curve_multiplicities(curve).degree, path.name


def test_stored_vertex_stars_match_the_edges():
    """Each star lists +u at an edge's tail and -u at its head, in edge order."""
    for path in FIXTURES:
        curve = CurveCombinatorics.from_json(path.read_text())
        for v in curve.vertex_ids:
            us = []
            for e in curve.edges:
                if e.tail == v:
                    us.append((e.weight * e.direction[0], e.weight * e.direction[1]))
                if e.head == v:
                    us.append((-e.weight * e.direction[0], -e.weight * e.direction[1]))
            assert curve.vertex_star(v).vectors() == tuple(us), (path.name, v)


def test_real_multiplicity_reads_the_parity_of_the_weights():
    # by Pick, m = 2 * interior + (w1 + w2 + w3) - 2 at every vertex
    for path in FIXTURES:
        curve = CurveCombinatorics.from_json(path.read_text())
        for v in curve.vertex_ids:
            star = curve.vertex_star(v)
            m = vertex_complex_mult(star)
            assert m % 2 == sum(star.weights()) % 2, path.name
            expected = 0 if m % 2 == 0 else (-1) ** vertex_interior_points(star)
            assert vertex_real_mult(star) == expected, path.name


def test_a_curve_is_scored_once_at_validation(monkeypatch):
    """Validation stores the scores; reading them does no per-vertex work."""
    curves = [CurveCombinatorics.from_json(path.read_text()) for path in FIXTURES]
    for path, curve in zip(FIXTURES, curves):
        assert curve_multiplicities(curve) is curve_multiplicities(curve), path.name
    calls = []

    def counted(star):
        calls.append(star)
        return vertex_complex_mult(star)

    monkeypatch.setattr(curves_module, "vertex_complex_mult", counted)
    for curve in curves:
        property_report(curve)
    assert calls == []
    # the counter is live: validation scores each vertex's real multiplicity,
    # and only a vertex with an odd weight sum needs m, once
    curve = load("delta4_genus3.json")
    assert 0 < len(calls) <= len(curve.vertex_ids) == 16


def test_json_round_trip_is_bit_exact():
    for path in FIXTURES:
        text = path.read_text()
        curve = CurveCombinatorics.from_json(text)
        assert curve.to_json() == text
        assert CurveCombinatorics.from_json(curve.to_json()).to_json() == text


def test_from_json_rejects_malformed_input():
    with pytest.raises(ValueError):
        CurveCombinatorics.from_json("{}")
    with pytest.raises(ValueError):
        CurveCombinatorics.from_json('{"vertices": [{"id": 0}], "edges": [{}]}')
    # brackets nested past the JSON parser's recursion limit
    with pytest.raises(ValueError):
        CurveCombinatorics.from_json("[" * 1000)
    # a float or bool is rejected, not truncated to an int
    obj = json.loads((DATA_DIR / "delta3_weight2_edge.json").read_text())
    for bad in (2.9, True, 2.0):
        obj["edges"][0]["weight"] = bad
        with pytest.raises(CurveValidationError, match="is not an integer") as exc:
            CurveCombinatorics.from_json_obj(obj)
        assert exc.value.stage == "germ"


def test_fixture_expected_values():
    for name, (genus, g_str) in make_curves.EXPECTED.items():
        curve = load(name)
        stats = curve_multiplicities(curve)
        assert curve.genus() == genus, name
        assert str(stats.refined) == g_str, name
        assert stats.genus == genus


def test_stats_consistency():
    for path in FIXTURES:
        curve = CurveCombinatorics.from_json(path.read_text())
        stats = curve_multiplicities(curve)
        assert stats.refined.evaluate(1) == stats.mu_complex
        assert stats.refined.is_symmetric()
        assert stats.alpha == stats.refined.degree()
        if all(e.weight % 2 for e in curve.infinite_edges()):
            assert abs(stats.mu_real) <= stats.mu_complex


def test_stats_example_values():
    stats = curve_multiplicities(load("one_vertex_mult2.json"))
    assert (stats.mu_complex, stats.mu_real) == (2, 0)
    assert stats.refined == quantum_integer(2)
    assert stats.alpha == Fraction(1, 2)

    stats = curve_multiplicities(load("delta3_vertex_mult3.json"))
    assert (stats.mu_complex, stats.mu_real) == (3, -1)
    assert stats.refined == quantum_integer(3)
    assert stats.degree == p2_degree(3)

    stats = curve_multiplicities(load("delta4_genus2_mult3.json"))
    assert stats.genus == 2
    assert stats.degree == p2_degree(4)
    assert stats.refined == quantum_integer(3)

    stats = curve_multiplicities(load("two_vertex_bridge.json"))
    assert stats.refined == quantum_integer(2) ** 2
    assert (stats.mu_complex, stats.mu_real) == (4, 0)


def test_stats_json_obj():
    obj = curve_multiplicities(load("delta3_generic_rational.json")).to_json_obj()
    assert obj == {
        "mu_C": 1,
        "mu_R": 1,
        "G": "1",
        "alpha": "0",
        "genus": 0,
        "degree": "vectors:(-1,0)x3;(0,-1)x3;(1,1)x3",
    }
    assert parse_degree(obj["degree"]) == p2_degree(3)


def test_delta_class():
    assert delta_class(1, 0, p2_degree(3)) == 0
    assert delta_class(0, 0, p2_degree(3)) == 1
    assert delta_class(Fraction(1, 2), 0, p2_degree(3)) == Fraction(1, 2)
    with pytest.raises(ValueError):
        delta_class(2, 0, p2_degree(3))


def test_property_report_names_and_verdicts():
    expected_names = [
        "symmetric",
        "positive_coefficients",
        "eval_at_1_is_mu_complex",
        "integer_powers_iff_even_count_of_even_ends",
        "eval_at_-1_is_mu_real",
        "weight_one_ends_corollary",
    ]
    for path in FIXTURES:
        report = property_report(CurveCombinatorics.from_json(path.read_text()))
        assert [c.name for c in report] == expected_names
        for check in report:
            if check.applicable:
                assert check.passed is True, (path.name, check.name)
            else:
                assert check.passed is None


def test_property_report_applicability():
    report = {c.name: c for c in property_report(load("one_vertex_mult2.json"))}
    assert not report["eval_at_-1_is_mu_real"].applicable
    assert not report["weight_one_ends_corollary"].applicable

    report = {c.name: c for c in property_report(load("delta3_generic_rational.json"))}
    assert report["eval_at_-1_is_mu_real"].applicable
    assert report["weight_one_ends_corollary"].applicable

    obj = report["symmetric"].to_json_obj()
    assert obj["name"] == "symmetric" and obj["pass"] is True


def test_curve_immutable():
    curve = load("one_vertex_unimodular.json")
    with pytest.raises(AttributeError):
        curve.vertex_ids = ()


