"""Degrees, dual polygons, lattice counts and degree-spec parsing."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from refinedcount.geometry import (
    BalancedDegree,
    DegreeError,
    HTransverseShape,
    LatticePolygon,
    PolygonError,
    convex_hull,
    degree_from_polygon,
    delta_invariant,
    dual_polygon,
    genus_max,
    h_transverse,
    lattice_counts,
    p1xp1_degree,
    p2_degree,
    parse_degree,
    pi_count,
    primitive,
)
from oracles import polygon_lattice_counts_brute


def test_primitive():
    assert primitive((4, 6)) == ((2, 3), 2)
    assert primitive((0, -5)) == ((0, -1), 5)
    assert primitive((-1, 1)) == ((-1, 1), 1)
    with pytest.raises(ValueError):
        primitive((0, 0))


def test_balanced_degree_validation():
    with pytest.raises(DegreeError):
        BalancedDegree([(1, 0), (0, 0), (-1, 0)])
    with pytest.raises(DegreeError):
        BalancedDegree([(1, 0), (-1, 0)])
    with pytest.raises(DegreeError):
        BalancedDegree([(1, 0), (1, 0), (-1, 0)])
    with pytest.raises(DegreeError):
        BalancedDegree([(1, 0), (1, 0), (-1, 0), (-1, 0)])
    # int() would truncate 1.9 to the unit triangle's (1, 0) and pass True as 1
    for bad in ((1.9, 0), (True, 0)):
        with pytest.raises(DegreeError, match="coordinates must be integers"):
            BalancedDegree([bad, (0, 1), (-1, -1)])


def test_projective_plane_degree():
    deg = p2_degree(3)
    assert deg.kappa == 9
    assert deg.is_primitive()
    classes = deg.direction_classes()
    assert set(classes) == {(-1, 0), (0, -1), (1, 1)}
    assert all(ms == [1, 1, 1] for ms in classes.values())
    with pytest.raises(DegreeError):
        p2_degree(0)


def test_quadric_degree():
    deg = p1xp1_degree(2, 3)
    assert deg.kappa == 10
    classes = deg.direction_classes()
    assert classes[(1, 0)] == [1, 1, 1] and classes[(0, 1)] == [1, 1]
    with pytest.raises(DegreeError):
        p1xp1_degree(1, 0)


def test_non_primitive_degree():
    deg = BalancedDegree([(2, 0), (0, 2), (-2, -2)])
    assert not deg.is_primitive()
    assert deg.direction_classes()[(1, 0)] == [2]


def test_dual_polygon_of_families():
    tri = dual_polygon(p2_degree(3))
    assert set(tri.vertices) == {(0, 0), (3, 0), (0, 3)}
    rect = dual_polygon(p1xp1_degree(2, 3))
    assert set(rect.vertices) == {(0, 0), (2, 0), (2, 3), (0, 3)}


def test_polygon_validation():
    with pytest.raises(PolygonError):
        LatticePolygon([(0, 0), (1, 0)])
    with pytest.raises(PolygonError):
        LatticePolygon([(0, 0), (1, 0), (2, 0)])
    with pytest.raises(PolygonError):
        LatticePolygon([(0, 0), (1, 0), (2, 0), (0, 1)])
    # int() would make the (2,0) triangle of 2.7, and pass True as 1
    for bad in ((2.7, 0), (True, 0)):
        with pytest.raises(PolygonError, match="coordinates must be integers"):
            LatticePolygon([(0, 0), bad, (0, 2)])
        with pytest.raises(PolygonError, match="coordinates must be integers"):
            convex_hull([(0, 0), bad, (0, 2)])
    assert LatticePolygon.from_points(
        [(0, 0), (1, 0), (2, 0), (0, 1), (5, 5), (3, 3)]
    ) == LatticePolygon.from_points([(0, 0), (2, 0), (0, 1), (5, 5)])


def test_polygon_canonical_form():
    a = LatticePolygon([(1, 1), (4, 1), (1, 4)])
    b = LatticePolygon([(0, 3), (0, 0), (3, 0)])
    assert a == b
    assert a.vertices[0] == (0, 0)


def test_sides_and_lattice_points():
    tri = dual_polygon(p2_degree(2))
    assert sorted(tri.sides()) == [((-1, 0), 2), ((0, -1), 2), ((1, 1), 2)]
    assert len(tri.lattice_points()) == 6
    assert lattice_counts(tri) == (0, 6, 4)
    assert lattice_counts(dual_polygon(p2_degree(4))) == (3, 12, 16)


points = st.tuples(st.integers(-5, 5), st.integers(-5, 5))


@given(st.lists(points, min_size=3, max_size=10))
def test_lattice_counts_match_brute_force(pts):
    if len(convex_hull(pts)) < 3:
        return
    poly = LatticePolygon.from_points(pts)
    interior, boundary, area2 = lattice_counts(poly)
    assert (interior, boundary) == polygon_lattice_counts_brute(poly.vertices)
    assert area2 == 2 * interior + boundary - 2


@given(st.lists(points, min_size=3, max_size=10))
def test_degree_polygon_duality(pts):
    if len(convex_hull(pts)) < 3:
        return
    poly = LatticePolygon.from_points(pts)
    assert dual_polygon(degree_from_polygon(poly)) == poly


def test_degree_polygon_duality_families():
    for deg in (p2_degree(1), p2_degree(4), p1xp1_degree(2, 3)):
        assert degree_from_polygon(dual_polygon(deg)) == deg


def test_delta_invariant_values():
    assert delta_invariant(0, p2_degree(3)) == 1
    assert delta_invariant(1, p2_degree(3)) == 0
    assert delta_invariant(0, p2_degree(4)) == 3
    assert delta_invariant(1, p2_degree(4)) == 2
    assert delta_invariant(0, p1xp1_degree(2, 2)) == 1
    assert delta_invariant(0, BalancedDegree([(2, 0), (0, 2), (-2, -2)])) == Fraction(
        3, 2
    )
    with pytest.raises(ValueError, match="genus 2 too large: the dual polygon has 1 interior points"):
        delta_invariant(2, p2_degree(3))
    with pytest.raises(ValueError, match="genus -1 is negative"):
        delta_invariant(-1, p2_degree(3))


def test_genus_max():
    assert genus_max(p2_degree(3)) == 1
    assert genus_max(p2_degree(4)) == 3
    assert genus_max(p2_degree(5)) == 6
    assert genus_max(p1xp1_degree(2, 3)) == 2


def test_pi_count_examples():
    assert pi_count(p2_degree(3)) == 1
    assert pi_count(p1xp1_degree(2, 3)) == 1
    assert pi_count(BalancedDegree([(1, 0), (2, 0), (-3, 0), (0, 3), (0, -3)])) == 2
    assert pi_count(BalancedDegree([(1, 0), (2, 0), (3, 0), (-6, -6), (0, 6)])) == 6


def test_h_transverse_families():
    shape = h_transverse(dual_polygon(p2_degree(3)))
    assert shape == HTransverseShape(0, 3, (0, 0, 0), (1, 1, 1))
    shape = h_transverse(dual_polygon(p1xp1_degree(2, 3)))
    assert shape == HTransverseShape(2, 2, (0, 0, 0), (0, 0, 0))
    assert h_transverse(LatticePolygon([(0, 0), (2, 1), (0, 2)])) == HTransverseShape(
        0, 0, (0, 0), (2, -2)
    )
    assert h_transverse(LatticePolygon([(0, 0), (1, 2), (0, 2)])) is None


def test_h_transverse_shape_validation():
    with pytest.raises(ValueError):
        HTransverseShape(0, 3, (0, 0, 1), (1, 1, 1))
    with pytest.raises(ValueError):
        HTransverseShape(0, 3, (0, 0), (1, 1, 1))
    shape = HTransverseShape(0, 2, (1, 0), (2, 1))
    assert shape.d == 2
    assert degree_from_polygon(shape.polygon()) == shape.degree()


def test_parse_degree_forms():
    assert parse_degree("P2:d=3") == p2_degree(3)
    assert parse_degree("P1xP1:d=2,r=3") == p1xp1_degree(2, 3)
    assert parse_degree("polygon:(0,0),(3,0),(0,3)") == p2_degree(3)
    assert parse_degree("vectors:(-1,0)x3;(0,-1)x3;(1,1)x3") == p2_degree(3)
    assert parse_degree("vectors:(2,0);(0,2);(-2,-2)") == BalancedDegree(
        [(2, 0), (0, 2), (-2, -2)]
    )


def test_parse_degree_errors():
    for bad in ("P3:d=2", "P2:d=", "vectors:(1,0)", "vectors:(1,0)x0;(-1,0)x1",
                "polygon:(0,0),(1,0)", "polygon:nonsense", ""):
        with pytest.raises(ValueError):
            parse_degree(bad)


def test_canonical_spec_round_trip():
    for deg in (p2_degree(3), p1xp1_degree(2, 3),
                BalancedDegree([(2, 0), (0, 2), (-2, -2)])):
        assert parse_degree(deg.canonical_spec()) == deg
