"""Law-checking layer: structural checks, closed formulas, cross-validation."""

from fractions import Fraction

import pytest

from refinedcount.analysis import (
    InvariantReport,
    a_delta_minus_1_formula,
    analyze,
    canonical_spec,
    cross_validate,
    delta_minus_1_lower_bound,
    structural_checks,
)
from refinedcount.geometry import (
    BalancedDegree,
    HTransverseShape,
    delta_invariant,
    dual_polygon,
    h_transverse,
    p1xp1_degree,
    p2_degree,
    parse_degree,
)
from refinedcount.laurent import RefinedPoly
from refinedcount.paths import compute_G_path


def test_canonical_spec():
    assert canonical_spec(p2_degree(3)) == "P2:d=3"
    assert canonical_spec(p1xp1_degree(2, 3)) == "P1xP1:d=2,r=3"
    deg = BalancedDegree([(2, 0), (0, 2), (-2, -2)])
    assert canonical_spec(deg) == deg.canonical_spec()
    assert parse_degree(canonical_spec(deg)) == deg


def test_structural_checks_pass_on_reference_count():
    G = RefinedPoly({1: 1, 0: 10, -1: 1})
    report = structural_checks(p2_degree(3), 0, G)
    assert report.all_pass()
    assert report.delta == 1
    names = [c["name"] for c in report.checks]
    assert names == [
        "symmetric under y -> 1/y",
        "nonnegative coefficients",
        "degree equals delta",
        "leading coefficient",
    ]
    leading = report.checks[-1]
    assert leading["expected"] == "1" and leading["actual"] == "1"


def test_structural_checks_zero_polynomial_is_vacuous():
    report = structural_checks(p2_degree(3), 1, RefinedPoly.zero())
    assert report.all_pass()
    assert [c["name"] for c in report.checks] == [
        "symmetric under y -> 1/y",
        "nonnegative coefficients",
    ]
    # above genus_max the count is 0 and has no expected degree
    above = structural_checks(p2_degree(3), 2, compute_G_path(p2_degree(3), 2))
    assert above.delta is None
    assert above.all_pass()
    report = cross_validate(p2_degree(3), 2)
    assert report.delta is None
    assert report.all_pass()
    assert report.checks[-1]["name"] == "evaluations at (1, -1)"
    assert report.checks[-1]["actual"] == "(0, 0)"


def test_structural_checks_detect_violations():
    bad = RefinedPoly({1: 2, 0: 10, -1: 1})
    report = structural_checks(p2_degree(3), 0, bad)
    assert not report.all_pass()
    failed = {c["name"] for c in report.checks if not c["pass"]}
    assert "symmetric under y -> 1/y" in failed


def test_report_json_obj():
    report = structural_checks(p2_degree(3), 0, RefinedPoly({1: 1, 0: 10, -1: 1}))
    obj = report.to_json_obj()
    assert obj["spec"] == "P2:d=3"
    assert obj["genus"] == 0
    assert obj["polynomial"] == "y+10+y^-1"
    assert obj["delta"] == "1"
    assert all(set(c) == {"name", "expected", "actual", "pass"} for c in obj["checks"])


def test_second_coefficient_formula_triangle_family():
    for d in (3, 4, 5):
        shape = h_transverse(dual_polygon(p2_degree(d)))
        assert a_delta_minus_1_formula(shape) == 3 * d + 1


def test_second_coefficient_formula_rectangle_family():
    for d in (2, 3):
        for r in (2, 3):
            shape = h_transverse(dual_polygon(p1xp1_degree(d, r)))
            assert a_delta_minus_1_formula(shape) == 2 * d + 2 * r + 2


def test_second_coefficient_formula_matches_engine():
    shapes = [
        h_transverse(dual_polygon(p2_degree(3))),
        h_transverse(dual_polygon(p1xp1_degree(2, 2))),
        HTransverseShape(0, 2, (1, 0), (2, 1)),
        HTransverseShape(2, 0, (2, 1), (1, 0)),
        HTransverseShape(0, 4, (0, -1), (2, 1)),
    ]
    for shape in shapes:
        deg = shape.degree()
        delta = delta_invariant(0, deg)
        G = compute_G_path(deg, 0)
        assert a_delta_minus_1_formula(shape) == G.coefficient(delta - 1), shape


def test_second_coefficient_formula_irregular_shapes():
    assert a_delta_minus_1_formula(HTransverseShape(0, 2, (1, 0), (2, 1))) == 8
    assert a_delta_minus_1_formula(HTransverseShape(2, 0, (2, 1), (1, 0))) == 8


def test_second_coefficient_formula_needs_interior_points():
    with pytest.raises(ValueError):
        a_delta_minus_1_formula(h_transverse(dual_polygon(p2_degree(2))))


def test_lower_bound_is_sharp_for_small_families():
    for d in range(3, 9):
        assert delta_minus_1_lower_bound(p2_degree(d)) == (7, 7), d
    for d in range(2, 6):
        for r in range(2, 6):
            assert delta_minus_1_lower_bound(p1xp1_degree(d, r)) == (8, 8), (d, r)


def test_lower_bound_rejects_out_of_scope_degrees():
    with pytest.raises(ValueError, match="^triangle family needs d >= 3, got d=2$"):
        delta_minus_1_lower_bound(p2_degree(2))
    with pytest.raises(ValueError, match="^rectangle family needs d, r >= 2, got d=1, r=2$"):
        delta_minus_1_lower_bound(p1xp1_degree(1, 2))
    with pytest.raises(ValueError, match="^lower bound stated only for the P2 and P1xP1 families$"):
        delta_minus_1_lower_bound(BalancedDegree([(2, 0), (0, 2), (-2, -2)]))


def test_cross_validate_families():
    report = cross_validate(p2_degree(3), 0)
    assert report.all_pass()
    by_name = {c["name"]: c for c in report.checks}
    assert set(by_name) == {
        "lambda invariance",
        "engine agreement",
        "evaluations at (1, -1)",
    }
    assert by_name["evaluations at (1, -1)"]["actual"] == "(12, 8)"
    assert report.G == RefinedPoly({1: 1, 0: 10, -1: 1})

    report = cross_validate(p2_degree(4), 0)
    assert report.all_pass()
    assert {c["name"]: c for c in report.checks}[
        "evaluations at (1, -1)"
    ]["actual"] == "(620, 240)"


def test_cross_validate_outside_floor_coverage():
    skew = parse_degree("polygon:(0,0),(2,1),(0,2)")
    report = cross_validate(skew, 0)
    assert report.all_pass()
    assert [c["name"] for c in report.checks] == [
        "lambda invariance",
        "evaluations at (1, -1)",
    ]


def test_analyze_full_report():
    report = analyze(p2_degree(4), 0)
    assert report.all_pass()
    names = [c["name"] for c in report.checks]
    assert names == [
        "symmetric under y -> 1/y",
        "nonnegative coefficients",
        "degree equals delta",
        "leading coefficient",
        "a_{delta-1}",
    ]
    formula = report.checks[-1]
    assert formula["expected"] == "13" and formula["actual"] == "13"


def test_analyze_skips_formula_when_inapplicable():
    report = analyze(p2_degree(3), 1)
    assert report.all_pass()
    assert "a_{delta-1}" not in [c["name"] for c in report.checks]

    report = analyze(p2_degree(2), 0)
    assert report.all_pass()
    assert "a_{delta-1}" not in [c["name"] for c in report.checks]
