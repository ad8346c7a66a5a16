"""Acceptance gate: every release criterion, one test (and pass line) each.

Run with -v to get one PASSED/FAILED line per criterion; with -s each
criterion additionally prints an ``ACCEPTANCE n <label>: PASS`` line.
"""

import random
from collections import Counter
from math import comb
from time import perf_counter

import pytest

from refinedcount.analysis import a_delta_minus_1_formula, canonical_spec
from refinedcount.curves import (
    CurveCombinatorics,
    VertexStar,
    curve_multiplicities,
    property_report,
    vertex_interior_points,
)
from refinedcount.floors import (
    compute_G_floor,
    enumerate_diagrams,
    markings_count,
    refined_multiplicity,
)
from refinedcount.geometry import (
    BalancedDegree,
    HTransverseShape,
    delta_invariant,
    dual_polygon,
    genus_max,
    h_transverse,
    p1xp1_degree,
    p2_degree,
    parse_degree,
    pi_count,
)
from refinedcount.laurent import RefinedPoly, quantum_integer
from refinedcount.paths import all_orders, compute_G_path
from oracles import (
    WELSCHINGER,
    cyclic_orders_brute,
    kontsevich,
    markings_count_brute,
    poset_size,
    random_balanced_vectors,
    triangle_interior_brute,
)
from test_curves import DATA_DIR, FIXTURES


def _pass(n: int, label: str) -> None:
    print(f"ACCEPTANCE {n} {label}: PASS")


REFERENCE_POLYS = {
    ("P2:d=1", 0): RefinedPoly.one(),
    ("P2:d=2", 0): RefinedPoly.one(),
    ("P2:d=3", 0): RefinedPoly({1: 1, 0: 10, -1: 1}),
    ("P2:d=3", 1): RefinedPoly.one(),
    ("P2:d=4", 2): RefinedPoly({1: 3, 0: 21, -1: 3}),
    ("P2:d=4", 1): RefinedPoly({2: 3, 1: 33, 0: 153, -1: 33, -2: 3}),
    ("P2:d=4", 0): RefinedPoly(
        {3: 1, 2: 13, 1: 94, 0: 404, -1: 94, -2: 13, -3: 1}
    ),
    ("P1xP1:d=2,r=2", 0): RefinedPoly({1: 1, 0: 10, -1: 1}),
}


def test_criterion_1_exact_polynomials_from_both_engines():
    for (spec, g), expected in REFERENCE_POLYS.items():
        deg = parse_degree(spec)
        t0 = perf_counter()
        from_floors = compute_G_floor(deg, g)
        floor_elapsed = perf_counter() - t0
        t0 = perf_counter()
        from_paths = compute_G_path(deg, g)
        path_elapsed = perf_counter() - t0
        assert from_floors == expected, (spec, g, str(from_floors))
        assert from_paths == expected, (spec, g, str(from_paths))
        assert floor_elapsed < 1.0, (spec, g, floor_elapsed)
        assert path_elapsed < 1.0, (spec, g, path_elapsed)
    _pass(1, "exact polynomial reproduction, both engines < 1 s each")


def test_criterion_2_floor_diagram_census_quartic_genus_1():
    diagrams = enumerate_diagrams(p2_degree(4), 1)
    assert len(diagrams) == 13

    q2, q3 = quantum_integer(2), quantum_integer(3)
    nu_by_class: dict[str, int] = {}
    for D in diagrams:
        key = str(refined_multiplicity(D))
        nu_by_class[key] = nu_by_class.get(key, 0) + markings_count(D)
    assert nu_by_class == {
        "1": 92,
        str(q2 ** 2): 23,
        str(q2 ** 4): 2,
        str(q3 ** 2): 1,
    }

    total = (
        RefinedPoly.constant(92)
        + q2 ** 2 * 23
        + q2 ** 4 * 2
        + q3 ** 2
    )
    assert total == REFERENCE_POLYS[("P2:d=4", 1)]
    assert total == compute_G_floor(p2_degree(4), 1)
    _pass(2, "quartic genus-1 census: 13 diagrams, 92/23/2/1 identity")


def test_criterion_3_evaluations():
    g_cubic = compute_G_path(p2_degree(3), 0)
    assert (g_cubic.evaluate(1), g_cubic.evaluate(-1)) == (12, 8)
    g_quartic = compute_G_path(p2_degree(4), 0)
    assert (g_quartic.evaluate(1), g_quartic.evaluate(-1)) == (620, 240)
    assert compute_G_path(p2_degree(4), 1).evaluate(1) == 225
    assert compute_G_path(p2_degree(4), 2).evaluate(1) == 27
    _pass(3, "evaluations (12,8), (620,240), 225, 27")


def _battery_cases() -> list[tuple[BalancedDegree, int]]:
    cases = []
    for d in range(1, 6):
        for g in range((d - 1) * (d - 2) // 2 + 1):
            cases.append((p2_degree(d), g))
    for d in range(1, 4):
        for r in range(1, 4):
            deg = p1xp1_degree(d, r)
            for g in range(min(2, genus_max(deg)) + 1):
                cases.append((deg, g))
    return cases


@pytest.fixture(scope="module")
def theorem_battery():
    """All criterion-4 counts: floor reference + 8 path orders per case."""
    t0 = perf_counter()
    results: dict[tuple[str, int], RefinedPoly] = {}
    mismatches: list[str] = []
    for deg, g in _battery_cases():
        reference = compute_G_floor(deg, g)
        for lam in all_orders():
            if compute_G_path(deg, g, lam) != reference:
                mismatches.append(f"{canonical_spec(deg)} g={g} {lam.spec()}")
        results[(canonical_spec(deg), g)] = reference
    elapsed = perf_counter() - t0
    return results, mismatches, elapsed


def test_criterion_4_order_invariance_and_engine_agreement(theorem_battery):
    results, mismatches, elapsed = theorem_battery
    assert mismatches == []
    assert len(results) == 31
    assert elapsed < 60.0, f"battery took {elapsed:.1f}s"
    _pass(4, f"8 orders x 2 engines agree on 31 counts in {elapsed:.1f}s")


def test_criterion_5_structural_laws_on_battery(theorem_battery):
    results, _, _ = theorem_battery
    for (spec, g), G in results.items():
        deg = parse_degree(spec)
        delta = delta_invariant(g, deg)
        assert G.is_symmetric(), (spec, g)
        assert all(v > 0 for _, v in G.half_unit_items()), (spec, g)
        assert G.degree() == delta, (spec, g)
        assert pi_count(deg) == 1
        assert G.coefficient(delta) == comb(g + int(delta), g), (spec, g)
    _pass(5, "palindromic / positive / degree / leading laws on all 31 counts")


def test_criterion_6_second_coefficient_law(theorem_battery):
    results, _, _ = theorem_battery
    for d in (3, 4, 5):
        G = results[(f"P2:d={d}", 0)]
        delta = delta_invariant(0, p2_degree(d))
        assert G.coefficient(delta - 1) == 3 * d + 1, d
        shape = h_transverse(dual_polygon(p2_degree(d)))
        assert a_delta_minus_1_formula(shape) == 3 * d + 1
    for d in (2, 3):
        for r in (2, 3):
            G = results[(f"P1xP1:d={d},r={r}", 0)]
            delta = delta_invariant(0, p1xp1_degree(d, r))
            assert G.coefficient(delta - 1) == 2 * d + 2 * r + 2, (d, r)
            shape = h_transverse(dual_polygon(p1xp1_degree(d, r)))
            assert a_delta_minus_1_formula(shape) == 2 * d + 2 * r + 2

    irregular = (
        HTransverseShape(0, 2, (1, 0), (2, 1)),
        HTransverseShape(2, 0, (2, 1), (1, 0)),
    )
    for shape in irregular:
        deg = shape.degree()
        delta = delta_invariant(0, deg)
        G = compute_G_path(deg, 0)
        assert G.coefficient(delta - 1) == a_delta_minus_1_formula(shape) == 8
    _pass(6, "a_{delta-1} = 3d+1 / 2d+2r+2 / formula on irregular shapes")


def test_criterion_7_oracle_suites():
    # Markings count: downset DP vs brute-force linear-extension enumeration.
    nu_checked = 0
    sweep = [p2_degree(d) for d in (2, 3, 4)]
    sweep += [p1xp1_degree(d, r) for d in (1, 2) for r in (1, 2)]
    sweep += [p1xp1_degree(2, 3), p1xp1_degree(3, 2)]
    for deg in sweep:
        for g in range(genus_max(deg) + 1):
            for D in enumerate_diagrams(deg, g):
                if poset_size(D) <= 9:
                    assert markings_count(D) == markings_count_brute(D), D
                    nu_checked += 1
    assert nu_checked >= 10

    # Interior points: Pick's identity vs brute-force triangle scan, all
    # vertex stars with coordinates bounded by 6.
    pick_checked = 0
    rng6 = range(-6, 7)
    for x1 in rng6:
        for y1 in rng6:
            if (x1, y1) == (0, 0):
                continue
            for x2 in rng6:
                for y2 in rng6:
                    if (x2, y2) == (0, 0) or x1 * y2 - y1 * x2 == 0:
                        continue
                    u3 = (-x1 - x2, -y1 - y2)
                    if u3 == (0, 0):
                        continue
                    star = VertexStar((x1, y1), (x2, y2), u3)
                    assert vertex_interior_points(star) == triangle_interior_brute(
                        (x1, y1), (x2, y2)
                    ), star
                    pick_checked += 1
    assert pick_checked > 25000

    # Cyclic orders: multinomial formula vs brute-force enumeration.
    rng = random.Random(20260815)
    for _ in range(50):
        vectors = random_balanced_vectors(rng)
        assert pi_count(BalancedDegree(Counter(vectors))) == cyclic_orders_brute(vectors), (
            vectors
        )

    # The rational-count oracles at their published values for d = 7.
    assert (kontsevich(7), WELSCHINGER[6]) == (14616808192, 792731520)
    _pass(7, f"oracles: {nu_checked} markings, {pick_checked} stars, 50 degrees")


FIVE_PROPERTIES = (
    "symmetric",
    "positive_coefficients",
    "eval_at_1_is_mu_complex",
    "integer_powers_iff_even_count_of_even_ends",
    "eval_at_-1_is_mu_real",
)


def test_criterion_8_five_property_report_on_corpus():
    assert len(FIXTURES) == 20
    for path in FIXTURES:
        curve = CurveCombinatorics.from_json(path.read_text())
        report = {c.name: c for c in property_report(curve)}
        for name in FIVE_PROPERTIES:
            check = report[name]
            if check.applicable:
                assert check.passed is True, (path.name, name, check.detail)

    # The two distribution witnesses: both decompositions of the rational
    # cubic count must sum to the same reference polynomial.
    reference = compute_G_floor(p2_degree(3), 0)
    w2 = curve_multiplicities(
        CurveCombinatorics.from_json((DATA_DIR / "delta3_weight2_edge.json").read_text())
    ).refined
    m3 = curve_multiplicities(
        CurveCombinatorics.from_json((DATA_DIR / "delta3_vertex_mult3.json").read_text())
    ).refined
    assert w2 == quantum_integer(2) ** 2
    assert m3 == quantum_integer(3)
    assert RefinedPoly.constant(8) + w2 == reference
    assert RefinedPoly.constant(9) + m3 == reference
    _pass(8, "five-property report on 20 curves incl. both cubic witnesses")
