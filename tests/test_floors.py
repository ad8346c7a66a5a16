"""Floor-decomposition engine: diagram enumeration, markings, refined counts."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from refinedcount.floors import (
    FloorDiagram,
    UnsupportedDegreeError,
    _room,
    classify_family,
    compute_G_floor,
    enumerate_diagrams,
    markings_count,
    refined_multiplicity,
)
from refinedcount.geometry import (
    BalancedDegree,
    genus_max,
    p1xp1_degree,
    p2_degree,
    parse_degree,
)
from refinedcount.laurent import _ONE, RefinedPoly, quantum_integer
from oracles import (
    GETZLER,
    WELSCHINGER,
    floor_diagrams_brute,
    floor_sum_over_diagrams,
    kontsevich,
    markings_count_brute,
    markings_count_downset,
    poset_size,
    random_balanced_vectors,
)


def test_classify_family():
    assert classify_family(p2_degree(3)) == ("P2", 3)
    assert classify_family(p1xp1_degree(2, 3)) == ("P1xP1", (2, 3))
    assert classify_family(BalancedDegree([(2, 0), (0, 2), (-2, -2)])) is None
    assert classify_family(parse_degree("polygon:(0,0),(2,1),(0,2)")) is None


def _family_by_construction(deg):
    """The family whose constructor, fed the degree's own counts, rebuilds it."""
    c = Counter(deg.vectors)
    if c[(-1, 0)] and deg == p2_degree(c[(-1, 0)]):
        return ("P2", c[(-1, 0)])
    if c[(0, 1)] and c[(1, 0)] and deg == p1xp1_degree(c[(0, 1)], c[(1, 0)]):
        return ("P1xP1", (c[(0, 1)], c[(1, 0)]))
    return None


def test_classify_family_near_misses_and_drawn_degrees():
    # a family's vectors plus one more balanced line is no family
    p2_plus_line = BalancedDegree(p2_degree(2).vectors + ((1, 0), (-1, 0)))
    assert classify_family(p2_plus_line) is None
    quadric_plus_line = BalancedDegree(p1xp1_degree(2, 3).vectors + ((1, 1), (-1, -1)))
    assert classify_family(quadric_plus_line) is None
    rng = random.Random(20261018)
    hits = Counter()
    # unit coordinates hit both families often; coordinates up to 2 draw wider
    for coord, draws in ((1, 2000), (2, 1000)):
        for _ in range(draws):
            deg = BalancedDegree(random_balanced_vectors(rng, coord=coord))
            family = classify_family(deg)
            assert family == _family_by_construction(deg), deg
            hits[family and family[0]] += 1
    # the draws reach both families and plenty of other degrees
    assert min(hits["P2"], hits["P1xP1"]) >= 20 and hits[None] >= 2000, hits


def test_unsupported_degree_raises():
    skew = parse_degree("polygon:(0,0),(2,1),(0,2)")
    with pytest.raises(UnsupportedDegreeError):
        enumerate_diagrams(skew, 0)
    with pytest.raises(UnsupportedDegreeError):
        compute_G_floor(skew, 0)


def test_cubic_rational_diagrams():
    diagrams = enumerate_diagrams(p2_degree(3), 0)
    assert len(diagrams) == 3
    assert sorted(markings_count(D) for D in diagrams) == [1, 3, 5]
    for D in diagrams:
        assert D.genus() == 0
        assert D.family == "P2"
        assert D.n_floors == 3
    total = RefinedPoly.zero()
    for D in diagrams:
        total = total + refined_multiplicity(D) * markings_count(D)
    assert total == RefinedPoly({1: 1, 0: 10, -1: 1})


def test_enumeration_is_deterministic_and_sorted():
    for deg, g, count in (
        (p2_degree(4), 1, 13),
        (p2_degree(5), 4, 28),
        (p2_degree(5), 5, 7),
        (p2_degree(5), 6, 1),
        (p2_degree(6), 0, 1296),
        (p2_degree(6), 1, 3082),
        (p1xp1_degree(4, 5), 0, 3584),
        (p1xp1_degree(5, 4), 0, 1750),
    ):
        diagrams = enumerate_diagrams(deg, g)
        assert len(diagrams) == count
        keys = [(D.elevators, D.infinite_down, D.infinite_up) for D in diagrams]
        assert keys == sorted(keys)
        assert diagrams == enumerate_diagrams(deg, g)


def test_enumeration_matches_definition():
    # the listing and the sweep share one set of per-floor rules, so this
    # brute force from the definition is what checks them; the wider P1xP1
    # strips split 4 or 5 ends over their floors with slack left
    degrees = [p2_degree(d) for d in range(1, 5)]
    degrees += [p1xp1_degree(d, r) for d in range(1, 4) for r in range(1, 4)]
    degrees += [p1xp1_degree(4, 2), p1xp1_degree(5, 2), p1xp1_degree(2, 4)]
    for deg in degrees:
        for g in range(genus_max(deg) + 1):
            diagrams = enumerate_diagrams(deg, g)
            keys = [(D.elevators, D.infinite_down, D.infinite_up) for D in diagrams]
            assert keys == floor_diagrams_brute(deg, g), (deg, g)


def test_refined_multiplicity_is_square_of_elevator_weights():
    for D in enumerate_diagrams(p2_degree(4), 1):
        expected = RefinedPoly.one()
        for _, _, w in D.elevators:
            expected = expected * quantum_integer(w) ** 2
        assert refined_multiplicity(D) == expected


def test_exact_counts_projective_plane():
    assert compute_G_floor(p2_degree(3), 0) == RefinedPoly({1: 1, 0: 10, -1: 1})
    assert compute_G_floor(p2_degree(3), 1) == RefinedPoly.one()
    assert compute_G_floor(p2_degree(4), 2) == RefinedPoly({1: 3, 0: 21, -1: 3})
    assert compute_G_floor(p2_degree(4), 1) == RefinedPoly(
        {2: 3, 1: 33, 0: 153, -1: 33, -2: 3}
    )
    assert compute_G_floor(p2_degree(4), 0) == RefinedPoly(
        {3: 1, 2: 13, 1: 94, 0: 404, -1: 94, -2: 13, -3: 1}
    )


def test_exact_counts_quadric():
    assert compute_G_floor(p1xp1_degree(2, 2), 0) == RefinedPoly({1: 1, 0: 10, -1: 1})
    assert compute_G_floor(p1xp1_degree(2, 2), 1) == RefinedPoly.one()


def test_evaluations():
    g03 = compute_G_floor(p2_degree(3), 0)
    assert (g03.evaluate(1), g03.evaluate(-1)) == (12, 8)
    g04 = compute_G_floor(p2_degree(4), 0)
    assert (g04.evaluate(1), g04.evaluate(-1)) == (620, 240)
    assert compute_G_floor(p2_degree(5), 0).evaluate(1) == 87304
    assert compute_G_floor(p2_degree(5), 1).evaluate(1) == 87192


def test_rational_counts_match_kontsevich_and_welschinger():
    for d in range(1, 8):
        G = compute_G_floor(p2_degree(d), 0)
        assert (G.evaluate(1), G.evaluate(-1)) == (kontsevich(d), WELSCHINGER[d - 1])
    assert (kontsevich(7), WELSCHINGER[6]) == (14616808192, 792731520)


def test_elliptic_counts_match_getzler():
    for d in range(1, 8):
        assert compute_G_floor(p2_degree(d), 1).evaluate(1) == GETZLER[d - 1]
    assert GETZLER[6] == 60478511040


def test_sweep_matches_the_sum_over_diagrams():
    # every genus of the two families' small degrees and of the long strips
    # of height or width 2, against one markings count per listed diagram
    shapes = {(d, r) for d in range(1, 5) for r in range(1, 5)}
    shapes |= {s for r in range(1, 9) for s in ((2, r), (r, 2))}
    degrees = [p2_degree(d) for d in range(1, 7)] + [p1xp1_degree(*s) for s in sorted(shapes)]
    checked = 0
    for deg in degrees:
        for g in range(genus_max(deg) + 1):
            assert compute_G_floor(deg, g) == floor_sum_over_diagrams(deg, g), (deg, g)
            checked += 1
    assert checked == 130
    assert _ONE == {0: 1}  # the sweep adds only into dicts it made


def test_genus_prune_room():
    # P2(7): floor u starts at most 7 - u elevators, floor 7 none
    assert _room(7, 7, 1) == [21, 15, 10, 6, 3, 1, 0, 0]
    assert _room(3, 2, 0) == [4, 2, 0, 0]
    assert _room(1, 5, 0) == [0, 0]
    # the top genus of P2(d) fills every gap to its cap: one diagram
    for d in (6, 7):
        deg = p2_degree(d)
        assert genus_max(deg) + d - 1 == _room(d, d, 1)[0]
        (D,) = enumerate_diagrams(deg, genus_max(deg))
        assert markings_count(D) == 1
        assert compute_G_floor(deg, genus_max(deg)) == RefinedPoly.one()


def test_degenerate_and_top_genus():
    # P1xP1(1, 1000) has a thousand floors, more than the interpreter's
    # recursion limit would allow frames: the floors are grown in a loop
    for deg in (p2_degree(1), p2_degree(2), p1xp1_degree(1, 1), p1xp1_degree(1, 1000)):
        assert len(enumerate_diagrams(deg, 0)) == 1
        assert compute_G_floor(deg, 0) == RefinedPoly.one()
    for deg in (p2_degree(3), p2_degree(4), p1xp1_degree(2, 2)):
        gmax = genus_max(deg)
        assert compute_G_floor(deg, gmax) == RefinedPoly.one()
        assert compute_G_floor(deg, gmax + 1) == RefinedPoly.zero()
        assert enumerate_diagrams(deg, gmax + 1) == []
    for floor_call in (compute_G_floor, enumerate_diagrams):
        with pytest.raises(ValueError, match="genus -1 is negative"):
            floor_call(p2_degree(3), -1)


def test_genus_is_elevator_surplus():
    for g in (0, 1, 2):
        for D in enumerate_diagrams(p1xp1_degree(2, 2), g):
            assert D.genus() == g
            assert markings_count(D) >= 1


def test_markings_count_matches_brute_force():
    checked = 0
    for deg in (
        p2_degree(2), p2_degree(3), p1xp1_degree(1, 2), p1xp1_degree(2, 2),
        p1xp1_degree(2, 3), p1xp1_degree(3, 2),
    ):
        for g in range(genus_max(deg) + 1):
            for D in enumerate_diagrams(deg, g):
                if poset_size(D) <= 9:
                    assert markings_count(D) == markings_count_brute(D)
                    checked += 1
    assert checked >= 10


def test_markings_count_matches_downset_reference():
    # 17-element posets, with upward ends on several floors and parallel
    # equal elevators: past brute force, within the downset DP's reach
    checked = 0
    for deg, g_top in ((p2_degree(5), 6), (p1xp1_degree(3, 4), 2), (p1xp1_degree(4, 3), 2)):
        for g in range(g_top + 1):
            for D in enumerate_diagrams(deg, g):
                assert markings_count(D) == markings_count_downset(D), D
                checked += 1
    assert checked == 1377


def test_diagram_json_obj():
    D = enumerate_diagrams(p2_degree(2), 0)[0]
    obj = D.to_json_obj()
    assert obj["family"] == "P2"
    assert obj["floors"] == 2
    assert all(set(e) == {"lower", "upper", "weight"} for e in obj["elevators"])
    assert len(obj["infinite_down"]) == 2
