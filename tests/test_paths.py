"""Lattice-path engine: orders, enumeration, side and joint multiplicities."""

from functools import lru_cache
from math import comb

import pytest

from refinedcount.floors import compute_G_floor
from refinedcount.geometry import (
    BalancedDegree,
    LatticePolygon,
    UnsupportedDegreeError,
    delta_invariant,
    dual_polygon,
    genus_max,
    p1xp1_degree,
    p2_degree,
    parse_degree,
)
from refinedcount import paths
from refinedcount.laurent import RefinedPoly
from refinedcount.paths import (
    DEFAULT_ORDER,
    MINUS,
    PLUS,
    LambdaOrder,
    PathEngine,
    all_orders,
    compute_G_path,
    get_engine,
)
from oracles import WELSCHINGER, kontsevich, mu_whole_path, node_polynomial_1, node_polynomial_2


def test_lambda_orders():
    assert DEFAULT_ORDER.spec() == "lex:+x,+y"
    orders = all_orders()
    assert len(orders) == 8
    assert len({o.spec() for o in orders}) == 8
    for o in orders:
        assert LambdaOrder.parse(o.spec()) == o
    assert LambdaOrder.parse("lex:-y,+x") == LambdaOrder("y", -1, 1)


def test_lambda_order_rejects_bad_specs():
    for bad in ("", "lex:", "lex:+x", "deg:+x,+y", "lex:x,y", "lex:+x,+y,+x"):
        with pytest.raises(ValueError, match="^unrecognised lambda order"):
            LambdaOrder.parse(bad)
    # two signed parts, but not the axes x and y
    for bad in ("lex:+x,+x", "lex:+z,+y", "lex:+x ,+y", "lex:+,+y", "lex:++x,+y", "lex:+x\n,+y"):
        with pytest.raises(ValueError, match="^lambda order must use both axes"):
            LambdaOrder.parse(bad)
    assert LambdaOrder.parse(" lex:+x,+y ") == DEFAULT_ORDER
    with pytest.raises(ValueError):
        LambdaOrder("z", 1, 1)


def test_lambda_key_orders_points():
    pts = [(1, 0), (0, 1), (0, 0), (1, 1)]
    assert sorted(pts, key=LambdaOrder.parse("lex:+x,+y").key) == [
        (0, 0), (0, 1), (1, 0), (1, 1)]
    assert sorted(pts, key=LambdaOrder.parse("lex:-y,-x").key) == [
        (1, 1), (0, 1), (1, 0), (0, 0)]


def _mu(engine, ids, side):
    """A path's classical side multiplicity, from the tuple path_id_tuples yields."""
    return RefinedPoly.from_half_units(engine.mu_ids(bytes(ids), side))


def test_unit_triangle_single_path():
    engine = get_engine(dual_polygon(p2_degree(1)), DEFAULT_ORDER)
    paths = list(engine.path_id_tuples(0, engine.kappa))
    assert [[engine.points[i] for i in ids] for ids in paths] == [[(0, 0), (0, 1), (1, 0)]]
    assert _mu(engine, paths[0], PLUS) == 1
    assert _mu(engine, paths[0], MINUS) == 1
    assert RefinedPoly.from_half_units(engine.path_multiplicity(paths[0], 0)) == 1


def test_cubic_path_counts():
    engine = get_engine(dual_polygon(p2_degree(3)), DEFAULT_ORDER)
    rational = list(engine.path_id_tuples(0, engine.kappa))
    assert len(rational) == 8
    assert all(len(ids) == 9 for ids in rational)
    elliptic = list(engine.path_id_tuples(1, engine.kappa))
    assert len(elliptic) == 1
    assert len(elliptic[0]) == 10
    with pytest.raises(ValueError):
        list(engine.path_id_tuples(2, engine.kappa))


def test_cubic_classical_side_multiplicities():
    engine = get_engine(dual_polygon(p2_degree(3)), DEFAULT_ORDER)
    total = 0
    for ids in engine.path_id_tuples(0, engine.kappa):
        total += _mu(engine, ids, PLUS).evaluate(1) * _mu(engine, ids, MINUS).evaluate(1)
    assert total == 12

    (elliptic,) = engine.path_id_tuples(1, engine.kappa)
    assert _mu(engine, elliptic, PLUS) == 1
    assert _mu(engine, elliptic, MINUS) == 1
    # a path off the selective side's live level weighs nothing
    assert engine.path_multiplicity((0, 9), 0) == {}


def test_exact_counts_match_reference_values():
    assert compute_G_path(p2_degree(3), 0) == RefinedPoly({1: 1, 0: 10, -1: 1})
    assert compute_G_path(p2_degree(3), 1) == RefinedPoly.one()
    assert compute_G_path(p2_degree(4), 2) == RefinedPoly({1: 3, 0: 21, -1: 3})
    assert compute_G_path(p2_degree(4), 1) == RefinedPoly(
        {2: 3, 1: 33, 0: 153, -1: 33, -2: 3}
    )
    assert compute_G_path(p2_degree(4), 0) == RefinedPoly(
        {3: 1, 2: 13, 1: 94, 0: 404, -1: 94, -2: 13, -3: 1}
    )
    assert compute_G_path(p1xp1_degree(2, 2), 0) == RefinedPoly({1: 1, 0: 10, -1: 1})


def test_path_engine_agrees_with_floor_engine():
    for deg in (p2_degree(3), p1xp1_degree(2, 2)):
        for g in range(genus_max(deg) + 1):
            assert compute_G_path(deg, g) == compute_G_floor(deg, g)


def test_rational_counts_match_kontsevich_and_welschinger():
    for d in range(1, 6):
        G = compute_G_path(p2_degree(d), 0)
        assert (G.evaluate(1), G.evaluate(-1)) == (kontsevich(d), WELSCHINGER[d - 1])


def test_lambda_invariance_small():
    reference = compute_G_path(p2_degree(3), 0)
    for lam in all_orders():
        assert compute_G_path(p2_degree(3), 0, lam) == reference


def test_per_path_joint_multiplicities_are_structured():
    deg = p2_degree(4)
    poly = dual_polygon(deg)
    engine = get_engine(poly, DEFAULT_ORDER)
    delta = delta_invariant(1, deg)
    seen_nonzero = 0
    for ids in engine.path_id_tuples(1, engine.kappa):
        joint = RefinedPoly.from_half_units(engine.path_multiplicity(ids, 1))
        if not joint:
            continue
        seen_nonzero += 1
        assert joint.is_symmetric()
        assert all(v > 0 for _, v in joint.half_unit_items())
        assert joint.degree() <= delta
    assert seen_nonzero >= 3


def test_nonprimitive_degree_rejected():
    deg = BalancedDegree([(2, 0), (0, 2), (-2, -2)])
    with pytest.raises(UnsupportedDegreeError, match="requires primitive degree"):
        compute_G_path(deg, 0)


def test_repeat_counts_are_served_by_the_engine(monkeypatch):
    deg = p2_degree(4)
    genera = range(genus_max(deg) + 1)
    engine = get_engine(dual_polygon(deg), DEFAULT_ORDER)

    def one_round():
        return [compute_G_path(deg, g) for g in genera]

    def sizes():
        # entries summed over the two sides' memos: each table has one per side
        return (sum(map(len, engine._memo.values())), sum(map(len, engine._profiles.values())),
                len(engine._curve_memo))

    first = one_round()
    before = sizes()

    def recount(*args):
        raise AssertionError("a repeat count ran the engine again")

    # repeat counts read G back from the engine
    monkeypatch.setattr(PathEngine, "path_multiplicity", recount)
    monkeypatch.setattr(PathEngine, "mu_ids", recount)
    for _ in range(2):
        assert one_round() == first
        assert sizes() == before


def test_path_memos_are_compact():
    def entries(engine):
        # every key of both tables is a path id, every dead entry the shared dict
        for table in (engine._memo, engine._profiles):
            for memo in table.values():
                assert all(type(ids) is bytes for ids in memo)
                assert all(value is paths._DEAD for value in memo.values() if not value)
        # a mu key is an arc-to-arc piece: it starts and ends on its side's
        # arc, and no inner rank lies on it
        for side, memo in engine._memo.items():
            arc = set(engine._arcs[side])
            for piece in memo:
                assert len(piece) > 2 and piece[0] in arc and piece[-1] in arc
                assert not arc.intersection(piece[1:-1])
        # (entries, empty entries) of each side's mu memo
        return {side: (len(memo), sum(not mu for mu in memo.values()))
                for side, memo in engine._memo.items()}

    # every piece the recursion visits is one entry, so these counts pin the recursion
    engine = PathEngine(dual_polygon(p2_degree(5)), LambdaOrder.parse("lex:+x,+y"))
    engine.count(0)
    engine.count(1)
    assert entries(engine) == {MINUS: (2095, 755), PLUS: (991, 289)}
    engine = PathEngine(dual_polygon(p2_degree(4)), DEFAULT_ORDER)
    for g in range(genus_max(p2_degree(4)) + 1):
        engine.count(g)
        for ids in engine.path_id_tuples(g, engine.kappa):
            engine.path_multiplicity(ids, g)  # fills the profile memos too
    assert any(engine._profiles.values())
    assert entries(engine) == {MINUS: (138, 48), PLUS: (75, 19)}
    assert paths._DEAD == {}


# the last four polygons are not h-transverse
@pytest.mark.parametrize("spec", ["P2:d=1", "P2:d=2", "P2:d=3", "P2:d=4", "P1xP1:d=2,r=3",
                                  "P1xP1:d=3,r=2", "P1xP1:d=3,r=3", "polygon:(0,0),(3,1),(1,3)",
                                  "polygon:(0,0),(2,0),(3,1),(3,2),(1,3),(0,1)",
                                  "polygon:(0,0),(3,1),(4,3),(1,2)", "polygon:(0,0),(4,1),(2,3)"])
def test_factored_mu_equals_the_whole_path_recursion(spec):
    deg = parse_degree(spec)
    poly = dual_polygon(deg)
    for lam in all_orders():
        engine = PathEngine(poly, lam)
        for side in (MINUS, PLUS):
            reference = mu_whole_path(poly, lam, side == PLUS)
            for g in range(genus_max(deg) + 1):
                for ids in engine.path_id_tuples(g, deg.kappa):
                    mu = engine.mu_ids(bytes(ids), side)
                    assert RefinedPoly.from_half_units(mu) == reference(ids)


def test_path_id_tuples_rejects_impossible_genus():
    engine = PathEngine(dual_polygon(p2_degree(3)), DEFAULT_ORDER)
    with pytest.raises(ValueError, match="genus 2 exceeds the interior point count 1"):
        list(engine.path_id_tuples(2, 9))
    with pytest.raises(ValueError, match="genus -1 is negative"):
        list(engine.path_id_tuples(-1, 9))


@pytest.mark.parametrize("lam", ["lex:+x,+y", "lex:+x,-y"])
def test_side_profiles_partition_the_classical_multiplicity(lam):
    # the two orders make opposite sides the mostly dead one
    p2, quadric = p2_degree(4), p1xp1_degree(3, 3)
    cases = [(p2, g) for g in range(genus_max(p2) + 1)] + [(quadric, g) for g in range(3)]
    for deg, g in cases:
        engine = PathEngine(dual_polygon(deg), LambdaOrder.parse(lam))
        for ids in map(bytes, engine.path_id_tuples(g, deg.kappa)):
            for side in (MINUS, PLUS):
                mu = engine.mu_ids(ids, side)
                profiles = engine.side_profiles(ids, side)
                # a side is dead exactly when it has no profile
                assert (profiles == {}) == (mu == {})
                total: dict[int, int] = {}
                for links, weight in profiles.items():
                    assert type(links) is bytes and len(links) == len(ids) - 1
                    # 0 is an unbounded end, c >= 1 a triangle in component c,
                    # numbered from 1 by first appearance
                    assert all(0 <= link < len(links) + 1 for link in links)
                    firsts = [c for i, c in enumerate(links) if c and c not in links[:i]]
                    assert firsts == list(range(1, len(firsts) + 1))
                    for e, v in weight.items():
                        total[e] = total.get(e, 0) + v
                assert total == mu


@pytest.mark.parametrize("spec", ["P2:d=1", "P2:d=2", "P2:d=3", "P2:d=4", "P1xP1:d=2,r=3",
                                  "P1xP1:d=3,r=2", "P1xP1:d=3,r=3"])
def test_backward_live_paths_equal_the_forward_ones(spec):
    deg = parse_degree(spec)
    for lam in all_orders():
        engine = PathEngine(dual_polygon(deg), lam)
        selective = engine._selective
        other = MINUS if selective == PLUS else PLUS
        for g in range(genus_max(deg) + 1):
            tuples = list(map(bytes, engine.path_id_tuples(g, deg.kappa)))
            live = {}
            for side in (MINUS, PLUS):
                live[side] = sorted(engine._level(side, deg.kappa + g))
                assert live[side] == [ids for ids in tuples if engine.mu_ids(ids, side)]
            # the longer arc's side is never the larger live set
            assert len(live[selective]) <= len(live[other])
            # every tuple off the live sets has no multiplicity, and the live
            # pairs alone give the count
            both = set(live[MINUS]) & set(live[PLUS])
            total: dict[int, int] = {}
            for ids in tuples:
                joint = engine.path_multiplicity(ids, g)
                assert ids in both or joint == {}
                for e, v in joint.items():
                    total[e] = total.get(e, 0) + v
            assert RefinedPoly.from_half_units(total) == compute_G_path(deg, g, lam)


def test_engine_refuses_a_polygon_whose_labels_would_not_fit_a_byte():
    # a profile has a byte per path edge, so at most 255 component labels
    assert len(PathEngine(dual_polygon(p2_degree(21)), DEFAULT_ORDER).points) == 253
    assert len(PathEngine(dual_polygon(p1xp1_degree(15, 15)), DEFAULT_ORDER).points) == 256
    with pytest.raises(UnsupportedDegreeError, match="at most 256 lattice points .* got 276"):
        PathEngine(dual_polygon(p2_degree(22)), DEFAULT_ORDER)
    with pytest.raises(UnsupportedDegreeError):
        compute_G_path(p2_degree(22), 0)


def test_engine_gate_reads_picks_counts_before_listing_points(monkeypatch):
    def listing(self):
        raise AssertionError("lattice points listed before the size gate")

    monkeypatch.setattr(LatticePolygon, "lattice_points", listing)
    for d, n_points in ((22, 276), (3000, 4504501)):
        with pytest.raises(UnsupportedDegreeError, match=f"at most 256 lattice points .* got {n_points}$"):
            PathEngine(dual_polygon(p2_degree(d)), DEFAULT_ORDER)


def test_selective_side_has_the_longer_arc():
    for lam in all_orders():
        engine = PathEngine(dual_polygon(p2_degree(5)), lam)
        arcs = {side: len(engine._arcs[side]) for side in (MINUS, PLUS)}
        assert sorted(arcs.values()) == [6, 11]
        assert arcs[engine._selective] == 11
    square = PathEngine(dual_polygon(p1xp1_degree(3, 3)), DEFAULT_ORDER)
    assert len(square._arcs[PLUS]) == len(square._arcs[MINUS])
    assert square._selective == PLUS  # ties go to plus


def test_counts_never_walk_every_path_tuple(monkeypatch):
    def reference(*args):
        raise AssertionError("the per-path reference ran on the count path")

    # a count sums mu_plus * mu_minus over live paths: it neither walks every
    # tuple nor builds side profiles to splice them
    for name in ("path_id_tuples", "side_profiles", "path_multiplicity"):
        monkeypatch.setattr(PathEngine, name, reference)
    # fresh engines, so earlier tests' cached counts cannot hide a walk
    monkeypatch.setattr(paths, "get_engine", PathEngine)
    deg = p2_degree(4)
    lam = LambdaOrder.parse("lex:-y,+x")
    assert compute_G_path(deg, 1, lam) == compute_G_floor(deg, 1)


def test_genus_above_genus_max_counts_zero():
    for deg in (p2_degree(3), p2_degree(4), p1xp1_degree(2, 2)):
        gmax = genus_max(deg)
        for lam in all_orders():
            assert compute_G_path(deg, gmax, lam) == RefinedPoly.one()
            assert compute_G_path(deg, gmax + 1, lam) == RefinedPoly.zero()
            assert compute_G_path(deg, gmax + 5, lam) == RefinedPoly.zero()
    with pytest.raises(ValueError, match="genus -1 is negative"):
        compute_G_path(p2_degree(3), -1)


def test_quintic_rational_count_agrees_in_every_order():
    deg = p2_degree(5)
    reference = compute_G_floor(deg, 0)
    for lam in all_orders():
        assert compute_G_path(deg, 0, lam) == reference


def _severi(deg: BalancedDegree, g: int, lam: LambdaOrder = DEFAULT_ORDER) -> RefinedPoly:
    """The raw sum of mu_plus * mu_minus over the paths: reducible curves too."""
    return RefinedPoly.from_half_units(paths.get_engine(dual_polygon(deg), lam)._severi(g))


@pytest.fixture
def fresh_engines(monkeypatch):
    """Engines cached for one test only, so a sextic's memos are freed after it."""
    monkeypatch.setattr(paths, "get_engine", lru_cache(maxsize=None)(PathEngine))


def test_raw_severi_sums_match_the_node_polynomials(fresh_engines):
    # one and two nodes: genus g_max - 1 and g_max - 2, possibly reducible
    for d in range(3, 7):
        assert _severi(p2_degree(d), genus_max(p2_degree(d)) - 1).evaluate(1) == node_polynomial_1(d)
    for d in range(4, 7):
        assert _severi(p2_degree(d), genus_max(p2_degree(d)) - 2).evaluate(1) == node_polynomial_2(d)
    assert [node_polynomial_1(d) for d in range(3, 7)] == [12, 27, 48, 75]
    assert [node_polynomial_2(d) for d in range(4, 7)] == [225, 882, 2370]


def test_reducible_correction_is_pinned():
    for lam in all_orders():
        # a genus-1 cubic and a line: the line's 2 points out of the 11
        deg = p2_degree(4)
        assert _severi(deg, 0, lam) - compute_G_path(deg, 0, lam) == RefinedPoly.constant(comb(11, 2))
        for deg, g in ((p2_degree(3), 0), (p1xp1_degree(2, 2), 0), (p1xp1_degree(2, 2), 1)):
            assert _severi(deg, g, lam) == compute_G_path(deg, g, lam)


def test_only_single_lines_are_one_dimensional_components():
    # two parallel ends each way make no irreducible curve: on P1xP1(4,3) a
    # double line beside a (2,3) curve would add to g = 0 and 1
    deg = p1xp1_degree(4, 3)
    for g in (0, 1):
        assert compute_G_path(deg, g) == compute_G_floor(deg, g)
    engine = get_engine(dual_polygon(deg), DEFAULT_ORDER)
    assert engine._vectors == ((-1, 0), (0, -1), (0, 1), (1, 0))
    lines = [(sub, size) for sub, size, part in engine._components() if part is None]
    assert lines == [((0, 1, 1, 0), 2), ((1, 0, 0, 1), 2)]


def test_sextic_rational_count_agrees_with_floor(fresh_engines):
    deg = p2_degree(6)
    G = compute_G_path(deg, 0, LambdaOrder.parse("lex:+x,+y"))
    assert G == compute_G_floor(deg, 0)
    assert (G.evaluate(1), G.evaluate(-1)) == (kontsevich(6), WELSCHINGER[5]) == (26312976, 2845440)
