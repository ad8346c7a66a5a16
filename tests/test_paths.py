"""Lattice-path engine: orders, enumeration, side and joint multiplicities."""

import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from functools import lru_cache
from math import comb, gcd
from pathlib import Path

import pytest

from refinedcount.floors import compute_G_floor
from refinedcount.geometry import (
    BalancedDegree,
    LatticePolygon,
    PolygonError,
    UnsupportedDegreeError,
    degree_from_polygon,
    delta_invariant,
    dual_polygon,
    genus_max,
    h_transverse,
    p1xp1_degree,
    p2_degree,
    parse_degree,
    pi_count,
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
from oracles import (WELSCHINGER, gp_blowup, kontsevich, mu_whole_path, node_polynomial_1,
                     node_polynomial_2, node_polynomial_3, one_nodal_severi, three_nodal_severi,
                     two_nodal_severi)


def test_lambda_orders():
    assert DEFAULT_ORDER.spec() == "lex:+x,+y"
    orders = all_orders()
    assert len(orders) == 8
    assert len({o.spec() for o in orders}) == 8
    for o in orders:
        assert LambdaOrder.parse(o.spec()) == o
    # the sequence is part of the contract: seeded tests sample from it
    assert [o.spec() for o in orders] == [
        "lex:+x,+y", "lex:+x,-y", "lex:-x,+y", "lex:-x,-y",
        "lex:+y,+x", "lex:+y,-x", "lex:-y,+x", "lex:-y,-x"]
    assert LambdaOrder.parse("lex:-y,+x") == LambdaOrder((0, -1), (1, 0))


def test_lambda_order_rejects_bad_specs():
    for bad in ("", "lex:", "lex:+x", "deg:+x,+y", "lex:x,y", "lex:+x,+y,+x"):
        with pytest.raises(ValueError, match="^unrecognised lambda order"):
            LambdaOrder.parse(bad)
    # two signed parts, but not the axes x and y
    for bad in ("lex:+x,+x", "lex:+z,+y", "lex:+x ,+y", "lex:+,+y", "lex:++x,+y", "lex:+x\n,+y"):
        with pytest.raises(ValueError, match="^lambda order must use both axes"):
            LambdaOrder.parse(bad)
    assert LambdaOrder.parse(" lex:+x,+y ") == DEFAULT_ORDER
    # each functional a signed axis, the two on different axes
    for first, then in (((0, 1), (0, 1)), ((1, 0), (2, 0)), ((1, 0), (-1, 0)), ((1, 1), (0, 1))):
        with pytest.raises(ValueError, match="^invalid lambda order"):
            LambdaOrder(first, then)


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
    deg = BalancedDegree(Counter([(2, 0), (0, 2), (-2, -2)]))
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

    def packed(engine):
        # each live level, then the pending seeds one point longer: the
        # strictly increasing ids of one path length, joined in one bytes
        sizes = []
        shortest = len(engine._arcs[engine._selective])
        for n, level in enumerate([*engine._levels, engine._seeds], shortest):
            assert type(level) is bytes and len(level) % n == 0
            records = [level[k:k + n] for k in range(0, len(level), n)]
            assert all(a < b for a, b in zip(records, records[1:]))
            sizes.append(len(records))
        return sizes

    def shared(engine):
        # (distinct objects, distinct values) among each side's live mu entries
        return {side: (len({id(mu) for mu in memo.values() if mu}),
                       len({frozenset(mu.items()) for mu in memo.values() if mu}))
                for side, memo in engine._memo.items()}

    # every piece the recursion visits is one entry, so these counts pin the recursion
    engine = PathEngine(dual_polygon(p2_degree(5)), LambdaOrder.parse("lex:+x,+y"))
    engine.count(0)
    engine.count(1)
    assert entries(engine) == {MINUS: (2095, 755), PLUS: (991, 289)}
    assert packed(engine) == [42, 259, 804, 1507, 1833, 1511, 824]
    # equal polynomials are one dict: 1340 and 702 live entries hold 90 and 28 values
    assert shared(engine) == {MINUS: (90, 90), PLUS: (28, 28)}
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


# the last four polygons are not h-transverse
@pytest.mark.parametrize("spec", ["P2:d=1", "P2:d=2", "P2:d=3", "P2:d=4", "P1xP1:d=2,r=3",
                                  "P1xP1:d=3,r=2", "P1xP1:d=3,r=3", "polygon:(0,0),(3,1),(1,3)",
                                  "polygon:(0,0),(2,0),(3,1),(3,2),(1,3),(0,1)",
                                  "polygon:(0,0),(3,1),(4,3),(1,2)", "polygon:(0,0),(4,1),(2,3)"])
def test_backward_live_paths_equal_the_forward_ones(spec):
    deg = parse_degree(spec)
    h_shaped = h_transverse(dual_polygon(deg)) is not None
    for lam in all_orders():
        engine = PathEngine(dual_polygon(deg), lam)
        selective = engine._selective
        other = MINUS if selective == PLUS else PLUS
        for g in range(genus_max(deg) + 1):
            tuples = list(map(bytes, engine.path_id_tuples(g, deg.kappa)))
            live = {side: [ids for ids in tuples if engine.mu_ids(ids, side)]
                    for side in (MINUS, PLUS)}
            # the backward pass lists exactly the selective side's live paths,
            # packed in sorted order
            n, level = deg.kappa + g, engine._level(deg.kappa + g)
            assert [level[k:k + n] for k in range(0, len(level), n)] == live[selective]
            # on these h-transverse shapes the longer arc's side is never the
            # larger live set; off them the choice is only a heuristic
            if h_shaped:
                assert len(live[selective]) <= len(live[other])
            if (spec, lam.spec(), g) == ("polygon:(0,0),(2,0),(3,1),(3,2),(1,3),(0,1)", "lex:+x,-y", 0):
                assert (len(live[selective]), len(live[other])) == (85, 81)
            # every tuple off the live sets has no multiplicity, and the live
            # pairs alone give the count: the splice decides irreducibility
            # by b1 = g, the count peels reducible curves off the Severi sum
            both = set(live[MINUS]) & set(live[PLUS])
            total: dict[int, int] = {}
            for ids in tuples:
                joint = engine.path_multiplicity(ids, g)
                assert ids in both or joint == {}
                for e, v in joint.items():
                    total[e] = total.get(e, 0) + v
            assert RefinedPoly.from_half_units(total) == compute_G_path(deg, g, lam)


def test_packed_levels_do_not_depend_on_the_hash_seed():
    # the level being grown is a set of bytes, which iterates in hash order;
    # the packed levels must come out the same in every process
    script = (
        "import hashlib\n"
        "from refinedcount.geometry import dual_polygon, genus_max, p2_degree\n"
        "from refinedcount.paths import PathEngine, all_orders\n"
        "digest = hashlib.sha256()\n"
        "for lam in all_orders():\n"
        "    engine = PathEngine(dual_polygon(p2_degree(4)), lam)\n"
        "    for g in range(genus_max(p2_degree(4)) + 1):\n"
        "        engine.count(g)\n"
        "    digest.update(b''.join(engine._levels))\n"
        "print(digest.hexdigest())\n")
    src = str(Path(paths.__file__).parents[1])
    digests = []
    for seed in ("0", "987654"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        digests.append(proc.stdout)
    assert len(digests[0]) == 65 and digests[0] == digests[1]


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


def _smooth(vertices) -> bool:
    """Each corner's two primitive edge vectors span the lattice: |det| = 1."""
    n = len(vertices)
    for k, (x, y) in enumerate(vertices):
        u = (vertices[k - 1][0] - x, vertices[k - 1][1] - y)
        v = (vertices[(k + 1) % n][0] - x, vertices[(k + 1) % n][1] - y)
        if abs(u[0] * v[1] - u[1] * v[0]) != gcd(*u) * gcd(*v):
            return False
    return True


def test_one_nodal_severi_degrees_follow_the_universal_law(fresh_engines):
    # a polygon with i interior points has one-nodal curves at genus i - 1
    # (-1 for pairs of curves when i = 0); the law holds on smooth polygons.
    # Each hull is drawn in [0,4]^2 and taken again under the shear
    # (x, y) -> (x, x + y), which keeps i, b, e and smoothness but tilts
    # edges past h-transverse
    rng = random.Random(2801)
    polygons = {}
    for _ in range(1500):
        points = [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(rng.randint(3, 8))]
        for drawn in (points, [(x, x + y) for x, y in points]):
            try:
                poly = LatticePolygon.from_points(drawn)
            except PolygonError:
                continue
            if len(poly.lattice_points()) <= 16 and _smooth(poly.vertices):
                polygons[poly.vertices] = poly
    checked = {True: 0, False: 0}
    for vertices, poly in polygons.items():
        law = one_nodal_severi(list(vertices))
        i = law.coefficient(1)
        transverse = h_transverse(poly) is not None
        # h-transverse polygons in two orders; the others, where only this
        # engine counts, in all eight
        orders = rng.sample(all_orders(), 2) if transverse else all_orders()
        for lam in orders:
            assert _severi(degree_from_polygon(poly), i - 1, lam) == law, (vertices, lam.spec())
        checked[transverse] += i > 0
    assert len(polygons) > 100 and min(checked.values()) >= 5, (len(polygons), checked)

    # smoothness is the law's hypothesis: this triangle's corners (0,0) and
    # (5,2) have |det| = 2 and 5, and its constant term is 10, not the law's 13
    singular = [(0, 0), (5, 0), (5, 2)]
    assert not _smooth(singular)
    assert one_nodal_severi(singular) == RefinedPoly({1: 2, 0: 13, -1: 2})
    deg = degree_from_polygon(LatticePolygon(tuple(singular)))
    assert _severi(deg, 1) == RefinedPoly({1: 2, 0: 10, -1: 2})


def test_random_polygons_obey_the_invariance_theorem(fresh_engines):
    # Itenberg-Mikhalkin: G does not depend on the points, for every lattice
    # polygon, so the eight orders give one polynomial at every genus; most
    # hulls drawn in [0,5]^2 are not h-transverse, where no other engine counts
    rng = random.Random(3101)
    polygons = {}
    for _ in range(40):
        points = [(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(rng.randint(3, 7))]
        try:
            poly = LatticePolygon.from_points(points)
        except PolygonError:
            continue
        if len(poly.lattice_points()) <= 16:
            polygons[poly.vertices] = poly
    transverse = sum(h_transverse(poly) is not None for poly in polygons.values())
    assert len(polygons) >= 25 and len(polygons) - transverse >= 20, (len(polygons), transverse)
    for vertices, poly in polygons.items():
        deg = degree_from_polygon(poly)
        assert pi_count(deg) == 1
        for g in range(genus_max(deg) + 1):
            G, *others = (compute_G_path(deg, g, lam) for lam in all_orders())
            assert others == [G] * 7, (vertices, g)
            delta = delta_invariant(g, deg)
            assert G.is_symmetric(), (vertices, g)
            assert all(v > 0 for _, v in G.half_unit_items()), (vertices, g)
            assert G.degree() == delta, (vertices, g)
            assert G.coefficient(delta) == comb(g + int(delta), g), (vertices, g)
            at_1, at_minus_1 = G.evaluate(1), G.evaluate(-1)
            assert abs(at_minus_1) <= at_1 and (at_1 - at_minus_1) % 2 == 0, (vertices, g)


def _edge_lengths(vertices) -> list[int]:
    n = len(vertices)
    return [gcd(vertices[(k + 1) % n][0] - x, vertices[(k + 1) % n][1] - y)
            for k, (x, y) in enumerate(vertices)]


def test_two_nodal_severi_degrees_follow_the_universal_law(fresh_engines):
    # two-nodal curves have genus i - 2; the law holds on a smooth polygon
    # whose edges all have lattice length >= 2, where L is 2-very ample (Di
    # Rocco).  The polygons of at most 21 points among P2(d), P1xP1(a, b) and
    # the triangles of size d with corners cut by a, b and c
    candidates = [[(0, 0), (d, 0), (0, d)] for d in range(2, 7)]
    candidates += [[(0, 0), (a, 0), (a, b), (0, b)] for a in range(1, 5) for b in range(1, 6)]
    for d in range(1, 7):
        for a, b, c in itertools.product(range(d), repeat=3):
            if max(a + b, a + c, b + c) <= d:
                candidates.append([(a, 0), (d - b, 0), (d - b, b), (c, d - c), (0, d - c), (0, a)])
    polygons = {}
    for corners in candidates:
        poly = LatticePolygon.from_points(corners)
        if (len(poly.lattice_points()) <= 21 and _smooth(poly.vertices)
                and min(_edge_lengths(poly.vertices)) >= 2):
            polygons[poly.vertices] = poly
    for vertices, poly in polygons.items():
        deg = degree_from_polygon(poly)
        assert _severi(deg, genus_max(deg) - 2) == two_nodal_severi(list(vertices)), vertices
    # K² = 12 - e: triangles, quadrilaterals and hexagons; no pentagon fits in 21 points
    assert (len(polygons), {12 - len(v) for v in polygons}) == (43, {6, 8, 9})

    # 2-very ampleness is the hypothesis: the quintic's triangle with one
    # corner cut by 1 is smooth, has an edge of length 1, and its constant
    # term is 540, not the law's 541
    cut = [(1, 0), (5, 0), (0, 5), (0, 1)]
    assert _smooth(cut) and min(_edge_lengths(cut)) == 1
    assert two_nodal_severi(cut) == RefinedPoly({2: 15, 1: 156, 0: 541, -1: 156, -2: 15})
    deg = degree_from_polygon(LatticePolygon(tuple(cut)))
    assert _severi(deg, genus_max(deg) - 2) == RefinedPoly({2: 15, 1: 156, 0: 540, -1: 156,
                                                            -2: 15})


def test_three_nodal_severi_degrees_follow_the_universal_law(fresh_engines):
    # three-nodal curves have genus i - 3; the law holds on a smooth polygon
    # whose edges all have lattice length >= 3.  The polygons of at most 22
    # points with i >= 3 among the δ = 2 test's families, and P2(6), the
    # largest polygon the law was fitted on
    candidates = [[(0, 0), (d, 0), (0, d)] for d in range(3, 7)]
    candidates += [[(0, 0), (a, 0), (a, b), (0, b)] for a in range(3, 5) for b in range(3, 6)]
    for d in range(3, 7):
        for a, b, c in itertools.product(range(d), repeat=3):
            if max(a + b, a + c, b + c) <= d:
                candidates.append([(a, 0), (d - b, 0), (d - b, b), (c, d - c), (0, d - c), (0, a)])
    polygons = {}
    for corners in candidates:
        poly = LatticePolygon.from_points(corners)
        small = len(poly.lattice_points()) <= 22 or corners == [(0, 0), (6, 0), (0, 6)]
        if (small and _smooth(poly.vertices) and min(_edge_lengths(poly.vertices)) >= 3
                and genus_max(degree_from_polygon(poly)) >= 3):
            polygons[poly.vertices] = poly
    for vertices, poly in polygons.items():
        deg = degree_from_polygon(poly)
        assert _severi(deg, genus_max(deg) - 3) == three_nodal_severi(list(vertices)), vertices
    # K² = 12 - e: triangles and quadrilaterals only
    assert (len(polygons), {12 - len(v) for v in polygons}) == (11, {8, 9})
    assert [three_nodal_severi([(0, 0), (d, 0), (0, d)]).evaluate(1) for d in range(3, 9)] == [
        node_polynomial_3(d) for d in range(3, 9)] == [15, 675, 7915, 41310, 145383, 404185]

    # 3-very ampleness is sufficient, not necessary: 2×b rectangles lie on
    # the law with edges of length 2, but this smooth hexagon, whose cut
    # edges have length 2, has a constant term 6 below the law's
    hexagon = LatticePolygon(((0, 2), (2, 0), (4, 0), (4, 2), (2, 4), (0, 4)))
    assert _smooth(hexagon.vertices) and min(_edge_lengths(hexagon.vertices)) == 2
    assert len(hexagon.lattice_points()) == 19
    law = three_nodal_severi(list(hexagon.vertices))
    assert law == RefinedPoly({3: 35, 2: 456, 1: 2526, 0: 6406, -1: 2526, -2: 456, -3: 35})
    deg = degree_from_polygon(hexagon)
    assert _severi(deg, genus_max(deg) - 3) == law - 6


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


def test_cut_corner_rational_counts_match_gottsche_pandharipande(fresh_engines):
    # the triangle of size d with its corners cut by a, b and c is the plane
    # blown up at three points, so at y = 1 its rational count is the
    # Göttsche-Pandharipande number; P2 and P1xP1 are among these polygons
    assert [gp_blowup(d, 0, 0, 0) for d in range(1, 8)] == [kontsevich(d) for d in range(1, 8)]
    checked = 0
    for d in range(1, 6):
        # each order of the cuts; a cut of d would leave a segment
        for a, b, c in itertools.product(range(d), repeat=3):
            if max(a + b, a + c, b + c) <= d:
                corners = [(a, 0), (d - b, 0), (d - b, b), (c, d - c), (0, d - c), (0, a)]
                deg = degree_from_polygon(LatticePolygon.from_points(corners))
                assert compute_G_path(deg, 0).evaluate(1) == gp_blowup(d, a, b, c), (d, a, b, c)
                checked += 1
    assert checked == 134
