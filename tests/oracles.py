"""Independent brute-force reference implementations used by the tests.

Everything here trades speed for obviousness: explicit enumeration of
permutations, lattice scans over bounding boxes, and exhaustive cyclic-order
search.  The production code must agree with these on small inputs.  The
plane curve numbers (Kontsevich's N_d, Welschinger's W_d, Getzler's elliptic
counts) and Göttsche-Pandharipande's rational counts on the plane blown up at
three points come from outside tropical geometry and use nothing from either
engine; so do `one_nodal_severi`, `two_nodal_severi` and
`three_nodal_severi`, the universal law for one-, two- and three-nodal
curves on a smooth toric surface.
`floor_sum_over_diagrams` is the floor engine's former count, one markings
count per listed diagram, kept as the reference for its sweep.
`mu_whole_path` is the path engine's former side recursion, memoized by
whole path, kept as the reference for its product over arc-to-arc pieces.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from math import comb, factorial, gcd

from refinedcount.floors import FloorDiagram, enumerate_diagrams, markings_count
from refinedcount.laurent import RefinedPoly, quantum_integer

Vec = tuple[int, int]


# -- plane curve numbers ----------------------------------------------------------

# Welschinger invariants W_d of the real plane: rational degree-d curves through
# 3d - 1 real points, counted with signs (Itenberg-Kharlamov-Shustin; Mikhalkin,
# JAMS 2005).  W_d is G(0, P2(d)) at y = -1.
WELSCHINGER = (1, 1, 8, 240, 18264, 2845440, 792731520)  # d = 1..7

# Getzler's counts of plane elliptic curves of degree d through 3d points
# ("Intersection theory on M_{1,4} and elliptic Gromov-Witten invariants",
# JAMS 1997).  They are G(1, P2(d)) at y = 1.
GETZLER = (0, 0, 1, 225, 87192, 57435240, 60478511040)  # d = 1..7


@lru_cache(maxsize=None)
def kontsevich(d: int) -> int:
    """N_d, rational plane curves of degree d through 3d - 1 general points.

    Kontsevich's recursion, which knows nothing of tropical curves:
    N_d = sum over dA + dB = d of
    N_dA N_dB (dA^2 dB^2 C(3d-4, 3dA-2) - dA^3 dB C(3d-4, 3dA-1)).
    """
    if d == 1:
        return 1
    return sum(
        kontsevich(a) * kontsevich(d - a) * (
            a * a * (d - a) ** 2 * comb(3 * d - 4, 3 * a - 2)
            - a ** 3 * (d - a) * comb(3 * d - 4, 3 * a - 1)
        )
        for a in range(1, d)
    )


def _binom(n: int, k: int) -> int:
    """C(n, k), and 0 when k is negative or above n."""
    return comb(n, k) if 0 <= k <= n else 0


@lru_cache(maxsize=None)
def gp_blowup(d: int, a: int, b: int, c: int) -> int:
    """Rational curves in the class dH - aE1 - bE2 - cE3 of the plane blown up
    at three points, through 3d - a - b - c - 1 general points.

    Göttsche-Pandharipande's recursion from the WDVV equations
    (arXiv:alg-geom/9703016).  The cut-corner polygon {x + y >= a, x <= d - b,
    y <= d - c} of the triangle of size d is this surface's, so the count is
    G(0) at y = 1 there.  The base cases come in this order: an exceptional
    class E_i counts 1 and any other class with d = 0 or a negative
    multiplicity 0; the Cremona map lowers d while a + b + c > d; a
    multiplicity of 1 is a point condition and is dropped; a line counts 1.
    The order matters: the Cremona map sends H - E1 - E2 to E3.  The rest is
    the (H, H, pt, pt) relation over splits D = D1 + D2; a split with d1 = 0
    or d2 = 0 adds nothing, through a factor d1 or C(n - 3, n - 1) = 0.
    """
    cuts = (a, b, c)
    if d == 0:
        return int(sorted(cuts) == [-1, 0, 0])
    if d < 0 or min(cuts) < 0:
        return 0
    if a + b + c > d:
        return gp_blowup(2 * d - a - b - c, d - b - c, d - a - c, d - a - b)
    if 1 in cuts:
        return gp_blowup(d, *(0 if m == 1 else m for m in cuts))
    if d == 1:
        return 1
    n = 3 * d - a - b - c - 1
    total = 0
    for d1, a1, b1, c1 in itertools.product(range(1, d), range(a + 1), range(b + 1),
                                            range(c + 1)):
        d2, a2, b2, c2 = d - d1, a - a1, b - b1, c - c1
        n1 = 3 * d1 - a1 - b1 - c1 - 1
        dot = d1 * d2 - a1 * a2 - b1 * b2 - c1 * c2
        total += gp_blowup(d1, a1, b1, c1) * gp_blowup(d2, a2, b2, c2) * dot * (
            d1 * d2 * _binom(n - 3, n1 - 1) - d1 * d1 * _binom(n - 3, n1))
    return total


def node_polynomial_1(d: int) -> int:
    """N^{d,1}: one-nodal plane curves of degree d through d(d+3)/2 - 1 points.

    The degree 3(d-1)^2 of the discriminant hypersurface, counting reducible
    curves too; a closed formula, not a tropical count.
    """
    return 3 * (d - 1) ** 2


def node_polynomial_2(d: int) -> int:
    """N^{d,2}: two-nodal plane curves of degree d through d(d+3)/2 - 2 points.

    3/2 (d-1)(d-2)(3d^2-3d-11), reducible curves included; the product of the
    first two factors is even, so the division is exact.
    """
    return 3 * (d - 1) * (d - 2) * (3 * d * d - 3 * d - 11) // 2


def _surface_numbers(vertices: list[Vec]) -> tuple[int, int, int, int]:
    """(L², i, b, e) of a lattice polygon given by its vertices in cyclic order.

    L² is twice the area, by the shoelace formula; b is the boundary points,
    the gcd of each edge's steps summed; i is the interior points, by Pick's
    theorem; e is the edges.  A vertex on a straight angle is not a corner,
    so it adds no edge.
    """
    n = len(vertices)
    steps = [(vertices[(k + 1) % n][0] - x, vertices[(k + 1) % n][1] - y)
             for k, (x, y) in enumerate(vertices)]
    twice_area = abs(sum(x * v - y * u for (x, y), (u, v) in zip(vertices, steps)))
    b = sum(gcd(u, v) for u, v in steps)
    i = (twice_area - b + 2) // 2
    e = sum(u1 * v2 - v1 * u2 != 0 for (u1, v1), (u2, v2) in zip(steps, steps[1:] + steps[:1]))
    return twice_area, i, b, e


def one_nodal_severi(vertices: list[Vec]) -> RefinedPoly:
    """N^{Δ,1}(y) = i*y + (4i + b + e - 6) + i*y^-1 on a smooth polygon Δ.

    i, b and e are Δ's interior points, boundary points and edges.  This is
    the universal law's δ = 1 term, ½(L² + LK + 2)(y + y⁻¹) + (2L² + LK -
    K² + 10), with L² = 2·area, -LK = b and K² = 12 - e (Göttsche's
    conjecture, refined by Göttsche-Shende, arXiv:1208.1973): one-nodal
    curves through i + b - 2 points, reducible ones too.  i, b and e come
    from the vertices alone (`_surface_numbers`).
    """
    _, i, b, e = _surface_numbers(vertices)
    return RefinedPoly({1: i, 0: 4 * i + b + e - 6, -1: i})


def two_nodal_severi(vertices: list[Vec]) -> RefinedPoly:
    """N^{Δ,2}(y) on a smooth polygon Δ whose edges all have lattice length >= 2.

    The universal law's δ = 2 term: the δ = 2 coefficient of the generating
    function is ½N₁² plus a linear form in (L², LK, K², 1), so

        N₂ = ½N₁(y)² - (i/2)(y² + y⁻²) - 10i(y + y⁻¹) - (21/2)L² - 9·LK + ½K² - 21

    with N₁ = `one_nodal_severi`, L² = 2·area, LK = -b, K² = 12 - e and i the
    interior points: two-nodal curves through i + b - 3 points, reducible
    ones too.  The form was fitted exactly, on fractions, to P2(2), P2(3),
    P2(4) and P1xP1(2,2).  At y = 1 on P2(d) it is `node_polynomial_2`.  The
    edge length is the hypothesis that L is 2-very ample (Di Rocco).
    """
    twice_area, i, b, e = _surface_numbers(vertices)
    n1 = one_nodal_severi(vertices)
    twice = (n1 * n1 - RefinedPoly({2: i, 1: 20 * i, -1: 20 * i, -2: i})
             - 21 * twice_area + 18 * b + (12 - e) - 42)
    # each coefficient of 2·N₂ is even: Pick gives L² = 2i + b - 2
    return RefinedPoly.from_half_units({k: v // 2 for k, v in twice.half_unit_items()})


def node_polynomial_3(d: int) -> int:
    """N^{d,3}: three-nodal plane curves of degree d through d(d+3)/2 - 3 points.

    Kleiman-Piene's node polynomial (9d⁶ - 54d⁵ + 9d⁴ + 423d³ - 458d² - 829d +
    1050)/2, reducible curves included; the numerator is always even.
    """
    return (9 * d ** 6 - 54 * d ** 5 + 9 * d ** 4 + 423 * d ** 3 - 458 * d * d - 829 * d
            + 1050) // 2


def three_nodal_severi(vertices: list[Vec]) -> RefinedPoly:
    """N^{Δ,3}(y) on a smooth polygon Δ whose edges all have lattice length >= 3.

    The universal law's δ = 3 term: the δ = 3 coefficient of the generating
    function's logarithm is a form f₃ linear in (L², LK, K², 1), so

        N₃ = N₁N₂ - N₁³/3 + f₃,  with 6f₃ =
            (L² + LK + 2)(y³ + y⁻³) + (54L² + 66LK + 12K² + 60)(y² + y⁻²)
            + (345L² + 399LK + 60K² + 426)(y + y⁻¹) + (580L² + 644LK + 94K² + 680)

    with N₁ = `one_nodal_severi`, N₂ = `two_nodal_severi`, L² = 2·area,
    LK = -b and K² = 12 - e: three-nodal curves through i + b - 4 points,
    reducible ones too.  The form was fitted exactly, on fractions, to P2(4),
    P2(5), P2(6) and P1xP1(3,3).  At y = 1 on P2(d) it is `node_polynomial_3`.
    The edge length is the hypothesis that L is 3-very ample.
    """
    twice_area, _, b, e = _surface_numbers(vertices)
    n1, n2 = one_nodal_severi(vertices), two_nodal_severi(vertices)
    l2, lk, k2 = twice_area, -b, 12 - e
    c3, c2 = l2 + lk + 2, 54 * l2 + 66 * lk + 12 * k2 + 60
    c1, c0 = 345 * l2 + 399 * lk + 60 * k2 + 426, 580 * l2 + 644 * lk + 94 * k2 + 680
    six_f3 = RefinedPoly({3: c3, 2: c2, 1: c1, 0: c0, -1: c1, -2: c2, -3: c3})
    six = 6 * n1 * n2 - 2 * n1 ** 3 + six_f3
    assert all(v % 6 == 0 for _, v in six.half_unit_items()), vertices
    return RefinedPoly.from_half_units({k: v // 6 for k, v in six.half_unit_items()})


# -- linear extensions -----------------------------------------------------------


def linear_extensions_brute(n: int, pred_sets: list[frozenset[int]]) -> int:
    """Count orderings of 0..n-1 where every element follows its predecessors.

    Straight backtracking: every valid permutation is visited once.
    """
    placed: set[int] = set()

    def rec(k: int) -> int:
        if k == n:
            return 1
        total = 0
        for i in range(n):
            if i not in placed and pred_sets[i] <= placed:
                placed.add(i)
                total += rec(k + 1)
                placed.discard(i)
        return total

    return rec(0)


def marking_poset(D: FloorDiagram) -> tuple[list[frozenset[int]], list[int]]:
    """The poset whose linear extensions are the markings of D.

    Read off the diagram fields by the definition in the floors module
    docstring: floors 0..n-1 form a chain, a finite elevator follows its
    lower floor and precedes its upper one, a downward end precedes its
    floor and an upward end follows it.  Returns each element's cover
    predecessors and the sizes of the groups of indistinguishable elements:
    equal finite elevators, and the downward or upward ends of one floor.
    """
    n = D.n_floors
    preds: list[set[int]] = [{v - 1} if v else set() for v in range(n)]
    for lo, up, _ in D.elevators:
        preds.append({lo - 1})
        preds[up - 1].add(len(preds) - 1)
    for v in range(n):
        for _ in range(D.infinite_down[v]):
            preds.append(set())
            preds[v].add(len(preds) - 1)
        preds.extend({v} for _ in range(D.infinite_up[v]))
    groups = [*Counter(D.elevators).values(), *D.infinite_down, *D.infinite_up]
    return [frozenset(p) for p in preds], groups


def _unlabel(labeled: int, groups: list[int]) -> int:
    sym = 1
    for k in groups:
        sym *= factorial(k)
    assert labeled % sym == 0
    return labeled // sym


def markings_count_brute(D: FloorDiagram) -> int:
    """Marking count via explicit extension enumeration."""
    preds, groups = marking_poset(D)
    return _unlabel(linear_extensions_brute(len(preds), preds), groups)


def markings_count_downset(D: FloorDiagram) -> int:
    """Marking count by a DP over the downsets of the marking poset.

    A downset is a bitmask; the count from a downset sums over the minimal
    elements outside it.  Exponential in the poset size, but it reaches the
    17-20 element posets that brute force cannot.
    """
    preds, groups = marking_poset(D)
    pred_masks = [sum(1 << p for p in ps) for ps in preds]
    full = (1 << len(preds)) - 1

    @lru_cache(maxsize=None)
    def count(mask: int) -> int:
        if mask == full:
            return 1
        return sum(
            count(mask | 1 << i)
            for i, m in enumerate(pred_masks)
            if not mask >> i & 1 and m & mask == m
        )

    return _unlabel(count(0), groups)


def floor_diagrams_brute(deg, g: int) -> list[tuple]:
    """(elevators, infinite_down, infinite_up) of every floor diagram, sorted.

    Straight from the definition in the floors module docstring: draw every
    multiset of g + n - 1 elevators (lower, upper, weight) on floors 1..n,
    keep it when it connects the floors, and attach every choice of
    infinite ends that satisfies the family's divergence law.  No weight
    exceeds d, since the weight crossing a gap is at most the number of
    infinite ends on one side of it.
    """
    counts = dict(deg.counts)
    p2 = set(counts) == {(-1, 0), (0, -1), (1, 1)}
    d, n = (counts[(1, 1)],) * 2 if p2 else (counts[(0, 1)], counts[(1, 0)])
    n_elevators = g + n - 1
    if n_elevators < 0:
        return []
    triples = [
        (lo, up, w)
        for lo in range(1, n + 1) for up in range(lo + 1, n + 1) for w in range(1, d + 1)
    ]
    end_counts = [t for t in itertools.product(range(d + 1), repeat=n) if sum(t) == d]
    found = []
    for elevators in itertools.combinations_with_replacement(triples, n_elevators):
        net_in = [0] * (n + 1)  # in(v) - out(v)
        for lo, up, w in elevators:
            net_in[up] += w
            net_in[lo] -= w
        if p2:
            # in(v) - out(v) + infinite_down(v) = 1, no upward ends
            choices = [(tuple(1 - net_in[v] for v in range(1, n + 1)), (0,) * n)]
        else:
            # out(v) + infinite_up(v) = in(v) + infinite_down(v)
            choices = [
                (down, tuple(down[v - 1] + net_in[v] for v in range(1, n + 1)))
                for down in end_counts
            ]
        choices = [
            (down, up) for down, up in choices
            if min(down + up) >= 0 and sum(down) == d and sum(up) == (0 if p2 else d)
        ]
        if not choices:
            continue
        reached = {1}
        grew = True
        while grew:
            grew = False
            for lo, up, _ in elevators:
                if (lo in reached) != (up in reached):
                    reached |= {lo, up}
                    grew = True
        if len(reached) == n:
            found.extend((elevators, down, up) for down, up in choices)
    return sorted(found)


def floor_sum_over_diagrams(deg, g: int) -> RefinedPoly:
    """G(g, deg) as the sum of nu(D) * prod [w]^2 over the listed diagrams.

    Every diagram is built by `enumerate_diagrams` and its markings are
    counted one diagram at a time by `markings_count`; mult(D) depends only
    on the multiset of weights, so nu(D) is summed per multiset and each
    product is formed once.
    """
    nu: Counter[tuple[int, ...]] = Counter()
    for D in enumerate_diagrams(deg, g):
        nu[tuple(sorted(w for _, _, w in D.elevators))] += markings_count(D)
    total = RefinedPoly.zero()
    for weights, count in sorted(nu.items()):
        mult = RefinedPoly.one()
        for w in weights:
            mult = mult * quantum_integer(w) ** 2
        total = total + mult * count
    return total


def mu_whole_path(poly, lam, plus: bool):
    """The classical side multiplicity mu(ids) of one side, unfactored.

    Returns a function of a path (lambda ranks, in order) that resolves the
    path's first corner poking away from the side's arc, by a cut ([m]_y, m
    the doubled triangle area) plus a reflect when the reflected point is a
    lattice point, down to the arc itself (1); a path with no poking corner
    that is not the arc is dead (0).  The arc is every boundary lattice point
    on the side's half of the chord from the lambda-least to the
    lambda-greatest point, read off the vertices alone.  When that chord is
    an edge, the edge is the arc of the side the polygon does not reach.
    """
    points = sorted(poly.lattice_points(), key=lam.key)
    rank = {pt: i for i, pt in enumerate(points)}
    sign = 1 if plus else -1
    (px, py), (qx, qy) = ends = points[0], points[-1]

    def height(x, y):
        return sign * ((qx - px) * (y - py) - (qy - py) * (x - px))

    def on_boundary(x, y):
        return any((bx - ax) * (y - ay) == (by - ay) * (x - ax) for (ax, ay), (bx, by) in poly.edges())

    flat = all(height(*pt) <= 0 for pt in points)
    arc = tuple(i for i, pt in enumerate(points) if on_boundary(*pt)
                and (height(*pt) > 0 or height(*pt) == 0 and (flat or pt in ends)))

    @lru_cache(maxsize=None)
    def mu(ids: tuple[int, ...]) -> RefinedPoly:
        if ids == arc:
            return RefinedPoly.one()
        for j in range(1, len(ids) - 1):
            (ax, ay), (bx, by), (cx, cy) = (points[i] for i in ids[j - 1:j + 2])
            turn = sign * ((bx - ax) * (cy - by) - (by - ay) * (cx - bx))
            if turn > 0:
                total = mu(ids[:j] + ids[j + 1:]) * quantum_integer(turn)
                reflected = rank.get((ax + cx - bx, ay + cy - by))
                if reflected is not None:
                    total = total + mu(ids[:j] + (reflected,) + ids[j + 1:])
                return total
        return RefinedPoly.zero()

    return lambda ids: mu(tuple(ids))


def poset_size(D: FloorDiagram) -> int:
    return len(marking_poset(D)[0])


# -- lattice point scans ----------------------------------------------------------


def triangle_interior_brute(u1: Vec, u2: Vec) -> int:
    """Interior lattice points of the triangle with rotated edge vectors u1, u2.

    Scans the bounding box and tests each point against the three sides
    exactly (no Pick shortcut).
    """
    def rot(v: Vec) -> Vec:
        return (-v[1], v[0])

    a = (0, 0)
    b = rot(u1)
    c = (b[0] + rot(u2)[0], b[1] + rot(u2)[1])
    verts = [a, b, c]

    def cross(o: Vec, p: Vec, q: Vec) -> int:
        return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])

    orient = cross(a, b, c)
    if orient == 0:
        raise ValueError("degenerate triangle")
    if orient < 0:
        verts = [a, c, b]
    xs = [v[0] for v in verts]
    ys = [v[1] for v in verts]
    count = 0
    for x in range(min(xs) + 1, max(xs)):
        for y in range(min(ys) + 1, max(ys)):
            p = (x, y)
            if all(cross(verts[i], verts[(i + 1) % 3], p) > 0 for i in range(3)):
                count += 1
    return count


def polygon_lattice_counts_brute(vertices: list[Vec]) -> tuple[int, int]:
    """(interior, boundary) lattice point counts by scanning the bounding box."""
    n = len(vertices)

    def cross(o: Vec, p: Vec, q: Vec) -> int:
        return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])

    def on_segment(p: Vec, a: Vec, b: Vec) -> bool:
        if cross(a, b, p) != 0:
            return False
        return min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and \
            min(a[1], b[1]) <= p[1] <= max(a[1], b[1])

    xs = [v[0] for v in vertices]
    ys = [v[1] for v in vertices]
    interior = boundary = 0
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            p = (x, y)
            if any(on_segment(p, vertices[i], vertices[(i + 1) % n]) for i in range(n)):
                boundary += 1
                continue
            signs = [cross(vertices[i], vertices[(i + 1) % n], p) for i in range(n)]
            if all(s > 0 for s in signs) or all(s < 0 for s in signs):
                interior += 1
    return interior, boundary


# -- cyclic orders ----------------------------------------------------------------


def _half_plane(v: Vec) -> int:
    return 0 if v[1] > 0 or (v[1] == 0 and v[0] > 0) else 1


def _angle_cmp(a: Vec, b: Vec) -> int:
    """Compare directions counterclockwise from the positive x-axis; exact."""
    ha, hb = _half_plane(a), _half_plane(b)
    if ha != hb:
        return ha - hb
    c = a[0] * b[1] - a[1] * b[0]
    return -1 if c > 0 else (1 if c < 0 else 0)


def cyclic_orders_brute(vectors: list[Vec]) -> int:
    """Distinct cyclic arrangements of the multiset that respect the
    counterclockwise circular order of directions."""
    n = len(vectors)
    compatible: set[tuple[Vec, ...]] = set()
    for perm in set(itertools.permutations(vectors)):
        ok = False
        for s in range(n):
            rot = perm[s:] + perm[:s]
            if all(_angle_cmp(rot[i], rot[i + 1]) <= 0 for i in range(n - 1)):
                ok = True
                break
        if ok:
            compatible.add(min(perm[s:] + perm[:s] for s in range(n)))
    return len(compatible)


def random_balanced_vectors(rng, max_len: int = 6, coord: int = 2) -> list[Vec]:
    """A small balanced, plane-spanning multiset of nonzero vectors."""
    while True:
        k = rng.randint(3, max_len)
        vs = []
        for _ in range(k - 1):
            while True:
                v = (rng.randint(-coord, coord), rng.randint(-coord, coord))
                if v != (0, 0):
                    break
            vs.append(v)
        last = (-sum(v[0] for v in vs), -sum(v[1] for v in vs))
        if last == (0, 0):
            continue
        vs.append(last)
        # must span the plane
        if any(vs[0][0] * v[1] - vs[0][1] * v[0] != 0 for v in vs[1:]):
            return vs
