"""Independent brute-force reference implementations used by the tests.

Everything here trades speed for obviousness: explicit enumeration of
permutations, lattice scans over bounding boxes, and exhaustive cyclic-order
search.  The production code must agree with these on small inputs.  The
plane curve numbers (Kontsevich's N_d, Welschinger's W_d) come from outside
tropical geometry and use nothing from either engine.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cmp_to_key, lru_cache
from math import comb, factorial, gcd

from refinedcount.floors import FloorDiagram

Vec = tuple[int, int]


# -- plane curve numbers ----------------------------------------------------------

# Welschinger invariants W_d of the real plane: rational degree-d curves through
# 3d - 1 real points, counted with signs (Itenberg-Kharlamov-Shustin; Mikhalkin,
# JAMS 2005).  W_d is G(0, P2(d)) at y = -1.
WELSCHINGER = (1, 1, 8, 240, 18264, 2845440)  # d = 1..6


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
    counts: dict = {}
    for v in deg.vectors:
        counts[v] = counts.get(v, 0) + 1
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


def primitive(v: Vec) -> Vec:
    g = gcd(abs(v[0]), abs(v[1]))
    return (v[0] // g, v[1] // g)
