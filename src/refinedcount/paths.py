"""Lattice-path engine for refined curve counts.

Independent of the floor-diagram engine: for a primitive degree, the count
G(g, deg) comes from a sum over lattice paths in the dual polygon.  Fix a
total order lambda on lattice points (lexicographic on a signed axis pair,
standing in for a linear functional of irrational slope).  A path is a lambda-increasing
sequence of kappa+g points of the polygon from the lambda-minimal vertex p to
the lambda-maximal vertex q; since lambda is total, a path is just a point
subset, so enumeration is binomial.

Each side of the path (plus = left of the oriented chord p->q, minus =
right) is deformed towards its boundary arc by repeatedly resolving the
first corner that pokes away from the arc: either cut the corner triangle
off, charging the quantum integer of the triangle's lattice area, or replace
the corner by its parallelogram reflection when the reflected point stays in
the polygon.  A completed deformation tiles the region between the path and
the arc; the classical side multiplicity mu is the weight sum over completed
deformations, and it bottoms out at 1 when the path already equals the arc.

A pair of completed deformations, one per side, tiles the whole polygon and
is dual to a tropical curve through the kappa+g-1 points on the path edges,
possibly reducible: triangles become trivalent vertices, shared cell edges
become curve edges, and each parallelogram threads its two pairs of opposite
sides straight through without a vertex.  Its weight is the product of the
quantum integers of all triangles on both sides.  So the Severi sum of
mu_plus * mu_minus over the paths of kappa+g points counts every curve
through those points, and a curve with C components has b1 = g - 1 + C
(Mikhalkin, arXiv:math/0312530; refined by Block-Goettsche, arXiv:1111.2832).

A count is Severi-first: it takes that sum, then peels off the reducible
curves by the exponential formula.  The component through point 1 has a
balanced sub-multiset d1 of the degree as its degree and some genus g1, so
it passes through n1 = |d1| + g1 - 1 of the points, and

    all(deg, n) = sum over (d1, g1) of C(n-1, n1-1) * G(g1, d1) * all(deg - d1, n - n1),

with all(empty, 0) = 1.  G(g, deg) is the Severi sum less the terms with
d1 != deg.  By the invariance theorem each component's count does not
depend on the points it passes through, so G(g1, d1) comes from the
sub-degree's own engine under the same lambda, and each lambda order stays
an independent end-to-end count.  A one-dimensional sub-degree counts only
as a line {v, -v}, at g1 = 0 through one point with weight 1.

Most paths have a side with no completed deformation (mu == 0, a dead
side), so a count does not walk every path.  The live paths of one side are
exactly those reachable from its arc by inverse moves: an inverse cut
inserts a lattice point between two consecutive path points, an inverse
reflect moves an inner point to its parallelogram reflection, and a
candidate parent is kept only if its first poking corner is the moved point
(so resolving that corner gives the child back).  One breadth-first pass
per side, grown one path length at a time and kept, serves every genus.
The pass runs on the selective side, the one whose arc has more lattice
points (plus on a tie): a longer arc leaves less room for a completed
deformation, so that side's live set is the small one (on P2(5), in every
order, 1833 live paths of length kappa against 20950 on the other side).
A count visits only its live paths of the wanted length, reads the other
side's mu first and the selective side's only for paths live on both.

The per-path reference keeps irreducibility local instead, and is written
to be plainly correct rather than fast.  Each side's dual graph is a
forest, so a per-side connectivity profile (how the open threads of the
side's dual graph cross the path edges, one byte per edge) fixes b1 once
two profiles are spliced, and a path's joint multiplicity
(`path_multiplicity`, its one entry point) sums the profile pairs with
b1 == g.  Each cut or reflect stacks its cell onto the child's links and
renumbers the components from scratch.  No count calls the reference; it
stays for the tests and for the traced loop of the benchmark, together with
`path_id_tuples`, which walks every point subset and yields tuples.

Inside the engine a path is its id: the bytes of its lambda ranks, in
order.  The arcs, the live levels and every child the recursion builds are
ids, and only `mu` (from points) and `path_multiplicity` (from a tuple)
convert.  Ranks and profile labels each fit a byte, so the engine keeps its
cap of MAX_POINTS lattice points.

Recursion states repeat heavily across paths and genera, so each
(polygon, lambda) pair owns one long-lived engine (`get_engine`), and the
engine owns all of its state: the memo tables of the classical recursion
and of the side profiles (one dict per side, keyed by path id; every dead
entry is the one shared empty dict `_DEAD`), the live levels of each side,
the balanced sub-degrees of its degree (enumerated once), the exponential
formula's memo, and G of each genus already counted, so a repeat count
only reads it back.  Nothing is cached at module level.  The engine and
its tables are single-threaded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import comb
from typing import Iterator, Sequence

from .geometry import (
    BalancedDegree,
    LatticePolygon,
    UnsupportedDegreeError,
    Vec,
    cross,
    degree_from_polygon,
    dual_polygon,
    lattice_counts,
    primitive,
    vsub,
)
from .laurent import _ONE, RefinedPoly, _accumulate, _add, _mul_quantum

PLUS = "plus"
MINUS = "minus"

@dataclass(frozen=True)
class LambdaOrder:
    """Total order on lattice points: signed primary axis, signed tie-break.

    `lex:+x,+y` compares x first (ascending), breaking ties by y; the seven
    other sign/axis combinations give the other generic orders.
    """

    primary: str  # "x" or "y"
    primary_sign: int
    tie_sign: int

    def __post_init__(self):
        if self.primary not in ("x", "y") or self.primary_sign not in (1, -1) or self.tie_sign not in (1, -1):
            raise ValueError(f"invalid lambda order {self!r}")

    def key(self, point: Vec):
        x, y = point
        if self.primary == "x":
            return (self.primary_sign * x, self.tie_sign * y)
        return (self.primary_sign * y, self.tie_sign * x)

    def spec(self) -> str:
        ps = "+" if self.primary_sign > 0 else "-"
        ts = "+" if self.tie_sign > 0 else "-"
        tie_axis = "y" if self.primary == "x" else "x"
        return f"lex:{ps}{self.primary},{ts}{tie_axis}"

    @classmethod
    def parse(cls, spec: str) -> "LambdaOrder":
        text = spec.strip()
        if not text.startswith("lex:"):
            raise ValueError(f"unrecognised lambda order {spec!r}")
        parts = text[len("lex:"):].split(",")
        if len(parts) != 2:
            raise ValueError(f"unrecognised lambda order {spec!r}")
        signs = {"+": 1, "-": -1}
        try:
            p_sign = signs[parts[0][0]]
            p_axis = parts[0][1:]
            t_sign = signs[parts[1][0]]
            t_axis = parts[1][1:]
        except (KeyError, IndexError) as exc:
            raise ValueError(f"unrecognised lambda order {spec!r}") from exc
        if {p_axis, t_axis} != {"x", "y"}:
            raise ValueError(f"lambda order must use both axes, got {spec!r}")
        return cls(p_axis, p_sign, t_sign)


DEFAULT_ORDER = LambdaOrder("x", 1, 1)


def all_orders() -> list[LambdaOrder]:
    return [
        LambdaOrder(axis, ps, ts)
        for axis in ("x", "y")
        for ps in (1, -1)
        for ts in (1, -1)
    ]


@dataclass(frozen=True)
class LatticePath:
    points: tuple[Vec, ...]


# -- per-side connectivity profiles ------------------------------------------
#
# A profile summarises how the threads of a side's dual graph meet the
# current path: links[i] describes the open thread crossing path edge i, as
# one byte:
#   0       the thread runs off to the polygon boundary (an unbounded end)
#   c >= 1  the thread ends at a triangle in component c
# Component labels are canonical (numbered from 1 by first appearance among
# the links), so deformations with identical dual-graph interfaces share one
# profile and their weights accumulate; each composition stacks its cell and
# relabels the result.  Every cell sits below the path it is stacked onto
# and leads each thread from a top side down to a bottom side or into its
# triangle, so no thread ever comes back up to cross the path twice.
#
# The links are the whole profile, because every side graph is a forest: the
# arc has no triangle, no closed edge and no component; a cut adds one
# triangle and either one closed edge (onto a thread c) or one component; a
# reflect adds neither.  So closed edges - triangles + components = 0 on each
# side, and only the splice across the path can close a cycle.

Profile = bytes

# every lambda rank fits a byte, so a path id is the bytes of its ranks; and a
# profile has fewer links than its polygon has lattice points, so at most 255
# labels, each fitting a byte
MAX_POINTS = 256

# every dead side's memo entry, its mu and its profiles alike: one shared
# dict, never mutated
_DEAD: dict = {}


def _relabel(links) -> Profile:
    """Number the components from 1 by first appearance; 0 stays an unbounded end."""
    labels: dict[int, int] = {}
    return bytes(labels.setdefault(x, len(labels) + 1) if x else 0 for x in links)


def _compose_cut(links: Profile, j: int) -> Profile:
    """Stack the corner triangle cut at position j onto a child profile.

    The child path lost point j, so child edge j-1 is the triangle's bottom
    side; the triangle's two top sides become edges j-1 and j of the parent
    path.  The triangle plugs into the component its bottom thread reaches,
    or, off an unbounded end, starts a component of its own: 256, a label no
    child holds, until the relabel numbers it.
    """
    top = links[j - 1] or 256
    return _relabel((*links[:j - 1], top, top, *links[j:]))


def _compose_reflect(links: Profile, j: int) -> Profile:
    """Stack the parallelogram reflected at position j onto a child profile.

    The parallelogram is pure wiring: parent edge j-1 threads through to
    child edge j, and parent edge j to child edge j-1; no vertex, no weight.
    """
    return _relabel((*links[:j - 1], links[j], links[j - 1], *links[j + 1:]))


def _pair_b1(minus: Profile, plus: Profile) -> int:
    """First Betti number of the dual graph spliced from two side profiles.

    Each path edge joins its minus-side thread to its plus-side thread.  When
    both end at triangles that makes a dual edge between two components;
    both sides are forests, so b1 counts the edges whose ends are already
    joined.  Not cached: a path's splice pairs each two profiles once.
    """
    n = len(minus)
    parent = list(range(2 * n + 1))  # minus component c is c, plus component c is n + c
    b1 = 0
    for a, b in zip(minus, plus):
        if not a or not b:
            continue  # an unbounded end
        b += n
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a == b:
            b1 += 1
        else:
            parent[a] = b
    return b1


class PathEngine:
    """Recursive multiplicity evaluator bound to one (polygon, lambda) pair."""

    def __init__(self, poly: LatticePolygon, lam: LambdaOrder):
        self.poly = poly
        self.lam = lam
        pts = sorted(poly.lattice_points(), key=lam.key)
        if len(pts) > MAX_POINTS:
            raise UnsupportedDegreeError(f"lattice-path engine supports at most {MAX_POINTS} "
                                         f"lattice points in the polygon, got {len(pts)}")
        self.points = pts                       # index = lambda rank
        self.id_of = {pt: i for i, pt in enumerate(pts)}
        self._xs = [x for x, _ in pts]
        self._ys = [y for _, y in pts]
        counts = lattice_counts(poly)
        self.interior_count = counts[0]
        self.kappa = counts[1]
        # base-case targets: the full boundary arcs as lambda-sorted path ids
        self._arcs = {PLUS: self._arc_ids(ccw=False), MINUS: self._arc_ids(ccw=True)}
        plus_longer = len(self._arcs[PLUS]) >= len(self._arcs[MINUS])
        self._selective, self._other = (PLUS, MINUS) if plus_longer else (MINUS, PLUS)
        # live paths found backwards from each arc: one set per length, from
        # the arc's up, plus the parents already found one point longer
        self._levels: dict[str, list[set[bytes]]] = {PLUS: [], MINUS: []}
        self._seeds: dict[str, set[bytes]] = {PLUS: {self._arcs[PLUS]}, MINUS: {self._arcs[MINUS]}}
        # one memo per side, keyed by path id
        self._memo: dict[str, dict[bytes, dict[int, int]]] = {PLUS: {}, MINUS: {}}
        self._profiles: dict[str, dict[bytes, dict[Profile, dict[int, int]]]] = {PLUS: {}, MINUS: {}}
        # the degree as multiplicities over its distinct end vectors; a
        # sub-degree is a tuple of multiplicities over the same vectors
        ends = degree_from_polygon(poly).vectors
        self._vectors = tuple(sorted(set(ends)))
        self._full = tuple(ends.count(v) for v in self._vectors)
        self._parts: list[tuple[tuple[int, ...], int, PathEngine | None]] | None = None
        # G per genus, and the exponential formula's memo keyed by (sub-degree, points)
        self._counts: dict[int, dict[int, int]] = {}
        self._curve_memo: dict[tuple[tuple[int, ...], int], dict[int, int]] = {}

    def _boundary_cycle(self) -> list[Vec]:
        """All boundary lattice points in CCW order starting at vertices[0]."""
        out: list[Vec] = []
        for a, b in self.poly.edges():
            e = vsub(b, a)
            d, length = primitive(e)
            for i in range(length):
                out.append((a[0] + i * d[0], a[1] + i * d[1]))
        return out

    def _arc_ids(self, ccw: bool) -> bytes:
        """Boundary arc from the lambda-min to the lambda-max point.

        Walking the CCW boundary cycle from p to q keeps the region to the
        right of the chord p->q, i.e. yields the minus arc; the reverse walk
        yields the plus arc.  Asserted via cross-product signs.  Returned as
        the lambda-sorted path id: the recursion bottoms out exactly when a
        path coincides with the whole arc, lattice point for lattice point.
        """
        cyc = self._boundary_cycle()
        p, q = self.points[0], self.points[-1]
        ip = cyc.index(p)
        arc: list[Vec] = []
        n = len(cyc)
        i = ip
        step = 1 if ccw else -1
        while True:
            arc.append(cyc[i])
            if cyc[i] == q:
                break
            i = (i + step) % n
        chord = vsub(q, p)
        for r in arc:
            s = cross(chord, vsub(r, p))
            assert (s <= 0) if ccw else (s >= 0)
        return bytes(sorted(self.id_of[r] for r in arc))

    # -- recursion -------------------------------------------------------------

    def _corner(self, ids: bytes, want_positive: bool):
        """First corner poking away from the side's arc, or None."""
        xs, ys = self._xs, self._ys
        sign = 1 if want_positive else -1
        ax, ay = xs[ids[0]], ys[ids[0]]
        bx, by = xs[ids[1]], ys[ids[1]]
        for j in range(1, len(ids) - 1):
            c = ids[j + 1]
            cx, cy = xs[c], ys[c]
            turn = sign * ((bx - ax) * (cy - by) - (by - ay) * (cx - bx))
            if turn > 0:
                return j, turn, self.id_of.get((ax + cx - bx, ay + cy - by))
            ax, ay, bx, by = bx, by, cx, cy
        return None

    def mu_ids(self, ids: bytes, side: str) -> dict[int, int]:
        """Classical side multiplicity: weight sum over completed deformations."""
        memo = self._memo[side]
        found = memo.get(ids)
        if found is not None:
            return found
        if ids == self._arcs[side]:
            result: dict[int, int] = _ONE
        else:
            result = {}
            corner = self._corner(ids, side == PLUS)
            if corner is not None:
                j, m, rid = corner
                result = _mul_quantum(self.mu_ids(ids[:j] + ids[j + 1:], side), m)
                if rid is not None:
                    # lambda is linear, so the reflected point sorts strictly
                    # between its neighbours: the new id needs no re-sort
                    result = _add(result, self.mu_ids(ids[:j] + bytes((rid,)) + ids[j + 1:], side))
        memo[ids] = result = result or _DEAD
        return result

    def mu(self, path: LatticePath, side: str) -> RefinedPoly:
        ids = bytes(self.id_of[pt] for pt in path.points)
        return RefinedPoly.from_half_units(self.mu_ids(ids, side))

    # -- live paths, generated backwards from the arc ---------------------------

    def _level(self, side: str, n: int) -> set[bytes] | frozenset:
        """The side's live paths of n points as a set, grown on demand."""
        levels = self._levels[side]
        i = n - len(self._arcs[side])
        if i < 0 or n > len(self.points):
            return frozenset()
        while len(levels) <= i:
            self._grow(side)
        return levels[i]

    def _grow(self, side: str) -> None:
        """Close the pending parents under inverse reflects: the next level."""
        level = self._seeds[side]
        longer: set[bytes] = set()
        stack = list(level)
        sign = 1 if side == PLUS else -1
        while stack:
            for parent in self._inverse_moves(stack.pop(), sign, longer):
                if parent not in level:
                    level.add(parent)
                    stack.append(parent)
        self._levels[side].append(level)
        self._seeds[side] = longer

    def _inverse_moves(self, child: bytes, sign: int, longer: set[bytes]) -> list[bytes]:
        """Parents of a live child: inverse cuts go into `longer`, inverse
        reflects (same length) are returned.

        A parent resolves its first poking corner, so the moved point must be
        that corner: the corner before it must not poke, and the child's
        corners before it are the parent's.  The scan stops one past the
        child's own first poking corner.
        """
        xs, ys, id_of = self._xs, self._ys, self.id_of
        same: list[bytes] = []
        last = len(child) - 1
        stop = last
        px = py = 0
        ax, ay = xs[child[0]], ys[child[0]]
        j = 1
        while j <= stop:
            b = child[j]
            bx, by = xs[b], ys[b]
            # inverse cut: a point x strictly between child[j-1] and child[j]
            # becomes the parent's corner j
            for x in range(child[j - 1] + 1, b):
                X, Y = xs[x], ys[x]
                if sign * ((X - ax) * (by - Y) - (Y - ay) * (bx - X)) <= 0:
                    continue
                if j > 1 and sign * ((ax - px) * (Y - ay) - (ay - py) * (X - ax)) > 0:
                    continue
                longer.add(child[:j] + bytes((x,)) + child[j:])
            if j == last:
                break
            c = child[j + 1]
            cx, cy = xs[c], ys[c]
            turn = sign * ((bx - ax) * (cy - by) - (by - ay) * (cx - bx))
            if turn > 0:
                stop = min(stop, j + 1)
            elif turn < 0:
                # inverse reflect: the parent's corner j pokes exactly when the
                # child's turns the other way; its point is a + c - b
                rx, ry = ax + cx - bx, ay + cy - by
                r = id_of.get((rx, ry))
                if r is not None and not (
                    j > 1 and sign * ((ax - px) * (ry - ay) - (ay - py) * (rx - ax)) > 0
                ):
                    same.append(child[:j] + bytes((r,)) + child[j + 1:])
            px, py, ax, ay = ax, ay, bx, by
            j += 1
        return same

    # -- the count: Severi sum less the reducible curves -----------------------

    def count(self, g: int) -> dict[int, int]:
        """G(g) in half units, kept on the engine: callers must not mutate it.

        The Severi sum over paths of kappa+g points counts every curve
        through kappa+g-1 points, reducible ones too; the reducible ones are
        those whose components all have proper sub-degrees.
        """
        found = self._counts.get(g)
        if found is not None:
            return found
        if g < 0:
            raise ValueError(f"no valid path length: genus {g} is negative")
        G: dict[int, int] = {}
        if g <= self.interior_count:
            reducible = self._curves(self._full, self.kappa + g - 1)
            G = _add(self._severi(g), {e: -v for e, v in reducible.items()})
        self._counts[g] = G
        return G

    def _severi(self, g: int) -> dict[int, int]:
        """Sum of mu_plus * mu_minus over the paths of kappa+g points.

        Only the selective side's live paths can weigh anything; the other
        side's mu is read first, and the selective side's only if it is live.
        """
        total: dict[int, int] = {}
        for ids in self._level(self._selective, self.kappa + g):
            other = self.mu_ids(ids, self._other)
            if other:
                _accumulate(total, other, self.mu_ids(ids, self._selective), 1)
        return total

    def _components(self) -> list[tuple[tuple[int, ...], int, PathEngine | None]]:
        """The proper sub-degrees a component can have, enumerated once.

        Each is (multiplicities, number of ends, its engine under the same
        lambda), or engine None for a line {v, -v}: the one-dimensional
        component, through one point with weight 1.  Other one-dimensional
        sub-degrees have no irreducible curve and are left out.
        """
        if self._parts is None:
            vectors, full = self._vectors, self._full
            parts: list[tuple[tuple[int, ...], int, PathEngine | None]] = []
            for sub in product(*(range(c + 1) for c in full)):
                if sub == full or not any(sub):
                    continue
                if any(sum(k * v[axis] for k, v in zip(sub, vectors)) for axis in (0, 1)):
                    continue  # not balanced
                ends = [v for k, v in zip(sub, vectors) for _ in range(k)]
                if all(cross(ends[0], v) == 0 for v in ends):
                    if len(ends) == 2:
                        parts.append((sub, 2, None))
                    continue
                engine = get_engine(dual_polygon(BalancedDegree(ends)), self.lam)
                parts.append((sub, len(ends), engine))
            self._parts = parts
        return self._parts

    def _curves(self, rest: tuple[int, ...], m: int) -> dict[int, int]:
        """Curves of degree `rest` through m points whose components all have
        proper sub-degrees: every curve for a proper `rest`, the reducible
        ones for the full degree.

        Exponential formula over the component through point 1, of
        sub-degree d1 and genus g1 through n1 = |d1| + g1 - 1 points:
        sum of C(m-1, n1-1) * G(g1, d1) * curves(rest - d1, m - n1).
        """
        if not any(rest):
            return _ONE if m == 0 else {}
        key = (rest, m)
        total = self._curve_memo.get(key)
        if total is None:
            total = {}
            for sub, size, engine in self._components():
                if any(s > r for s, r in zip(sub, rest)):
                    continue
                left = tuple(r - s for r, s in zip(rest, sub))
                top = engine.interior_count if engine else 0
                for g1 in range(min(top, m - size + 1) + 1):
                    n1 = size + g1 - 1
                    G1 = engine.count(g1) if engine else _ONE
                    _accumulate(total, G1, self._curves(left, m - n1), comb(m - 1, n1 - 1))
            self._curve_memo[key] = total
        return total

    # -- per-path reference: side profiles spliced to b1 == g -------------------

    def side_profiles(self, ids: bytes, side: str) -> dict[Profile, dict[int, int]]:
        """Completed deformations of one side, grouped by connectivity profile."""
        memo = self._profiles[side]
        found = memo.get(ids)
        if found is not None:
            return found
        if ids == self._arcs[side]:
            result = {bytes(len(ids) - 1): _ONE}
        else:
            result = {}
            corner = self._corner(ids, side == PLUS)
            if corner is not None:
                j, m, rid = corner
                for prof, weight in self.side_profiles(ids[:j] + ids[j + 1:], side).items():
                    stacked = _compose_cut(prof, j)
                    result[stacked] = _add(result.get(stacked, {}), _mul_quantum(weight, m))
                if rid is not None:
                    for prof, weight in self.side_profiles(ids[:j] + bytes((rid,)) + ids[j + 1:], side).items():
                        stacked = _compose_reflect(prof, j)
                        result[stacked] = _add(result.get(stacked, {}), weight)
        memo[ids] = result = result or _DEAD
        return result

    def path_multiplicity(self, ids: Sequence[int], g: int) -> dict[int, int]:
        """Joint weight of the path: deformation pairs whose dual graph has b1 == g.

        Correct on any path: its ranks come as a path id or as a tuple from
        path_id_tuples, and are read as a path id.  A path off the selective
        side's live level is dead there and weighs nothing.  Otherwise the
        other side's profiles come first, and the selective side's are built
        only if the other side is live too.
        """
        ids = bytes(ids)
        if ids not in self._level(self._selective, len(ids)) or not self.side_profiles(ids, self._other):
            return {}
        plus = self.side_profiles(ids, PLUS)
        joint: dict[int, int] = {}
        for prof_m, wm in self.side_profiles(ids, MINUS).items():
            for prof_p, wp in plus.items():
                if _pair_b1(prof_m, prof_p) == g:
                    _accumulate(joint, wm, wp, 1)
        return joint

    # -- enumeration -----------------------------------------------------------

    def path_id_tuples(self, g: int, kappa: int) -> Iterator[tuple[int, ...]]:
        n_steps = kappa + g - 1
        if g < 0:
            raise ValueError(f"no valid path length: genus {g} is negative")
        if g > self.interior_count:
            raise ValueError(
                f"no valid path length: genus {g} exceeds the interior point count "
                f"{self.interior_count}"
            )
        last = len(self.points) - 1
        inner_needed = n_steps - 1
        for inner in combinations(range(1, last), inner_needed):
            yield (0,) + inner + (last,)


@lru_cache(maxsize=None)
def get_engine(poly: LatticePolygon, lam: LambdaOrder) -> PathEngine:
    return PathEngine(poly, lam)


def _require_primitive(deg: BalancedDegree) -> None:
    if not deg.is_primitive():
        raise UnsupportedDegreeError("lattice-path engine requires primitive degree")


def enumerate_paths(poly: LatticePolygon, g: int, lam: LambdaOrder = DEFAULT_ORDER) -> list[LatticePath]:
    # every polygon's degree is primitive: its vectors are primitive side normals
    engine = get_engine(poly, lam)
    return [
        LatticePath(tuple(engine.points[i] for i in ids))
        for ids in engine.path_id_tuples(g, engine.kappa)
    ]


def compute_G_path(deg: BalancedDegree, g: int, lam: LambdaOrder = DEFAULT_ORDER) -> RefinedPoly:
    """G(g, deg): the Severi sum over the paths less the reducible curves.

    Zero above genus_max, where no path is long enough.  Raises ValueError
    for a negative genus, and UnsupportedDegreeError (a ValueError) for a
    non-primitive degree.
    """
    _require_primitive(deg)
    return RefinedPoly.from_half_units(get_engine(dual_polygon(deg), lam).count(g))
