"""Lattice-path engine for refined curve counts.

Independent of the floor-diagram engine: for a primitive degree, the count
G(g, deg) is a sum over lattice paths in the dual polygon.  Fix a total order
lambda on lattice points (lexicographic on a signed axis pair, standing in
for a linear functional of irrational slope).  A path is a lambda-increasing
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
is dual to a tropical curve: triangles become trivalent vertices, shared
cell edges become curve edges, and each parallelogram threads its two pairs
of opposite sides straight through without a vertex.  The genus of that
curve is the first Betti number b1 of the threaded dual graph, and a pair
contributes to G(g, deg) exactly when b1 == g, with weight the product of
the quantum integers of all triangles on both sides.  Summing
mu_plus * mu_minus instead would also count pairs of the wrong genus, so
the engine tracks a per-side connectivity profile (triangle count, closed
dual edges, component count, and how open threads enter and leave the path
edges) and splices profile pairs to evaluate b1 without re-walking cells.

Recursion states repeat heavily across paths and genera, so each
(polygon, lambda) pair owns a long-lived engine with memo tables; the
engine and its tables are single-threaded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterator

from .geometry import (
    BalancedDegree,
    LatticePolygon,
    UnsupportedDegreeError,
    Vec,
    cross,
    delta_invariant,
    dual_polygon,
    lattice_counts,
    primitive,
    vsub,
)
from .laurent import RefinedPoly

PLUS = "plus"
MINUS = "minus"

# dict-based Laurent arithmetic for the hot recursion (exponents in half-units)
_ONE: dict[int, int] = {0: 1}


def _mul_quantum(poly: dict[int, int], m: int) -> dict[int, int]:
    """poly * [m]_y on raw half-unit dicts."""
    if m == 1:
        return poly
    out: dict[int, int] = {}
    for shift in range(m - 1, -m, -2):
        for e, v in poly.items():
            k = e + shift
            out[k] = out.get(k, 0) + v
    return out


def _add(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    for e, v in b.items():
        nv = out.get(e, 0) + v
        if nv:
            out[e] = nv
        else:
            del out[e]
    return out


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
# A profile summarises every way threads of a side's dual graph interact with
# the current path: (n_tri, e_closed, n_comp, links) where links[i] describes
# the open thread crossing path edge i:
#   ("B",)      the thread runs off to the polygon boundary (an unbounded end)
#   ("C", cid)  the thread ends at a triangle in component cid
#   ("S", k)    the thread passes through and re-crosses path edge k (mutual)
# Component ids are canonical (numbered by first appearance among the links),
# so deformations with identical dual-graph interfaces share one profile and
# their weights accumulate.

_LINK_B = ("B",)

Profile = tuple[int, int, int, tuple]


def _canonical_profile(n_tri: int, e_closed: int, n_comp: int, links: list) -> Profile:
    relabel: dict[int, int] = {}
    out = []
    for link in links:
        if link[0] == "C":
            out.append(("C", relabel.setdefault(link[1], len(relabel))))
        else:
            out.append(link)
    return (n_tri, e_closed, n_comp, tuple(out))


def _compose_cut(profile: Profile, j: int) -> Profile:
    """Stack the corner triangle cut at position j onto a child profile.

    The child path lost point j, so child edge j-1 is the triangle's bottom
    side; the triangle's two top sides become edges j-1 and j of the parent
    path.  The triangle either plugs into the component its bottom thread
    reaches (closing one dual edge) or starts a fresh component.
    """
    n_tri, e_closed, n_comp, links = profile
    bottom = links[j - 1]
    if bottom[0] == "C":
        t_comp = bottom[1]
        e_closed += 1
    else:
        t_comp = n_tri  # fresh id, clear of the canonical child ids
        n_comp += 1
    top = ("C", t_comp)
    out = []
    for parent_edge in range(len(links) + 1):
        if parent_edge == j - 1 or parent_edge == j:
            out.append(top)
            continue
        child_edge = parent_edge if parent_edge < j - 1 else parent_edge - 1
        link = links[child_edge]
        if link[0] == "S":
            k = link[1]
            if k == j - 1:
                out.append(top)  # that thread ran into the new triangle
            else:
                out.append(("S", k if k < j - 1 else k + 1))
        else:
            out.append(link)
    return _canonical_profile(n_tri + 1, e_closed, n_comp, out)


def _compose_reflect(profile: Profile, j: int) -> Profile:
    """Stack the parallelogram reflected at position j onto a child profile.

    The parallelogram is pure wiring: parent edge j-1 threads through to
    child edge j, and parent edge j to child edge j-1; no vertex, no weight.
    """
    n_tri, e_closed, n_comp, links = profile

    def rewrite(link):
        if link[0] == "S":
            k = link[1]
            if k == j - 1:
                return ("S", j)
            if k == j:
                return ("S", j - 1)
        return link

    out = []
    for parent_edge in range(len(links)):
        if parent_edge == j - 1:
            out.append(rewrite(links[j]))
        elif parent_edge == j:
            out.append(rewrite(links[j - 1]))
        else:
            out.append(rewrite(links[parent_edge]))
    return _canonical_profile(n_tri, e_closed, n_comp, out)


@lru_cache(maxsize=None)
def _pair_b1(minus: Profile, plus: Profile) -> int:
    """First Betti number of the dual graph spliced from two side profiles.

    Open threads match up edge by edge across the path: each path edge joins
    its minus-side link to its plus-side link, and ("S", k) links extend the
    chain to another path edge.  A chain ending at triangles on both sides
    adds a dual edge (and maybe merges components); a chain closing on
    itself is a cycle with no vertex on it and counts directly.
    """
    n_m, e_m, c_m, lm = minus
    n_p, e_p, c_p, lp = plus
    nslots = len(lm)
    seen = [[False] * nslots, [False] * nslots]
    links = (lm, lp)
    edges = e_m + e_p
    comps = c_m + c_p
    loops = 0
    parent: dict = {}

    def find(x):
        parent.setdefault(x, x)
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for s0 in range(nslots):
        for d0 in (0, 1):
            if seen[d0][s0]:
                continue
            first = links[d0][s0]
            if first[0] == "S":
                continue  # chain interior; reached from an endpoint or a loop
            seen[d0][s0] = True
            s, d = s0, 1 - d0
            while True:
                seen[d][s] = True
                last = links[d][s]
                if last[0] != "S":
                    break
                s = last[1]
                seen[d][s] = True
                d = 1 - d
            if first[0] == "C" and last[0] == "C":
                edges += 1
                ra, rb = find((d0, first[1])), find((d, last[1]))
                if ra != rb:
                    parent[ra] = rb
                    comps -= 1
    for s0 in range(nslots):
        for d0 in (0, 1):
            if seen[d0][s0]:
                continue
            loops += 1
            s, d = s0, d0
            while not seen[d][s]:
                seen[d][s] = True
                s = links[d][s][1]
                seen[d][s] = True
                d = 1 - d
    return edges - (n_m + n_p) + comps + loops


class PathEngine:
    """Recursive multiplicity evaluator bound to one (polygon, lambda) pair."""

    FUEL_LIMIT = 50_000_000

    def __init__(self, poly: LatticePolygon, lam: LambdaOrder):
        self.poly = poly
        self.lam = lam
        pts = sorted(poly.lattice_points(), key=lam.key)
        self.points = pts                       # index = lambda rank
        self.id_of = {pt: i for i, pt in enumerate(pts)}
        counts = lattice_counts(poly)
        self.interior_count = counts[0]
        self.kappa = counts[1]
        # base-case targets: the full boundary arcs as lambda-sorted id tuples
        self._arcs = {PLUS: self._arc_ids(ccw=False), MINUS: self._arc_ids(ccw=True)}
        self._memo: dict[tuple[str, tuple[int, ...]], dict[int, int]] = {}
        self._profiles: dict[tuple[str, tuple[int, ...]], dict[Profile, dict[int, int]]] = {}
        self.fuel_used = 0

    def _boundary_cycle(self) -> list[Vec]:
        """All boundary lattice points in CCW order starting at vertices[0]."""
        out: list[Vec] = []
        for a, b in self.poly.edges():
            e = vsub(b, a)
            d, length = primitive(e)
            for i in range(length):
                out.append((a[0] + i * d[0], a[1] + i * d[1]))
        return out

    def _arc_ids(self, ccw: bool) -> tuple[int, ...]:
        """Boundary arc from the lambda-min to the lambda-max point.

        Walking the CCW boundary cycle from p to q keeps the region to the
        right of the chord p->q, i.e. yields the minus arc; the reverse walk
        yields the plus arc.  Asserted via cross-product signs.  Returned as
        the lambda-sorted id tuple: the recursion bottoms out exactly when a
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
        return tuple(sorted(self.id_of[r] for r in arc))

    # -- recursion -------------------------------------------------------------

    def _burn(self) -> None:
        self.fuel_used += 1
        if self.fuel_used > self.FUEL_LIMIT:
            raise RuntimeError("path recursion fuel exhausted")

    def _corner(self, ids: tuple[int, ...], want_positive: bool):
        """First corner poking away from the side's arc, or None."""
        pts = self.points
        for j in range(1, len(ids) - 1):
            a, b, c = pts[ids[j - 1]], pts[ids[j]], pts[ids[j + 1]]
            turn = cross(vsub(b, a), vsub(c, b))
            if (turn > 0) if want_positive else (turn < 0):
                reflected = (a[0] + c[0] - b[0], a[1] + c[1] - b[1])
                return j, abs(turn), self.id_of.get(reflected)
        return None

    def mu_ids(self, ids: tuple[int, ...], side: str) -> dict[int, int]:
        """Classical side multiplicity: weight sum over completed deformations."""
        memo = self._memo
        found = memo.get((side, ids))
        if found is not None:
            return found
        self._burn()
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
                    # between its neighbours: the new tuple needs no re-sort
                    result = _add(result, self.mu_ids(ids[:j] + (rid,) + ids[j + 1:], side))
        memo[(side, ids)] = result
        return result

    def mu(self, path: LatticePath, side: str) -> RefinedPoly:
        ids = tuple(self.id_of[pt] for pt in path.points)
        return RefinedPoly.from_half_units(self.mu_ids(ids, side))

    def side_profiles(self, ids: tuple[int, ...], side: str) -> dict[Profile, dict[int, int]]:
        """Completed deformations of one side, grouped by connectivity profile."""
        memo = self._profiles
        found = memo.get((side, ids))
        if found is not None:
            return found
        self._burn()
        if ids == self._arcs[side]:
            result = {(0, 0, 0, (_LINK_B,) * (len(ids) - 1)): _ONE}
        else:
            result = {}
            corner = self._corner(ids, side == PLUS)
            if corner is not None:
                j, m, rid = corner
                for prof, weight in self.side_profiles(ids[:j] + ids[j + 1:], side).items():
                    stacked = _compose_cut(prof, j)
                    result[stacked] = _add(result.get(stacked, {}), _mul_quantum(weight, m))
                if rid is not None:
                    for prof, weight in self.side_profiles(ids[:j] + (rid,) + ids[j + 1:], side).items():
                        stacked = _compose_reflect(prof, j)
                        result[stacked] = _add(result.get(stacked, {}), weight)
        memo[(side, ids)] = result
        return result

    def path_multiplicity(self, ids: tuple[int, ...], g: int) -> dict[int, int]:
        """Joint weight of the path: deformation pairs whose dual graph has b1 == g."""
        minus = self.side_profiles(ids, MINUS)
        if not minus:
            return {}
        plus = self.side_profiles(ids, PLUS)
        if not plus:
            return {}
        acc: dict[int, int] = {}
        for prof_m, wm in minus.items():
            for prof_p, wp in plus.items():
                if _pair_b1(prof_m, prof_p) != g:
                    continue
                for e1, v1 in wm.items():
                    for e2, v2 in wp.items():
                        e = e1 + e2
                        acc[e] = acc.get(e, 0) + v1 * v2
        return acc

    def multiplicity(self, path: LatticePath) -> RefinedPoly:
        """Joint multiplicity of a path; genus is implied by the path length."""
        ids = tuple(self.id_of[pt] for pt in path.points)
        return RefinedPoly.from_half_units(self.path_multiplicity(ids, len(ids) - self.kappa))

    # -- enumeration -----------------------------------------------------------

    def path_id_tuples(self, g: int, kappa: int) -> Iterator[tuple[int, ...]]:
        n_steps = kappa + g - 1
        if g < 0 or g > self.interior_count:
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
    """Sum of joint path multiplicities (pairs with b1 == g) over all paths.

    Raises UnsupportedDegreeError (a ValueError) for a non-primitive degree.
    """
    _require_primitive(deg)
    engine = get_engine(dual_polygon(deg), lam)
    total: dict[int, int] = {}
    for ids in engine.path_id_tuples(g, deg.kappa):
        total = _add(total, engine.path_multiplicity(ids, g))
    return RefinedPoly.from_half_units(total)


def delta_curve_census(
    deg: BalancedDegree,
    g: int,
    lam: LambdaOrder = DEFAULT_ORDER,
) -> dict:
    """Top-coefficient bookkeeping: how many paths carry which refined degree.

    count_top is the coefficient of y^delta in G; per_path_alpha lists, in
    enumeration order, the degree of each path's nonzero joint multiplicity.
    """
    _require_primitive(deg)
    poly = dual_polygon(deg)
    engine = get_engine(poly, lam)
    delta = delta_invariant(g, deg)
    delta_half_units = int(delta * 2)
    count_top = 0
    per_path_alpha: list[Fraction] = []
    for ids in engine.path_id_tuples(g, deg.kappa):
        joint = engine.path_multiplicity(ids, g)
        if not joint:
            continue
        per_path_alpha.append(Fraction(max(joint), 2))
        count_top += joint.get(delta_half_units, 0)
    return {"count_top": count_top, "per_path_alpha": per_path_alpha}
