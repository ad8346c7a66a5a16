"""Lattice geometry of balanced degrees and their dual polygons.

A *degree* is a balanced multiset of nonzero integer vectors (the directions
of a tropical curve's unbounded ends, with multiplicity), held as its counts:
each distinct vector once, with its multiplicity, so a degree costs its
distinct vectors, not its ends.  It determines a convex lattice polygon whose
sides are orthogonal to the direction classes.
This module provides both objects, the duality between them, exact lattice
point counts (Pick's identity gives the interior count from the area and the
boundary count; `test_lattice_counts_match_brute_force` checks it against a
brute-force count), the expected degree delta(g, deg) of the refined count,
the cyclic-order factor pi(deg), and the h-transverse shape data used by the
coefficient formulas in :mod:`refinedcount.analysis`.

Everything here is exact integer arithmetic on plain tuples.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, prod
from typing import Iterable, Optional

from .laurent import _json_int

Vec = tuple[int, int]


class DegreeError(ValueError):
    """Raised for multisets of vectors that do not form a valid degree."""


class PolygonError(ValueError):
    """Raised for vertex data that does not describe a convex lattice polygon."""


class UnsupportedDegreeError(ValueError):
    """Raised for a valid degree that a counting engine cannot handle."""


def _int_vec(v, error: type[ValueError]) -> Vec:
    """v as a pair of ints; a float or bool coordinate raises `error`, since
    int() would truncate it or pass it."""
    x, y = v
    try:
        return _json_int(x), _json_int(y)
    except ValueError as exc:
        raise error(f"coordinates must be integers: {exc}") from None


def cross(a: Vec, b: Vec) -> int:
    return a[0] * b[1] - a[1] * b[0]


def vsub(a: Vec, b: Vec) -> Vec:
    return (a[0] - b[0], a[1] - b[1])


def primitive(v: Vec) -> tuple[Vec, int]:
    """Split v into (primitive direction, positive integer multiple)."""
    g = gcd(abs(v[0]), abs(v[1]))
    if g == 0:
        raise ValueError("zero vector has no direction")
    return (v[0] // g, v[1] // g), g


def _direction_key(v: Vec) -> tuple[int, int, Fraction]:
    """Exact sort key ordering directions CCW starting from (1,0).

    Splits the circle at the positive and negative x-axes; within each open
    half-plane -x/y increases with the angle, so no trigonometry is needed.
    """
    x, y = v
    half = 0 if (y > 0 or (y == 0 and x > 0)) else 1
    if y == 0:
        return (half, 0, Fraction(0))
    return (half, 1, Fraction(-x, y))


@dataclass(frozen=True, slots=True)
class BalancedDegree:
    """A balanced multiset of nonzero integer vectors spanning the plane.

    Built from a mapping of vector -> multiplicity; `dict()` reads it, so the
    stored `counts` build the same degree again.  Stored canonically as
    `counts`: each distinct vector once, sorted, with its multiplicity, an
    int >= 1.  So equal multisets compare and hash equal.
    """

    counts: tuple[tuple[Vec, int], ...]

    def __post_init__(self):
        counts = tuple(sorted((_int_vec(v, DegreeError), k) for v, k in dict(self.counts).items()))
        for v, k in counts:
            if type(k) is not int or k < 1:
                raise DegreeError(f"multiplicity {k!r} of {v} is not a positive integer")
        if any(v == (0, 0) for v, _ in counts):
            raise DegreeError("degree contains a zero vector")
        if sum(k for _, k in counts) < 3:
            raise DegreeError("degree needs at least three vectors")
        sx = sum(k * v[0] for v, k in counts)
        sy = sum(k * v[1] for v, k in counts)
        if (sx, sy) != (0, 0):
            raise DegreeError(f"degree is not balanced: sum = ({sx},{sy})")
        first = counts[0][0]
        if all(cross(first, v) == 0 for v, _ in counts[1:]):
            raise DegreeError("not full-dimensional")
        object.__setattr__(self, "counts", counts)

    @property
    def kappa(self) -> int:
        return sum(k for _, k in self.counts)

    def is_primitive(self) -> bool:
        return all(primitive(v)[1] == 1 for v, _ in self.counts)

    def canonical_spec(self) -> str:
        """Deterministic `vectors:` spec string; used as a cache key."""
        return "vectors:" + ";".join(f"({x},{y})x{k}" for (x, y), k in self.counts)


@dataclass(frozen=True, slots=True)
class LatticePolygon:
    """Strictly convex lattice polygon, canonical translate, CCW vertex order.

    The constructor accepts the vertex cycle in either orientation, rotates it
    to start at the lexicographically smallest vertex, and translates so both
    coordinate minima are 0.  Three consecutive collinear vertices (or any
    non-convexity) are rejected.
    """

    vertices: tuple[Vec, ...]

    def __post_init__(self):
        vs = [_int_vec(v, PolygonError) for v in self.vertices]
        if len(vs) < 3:
            raise PolygonError("a polygon needs at least three vertices")
        area2 = sum(cross(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs)))
        if area2 == 0:
            raise PolygonError("not full-dimensional")
        if area2 < 0:
            vs.reverse()
        n = len(vs)
        for i in range(n):
            a, b, c = vs[i], vs[(i + 1) % n], vs[(i + 2) % n]
            turn = cross(vsub(b, a), vsub(c, b))
            if turn <= 0:
                raise PolygonError("vertices are not in strictly convex position")
        minx = min(v[0] for v in vs)
        miny = min(v[1] for v in vs)
        vs = [(x - minx, y - miny) for x, y in vs]
        start = min(range(n), key=lambda i: vs[i])
        vs = vs[start:] + vs[:start]
        object.__setattr__(self, "vertices", tuple(vs))

    @classmethod
    def from_points(cls, points: Iterable[Vec]) -> "LatticePolygon":
        """Convex hull of an arbitrary finite point set."""
        hull = convex_hull(points)
        if len(hull) < 3:
            raise PolygonError("not full-dimensional")
        return cls(hull)

    def edges(self) -> list[tuple[Vec, Vec]]:
        vs = self.vertices
        return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]

    def sides(self) -> list[tuple[Vec, int]]:
        """(primitive outward normal, integer side length) per side, CCW order."""
        out = []
        for a, b in self.edges():
            e = vsub(b, a)
            p, length = primitive((e[1], -e[0]))
            out.append((p, length))
        return out

    def contains(self, point: Vec) -> bool:
        for a, b in self.edges():
            if cross(vsub(b, a), vsub(point, a)) < 0:
                return False
        return True

    def bounding_box(self) -> tuple[int, int, int, int]:
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        return min(xs), min(ys), max(xs), max(ys)

    def lattice_points(self) -> tuple[Vec, ...]:
        x0, y0, x1, y1 = self.bounding_box()
        return tuple(
            (x, y)
            for x in range(x0, x1 + 1)
            for y in range(y0, y1 + 1)
            if self.contains((x, y))
        )


def convex_hull(points: Iterable[Vec]) -> list[Vec]:
    """Andrew's monotone chain; returns hull vertices in CCW order."""
    pts = sorted(set(_int_vec(p, PolygonError) for p in points))
    if len(pts) <= 2:
        return pts
    lower: list[Vec] = []
    for p in pts:
        while len(lower) >= 2 and cross(vsub(lower[-1], lower[-2]), vsub(p, lower[-2])) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Vec] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(vsub(upper[-1], upper[-2]), vsub(p, upper[-2])) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def dual_polygon(deg: BalancedDegree) -> LatticePolygon:
    """The lattice polygon whose sides are orthogonal to the degree's classes.

    Each direction class with sum S contributes the edge vector
    rot90(S) = (-S_y, S_x); walking the edge vectors in CCW order of their
    outward normals closes up exactly because the degree is balanced.
    """
    classes: dict[Vec, Vec] = {}
    for v, k in deg.counts:
        p, _ = primitive(v)
        sx, sy = classes.get(p, (0, 0))
        classes[p] = (sx + k * v[0], sy + k * v[1])
    point = (0, 0)
    verts = []
    for nrm in sorted(classes, key=_direction_key):
        verts.append(point)
        s = classes[nrm]
        point = (point[0] - s[1], point[1] + s[0])
    return LatticePolygon(verts)


def degree_from_polygon(poly: LatticePolygon) -> BalancedDegree:
    """The unique primitive degree dual to the polygon.

    A side of integer length l with primitive outward normal n contributes
    l copies of n (each side has its own normal); `dual_polygon` inverts
    this.
    """
    return BalancedDegree(dict(poly.sides()))


def lattice_counts(poly: LatticePolygon) -> tuple[int, int, int]:
    """(interior points, boundary points, normalized area = 2*Euclidean area)."""
    verts = poly.vertices
    n = len(verts)
    area2 = sum(cross(verts[i], verts[(i + 1) % n]) for i in range(n))
    boundary = sum(length for _, length in poly.sides())
    interior = (area2 - boundary + 2) // 2
    assert area2 == 2 * interior + boundary - 2
    return interior, boundary, area2


def delta_invariant(g: int, deg: BalancedDegree) -> Fraction:
    """Degree of the refined count: interior(dual) - g + (kappa(dual) - kappa)/2.

    An exact half-integer (integral whenever the two kappas share parity,
    in particular for primitive degrees).
    """
    poly = dual_polygon(deg)
    interior, boundary, _ = lattice_counts(poly)
    if g < 0:
        raise ValueError(f"genus {g} is negative")
    if g > interior:
        raise ValueError(
            f"genus {g} too large: the dual polygon has {interior} interior points"
        )
    return Fraction(interior - g) + Fraction(boundary - deg.kappa, 2)


def pi_count(deg: BalancedDegree) -> int:
    """Number of cyclic orders of the degree compatible with the CCW direction order.

    Within a direction class the vectors may be shuffled, except that equal
    vectors are indistinguishable: the count is prod (class size)! over the
    classes divided by prod (copies of each vector)! over the distinct
    vectors.
    """
    sizes: Counter[Vec] = Counter()
    for v, k in deg.counts:
        sizes[primitive(v)[0]] += k
    return prod(factorial(n) for n in sizes.values()) // prod(factorial(k) for _, k in deg.counts)


@dataclass(frozen=True)
class HTransverseShape:
    """Side data of a polygon whose normals are all (0,+-1) or (+-1,k).

    `d_plus`/`d_minus` are the integer lengths of the top/bottom horizontal
    sides (0 when absent).  `d_left` holds, non-increasingly, one slope entry
    per unit of integer length of the left sides: a left side with outward
    normal (-1,k) contributes -k (so the entries decrease bottom-to-top along
    the boundary, matching the right side).  `d_right` likewise holds k for
    each unit of a right side with normal (1,k).  Both lists have length
    d = total vertical extent.
    """

    d_plus: int
    d_minus: int
    d_left: tuple[int, ...]
    d_right: tuple[int, ...]

    def __post_init__(self):
        if list(self.d_left) != sorted(self.d_left, reverse=True):
            raise ValueError("d_left must be non-increasing")
        if list(self.d_right) != sorted(self.d_right, reverse=True):
            raise ValueError("d_right must be non-increasing")
        if len(self.d_left) != len(self.d_right):
            raise ValueError("d_left and d_right must have equal length")
        self.degree()  # raises if the reconstituted multiset is not balanced

    @property
    def d(self) -> int:
        return len(self.d_left)

    def degree(self) -> BalancedDegree:
        ends = Counter({(0, 1): self.d_plus, (0, -1): self.d_minus})
        ends.update((-1, -a) for a in self.d_left)
        ends.update((1, k) for k in self.d_right)
        return BalancedDegree(+ends)  # + drops a side of length 0

    def polygon(self) -> LatticePolygon:
        return dual_polygon(self.degree())


def h_transverse(poly: LatticePolygon) -> Optional[HTransverseShape]:
    """Extract h-transverse side data, or None if some normal is unsuitable."""
    d_plus = d_minus = 0
    left: list[int] = []
    right: list[int] = []
    for (nx, ny), length in poly.sides():
        if (nx, ny) == (0, 1):
            d_plus += length
        elif (nx, ny) == (0, -1):
            d_minus += length
        elif nx == -1:
            left.extend([-ny] * length)
        elif nx == 1:
            right.extend([ny] * length)
        else:
            return None
    return HTransverseShape(
        d_plus=d_plus,
        d_minus=d_minus,
        d_left=tuple(sorted(left, reverse=True)),
        d_right=tuple(sorted(right, reverse=True)),
    )


# -- standard families and degree spec strings --------------------------------

def p2_degree(d: int) -> BalancedDegree:
    """Degree of plane curves of degree d: d copies each of (-1,0),(0,-1),(1,1)."""
    if d < 1:
        raise DegreeError("degree parameter d must be >= 1")
    return BalancedDegree({(-1, 0): d, (0, -1): d, (1, 1): d})

def p1xp1_degree(d: int, r: int) -> BalancedDegree:
    """Bidegree (d,r) on a product of lines: dual polygon is the d-by-r rectangle."""
    if d < 1 or r < 1:
        raise DegreeError("bidegree parameters must be >= 1")
    return BalancedDegree({(0, 1): d, (0, -1): d, (1, 0): r, (-1, 0): r})


def classify_family(deg: BalancedDegree) -> Optional[tuple]:
    """("P2", d) or ("P1xP1", (d, r)) when the degree matches a family.

    The two families that `p2_degree` and `p1xp1_degree` build and
    `parse_degree` reads by name: `analysis.canonical_spec` writes their
    specs by it, and `analysis.delta_minus_1_lower_bound` is stated on them.
    The floor engine takes a wider set of degrees, which its own door
    states.  The distinct vectors decide: balancing forces a(-1,0) +
    b(0,-1) + c(1,1) = 0 to have a = b = c, and equal counts of opposite
    vectors in P1xP1.
    """
    counts = dict(deg.counts)
    if counts.keys() == {(-1, 0), (0, -1), (1, 1)}:
        return ("P2", counts[(-1, 0)])
    if counts.keys() == {(0, 1), (0, -1), (1, 0), (-1, 0)}:
        return ("P1xP1", (counts[(0, 1)], counts[(1, 0)]))
    return None


_VEC_RE = re.compile(r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)")


def _parse_point_list(text: str) -> list[Vec]:
    pts = [(int(a), int(b)) for a, b in _VEC_RE.findall(text)]
    stripped = _VEC_RE.sub("", text).replace(",", "").replace(" ", "")
    if not pts or stripped:
        raise ValueError(f"malformed point list {text!r}")
    return pts


def parse_degree(spec: str) -> BalancedDegree:
    """Parse a degree spec string.

    Forms:
      P2:d=<n>
      P1xP1:d=<n>,r=<m>
      polygon:(x0,y0),(x1,y1),...     (primitive degree of the polygon)
      vectors:(a,b)x<k>;(c,d)x<m>;... (explicit multiset; x<k> optional)
    """
    spec = spec.strip()
    m = re.fullmatch(r"P2:d=(\d+)", spec)
    if m:
        return p2_degree(int(m.group(1)))
    m = re.fullmatch(r"P1xP1:d=(\d+),r=(\d+)", spec)
    if m:
        return p1xp1_degree(int(m.group(1)), int(m.group(2)))
    if spec.startswith("polygon:"):
        pts = _parse_point_list(spec[len("polygon:"):])
        return degree_from_polygon(LatticePolygon.from_points(pts))
    if spec.startswith("vectors:"):
        ends: Counter[Vec] = Counter()  # a repeated entry adds up
        for chunk in spec[len("vectors:"):].split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            m = re.fullmatch(_VEC_RE.pattern + r"(?:x(\d+))?", chunk)
            if not m:
                raise ValueError(f"malformed vector entry {chunk!r}")
            x, y, k = m.groups()
            mult = int(k or 1)
            if mult < 1:
                raise ValueError(f"multiplicity must be positive in {chunk!r}")
            ends[(int(x), int(y))] += mult
        return BalancedDegree(ends)
    raise ValueError(f"unrecognised degree spec {spec!r}")


def genus_max(deg: BalancedDegree) -> int:
    """Largest genus with any curves at all: interior points of the dual polygon."""
    interior, _, _ = lattice_counts(dual_polygon(deg))
    return interior
