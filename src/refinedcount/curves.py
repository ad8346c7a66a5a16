"""Combinatorial planar tropical curves and their multiplicities.

A curve is given purely combinatorially: a connected 3-valent graph with some
dangling (infinite) edges, each edge carrying a primitive direction and a
positive integer weight, balanced at every vertex.  Everything computed here
-- the complex multiplicity, the real multiplicity, the refined multiplicity
(a product of quantum integers over the vertices) and its degree -- depends
only on that data, and the multiplicities only on each vertex's star of
outgoing weighted vectors.  A validated curve stores those stars, gathered in
one pass over its edges, and its scores: validation computes each vertex's
complex multiplicity once, to reject a degenerate vertex (three parallel
vectors), and keeps the `CurveStats` built from them, with the degree, the
balanced multiset of its ends' weighted vectors.  Ends that do not form a
degree are rejected.  `curve_multiplicities` returns the stored record.

Curve files are JSON::

    {"vertices": [{"id": 0}, ...],
     "edges": [{"from": 0, "to": 1, "dir": [0, -1], "weight": 2},
               {"from": 0, "to": "inf", "dir": [1, 1], "weight": 1}, ...]}

with ``dir`` the primitive direction outgoing from ``from``.  Loading then
dumping a file in this canonical layout reproduces it byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional

from .geometry import BalancedDegree, DegreeError, Vec, cross, delta_invariant
from .laurent import _ONE, RefinedPoly, _json_int, _mul_quantum, quantum_integer


class CurveValidationError(ValueError):
    """Invalid curve combinatorics; `stage` names the first violated invariant."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"{stage}: {message}")


@dataclass(frozen=True)
class CurveEdge:
    tail: int
    head: Optional[int]  # None means the edge runs off to infinity
    direction: Vec       # primitive, outgoing from tail
    weight: int

    @property
    def is_infinite(self) -> bool:
        return self.head is None

    def u(self) -> Vec:
        """Weighted outgoing vector at the tail."""
        return (self.weight * self.direction[0], self.weight * self.direction[1])


@dataclass(frozen=True)
class VertexStar:
    """The three outgoing weighted vectors at a trivalent vertex."""

    u1: Vec
    u2: Vec
    u3: Vec

    def __post_init__(self):
        for u in (self.u1, self.u2, self.u3):
            if u == (0, 0):
                raise ValueError("vertex star contains a zero vector")
        s = (self.u1[0] + self.u2[0] + self.u3[0], self.u1[1] + self.u2[1] + self.u3[1])
        if s != (0, 0):
            raise ValueError(f"vertex star is not balanced: sum = {s}")

    def vectors(self) -> tuple[Vec, Vec, Vec]:
        return (self.u1, self.u2, self.u3)

    def weights(self) -> tuple[int, int, int]:
        return tuple(gcd(abs(u[0]), abs(u[1])) for u in self.vectors())


def vertex_complex_mult(star: VertexStar) -> int:
    """Normalized lattice area of the vertex's dual triangle: |det(u1, u2)|.

    Balancing makes the answer independent of which pair of the three
    vectors is used.
    """
    m = abs(cross(star.u1, star.u2))
    if m == 0:
        raise ValueError("degenerate vertex")
    return m


def vertex_interior_points(star: VertexStar) -> int:
    """Interior lattice points of the dual triangle, by Pick's identity.

    The boundary count is the sum of the three edge weights.
    """
    m = vertex_complex_mult(star)
    b = sum(star.weights())
    interior2 = m - b + 2
    assert interior2 >= 0 and interior2 % 2 == 0
    return interior2 // 2


def vertex_real_mult(star: VertexStar) -> int:
    """0 when the complex multiplicity is even, else (-1)^(interior points).

    By Pick, m = 2 * interior + (w1 + w2 + w3) - 2, so m is even exactly
    when the three weights sum to an even number, and only an odd vertex
    needs m (through `vertex_interior_points`).  A degenerate star (m = 0)
    has an even weight sum, so it gets 0.
    """
    if sum(star.weights()) % 2 == 0:
        return 0
    return -1 if vertex_interior_points(star) % 2 else 1


def vertex_refined_mult(star: VertexStar) -> RefinedPoly:
    return quantum_integer(vertex_complex_mult(star))


def _require_ints(stage: str, what: str, *values) -> None:
    """Raise unless every value is an int: a bool or a float is not one."""
    try:
        for x in values:
            _json_int(x)
    except ValueError as exc:
        raise CurveValidationError(stage, f"{what}: {exc}") from None


class CurveCombinatorics:
    """Validated combinatorial curve.  Immutable after construction.

    Validation order is fixed (connectivity, valence, germ data, balancing)
    so that an invalid input always reports the same first failure.  One pass
    over the edges lists each vertex's incident edges, signed +1 at the tail
    and -1 at the head; the connectivity walk, valence and balancing read
    those lists, and each balanced vertex keeps its `VertexStar`, vectors in
    edge order, for `vertex_star`.  Once every vertex is balanced, each
    vertex's complex multiplicity |det(u1, u2)| is computed once: 0 (three
    parallel vectors) fails the balancing stage, and so, last, do ends that
    do not form a `BalancedDegree` (fewer than three, or all parallel).  A
    curve that validates is scored from those multiplicities there and then:
    its `CurveStats` is stored, and `degree` and `curve_multiplicities` read
    it.
    """

    __slots__ = ("vertex_ids", "edges", "_stars", "_stats")

    def __init__(self, vertex_ids, edges):
        vids = tuple(vertex_ids)
        es = tuple(edges)
        _require_ints("connectivity", "vertex id", *vids)
        if len(set(vids)) != len(vids):
            raise CurveValidationError("connectivity", "duplicate vertex ids")
        incident: dict[int, list[tuple[CurveEdge, int]]] = {v: [] for v in vids}
        for e in es:
            _require_ints("connectivity", f"edge {e}", *(v for v in (e.tail, e.head) if v is not None))
            if e.tail not in incident or (e.head is not None and e.head not in incident):
                raise CurveValidationError("connectivity", f"edge {e} references an unknown vertex")
            incident[e.tail].append((e, 1))
            if e.head is not None:
                incident[e.head].append((e, -1))
        if not vids:
            raise CurveValidationError("connectivity", "curve has no vertices")
        # connectivity over finite edges
        seen = {vids[0]}
        stack = [vids[0]]
        while stack:
            for e, sign in incident[stack.pop()]:
                w = e.head if sign > 0 else e.tail
                if w is not None and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(vids):
            raise CurveValidationError("connectivity", "graph is not connected")
        for v, inc in incident.items():
            if len(inc) != 3:
                raise CurveValidationError("valence", f"vertex {v} has valence {len(inc)}, expected 3")
        # germ data: primitive directions, positive integer weights
        for e in es:
            dx, dy = e.direction
            _require_ints("germ", f"edge at vertex {e.tail}", dx, dy, e.weight)
            if (dx, dy) == (0, 0):
                raise CurveValidationError("germ", f"edge at vertex {e.tail} has zero direction")
            if gcd(abs(dx), abs(dy)) != 1:
                raise CurveValidationError("germ", f"direction {e.direction} is not primitive")
            if e.weight < 1:
                raise CurveValidationError("germ", f"weight {e.weight!r} is not a positive integer")
        stars = {}
        for v, inc in incident.items():
            us = [(sign * e.weight * e.direction[0], sign * e.weight * e.direction[1]) for e, sign in inc]
            sx = sum(u[0] for u in us)
            sy = sum(u[1] for u in us)
            if (sx, sy) != (0, 0):
                raise CurveValidationError("balancing", f"vertex {v} sums to ({sx},{sy})")
            stars[v] = VertexStar(*us)
        mults = [abs(cross(star.u1, star.u2)) for star in stars.values()]
        for v, m in zip(stars, mults):
            if m == 0:
                raise CurveValidationError("balancing", f"vertex {v} is degenerate: its vectors are parallel")
        try:
            degree = BalancedDegree([e.u() for e in es if e.is_infinite])
        except DegreeError as exc:
            raise CurveValidationError("balancing", f"the unbounded ends do not form a degree: {exc}") from None
        object.__setattr__(self, "vertex_ids", vids)
        object.__setattr__(self, "edges", es)
        object.__setattr__(self, "_stars", stars)
        mu_c, mu_r, refined = 1, 1, _ONE
        for star, m in zip(stars.values(), mults):
            mu_c *= m
            mu_r *= vertex_real_mult(star)
            refined = _mul_quantum(refined, m)
        refined = RefinedPoly.from_half_units(refined)
        stats = CurveStats(mu_c, mu_r, refined, refined.degree(), self.genus(), degree)
        object.__setattr__(self, "_stats", stats)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("CurveCombinatorics is immutable")

    # -- structure ------------------------------------------------------------

    def vertex_star(self, v: int) -> VertexStar:
        """The star stored at validation: tail edges give +u, head edges -u."""
        return self._stars[v]

    def finite_edges(self) -> list[CurveEdge]:
        return [e for e in self.edges if not e.is_infinite]

    def infinite_edges(self) -> list[CurveEdge]:
        return [e for e in self.edges if e.is_infinite]

    def genus(self) -> int:
        """First Betti number of the bounded subgraph."""
        return len(self.finite_edges()) - len(self.vertex_ids) + 1

    def degree(self) -> BalancedDegree:
        """The degree stored at validation: the ends' weighted vectors."""
        return self._stats.degree

    # -- JSON -----------------------------------------------------------------

    @classmethod
    def from_json_obj(cls, obj: dict) -> "CurveCombinatorics":
        try:
            vids = [_json_int(v["id"]) for v in obj["vertices"]]
            edges = []
            for rec in obj["edges"]:
                head = rec["to"]
                head = None if head == "inf" else _json_int(head)
                dx, dy = map(_json_int, rec["dir"])
                edges.append(CurveEdge(_json_int(rec["from"]), head, (dx, dy), _json_int(rec["weight"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed curve JSON: {exc}") from exc
        return cls(vids, edges)

    @classmethod
    def from_json(cls, text: str) -> "CurveCombinatorics":
        return cls.from_json_obj(json.loads(text))

    def to_json_obj(self) -> dict:
        return {
            "vertices": [{"id": v} for v in self.vertex_ids],
            "edges": [
                {
                    "from": e.tail,
                    "to": "inf" if e.head is None else e.head,
                    "dir": [e.direction[0], e.direction[1]],
                    "weight": e.weight,
                }
                for e in self.edges
            ],
        }

    def to_json(self) -> str:
        """Canonical file layout (one record per line); bit-exact round-trip."""
        obj = self.to_json_obj()
        vert_line = ", ".join(json.dumps(v, separators=(", ", ": ")) for v in obj["vertices"])
        edge_lines = ",\n".join(
            "    " + json.dumps(e, separators=(", ", ": ")) for e in obj["edges"]
        )
        return (
            "{\n"
            f'  "vertices": [{vert_line}],\n'
            '  "edges": [\n'
            f"{edge_lines}\n"
            "  ]\n"
            "}\n"
        )


@dataclass(frozen=True)
class CurveStats:
    mu_complex: int
    mu_real: int
    refined: RefinedPoly
    alpha: Fraction
    genus: int
    degree: BalancedDegree

    def to_json_obj(self) -> dict:
        return {
            "mu_C": self.mu_complex,
            "mu_R": self.mu_real,
            "G": str(self.refined),
            "alpha": str(self.alpha),
            "genus": self.genus,
            "degree": self.degree.canonical_spec(),
        }


def curve_multiplicities(curve: CurveCombinatorics) -> CurveStats:
    """All per-curve multiplicities, stored at validation: mu_C and mu_R are
    the products of the vertices' complex and real multiplicities, and the
    refined multiplicity the product of their quantum integers."""
    return curve._stats


def delta_class(alpha: Fraction | int, g: int, deg: BalancedDegree) -> Fraction:
    """How far the curve's refined degree falls below the generic bound.

    0 identifies a top-degree curve, 1 the next class down, and so on.
    """
    bound = delta_invariant(g, deg)
    i = bound - Fraction(alpha)
    if i < 0:
        raise ValueError("alpha exceeds delta(g, degree)")
    return i


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    applicable: bool
    passed: Optional[bool]
    detail: str

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "applicable": self.applicable,
            "pass": self.passed,
            "detail": self.detail,
        }


def property_report(curve: CurveCombinatorics) -> list[PropertyCheck]:
    """Structural facts about the refined multiplicity, checked concretely.

    All of these hold for every valid curve; a failure would indicate a bug,
    not bad input.  Checks whose hypotheses fail are reported inapplicable.
    """
    stats = curve_multiplicities(curve)
    G = stats.refined
    end_weights = [e.weight for e in curve.infinite_edges()]
    even_ends = sum(1 for w in end_weights if w % 2 == 0)

    checks: list[PropertyCheck] = []
    checks.append(PropertyCheck(
        "symmetric", True, G.is_symmetric(),
        f"G = {G}",
    ))
    checks.append(PropertyCheck(
        "positive_coefficients", True,
        all(v > 0 for _, v in G.half_unit_items()),
        "all stored coefficients positive",
    ))
    checks.append(PropertyCheck(
        "eval_at_1_is_mu_complex", True,
        G.evaluate(1) == stats.mu_complex,
        f"G(1) = {G.evaluate(1)}, mu_C = {stats.mu_complex}",
    ))
    integer_powers = G.has_integer_powers()
    checks.append(PropertyCheck(
        "integer_powers_iff_even_count_of_even_ends", True,
        integer_powers == (even_ends % 2 == 0),
        f"{even_ends} even-weight ends; integer powers: {integer_powers}",
    ))
    all_odd = all(w % 2 for w in end_weights)
    w3mod4 = sum(1 for w in end_weights if w % 4 == 3)
    if all_odd and w3mod4 % 2 == 0:
        checks.append(PropertyCheck(
            "eval_at_-1_is_mu_real", True,
            G.evaluate(-1) == stats.mu_real,
            f"G(-1) = {G.evaluate(-1)}, mu_R = {stats.mu_real}",
        ))
    else:
        checks.append(PropertyCheck(
            "eval_at_-1_is_mu_real", False, None,
            "needs all ends odd-weight with an even number of weights = 3 mod 4",
        ))
    if end_weights and all(w == 1 for w in end_weights):
        ok = G.evaluate(1) == stats.mu_complex and G.evaluate(-1) == stats.mu_real
        checks.append(PropertyCheck(
            "weight_one_ends_corollary", True, ok,
            "both evaluations defined and match",
        ))
    else:
        checks.append(PropertyCheck(
            "weight_one_ends_corollary", False, None,
            "some end has weight > 1",
        ))
    return checks
