"""Floor-diagram engine for refined curve counts.

Supported degrees: the triangle family P2(d) and the rectangle family
P1xP1(d, r).  A curve stretched in the vertical direction decomposes into
horizontal *floors* joined by vertical *elevators*; only the combinatorics
survives:

* P2(d): d floors (1 = bottom).  Writing out(v) / in(v) for the total weight
  of finite elevators leaving floor v downward / entering from below, every
  floor satisfies out(v) - in(v) + infinite_down(v) = 1 and the infinite
  downward weights sum to d.  No upward infinite elevators.
* P1xP1(d, r): r floors, out(v) + infinite_down(v) = in(v) + infinite_up(v),
  and the infinite weights sum to d separately up and down.  The split of
  each floor's divergence between up and down ends is a free choice, so one
  weighted floor graph yields several diagrams.

The genus is the cycle count of the floor graph: #elevators - #floors + 1.

A *marking* orders floors and elevators compatibly with the partial order
"lower endpoint before elevator before upper endpoint" (infinite elevators
sit above/below their floor); markings that differ by swapping
indistinguishable elevators coincide.  nu(D) counts markings; the refined
multiplicity of a diagram is prod [w]^2 over finite elevator weights, and
G(g, deg) = sum nu(D) * mult(D).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from math import factorial
from typing import Iterator, Optional

from .geometry import BalancedDegree, UnsupportedDegreeError, p1xp1_degree, p2_degree
from .laurent import RefinedPoly, quantum_integer


@dataclass(frozen=True)
class FloorDiagram:
    """Floors are 1..n_floors, bottom to top.

    `elevators` is the sorted multiset of finite elevators (lower, upper,
    weight) with lower < upper; `infinite_down[v-1]` / `infinite_up[v-1]`
    count infinite elevators attached below / above floor v (each has
    weight 1; the P2 family has no upward ones).
    """

    family: str                      # "P2" or "P1xP1"
    n_floors: int
    elevators: tuple[tuple[int, int, int], ...]
    infinite_down: tuple[int, ...]
    infinite_up: tuple[int, ...]

    def genus(self) -> int:
        return len(self.elevators) - self.n_floors + 1

    def to_json_obj(self) -> dict:
        return {
            "family": self.family,
            "floors": self.n_floors,
            "elevators": [
                {"lower": lo, "upper": up, "weight": w} for lo, up, w in self.elevators
            ],
            "infinite_down": list(self.infinite_down),
            "infinite_up": list(self.infinite_up),
        }


def classify_family(deg: BalancedDegree) -> Optional[tuple]:
    """("P2", d) or ("P1xP1", (d, r)) when the degree matches a family."""
    counts: dict[tuple[int, int], int] = {}
    for v in deg.vectors:
        counts[v] = counts.get(v, 0) + 1
    keys = set(counts)
    if keys == {(-1, 0), (0, -1), (1, 1)} and len(set(counts.values())) == 1:
        return ("P2", counts[(-1, 0)])
    if keys == {(0, 1), (0, -1), (1, 0), (-1, 0)}:
        if counts[(0, 1)] == counts[(0, -1)] and counts[(1, 0)] == counts[(-1, 0)]:
            return ("P1xP1", (counts[(0, 1)], counts[(1, 0)]))
    return None


def _connected(n_floors: int, edges: tuple[tuple[int, int], ...]) -> bool:
    adj: dict[int, set[int]] = {v: set() for v in range(1, n_floors + 1)}
    for lo, up in edges:
        adj[lo].add(up)
        adj[up].add(lo)
    seen = {1}
    stack = [1]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n_floors


def _weight_assignments(
    edges: tuple[tuple[int, int], ...],
    max_weight: int,
    cut_capacity: list[int],
) -> Iterator[tuple[int, ...]]:
    """All weight tuples; equal parallel edges get non-increasing weights.

    `cut_capacity[t]` bounds the total weight of edges crossing the gap
    between floors t and t+1 (an elevator (lo, up) crosses gaps lo..up-1).
    """
    n = len(edges)
    crossing = [tuple(t for t in range(lo, up)) for lo, up in edges]

    def rec(i: int, used: list[int], acc: list[int]) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(acc)
            return
        hi = max_weight
        if i > 0 and edges[i] == edges[i - 1]:
            hi = min(hi, acc[-1])  # canonical order within a parallel group
        hi = min(hi, *(cut_capacity[t] - used[t] for t in crossing[i]))
        for w in range(1, hi + 1):
            for t in crossing[i]:
                used[t] += w
            acc.append(w)
            yield from rec(i + 1, used, acc)
            acc.pop()
            for t in crossing[i]:
                used[t] -= w
    yield from rec(0, [0] * len(cut_capacity), [])


def enumerate_diagrams(deg: BalancedDegree, g: int) -> list[FloorDiagram]:
    """All floor diagrams for the degree and genus, lexicographically ordered."""
    family = classify_family(deg)
    if family is None:
        raise UnsupportedDegreeError(
            "floor diagrams are implemented for the P2(d) and P1xP1(d,r) families only"
        )
    name, params = family
    out: list[FloorDiagram] = []
    if name == "P2":
        d = params
        n_floors = d
        n_edges = g + d - 1
        if g < 0 or n_edges < n_floors - 1:
            return []
        pairs = [(lo, up) for lo in range(1, d + 1) for up in range(lo + 1, d + 1)]
        # gap between floors t,t+1 can carry at most d - t total weight:
        # everything above floor t needs out-in+down = 1 per floor with down >= 0
        cut_capacity = [0] + [d - t for t in range(1, d)]
        for edge_combo in combinations_with_replacement(pairs, n_edges):
            if not _connected(n_floors, edge_combo):
                continue
            for weights in _weight_assignments(edge_combo, d, cut_capacity):
                down = _p2_infinite_down(d, edge_combo, weights)
                if down is None:
                    continue
                out.append(FloorDiagram(
                    family="P2",
                    n_floors=n_floors,
                    elevators=tuple(sorted(
                        (lo, up, w) for (lo, up), w in zip(edge_combo, weights)
                    )),
                    infinite_down=down,
                    infinite_up=(0,) * n_floors,
                ))
    else:
        d, r = params
        n_floors = r
        n_edges = g + r - 1
        if g < 0 or n_edges < n_floors - 1:
            return []
        pairs = [(lo, up) for lo in range(1, r + 1) for up in range(lo + 1, r + 1)]
        cut_capacity = [0] + [d for _ in range(1, r)]
        for edge_combo in combinations_with_replacement(pairs, n_edges):
            if not _connected(n_floors, edge_combo):
                continue
            for weights in _weight_assignments(edge_combo, d, cut_capacity):
                divergence = [0] * (r + 1)
                for (lo, up), w in zip(edge_combo, weights):
                    divergence[lo] -= w   # leaves upward
                    divergence[up] += w   # arrives from below
                # per floor: infinite_up(v) = infinite_down(v) + divergence[v];
                # the down counts are a free choice subject to nonnegativity
                for down in _p1xp1_down_choices(d, r, divergence):
                    up_counts = tuple(down[v - 1] + divergence[v] for v in range(1, r + 1))
                    out.append(FloorDiagram(
                        family="P1xP1",
                        n_floors=n_floors,
                        elevators=tuple(sorted(
                            (lo, up, w) for (lo, up), w in zip(edge_combo, weights)
                        )),
                        infinite_down=tuple(down),
                        infinite_up=up_counts,
                    ))
    out.sort(key=lambda D: (D.elevators, D.infinite_down, D.infinite_up))
    return out


def _p2_infinite_down(d, edges, weights) -> Optional[tuple[int, ...]]:
    down = [1] * d  # start from the per-floor divergence target
    for (lo, up), w in zip(edges, weights):
        down[up - 1] -= w
        down[lo - 1] += w
    # down[v-1] = 1 - out(v) + in(v) must be a nonnegative count
    if any(c < 0 for c in down):
        return None
    assert sum(down) == d
    return tuple(down)


def _p1xp1_down_choices(d: int, r: int, divergence: list[int]) -> Iterator[list[int]]:
    """Nonnegative down-counts per floor summing to d with up-counts >= 0.

    up(v) = down(v) + divergence[v] where divergence[v] = in(v) - out(v).
    """
    minima = [max(0, -divergence[v]) for v in range(1, r + 1)]
    slack = d - sum(minima)
    if slack < 0:
        return
    def rec(v: int, left: int, acc: list[int]) -> Iterator[list[int]]:
        if v == r:
            if left == 0:
                yield list(acc)
            return
        for extra in range(left + 1):
            acc.append(minima[v] + extra)
            yield from rec(v + 1, left - extra, acc)
            acc.pop()
    yield from rec(0, slack, [])


# -- markings ------------------------------------------------------------------

def _poset_elements(D: FloorDiagram):
    """Elements, cover relations, and indistinguishability groups of a diagram.

    Elements: floors ("F", v), finite elevators ("E", index), infinite ones
    ("D"/"U", floor, copy).  Only predecessor sets matter for counting.
    """
    elements: list = [("F", v) for v in range(1, D.n_floors + 1)]
    preds: dict = {e: set() for e in elements}
    for v in range(2, D.n_floors + 1):
        preds[("F", v)].add(("F", v - 1))
    groups: list[list] = []
    for i, (lo, up, w) in enumerate(D.elevators):
        e = ("E", i)
        elements.append(e)
        preds[e] = {("F", lo)}
        preds[("F", up)].add(e)
    # group parallel elevators of equal weight
    seen_groups: dict[tuple[int, int, int], list] = {}
    for i, triple in enumerate(D.elevators):
        seen_groups.setdefault(triple, []).append(("E", i))
    groups.extend(g for g in seen_groups.values() if len(g) > 1)
    for v in range(1, D.n_floors + 1):
        dn = [("D", v, k) for k in range(D.infinite_down[v - 1])]
        for e in dn:
            elements.append(e)
            preds[e] = set()
            preds[("F", v)].add(e)
        if len(dn) > 1:
            groups.append(dn)
        upw = [("U", v, k) for k in range(D.infinite_up[v - 1])]
        for e in upw:
            elements.append(e)
            preds[e] = {("F", v)}
        if len(upw) > 1:
            groups.append(upw)
    return elements, preds, groups


def markings_count(D: FloorDiagram) -> int:
    """Number of markings: linear extensions up to indistinguishable swaps."""
    elements, preds, groups = _poset_elements(D)
    index = {e: i for i, e in enumerate(elements)}
    pred_masks = [0] * len(elements)
    for e, ps in preds.items():
        m = 0
        for p in ps:
            m |= 1 << index[p]
        pred_masks[index[e]] = m
    full = (1 << len(elements)) - 1

    @lru_cache(maxsize=None)
    def count(mask: int) -> int:
        if mask == full:
            return 1
        total = 0
        for i in range(len(elements)):
            bit = 1 << i
            if not mask & bit and (pred_masks[i] & mask) == pred_masks[i]:
                total += count(mask | bit)
        return total

    labeled = count(0)
    count.cache_clear()
    sym = 1
    for grp in groups:
        sym *= factorial(len(grp))
    assert labeled % sym == 0
    return labeled // sym


def refined_multiplicity(D: FloorDiagram) -> RefinedPoly:
    """Product of [w]^2 over finite elevators."""
    mult = RefinedPoly.one()
    for _, _, w in D.elevators:
        q = quantum_integer(w)
        mult = mult * q * q
    return mult


def compute_G_floor(deg: BalancedDegree, g: int) -> RefinedPoly:
    """Sum of nu(D) * mult(D) over all floor diagrams."""
    total = RefinedPoly.zero()
    for D in enumerate_diagrams(deg, g):
        total = total + markings_count(D) * refined_multiplicity(D)
    return total
