"""Floor-diagram engine for refined curve counts.

Supported degrees: the triangle family P2(d) and the rectangle family
P1xP1(d, r).  A curve stretched in the vertical direction decomposes into
horizontal *floors* joined by vertical *elevators*; only the combinatorics
survives.  Write in(v) / out(v) for the total weight of finite elevators
reaching floor v from below / leaving it upward:

* P2(d): d floors (1 = bottom).  Every floor satisfies
  in(v) - out(v) + infinite_down(v) = 1 and the infinite downward weights
  sum to d.  No upward infinite elevators.
* P1xP1(d, r): r floors, out(v) + infinite_up(v) = in(v) + infinite_down(v),
  and the infinite weights sum to d separately up and down.  The split of
  each floor's divergence between up and down ends is a free choice, so one
  weighted floor graph yields several diagrams.

The genus is the cycle count of the floor graph: #elevators - #floors + 1.

Both families are generated by one recursion over the floors, bottom to
top.  At each floor it ends some of the elevators crossing the gap below
and starts new ones, and it drops a branch as soon as the floors so far need
more infinite ends than the degree has, more elevators than the genus
allows, or leave a connected piece with no elevator going up.

A *marking* is a word in the floors and elevators of D that lists the
floors bottom to top, each finite elevator (lower, upper, w) between its
two floors, each downward infinite end before its floor and each upward one
after it.  Words that differ by swapping indistinguishable elevators (equal
finite ones, or infinite ends of one floor on one side) coincide, and
nu(D) counts markings.  `markings_count` writes the word left to right.
The elevators and upward ends that a written floor has started and that are
not yet written are *pending*, each due before its upper floor (an upward
end before a virtual floor n + 1).  Writing one of m pending items due at
the same floor multiplies the count by m.  Floor v may be written once no
pending item is due at v; its infinite_down(v) downward ends are then
slotted among the l letters already written, in C(l + infinite_down(v),
infinite_down(v)) ways.  The result counts words with every finite elevator
and upward end labelled; dividing by k! for each group of k equal finite
elevators and by infinite_up(v)! for each floor gives nu(D).  The downward
ends were slotted as identical letters, so they need no division.

The refined multiplicity of a diagram is mult(D) = prod [w]^2 over its
finite elevator weights, and G(g, deg) = sum nu(D) * mult(D).  Since mult(D)
depends only on the multiset of weights, `compute_G_floor` sums nu(D) per
multiset and forms each product once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product
from math import comb, factorial
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


def enumerate_diagrams(deg: BalancedDegree, g: int) -> list[FloorDiagram]:
    """All floor diagrams for the degree and genus, lexicographically ordered.

    Empty above genus_max; raises ValueError for a negative genus.
    """
    family = classify_family(deg)
    if family is None:
        raise UnsupportedDegreeError(
            "floor diagrams are implemented for the P2(d) and P1xP1(d,r) families only"
        )
    if g < 0:
        raise ValueError(f"no floor diagrams: genus {g} is negative")
    name, params = family
    if name == "P2":
        # each floor absorbs one unit of weight, and no infinite end goes up
        d = n_floors = params
        sink, up_ends = 1, 0
    else:
        d, n_floors = params
        sink, up_ends = 0, d
    out: list[FloorDiagram] = []
    for elevators, excess in _floor_graphs(n_floors, g + n_floors - 1, d, sink, up_ends):
        for down in _down_choices(d, excess):
            assert sum(down) == d
            out.append(FloorDiagram(
                family=name,
                n_floors=n_floors,
                elevators=elevators,
                infinite_down=down,
                infinite_up=tuple(dn + e for dn, e in zip(down, excess)),
            ))
    out.sort(key=lambda D: (D.elevators, D.infinite_down, D.infinite_up))
    return out


def _floor_graphs(
    n: int, n_elevators: int, d: int, sink: int, up_ends: int,
) -> list[tuple[tuple[tuple[int, int, int], ...], tuple[int, ...]]]:
    """Connected weighted floor graphs on floors 1..n, built from the bottom.

    Returns (elevators, excess) pairs: the sorted (lower, upper, weight)
    multiset with exactly `n_elevators` members, and excess[v-1] = in(v) -
    out(v) - sink, so floor v needs max(0, -excess) infinite ends below it
    and max(0, excess) above.  A branch dies as soon as the ends needed so
    far exceed d below or `up_ends` above (this bounds the weight crossing
    each gap: d - t under floor t+1 for P2, d for P1xP1), or a connected
    component of the floors placed so far has no elevator left to leave by.
    """
    found: list = []

    def rec(v, crossing, comp, done, excess, left):
        # crossing: (lower, weight) of each elevator crossing the gap under
        # floor v; comp[u-1]: the component label of floor u < v.  Equal
        # elevators are ended by count, so each multiset is built once.
        downs = sum(max(0, -e) for e in excess)
        ups = sum(max(0, e) for e in excess)
        classes = sorted(Counter(crossing).items())
        counts = [range(m + 1) if v < n else (m,) for _, m in classes]
        for ks in product(*counts):
            ended = [c for (c, _), k in zip(classes, ks) for _ in range(k)]
            passing = [c for (c, m), k in zip(classes, ks) for _ in range(m - k)]
            arriving = sum(w for _, w in ended)
            merged = {comp[lo - 1] for lo, _ in ended} | {v}
            label = min(merged)
            comp_v = tuple(label if c in merged else c for c in comp) + (label,)
            done_v = done + [(lo, v, w) for lo, w in ended]
            most = d - downs + arriving - sink  # largest out(v) with ends below <= d
            for started in _weight_tuples(most, left if v < n else 0, most):
                e = arriving - sum(started) - sink
                if e > up_ends - ups:
                    continue
                if v == n:
                    if left == 0 and len(set(comp_v)) == 1:
                        found.append((tuple(sorted(done_v)), tuple(excess + [e])))
                    continue
                nxt = passing + [(v, w) for w in started]
                if set(comp_v) <= {comp_v[lo - 1] for lo, _ in nxt}:
                    rec(v + 1, nxt, comp_v, done_v, excess + [e], left - len(started))

    rec(1, [], (), [], [], n_elevators)
    return found


def _weight_tuples(max_sum: int, max_len: int, max_w: int) -> Iterator[tuple[int, ...]]:
    """Non-increasing tuples of positive weights <= max_w, summing to <= max_sum."""
    if max_sum < 0:
        return
    yield ()
    if max_len > 0:
        for w in range(min(max_w, max_sum), 0, -1):
            for rest in _weight_tuples(max_sum - w, max_len - 1, w):
                yield (w,) + rest


def _down_choices(d: int, excess: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Nonnegative down-counts per floor summing to d with up-counts >= 0.

    up(v) = down(v) + excess[v-1].  For P2 the minima already sum to d, so
    there is exactly one choice; for P1xP1 the slack is spread freely.
    """
    minima = [max(0, -e) for e in excess]
    n = len(minima)
    slack = d - sum(minima)
    if slack < 0:
        return
    def rec(v: int, left: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        if v == n:
            if left == 0:
                yield tuple(acc)
            return
        for extra in range(left + 1):
            acc.append(minima[v] + extra)
            yield from rec(v + 1, left - extra, acc)
            acc.pop()
    yield from rec(0, slack, [])


# -- markings ------------------------------------------------------------------

def markings_count(D: FloorDiagram) -> int:
    """Number of markings: linear extensions up to indistinguishable swaps.

    The sweep up the floors of the module docstring.  The pending items are
    packed into one int, `bits` bits per due floor (floor u at bit
    bits * (u - 1), the virtual top floor n + 1 at bits * n), and
    levels[s] maps each packing with s pending items to its count of
    labelled words, so a level shares one slotting factor.
    """
    n = D.n_floors
    bits = (len(D.elevators) + sum(D.infinite_up)).bit_length()
    mask = (1 << bits) - 1
    starts = [0] * n  # packed items started at each floor
    n_starts = [0] * n
    for lo, up, _ in D.elevators:
        starts[lo - 1] += 1 << bits * (up - 1)
        n_starts[lo - 1] += 1
    for v, k in enumerate(D.infinite_up):
        starts[v] += k << bits * n
        n_starts[v] += k
    levels = [{0: 1}]
    ahead = 0  # floors, started items and downward ends below the next floor
    for v in range(n + 1):
        # write pending items, largest level first, until none is due at
        # floor v + 1; `ready` keeps the states that may stop here
        due = bits * v
        ready: list[dict[int, int]] = [{} for _ in levels]
        for s in range(len(levels) - 1, 0, -1):
            below = levels[s - 1]
            for p, c in levels[s].items():
                rest = p >> due
                if not rest & mask:
                    ready[s][p] = c
                at = due
                while rest:
                    m = rest & mask
                    if m:
                        q = p - (1 << at)
                        below[q] = below.get(q, 0) + c * m
                    rest >>= bits
                    at += bits
        ready[0] = levels[0]  # only the empty packing, with nothing due
        if v == n:
            break
        down, start = D.infinite_down[v], starts[v]
        levels = [{} for _ in range(n_starts[v])]
        for s, states in enumerate(ready):
            slots = comb(ahead - s + down, down)
            levels.append({p + start: c * slots for p, c in states.items()})
        ahead += 1 + down + n_starts[v]
    labeled = ready[0][0]
    sym = 1
    for k in Counter(D.elevators).values():
        sym *= factorial(k)
    for k in D.infinite_up:
        sym *= factorial(k)
    assert labeled % sym == 0
    return labeled // sym


def _weights_multiplicity(weights) -> RefinedPoly:
    mult = RefinedPoly.one()
    for w in weights:
        q = quantum_integer(w)
        mult = mult * q * q
    return mult


def refined_multiplicity(D: FloorDiagram) -> RefinedPoly:
    """Product of [w]^2 over finite elevators."""
    return _weights_multiplicity(w for _, _, w in D.elevators)


def compute_G_floor(deg: BalancedDegree, g: int) -> RefinedPoly:
    """Sum of nu(D) * mult(D) over all floor diagrams, one product per weight multiset."""
    nu: dict[tuple[int, ...], int] = {}
    for D in enumerate_diagrams(deg, g):
        weights = tuple(sorted(w for _, _, w in D.elevators))
        nu[weights] = nu.get(weights, 0) + markings_count(D)
    total = RefinedPoly.zero()
    for weights, count in nu.items():
        total = total + count * _weights_multiplicity(weights)
    return total
