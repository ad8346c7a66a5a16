"""Floor-diagram engine for refined curve counts.

Supported degrees: the triangle family P2(d) and the rectangle family
P1xP1(d, r).  A curve stretched in the vertical direction decomposes into
horizontal *floors* joined by vertical *elevators*; only the combinatorics
survives.  Write in(v) / out(v) for the total weight of finite elevators
reaching floor v from below / leaving it upward.

Both families are one parameterization, read off the degree's end counts:
one floor per (-1,0) end, #(0,-1) infinite ends below and #(0,1) above, and
a divergence s = (#(0,-1) - #(0,1)) / #floors that every floor absorbs:

    in(v) + infinite_down(v) - out(v) - infinite_up(v) = s.

So s = 1 for P2(d) (d floors, d ends below, none above) and s = 0 for
P1xP1(d, r) (r floors, d ends below and d above).  Each floor's excess
in(v) - out(v) - s is split between its ends below and above; where ends go
both ways the split is a free choice, so one weighted floor graph may yield
several diagrams.  The family name only gates support (`classify_family`)
and labels the diagrams.

The genus is the cycle count of the floor graph: #elevators - #floors + 1.

`enumerate_diagrams` lists the diagrams with one depth-first loop over the
floors, bottom to top.  At each floor it ends some of the elevators
crossing the gap below, starts new ones and picks the floor's infinite
ends, and it drops a branch once a connected piece of the floors so far has
no elevator going up.  What a floor may start and how it may split its
excess between ends below and above are the *per-floor rules*, and
`_floor_choices` is their one home: the listing and the count below both
call it.  Given the weight arriving at floor v, the ends used below and
above and the elevators left, it yields each non-increasing tuple of
weights v may start, with out(v) no more than the ends left below allow,
together with the excess e and the range of ends below: floor v takes k
ends below and k + e above, for every k that keeps both counts >= 0 and
within the ends left, and the top floor takes every end below still
unused.  The genus prune there drops a tuple once more elevators are left
than the floors above can start: each elevator floor u starts crosses the
gap above u, whose weight is at most d - u * s (the ends below floors
1..u, less what they absorb), so floors v+1..n-1 start at most the sum of
those caps.

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
finite elevator weights, and G(g, deg) = sum nu(D) * mult(D).

`compute_G_floor` evaluates that sum in one sweep up the floors, writing
the markings of every diagram at once; it builds no diagram.  Its letters
are identical within a *class*, the elevators of one weight started by one
floor, and within an *up group*, the upward ends of one floor, so nothing
is divided out:

- between two floors any unwritten letters may be written, one at a time,
  which counts each segment as a multinomial over the classes and groups;
- at floor v, k elevators of a class with m crossing and r unwritten end
  on k of its m - r written letters, in C(m - r, k) ways, so a letter's
  upper floor is named only when it is used;
- floor v slots its downward ends among the l letters already written, in
  C(l + down, down) ways as above, starts new classes, multiplying in
  [w]^2 per elevator, and opens an up group of down + excess upward ends,
  due at the virtual floor n + 1.  The starts and the ends come from
  `_floor_choices`; for P2 the range of ends below is the one count -excess.

A *gap state* keeps only what the rest of the sweep can see: each crossing
class as (weight, m, r), grouped by the connected component of the floors
below but not by its lower floor; the unwritten counts of the up groups,
without their sizes and without the groups fully written; the ends used
below and above, and the elevators left, which fix l.  States with equal
keys add their half-unit dicts.  Each dict sums, over the partial diagrams
and words reaching the state, the word count times prod [w]^2 of the
elevators started so far.  The sweep cuts states by the same rules as the
listing: the per-floor rules, and a component with no elevator going up.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product
from math import comb, factorial
from typing import Iterator, Optional

from .geometry import BalancedDegree, UnsupportedDegreeError
from .laurent import _ONE, RefinedPoly, _accumulate, _mul_quantum


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
    """("P2", d) or ("P1xP1", (d, r)) when the degree matches a family.

    The distinct vectors decide: balancing forces a(-1,0) + b(0,-1) + c(1,1)
    = 0 to have a = b = c, and equal counts of opposite vectors in P1xP1.
    """
    counts = Counter(deg.vectors)
    if counts.keys() == {(-1, 0), (0, -1), (1, 1)}:
        return ("P2", counts[(-1, 0)])
    if counts.keys() == {(0, 1), (0, -1), (1, 0), (-1, 0)}:
        return ("P1xP1", (counts[(0, 1)], counts[(1, 0)]))
    return None


def _floor_parameters(deg: BalancedDegree, g: int) -> tuple[str, int, int, int, int]:
    """(family name, floors, ends below, ends above, divergence s) of the degree.

    Raises UnsupportedDegreeError outside the two families and ValueError
    for a negative genus.
    """
    family = classify_family(deg)
    if family is None:
        raise UnsupportedDegreeError(
            "floor diagrams are implemented for the P2(d) and P1xP1(d,r) families only"
        )
    if g < 0:
        raise ValueError(f"no floor diagrams: genus {g} is negative")
    counts = Counter(deg.vectors)
    n_floors, d, up_ends = counts[(-1, 0)], counts[(0, -1)], counts[(0, 1)]
    return family[0], n_floors, d, up_ends, (d - up_ends) // n_floors  # s is exact


def _room(n: int, d: int, sink: int) -> list[int]:
    """room[v]: how many elevators floors v+1..n-1 can still start.

    Every elevator floor u starts crosses the gap above u, whose weight is at
    most d - u * sink (the ends below floors 1..u, less the divergence they
    absorb): d - u for P2, d for P1xP1.  Floor n starts none.
    """
    room = [0] * (n + 1)
    for u in range(n - 1, 0, -1):
        room[u - 1] = room[u] + d - u * sink
    return room


def enumerate_diagrams(deg: BalancedDegree, g: int) -> list[FloorDiagram]:
    """All floor diagrams for the degree and genus, lexicographically ordered.

    Empty above genus_max; raises ValueError for a negative genus.  The
    depth-first loop of the module docstring, with one suspended generator
    per floor of the current branch.
    """
    family, n, d, up_ends, sink = _floor_parameters(deg, g)
    room = _room(n, d, sink)
    out: list[FloorDiagram] = []

    def grow(v, crossing, comp, done, down, up, left):
        # yields the states of floor v + 1, or lists the diagram once v > n:
        # floor n ends every elevator and takes every end left, so a state
        # past it is a connected diagram of the degree and genus.
        # crossing: (lower, weight) of each elevator crossing the gap under
        # floor v; comp[u-1]: the component label of floor u < v; down / up:
        # the infinite ends of floors 1..v-1.  Equal elevators are ended by
        # count, so each multiset is built once.
        if v > n:
            out.append(FloorDiagram(family, n, tuple(sorted(done)), down, up))
            return
        classes = sorted(Counter(crossing).items())
        counts = [range(m + 1) if v < n else (m,) for _, m in classes]
        for ks in product(*counts):
            ended = [c for (c, _), k in zip(classes, ks) for _ in range(k)]
            passing = [c for (c, m), k in zip(classes, ks) for _ in range(m - k)]
            merged = {comp[lo - 1] for lo, _ in ended} | {v}
            label = min(merged)
            comp_v = tuple(label if c in merged else c for c in comp) + (label,)
            done_v = done + [(lo, v, w) for lo, w in ended]
            arriving = sum(w for _, w in ended)
            for started, e, ends in _floor_choices(v, n, arriving, sum(down), sum(up), left,
                                                   d, sink, up_ends, room):
                nxt = passing + [(v, w) for w in started]
                # every component below floor v + 1 needs an elevator going up
                if v < n and not set(comp_v) <= {comp_v[lo - 1] for lo, _ in nxt}:
                    continue
                for k in ends:
                    yield (v + 1, nxt, comp_v, done_v, down + (k,), up + (k + e,),
                           left - len(started))

    stack = [grow(1, [], (), [], (), (), g + n - 1)]
    while stack:
        for state in stack[-1]:
            stack.append(grow(*state))
            break
        else:
            stack.pop()
    out.sort(key=lambda D: (D.elevators, D.infinite_down, D.infinite_up))
    return out


def _floor_choices(
    v: int, n: int, arriving: int, downs: int, used_up: int, left: int,
    d: int, sink: int, up_ends: int, room: list[int],
) -> Iterator[tuple[tuple[int, ...], int, range]]:
    """What floor v may do, given what the floors below it did.

    Floor v has `arriving` weight ending on it, the floors below used
    `downs` ends below and `used_up` above, and `left` elevators are still
    to start.  Yields (started, e, ends): a non-increasing tuple of weights
    floor v starts, its excess e = in(v) - out(v) - sink, and the range of
    its ends below; with k ends below it takes k + e above.
    """
    most = d - downs + arriving - sink  # largest out(v) with ends below <= d
    for started in _weight_tuples(most, left if v < n else 0, most):
        if left - len(started) > room[v]:
            continue  # the genus prune
        e = arriving - sum(started) - sink
        # the top floor takes every end still unused
        low = max(0, -e, d - downs if v == n else 0)
        yield started, e, range(low, min(d - downs, up_ends - used_up - e) + 1)


def _weight_tuples(max_sum: int, max_len: int, max_w: int) -> Iterator[tuple[int, ...]]:
    """Non-increasing tuples of positive weights <= max_w, summing to <= max_sum."""
    if max_sum < 0:
        return
    yield ()
    if max_len > 0:
        for w in range(min(max_w, max_sum), 0, -1):
            for rest in _weight_tuples(max_sum - w, max_len - 1, w):
                yield (w,) + rest


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


def _weights_multiplicity(weights) -> dict[int, int]:
    """prod [w]^2 over the weights, as a half-unit dict."""
    mult = _ONE
    for w in weights:
        mult = _mul_quantum(_mul_quantum(mult, w), w)
    return mult


def refined_multiplicity(D: FloorDiagram) -> RefinedPoly:
    """Product of [w]^2 over finite elevators."""
    return RefinedPoly.from_half_units(_weights_multiplicity(w for _, _, w in D.elevators))


def compute_G_floor(deg: BalancedDegree, g: int) -> RefinedPoly:
    """Sum of nu(D) * mult(D) over all floor diagrams, in one sweep up the floors.

    The gap states of the module docstring: `states` maps each key
    (components, up groups, ends used below, ends used above, elevators
    left) to its half-unit dict.  No diagram is built.
    """
    _, n, d, up_ends, sink = _floor_parameters(deg, g)
    n_elevators = g + n - 1
    room = _room(n, d, sink)
    starts: dict[tuple[int, ...], tuple[list, dict[int, int]]] = {}
    states = {((), (), 0, 0, n_elevators): _ONE}
    for v in range(1, n + 1):
        nxt: dict[tuple, dict[int, int]] = {}
        for (comps, ups, downs, used_up, left), val in _write_letters(states).items():
            classes = [(i, c) for i, comp in enumerate(comps) for c in comp]
            unwritten = sum(r for _, (_, _, r) in classes)
            if v == n and unwritten:
                continue  # every elevator ends at floor n, so all are written
            # l: the floors, downward ends, elevators and upward ends written
            placed = v - 1 + downs + n_elevators - left - unwritten + used_up - sum(ups)
            choices = [range(m - r + 1) if v < n else (m,) for _, (_, m, r) in classes]
            for ks in product(*choices):
                # end k of the m - r written letters of each class at floor v
                ways, arriving, merged = 1, 0, set()
                for (i, (w, m, r)), k in zip(classes, ks):
                    if k:
                        ways *= comb(m - r, k)
                        arriving += k * w
                        merged.add(i)
                kept = [comp for i, comp in enumerate(comps) if i not in merged]
                joined = [(w, m - k, r) for (i, (w, m, r)), k in zip(classes, ks)
                          if i in merged and m > k]
                for started, e, ends in _floor_choices(v, n, arriving, downs, used_up, left,
                                                       d, sink, up_ends, room):
                    if started not in starts:
                        starts[started] = ([(w, k, k) for w, k in Counter(started).items()],
                                           _weights_multiplicity(started))
                    new_classes, mult = starts[started]
                    comp_v = joined + new_classes
                    if v < n and not comp_v:
                        continue  # floor v's component has no elevator going up
                    # floor n ends every elevator, which leaves no component
                    key_comps = tuple(sorted(kept + [tuple(sorted(comp_v))])) if v < n else ()
                    for down in ends:
                        up = down + e
                        key = (key_comps, tuple(sorted(ups + (up,))) if up else ups,
                               downs + down, used_up + up, left - len(started))
                        target = nxt.get(key)
                        if target is None:
                            target = nxt[key] = {}
                        _accumulate(target, val, mult, ways * comb(placed + down, down))
        states = nxt
    # the upward ends are due at a virtual floor n + 1: write them all
    done = _write_letters(states).get(((), (), d, up_ends, 0), {})
    return RefinedPoly.from_half_units(done)


def _write_letters(states: dict[tuple, dict[int, int]]) -> dict[tuple, dict[int, int]]:
    """Every state reached from `states` by writing unwritten letters.

    A state's level is its number of unwritten letters.  The letters of a
    class or an up group are identical, so writing one is one step of
    weight 1, down one level; walking the levels top down adds each state's
    value into the states it reaches.  Returns fresh dicts: the values in
    `states` are copied, never added into.
    """
    levels: dict[int, dict[tuple, dict[int, int]]] = {}
    for key, val in states.items():
        comps, ups = key[0], key[1]
        level = sum(r for comp in comps for _, _, r in comp) + sum(ups)
        levels.setdefault(level, {})[key] = dict(val)
    out: dict[tuple, dict[int, int]] = {}
    for level in range(max(levels, default=0), 0, -1):
        below = levels.setdefault(level - 1, {})
        for key, val in levels.get(level, {}).items():
            out[key] = val
            comps, ups, tail = key[0], key[1], key[2:]
            reached = []
            for i, comp in enumerate(comps):
                others = comps[:i] + comps[i + 1:]
                for j, (w, m, r) in enumerate(comp):
                    if r:
                        comp_w = tuple(sorted(comp[:j] + comp[j + 1:] + ((w, m, r - 1),)))
                        reached.append((tuple(sorted(others + (comp_w,))), ups))
            for j, x in enumerate(ups):
                fewer = ups[:j] + ups[j + 1:] + ((x - 1,) if x > 1 else ())
                reached.append((comps, tuple(sorted(fewer))))
            for head in reached:
                target = below.get(head + tail)
                if target is None:
                    target = below[head + tail] = {}
                _accumulate(target, val, _ONE, 1)
    out.update(levels.get(0, {}))
    return out
