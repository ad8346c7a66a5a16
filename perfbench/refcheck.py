"""Reference checks for benchmark results, sharing no code with either engine.

A count arrives as the JSON form of a polynomial: a list of
``[exponent_in_half_units, coefficient_string]`` pairs.  It is checked
against

* the Kontsevich recursion for N_d (rational plane curves) at y = 1,
* the Welschinger numbers W_d (real rational plane curves) at y = -1,
* Getzler's counts of plane elliptic curves at y = 1,
* the exact polynomial recorded in ``references.json``.

This module imports nothing from ``refinedcount``: the benchmark's workers
import it, and so do the self-tests, without loading the package.
"""

from __future__ import annotations

import json
from functools import lru_cache
from math import comb
from pathlib import Path

REFERENCES_FILE = Path(__file__).with_name("references.json")

# Itenberg-Kharlamov-Shustin; Mikhalkin, JAMS 2005.
WELSCHINGER = {1: 1, 2: 1, 3: 8, 4: 240, 5: 18264, 6: 2845440}

# Getzler, "Intersection theory on M_{1,4} and elliptic Gromov-Witten
# invariants", JAMS 1997: irreducible plane curves of genus 1 and degree d.
GETZLER_GENUS_1 = {3: 1, 4: 225, 5: 87192, 6: 57435240}


@lru_cache(maxsize=None)
def kontsevich(d: int) -> int:
    """Rational plane curves of degree d through 3d - 1 general points."""
    if d == 1:
        return 1
    total = 0
    for d1 in range(1, d):
        d2 = d - d1
        total += kontsevich(d1) * kontsevich(d2) * (
            d1 * d1 * d2 * d2 * comb(3 * d - 4, 3 * d1 - 2)
            - d1 ** 3 * d2 * comb(3 * d - 4, 3 * d1 - 1)
        )
    return total


def count_key(spec: str, g: int) -> str:
    return f"{spec} g={g}"


def poly_dict(obj) -> dict[int, int]:
    """Half-unit exponent -> coefficient, from the polynomial's JSON form."""
    out: dict[int, int] = {}
    for e, c in obj:
        if int(c):
            out[int(e)] = out.get(int(e), 0) + int(c)
    return out


def evaluate(poly: dict[int, int], y: int) -> int:
    """Value at y = 1 or y = -1; at -1 every exponent must be an integer."""
    if y == 1:
        return sum(poly.values())
    if any(e % 2 for e in poly):
        raise ValueError("half-integer power has no integer value at y = -1")
    return sum(c if e % 4 == 0 else -c for e, c in poly.items())


def p2_degree_of(spec: str):
    """d for a spec "P2:d=<d>", else None."""
    if spec.startswith("P2:d="):
        return int(spec[len("P2:d="):])
    return None


def p1xp1_mirror(spec: str):
    """"P1xP1:d=b,r=a" for "P1xP1:d=a,r=b" with a != b, else None.

    Swapping the factors of P1 x P1 leaves every count unchanged, while the
    floor engine builds the two degrees from different diagrams.
    """
    if not spec.startswith("P1xP1:"):
        return None
    d, r = (part.split("=")[1] for part in spec[len("P1xP1:"):].split(","))
    return None if d == r else f"P1xP1:d={r},r={d}"


def load_references(path: Path = REFERENCES_FILE) -> dict:
    with path.open(encoding="utf-8") as fh:
        return json.load(fh)


def check_count(refs: dict, spec: str, g: int, poly_obj) -> list[str]:
    """Every way the count misses its references; empty when it matches."""
    problems = []
    poly = poly_dict(poly_obj)
    entry = refs["counts"].get(count_key(spec, g))
    if entry is None:
        problems.append("no recorded reference polynomial")
    elif poly_dict(entry["poly"]) != poly:
        problems.append(f"polynomial differs from the recorded reference {entry['poly']}")
    d = p2_degree_of(spec)
    if d is not None and g == 0:
        if evaluate(poly, 1) != kontsevich(d):
            problems.append(f"value at y=1 is {evaluate(poly, 1)}, Kontsevich N_{d} = {kontsevich(d)}")
        if d in WELSCHINGER:
            try:
                real = evaluate(poly, -1)
            except ValueError as exc:
                problems.append(str(exc))
            else:
                if real != WELSCHINGER[d]:
                    problems.append(f"value at y=-1 is {real}, Welschinger W_{d} = {WELSCHINGER[d]}")
    if d in GETZLER_GENUS_1 and g == 1 and evaluate(poly, 1) != GETZLER_GENUS_1[d]:
        problems.append(
            f"value at y=1 is {evaluate(poly, 1)}, Getzler's genus-1 count is {GETZLER_GENUS_1[d]}"
        )
    return problems


def check_curve(refs: dict, name: str, stats: dict, failed_checks: list[str]) -> list[str]:
    """A corpus curve's scores against the recorded ones; its laws must hold."""
    problems = []
    entry = refs["curves"].get(name)
    if entry is None:
        problems.append("no recorded reference scores")
    elif entry["stats"] != stats:
        problems.append(f"scores {stats} differ from the recorded {entry['stats']}")
    problems.extend(f"property {c} failed" for c in failed_checks)
    return problems
