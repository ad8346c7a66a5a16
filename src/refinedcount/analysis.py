"""Law-checking layer over the two counting engines.

Every computed polynomial obeys structural laws (symmetry, nonnegative
coefficients, degree, leading coefficient); for h-transverse shapes the
second-from-top coefficient has a closed formula; for the standard families
there are guaranteed lower bounds on near-maximal-degree curves; and the two
engines plus all eight lambda orders must agree on every count.  This module
turns each law into an `InvariantReport` check suitable for JSON emission.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional

from .floors import compute_G_floor
from .geometry import (
    BalancedDegree,
    HTransverseShape,
    UnsupportedDegreeError,
    classify_family,
    delta_invariant,
    dual_polygon,
    h_transverse,
    lattice_counts,
    pi_count,
)
from .laurent import RefinedPoly
from .paths import DEFAULT_ORDER, all_orders, compute_G_path


@dataclass
class InvariantReport:
    """A computed polynomial together with pass/fail law checks."""

    degree_spec: str
    genus: int
    G: RefinedPoly
    delta: Optional[Fraction]
    checks: list[dict]

    def all_pass(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def to_json_obj(self) -> dict:
        return {
            "spec": self.degree_spec,
            "genus": self.genus,
            "polynomial": str(self.G),
            "delta": None if self.delta is None else str(self.delta),
            "checks": self.checks,
        }


def canonical_spec(deg: BalancedDegree) -> str:
    """Stable spec string for a degree; inverse of `parse_degree` forms."""
    family = classify_family(deg)
    if family is not None:
        if family[0] == "P2":
            return f"P2:d={family[1]}"
        d, r = family[1]
        return f"P1xP1:d={d},r={r}"
    return deg.canonical_spec()


def _delta(deg: BalancedDegree, g: int) -> Optional[Fraction]:
    """delta of the degree at genus g, or None at a genus with no curves."""
    with suppress(ValueError):
        return delta_invariant(g, deg)
    return None


def _check(name: str, expected, actual, ok: bool) -> dict:
    return {"name": name, "expected": str(expected), "actual": str(actual), "pass": bool(ok)}


def structural_checks(deg: BalancedDegree, g: int, G: RefinedPoly) -> InvariantReport:
    """Shape laws of a computed count: symmetry, positivity, degree, leading term.

    A zero polynomial (genus out of range) passes vacuously: the symmetry and
    positivity checks hold trivially and the degree/leading checks are
    skipped because the zero polynomial has no degree.
    """
    delta = _delta(deg, g)
    symmetric = G.is_symmetric()
    nonnegative = all(v >= 0 for _, v in G.terms())
    checks = [
        _check("symmetric under y -> 1/y", True, symmetric, symmetric),
        _check("nonnegative coefficients", True, nonnegative, nonnegative),
    ]
    if G and delta is not None:
        checks.append(_check("degree equals delta", delta, G.degree(), G.degree() == delta))
        if delta.denominator == 1:
            want = pi_count(deg) * comb(g + int(delta), g)
            got = G.coefficient(delta)
            checks.append(_check("leading coefficient", want, got, got == want))
    return InvariantReport(canonical_spec(deg), g, G, delta, checks)


def a_delta_minus_1_formula(shape: HTransverseShape) -> int:
    """Closed formula for the coefficient one step below the top, at genus 0.

    For an h-transverse polygon with at least one interior lattice point:
    kappa - 2 plus four corrections.  c_plus is 2 when the top side has
    positive length; when the top degenerates to a vertex it is 1 exactly if
    the highest bounded elevator of the extremal dual curve has weight 1 --
    that weight is the width of the polygon one row below the apex, i.e.
    d_right[0] - d_left[-1] in this package's slope convention -- and 0
    otherwise.  c_minus mirrors this at the bottom (weight
    d_left[0] - d_right[-1]).  c_l and c_r count adjacent entries of d_left
    and d_right differing by exactly 1.
    """
    interior, _, _ = lattice_counts(shape.polygon())
    if interior == 0:
        raise ValueError("formula needs an interior lattice point")
    if shape.d_plus > 0:
        c_plus = 2
    else:
        c_plus = 1 if shape.d_right[0] - shape.d_left[-1] == 1 else 0
    if shape.d_minus > 0:
        c_minus = 2
    else:
        c_minus = 1 if shape.d_left[0] - shape.d_right[-1] == 1 else 0
    d_l, d_r = shape.d_left, shape.d_right
    c_l = sum(1 for i in range(len(d_l) - 1) if d_l[i] - d_l[i + 1] == 1)
    c_r = sum(1 for i in range(len(d_r) - 1) if d_r[i] - d_r[i + 1] == 1)
    return shape.degree().kappa - 2 + c_plus + c_minus + c_l + c_r


def delta_minus_1_lower_bound(deg: BalancedDegree) -> tuple[int, int]:
    """(guaranteed minimum, computed slack) for rational near-maximal curves.

    The guaranteed minimum of rational curves one double point short of the
    maximum is 7 for the triangle family (d >= 3) and 8 for the rectangle
    family (d, r >= 2).  The slack is a_{delta-1} minus the largest possible
    contribution of the single maximal curve, kappa - 6 in both families
    (kappa, the number of ends, is 3d, resp. 2d + 2r); the bound is sharp
    exactly when slack == bound.
    """
    family = classify_family(deg)
    if family is None:
        raise ValueError("lower bound stated only for the P2 and P1xP1 families")
    kind, size = family
    if kind == "P2" and size < 3:
        raise ValueError(f"triangle family needs d >= 3, got d={size}")
    if kind == "P1xP1" and min(size) < 2:
        raise ValueError(f"rectangle family needs d, r >= 2, got d={size[0]}, r={size[1]}")
    slack = a_delta_minus_1_formula(h_transverse(dual_polygon(deg))) - (deg.kappa - 6)
    return (7 if kind == "P2" else 8), slack


def cross_validate(deg: BalancedDegree, g: int) -> InvariantReport:
    """Both engines, all eight lambda orders, and the evaluation law.

    The report is partial when the floor engine refuses the degree's shape
    (UnsupportedDegreeError): the agreement check is then omitted rather
    than failed.  The count is the path engine's, whose degrees are
    primitive, so every end has weight 1 and G has integer powers.  The one
    evaluation law is then |G(-1)| <= G(1) with equal parity.
    """
    by_order = {lam.spec(): compute_G_path(deg, g, lam=lam) for lam in all_orders()}
    G = by_order[DEFAULT_ORDER.spec()]
    distinct = len(set(by_order.values()))
    checks = [
        _check(
            "lambda invariance",
            "1 distinct polynomial across 8 orders",
            f"{distinct} distinct",
            distinct == 1,
        )
    ]
    with suppress(UnsupportedDegreeError):
        floor_G = compute_G_floor(deg, g)
        checks.append(_check("engine agreement", G, floor_G, floor_G == G))
    value_1 = G.evaluate(1)
    value_m1 = G.evaluate(-1)
    checks.append(
        _check(
            "evaluations at (1, -1)",
            "|value at -1| <= value at 1, equal parity",
            (value_1, value_m1),
            abs(value_m1) <= value_1 and (value_1 - value_m1) % 2 == 0,
        )
    )
    return InvariantReport(canonical_spec(deg), g, G, _delta(deg, g), checks)


def analyze(deg: BalancedDegree, g: int) -> InvariantReport:
    """Full per-count report: structural laws plus the a_{delta-1} formula.

    The formula check appears only where it applies: genus 0, h-transverse
    dual polygon, nonempty interior.  The degree is primitive (the path
    engine takes no other), so at genus 0 delta is the polygon's interior
    point count, an integer, and positive exactly when the interior is
    nonempty.
    """
    G = compute_G_path(deg, g)
    report = structural_checks(deg, g, G)
    if g == 0 and report.delta > 0:
        shape = h_transverse(dual_polygon(deg))
        if shape is not None:
            want = a_delta_minus_1_formula(shape)
            got = G.coefficient(report.delta - 1)
            report.checks.append(_check("a_{delta-1}", want, got, got == want))
    return report
