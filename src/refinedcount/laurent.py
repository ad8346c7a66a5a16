"""Laurent polynomials in one variable y with half-integer exponents.

The refined curve counts computed by this package are Laurent polynomials
whose exponents live in (1/2)Z: products of quantum integers

    [m]_y = y^((m-1)/2) + y^((m-3)/2) + ... + y^((1-m)/2)

pick up half-integer powers whenever m is even.  To stay exact we store a
polynomial as a dict mapping exponent-in-half-units (an int: the key ``e``
stands for the power y^(e/2)) to a nonzero integer coefficient.  All
arithmetic is plain integer arithmetic on these dicts; no floats anywhere.

The raw kernels `_ONE`, `_add`, `_mul`, `_mul_quantum` and `_accumulate` do
this arithmetic: both engines and the curve scorer call them directly on
the dicts, and `RefinedPoly`, which wraps them, is the type they return.
Coefficients of the polynomials produced by the engines are always
positive.  `_add`, `_mul` and `RefinedPoly` allow any nonzero integers, so
intermediate expressions and test constructions are unconstrained.
`_mul_quantum`, which runs in the path engine's innermost recursion, and
`_accumulate`, which adds a scaled product into a dict in place, take
nonnegative coefficients only, so their sums never cancel and they skip
the zero test.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

HalfExp = Union[int, Fraction]

# -- raw kernels on half-unit dicts: arguments and results hold no zero
# coefficient, and a kernel may return an argument as it is, so a dict passed
# in or handed back must never be mutated.

_ONE: dict[int, int] = {0: 1}


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


def _mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            e = e1 + e2
            nv = out.get(e, 0) + v1 * v2
            if nv:
                out[e] = nv
            else:
                del out[e]
    return out


def _mul_quantum(poly: dict[int, int], m: int) -> dict[int, int]:
    """poly * [m]_y, for m >= 1 and poly with nonnegative coefficients."""
    if m == 1:
        return poly
    out: dict[int, int] = {}
    for shift in range(m - 1, -m, -2):
        for e, v in poly.items():
            k = e + shift
            out[k] = out.get(k, 0) + v
    return out


def _accumulate(total: dict[int, int], a: dict[int, int], b: dict[int, int], c: int) -> None:
    """total += c * a * b in place, for a, b with positive coefficients and c > 0."""
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            e = e1 + e2
            total[e] = total.get(e, 0) + c * v1 * v2


def _to_half_units(exponent: HalfExp) -> int:
    """Convert an exponent (int or Fraction with denominator 1 or 2) to half-units."""
    doubled = Fraction(exponent) * 2
    if doubled.denominator != 1:
        raise ValueError(f"exponent {exponent!r} is not a half-integer")
    return int(doubled)


def _json_int(x) -> int:
    """x if it is a JSON integer; int() would truncate a float or pass a bool."""
    if type(x) is not int:
        raise ValueError(f"{x!r} is not an integer")
    return x


class RefinedPoly:
    """Immutable Laurent polynomial in y with exponents in (1/2)Z.

    Construct from a mapping of exponents (ints, Fractions, or raw
    half-units via ``from_half_units``) to integer coefficients.  Zero
    coefficients are dropped; the zero polynomial has an empty dict.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[HalfExp, int] | None = None):
        c: dict[int, int] = {}
        if coeffs:
            for e, v in coeffs.items():
                if not isinstance(v, int):
                    raise TypeError(f"coefficient {v!r} is not an int")
                if v:
                    h = _to_half_units(e)
                    c[h] = c.get(h, 0) + v
                    if not c[h]:
                        del c[h]
        object.__setattr__(self, "_c", c)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_half_units(cls, half_units: Mapping[int, int]) -> "RefinedPoly":
        """Build from a dict keyed by exponents already doubled (half-units)."""
        p = cls.__new__(cls)
        object.__setattr__(p, "_c", {int(e): int(v) for e, v in half_units.items() if v})
        return p

    @classmethod
    def zero(cls) -> "RefinedPoly":
        return cls.from_half_units({})

    @classmethod
    def one(cls) -> "RefinedPoly":
        return cls.from_half_units({0: 1})

    @classmethod
    def constant(cls, n: int) -> "RefinedPoly":
        return cls.from_half_units({0: n})

    # -- basic protocol ------------------------------------------------------

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("RefinedPoly is immutable")

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RefinedPoly):
            return self._c == other._c
        if isinstance(other, int):
            return self._c == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    def __repr__(self) -> str:
        return f"RefinedPoly({self})"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "RefinedPoly | int") -> "RefinedPoly":
        if isinstance(other, int):
            other = RefinedPoly.constant(other)
        if not isinstance(other, RefinedPoly):
            return NotImplemented
        return RefinedPoly.from_half_units(_add(self._c, other._c))

    __radd__ = __add__

    def __sub__(self, other: "RefinedPoly | int") -> "RefinedPoly":
        if not isinstance(other, (RefinedPoly, int)):
            return NotImplemented
        return self + other * -1

    def __mul__(self, other: "RefinedPoly | int") -> "RefinedPoly":
        if isinstance(other, int):
            return RefinedPoly.from_half_units({e: v * other for e, v in self._c.items()})
        if not isinstance(other, RefinedPoly):
            return NotImplemented
        return RefinedPoly.from_half_units(_mul(self._c, other._c))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RefinedPoly":
        if n < 0:
            raise ValueError("negative powers not supported")
        result = RefinedPoly.one()
        for _ in range(n):
            result = result * self
        return result

    # -- queries -------------------------------------------------------------

    def evaluate(self, at: int) -> int:
        """Evaluate at y = 1 or y = -1 (the only points kept exact).

        Evaluation at -1 needs every exponent to be an integer; otherwise the
        value would be imaginary and we refuse.
        """
        if at == 1:
            return sum(self._c.values())
        if at == -1:
            if any(e % 2 for e in self._c):
                raise ValueError("half-integer powers: evaluation at -1 undefined")
            return sum(v if (e // 2) % 2 == 0 else -v for e, v in self._c.items())
        raise ValueError("only evaluation at 1 and -1 is supported")

    def degree(self) -> Fraction:
        """Largest exponent, as a Fraction (integral when all powers are integers)."""
        if not self._c:
            raise ValueError("degree of the zero polynomial is undefined")
        return Fraction(max(self._c), 2)

    def coefficient(self, exponent: HalfExp) -> int:
        return self._c.get(_to_half_units(exponent), 0)

    def is_symmetric(self) -> bool:
        """True when invariant under y -> 1/y."""
        return all(self._c.get(-e) == v for e, v in self._c.items())

    def has_integer_powers(self) -> bool:
        return all(e % 2 == 0 for e in self._c)

    def terms(self) -> Iterator[tuple[Fraction, int]]:
        """(exponent, coefficient) pairs in descending exponent order."""
        for e in sorted(self._c, reverse=True):
            yield Fraction(e, 2), self._c[e]

    def half_unit_items(self) -> list[tuple[int, int]]:
        """(exponent-in-half-units, coefficient) pairs, descending."""
        return [(e, self._c[e]) for e in sorted(self._c, reverse=True)]

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        """Plain text like ``y^3+13*y^2+94*y+404+94*y^-1+13*y^-2+y^-3``.

        Half-integer powers render parenthesised: ``y^(1/2)+y^(-1/2)``.
        """
        if not self._c:
            return "0"
        parts = []
        for e in sorted(self._c, reverse=True):
            v = self._c[e]
            if e == 0:
                term = str(v)
            else:
                if e % 2 == 0:
                    k = e // 2
                    power = "y" if k == 1 else f"y^{k}"
                else:
                    power = f"y^({e}/2)" if e > 0 else f"y^(-{-e}/2)"
                if v == 1:
                    term = power
                elif v == -1:
                    term = f"-{power}"
                else:
                    term = f"{v}*{power}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += term if term.startswith("-") else "+" + term
        return out

    def to_json_obj(self) -> list[list]:
        """JSON-ready form: list of [exponent_half_units, coefficient_string]."""
        return [[e, str(v)] for e, v in self.half_unit_items()]

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json_obj(cls, obj: Iterable) -> "RefinedPoly":
        """Inverse of to_json_obj, accepting only its form: [int, decimal string]
        pairs, so a bool or float is rejected rather than truncated."""
        c: dict[int, int] = {}
        for pair in obj:
            e, v = pair
            e = _json_int(e)
            if not isinstance(v, str) or not re.fullmatch(r"-?[1-9][0-9]*", v):
                raise ValueError(f"malformed polynomial term {pair!r}")
            if e in c:
                raise ValueError(f"duplicate exponent {e} in polynomial JSON")
            c[e] = int(v)
        return cls.from_half_units(c)

    @classmethod
    def from_json(cls, text: str) -> "RefinedPoly":
        return cls.from_json_obj(json.loads(text))


def quantum_integer(m: int) -> RefinedPoly:
    """The quantum integer [m]_y = y^((m-1)/2) + y^((m-3)/2) + ... + y^((1-m)/2).

    Defined for m >= 1; [1] = 1.  Specialises to m at y = 1 and, for odd m,
    to (-1)^((m-1)/2) at y = -1.
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"quantum integer needs a positive integer, got {m!r}")
    return RefinedPoly.from_half_units(_mul_quantum(_ONE, m))
