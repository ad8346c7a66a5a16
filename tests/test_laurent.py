"""Exact arithmetic on Laurent polynomials with half-integer powers."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from refinedcount.laurent import RefinedPoly, _accumulate, _mul_quantum, quantum_integer

polys = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=6).map(
    RefinedPoly.from_half_units
)
integer_power_polys = st.dictionaries(
    st.integers(-3, 3).map(lambda k: 2 * k), st.integers(-9, 9), max_size=6
).map(RefinedPoly.from_half_units)
# raw half-unit dicts for the kernels that take positive coefficients only
positive_dicts = st.dictionaries(st.integers(-6, 6), st.integers(1, 9), max_size=6)


def G04() -> RefinedPoly:
    return RefinedPoly({3: 1, 2: 13, 1: 94, 0: 404, -1: 94, -2: 13, -3: 1})


def test_zero_one_constant():
    assert not RefinedPoly.zero()
    assert RefinedPoly.zero() == 0
    assert RefinedPoly.one() == 1
    assert RefinedPoly.constant(5) == 5
    assert (RefinedPoly.one() == "1") is False
    assert str(RefinedPoly.zero()) == "0"


def test_quantum_integer_small_values():
    assert quantum_integer(1) == RefinedPoly.one()
    assert str(quantum_integer(2)) == "y^(1/2)+y^(-1/2)"
    assert str(quantum_integer(3)) == "y+1+y^-1"
    assert str(quantum_integer(4)) == "y^(3/2)+y^(1/2)+y^(-1/2)+y^(-3/2)"


def test_quantum_integer_rejects_bad_arguments():
    for bad in (0, -3, Fraction(3, 2), "3"):
        with pytest.raises(ValueError):
            quantum_integer(bad)


@given(st.integers(1, 60))
def test_quantum_integer_structure(m):
    q = quantum_integer(m)
    assert q.evaluate(1) == m
    assert q.is_symmetric()
    assert all(v == 1 for _, v in q.half_unit_items())
    assert q.degree() == Fraction(m - 1, 2)
    assert q.has_integer_powers() == (m % 2 == 1)
    if m % 2 == 1:
        assert q.evaluate(-1) == (-1) ** ((m - 1) // 2)
    else:
        with pytest.raises(ValueError):
            q.evaluate(-1)


@given(positive_dicts, st.integers(1, 9))
def test_mul_quantum_kernel_is_the_product_with_quantum_integer(c, m):
    # the shift-and-add kernel, which takes positive coefficients only,
    # against the general product kernel
    product = _mul_quantum(c, m)
    assert 0 not in product.values()
    assert RefinedPoly.from_half_units(product) == RefinedPoly.from_half_units(c) * quantum_integer(m)


@given(positive_dicts, positive_dicts, positive_dicts, st.integers(1, 9))
def test_accumulate_kernel_adds_the_scaled_product_in_place(total, a, b, c):
    P = RefinedPoly.from_half_units
    expected = P(total) + c * P(a) * P(b)
    _accumulate(total, a, b, c)
    assert 0 not in total.values()
    assert P(total) == expected


@given(polys, polys, polys)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + RefinedPoly.zero() == a
    assert a * RefinedPoly.one() == a
    assert a - a == RefinedPoly.zero()


@given(polys, polys)
def test_evaluate_at_1_is_a_ring_map(a, b):
    assert (a + b).evaluate(1) == a.evaluate(1) + b.evaluate(1)
    assert (a * b).evaluate(1) == a.evaluate(1) * b.evaluate(1)


@given(integer_power_polys, integer_power_polys)
def test_evaluate_at_minus_1_is_a_ring_map(a, b):
    assert (a + b).evaluate(-1) == a.evaluate(-1) + b.evaluate(-1)
    assert (a * b).evaluate(-1) == a.evaluate(-1) * b.evaluate(-1)


@given(polys)
def test_json_round_trip(p):
    assert RefinedPoly.from_json(p.to_json()) == p


@given(polys, st.integers(-5, 5))
def test_scalar_arithmetic(p, n):
    assert p * n == p * RefinedPoly.constant(n)
    assert p + n == p + RefinedPoly.constant(n)
    assert p - n == p + (-n)
    assert n * p == p * n


def test_arithmetic_rejects_other_types():
    with pytest.raises(TypeError, match="coefficient 1.5 is not an int"):
        RefinedPoly({0: 1.5})
    for op in (lambda p: p + "1", lambda p: p - "1", lambda p: p * "1"):
        with pytest.raises(TypeError):
            op(RefinedPoly.one())


def test_str_rendering():
    assert str(RefinedPoly({1: 1, 0: 10, -1: 1})) == "y+10+y^-1"
    assert repr(RefinedPoly({1: 1, 0: 10, -1: 1})) == "RefinedPoly(y+10+y^-1)"
    assert str(G04()) == "y^3+13*y^2+94*y+404+94*y^-1+13*y^-2+y^-3"
    assert str(RefinedPoly({1: -1, 0: 3})) == "-y+3"
    assert str(RefinedPoly({2: 3, -2: 3, 0: 21})) == "3*y^2+21+3*y^-2"


def test_evaluate_examples():
    g03 = RefinedPoly({1: 1, 0: 10, -1: 1})
    assert g03.evaluate(1) == 12
    assert g03.evaluate(-1) == 8
    assert G04().evaluate(1) == 620
    assert G04().evaluate(-1) == 240
    with pytest.raises(ValueError):
        g03.evaluate(2)


def test_degree_and_coefficient():
    assert G04().degree() == 3
    assert G04().coefficient(2) == 13
    assert G04().coefficient(5) == 0
    assert quantum_integer(2).degree() == Fraction(1, 2)
    assert quantum_integer(2).coefficient(Fraction(1, 2)) == 1
    with pytest.raises(ValueError):
        RefinedPoly.zero().degree()


def test_symmetry_and_power_parity():
    assert RefinedPoly({1: 1, 0: 10, -1: 1}).is_symmetric()
    assert not RefinedPoly({1: 2, -1: 1}).is_symmetric()
    assert G04().has_integer_powers()
    assert not quantum_integer(2).has_integer_powers()


def test_terms_descending():
    exps = [e for e, _ in G04().terms()]
    assert exps == sorted(exps, reverse=True)
    assert G04().half_unit_items()[0] == (6, 1)


def test_pow():
    assert quantum_integer(2) ** 2 == RefinedPoly({1: 1, 0: 2, -1: 1})
    assert G04() ** 0 == RefinedPoly.one()
    with pytest.raises(ValueError):
        G04() ** -1


def test_from_json_obj_rejects_duplicate_exponents():
    # exponents strictly descend in the one JSON form, so a repeat is out of order too
    for terms in ([[2, "1"], [2, "3"]], [[-2, "1"], [0, "10"], [2, "1"]]):
        with pytest.raises(ValueError, match="^polynomial terms not in canonical form$"):
            RefinedPoly.from_json_obj(terms)


@pytest.mark.parametrize("term", [
    [2, " 1"], [2, "1 "], [2, "1_0"], [2, "\u0661"], [2, "-0"], [2, "01"], [2, "+1"], [2, "0"],
    [2, 1], [2, None], [2, "1", "1"], [True, "1"], [2.0, "1"],
], ids=repr)
def test_from_json_obj_accepts_only_what_to_json_obj_writes(term):
    # each near miss is one that int() or == alone would let through
    terms = G04().to_json_obj()
    for given in (terms, [tuple(t) for t in terms], (t for t in terms)):
        assert RefinedPoly.from_json_obj(given) == G04()
    terms[2] = term
    with pytest.raises(ValueError):
        RefinedPoly.from_json_obj(terms)


def test_non_half_integer_exponent_rejected():
    with pytest.raises(ValueError):
        RefinedPoly({Fraction(1, 3): 1})


def test_immutable():
    p = RefinedPoly.one()
    with pytest.raises(AttributeError):
        p._c = {}
