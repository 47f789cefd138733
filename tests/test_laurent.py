"""The integer Laurent coefficient ring."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from rightq import Laurent
from rightq.laurent import ONE, Q, Q_INV, ZERO, as_laurent

from _strategies import laurents


def test_canonical_form_drops_zeros():
    assert Laurent({0: 0, 2: 0}) == ZERO
    assert not Laurent({})
    assert Laurent({0: 1}) == ONE
    assert Laurent({1: 2, 0: 0}) == Laurent({1: 2})


def test_integer_embedding():
    assert Laurent.integer(5) == 5
    assert Laurent.integer(0).is_zero()
    assert as_laurent(3) == Laurent.integer(3)
    assert as_laurent(ONE) is ONE
    with pytest.raises(TypeError):
        as_laurent(1.5)


def test_q_times_q_inverse_is_one():
    assert Q * Q_INV == ONE


def test_small_products():
    assert (Q + 1) * (Q - 1) == Laurent({2: 1, 0: -1})
    assert (Q + Q_INV) * (Q + Q_INV) == Laurent({2: 1, 0: 2, -2: 1})
    assert Q * 0 == ZERO
    assert -2 * Q == Laurent({1: -2})


@given(laurents, laurents, laurents)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(laurents)
def test_shift_is_multiplication_by_q_power(a):
    assert a.shift(3) == a * Laurent.q_power(3)
    assert a.shift(-2) == a * Laurent.q_power(-2)
    assert a.shift(0) == a


@given(laurents, laurents)
def test_evaluation_is_a_homomorphism(a, b):
    assert (a + b).eval_at_one() == a.eval_at_one() + b.eval_at_one()
    assert (a * b).eval_at_one() == a.eval_at_one() * b.eval_at_one()
    for q in (Fraction(3, 5), Fraction(-7, 2), Fraction(2)):
        assert (a * b).eval_at_rational(q) == a.eval_at_rational(q) * b.eval_at_rational(q)
        assert (a + b).eval_at_rational(q) == a.eval_at_rational(q) + b.eval_at_rational(q)


def test_eval_examples():
    a = Laurent({-1: 1, 0: 2, 2: -1})
    assert a.eval_at_one() == 2
    assert a.eval_at_rational(Fraction(1, 2)) == Fraction(2) + 2 - Fraction(1, 4)
    with pytest.raises(ValueError):
        a.eval_at_rational(0)


@given(laurents, st.integers())
def test_hash_consistent_with_equality(a, n):
    twin = Laurent({e: c for e, c in a.monomials()})
    assert twin == a
    assert hash(twin) == hash(a)
    assert Laurent.integer(n) == n
    assert hash(Laurent.integer(n)) == hash(n)
    assert len({ZERO, 0, ONE, 1}) == 2


def test_str_frozen():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(Laurent.integer(-1)) == "-1"
    assert str(Q) == "q"
    assert str(-1 * Q) == "-q"
    assert str(Laurent.q_power(-1, 2)) == "2*q^-1"
    assert str(Laurent({-1: 1, 0: 2})) == "q^-1 + 2"
    assert str(Laurent({2: -3, 0: 1})) == "1 - 3*q^2"


@pytest.mark.parametrize("other", [Fraction(1), 1.5, "x"])
def test_subtracting_from_a_foreign_value_is_a_type_error(other):
    with pytest.raises(TypeError):
        other - Q


@pytest.mark.parametrize("terms", [{1: 2.5}, {0.5: 1}, {0: Fraction(1, 2)}])
def test_constructor_takes_int_terms_only(terms):
    with pytest.raises(TypeError):
        Laurent(terms)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Laurent.q_power(1, 2.5),
        lambda: Laurent.q_power(0.5),
        lambda: Laurent.integer(1.5),
        lambda: Laurent.integer(Fraction(1, 2)),
        lambda: Laurent({1: True}),
        lambda: Laurent({True: 2}),
        lambda: Laurent.q_power(True, True),
        lambda: Laurent.integer(True),
    ],
    ids=[
        "q_power-coefficient",
        "q_power-exponent",
        "integer",
        "integer-fraction",
        "constructor-bool-coefficient",
        "constructor-bool-exponent",
        "q_power-bools",
        "integer-bool",
    ],
)
def test_public_builders_take_ints_only(build):
    with pytest.raises(TypeError, match="is not over the ints"):
        build()
