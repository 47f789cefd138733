"""The q-weighting phi and the transport of ideal membership."""

import pytest
from hypothesis import given

from rightq import (
    Biword,
    Expression,
    Laurent,
    NotCircular,
    SYSTEM_S,
    SYSTEM_SQ,
    check_circuit_multiplicativity,
    check_principle,
    enumerate_biwords,
    in_ideal,
    inv,
    parse_expression,
    phi,
    phi_inv,
    reduce,
)

from _strategies import circular_expressions, expressions


def ex(text: str) -> Expression:
    return parse_expression(text)


# frozen from the exponent definition inv(bottom) - inv(top)
def test_phi_on_single_biwords():
    assert phi(ex("21/12")) == ex("q^-1*21/12")
    assert phi(ex("12/21")) == ex("q*12/21")
    assert phi(ex("21/21")) == ex("21/21")
    assert phi(ex("e")) == ex("e")
    assert phi(ex("21/11")) == ex("q^-1*21/11")


def test_phi_fixes_coefficients_of_balanced_biwords():
    e = ex("3*q^2*12/12 - q*11/11")
    assert phi(e) == e


@given(expressions())
def test_phi_inverse(e):
    assert phi_inv(phi(e)) == e
    assert phi(phi_inv(e)) == e


@given(expressions())
def test_phi_is_linear(e):
    c = Laurent.q_power(-1, 3)
    assert phi(e.scale(c)) == phi(e).scale(c)
    assert phi(-e) == -phi(e)


@given(circular_expressions(), circular_expressions())
def test_phi_multiplicative_on_circuits(e, f):
    assert check_circuit_multiplicativity(e, f)


def test_phi_not_multiplicative_in_general():
    e = Expression.single(Biword((1,), (2,)))
    f = Expression.single(Biword((2,), (1,)))
    assert phi(e.product(f)) != phi(e).product(phi(f))
    with pytest.raises(NotCircular):
        check_circuit_multiplicativity(e, f)
    with pytest.raises(NotCircular):
        check_circuit_multiplicativity(Expression.unit(), f)


def test_membership_transports_on_generators():
    member = ex("21/21 - 12/12 - 12/21 + 21/12")
    assert in_ideal(member, SYSTEM_S)
    assert in_ideal(phi(member), SYSTEM_SQ)
    assert check_principle(member)

    member2 = ex("21/11 - 12/11")
    assert in_ideal(phi(member2), SYSTEM_SQ)
    assert phi(member2) == ex("q^-1*21/11 - 12/11")
    assert check_principle(member2)


def test_membership_transports_on_non_members():
    for text in ("12/12", "21/12 + e", "q*11/11 - 2*21/21"):
        e = ex(text)
        assert not in_ideal(e, SYSTEM_S)
        assert not in_ideal(phi(e), SYSTEM_SQ)
        assert check_principle(e)


@given(expressions())
def test_principle_on_random_expressions(e):
    assert check_principle(e)


def test_each_weighted_rule_is_its_plain_rule_conjugated_by_phi():
    # The "1 = q" principle on the one table: with d = inv(bottom) -
    # inv(top), each sq coefficient is q^(d(child) - d(pair)) times the
    # plain one, on the model pair (x y / a b).
    for equal, rules in SYSTEM_SQ.stencil.items():
        top, bottom = (2, 1), (1, 1) if equal else (2, 1)
        for (ti, bi, weighted, _), (*_, plain, _) in zip(
            rules, SYSTEM_S.stencil[equal], strict=True
        ):
            child_top = top[::-1] if ti else top
            child_bottom = bottom[::-1] if bi else bottom
            shift = inv(child_bottom) - inv(child_top) - inv(bottom) + inv(top)
            assert weighted == Laurent.q_power(shift, plain)


@pytest.mark.parametrize("r, max_len", [(2, 6), (3, 4)])
def test_weighted_normal_forms_are_plain_ones_through_phi(r, max_len):
    # NF_sq(w) = q^(-d(w)) phi(NF_s(w)) on every biword: 12,842 in all.
    for n in range(max_len + 1):
        for w in enumerate_biwords(r, n):
            single = Expression.single(w)
            plain = reduce(single, SYSTEM_S).normal_form
            shift = Laurent.q_power(inv(w.top) - inv(w.bottom))
            assert reduce(single, SYSTEM_SQ).normal_form == phi(plain).scale(shift)
