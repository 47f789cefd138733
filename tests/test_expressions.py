"""The free module of biword expressions and its graded product."""

import pytest
from hypothesis import given

from rightq import Biword, EMPTY_BIWORD, Expression, Laurent

from _strategies import circular_expressions, expressions, laurents


def test_zero_unit_single():
    assert Expression.zero().is_zero()
    assert not Expression.zero()
    unit = Expression.unit()
    assert unit.coefficient(EMPTY_BIWORD) == 1
    assert len(unit) == 1
    bw = Biword((2, 1), (1, 1))
    assert Expression.single(bw).coefficient(bw) == 1
    assert Expression.single(bw, 0).is_zero()


def test_construction_drops_zero_coefficients():
    bw = Biword((1,), (1,))
    assert Expression({bw: Laurent.integer(0)}).is_zero()
    assert Expression({bw: 2}).coefficient(bw) == 2


def test_construction_takes_int_coefficients_only():
    bw = Biword((2, 1), (1, 2))
    with pytest.raises(TypeError, match="cannot use bool"):
        Expression({bw: True})
    with pytest.raises(TypeError, match="cannot use bool"):
        Expression.single(bw, True)


def test_terms_are_sorted_canonically():
    a = Biword((2,), (1,))
    b = Biword((1, 1), (2, 1))
    c = Biword((2, 1), (1, 1))
    expr = Expression({c: 1, a: 1, b: 1})
    assert [t for t, _ in expr.terms()] == [a, b, c]
    assert expr.support() == (a, b, c)


@given(expressions(), expressions(), expressions())
def test_module_axioms(e, f, g):
    assert e + f == f + e
    assert (e + f) + g == e + (f + g)
    assert e - e == Expression.zero()
    assert e + Expression.zero() == e
    assert -(-e) == e


@given(expressions(), laurents, laurents)
def test_scaling(e, a, b):
    assert e.scale(a).scale(b) == e.scale(a * b)
    assert e.scale(1) == e
    assert e.scale(0).is_zero()
    assert a * e == e.scale(a)
    assert 3 * e == e.scale(3)


def test_product_concatenates():
    a = Expression.single(Biword((2,), (1,)), 2)
    b = Expression.single(Biword((1,), (2,)), Laurent.q_power(1))
    ab = a.product(b)
    assert ab == Expression.single(Biword((2, 1), (1, 2)), Laurent.q_power(1, 2))


@given(expressions(max_terms=3, max_size=3), expressions(max_terms=3, max_size=3))
def test_product_bilinear(e, f):
    g = Expression.single(Biword((1,), (1,)))
    assert (e + f).product(g) == e.product(g) + f.product(g)
    assert g.product(e + f) == g.product(e) + g.product(f)


@given(
    expressions(max_terms=2, max_size=2),
    expressions(max_terms=2, max_size=2),
    expressions(max_terms=2, max_size=2),
)
def test_product_associative(e, f, g):
    assert e.product(f).product(g) == e.product(f.product(g))


@given(expressions())
def test_unit_is_neutral(e):
    assert Expression.unit().product(e) == e
    assert e.product(Expression.unit()) == e


@given(expressions(max_terms=3, max_size=3), expressions(max_terms=3, max_size=3))
def test_truncated_product_is_a_truncation(e, f):
    full = e.product(f)
    for cut in (0, 1, 2, 3):
        truncated = e.product(f, max_degree=cut)
        expected = Expression.zero()
        for d in range(cut + 1):
            expected = expected + full.homogeneous_component(d)
        assert truncated == expected


def test_truncated_product_refuses_a_negative_degree():
    e = Expression.unit()
    with pytest.raises(ValueError, match="max_degree must be at least 0, got -1"):
        e.product(e, max_degree=-1)
    assert e.product(e, max_degree=0) == e


@given(expressions())
def test_homogeneous_components_partition(e):
    total = Expression.zero()
    for d in range(e.max_length() + 1):
        comp = e.homogeneous_component(d)
        assert all(len(bw) == d for bw in comp.support())
        total = total + comp
    assert total == e


@given(expressions(max_terms=3, max_size=3), expressions(max_terms=3, max_size=3))
def test_product_is_graded(e, f):
    ef = e.product(f)
    for n in range(ef.max_length() + 1):
        expected = Expression.zero()
        for i in range(n + 1):
            expected = expected + e.homogeneous_component(i).product(
                f.homogeneous_component(n - i)
            )
        assert ef.homogeneous_component(n) == expected


def _pairwise_product(e: Expression, f: Expression) -> Expression:
    """Reference product: every pair of terms concatenated, one at a time."""
    total = Expression.zero()
    for a, ca in e.terms():
        for b, cb in f.terms():
            total = total + Expression.single(a * b, ca * cb)
    return total


@given(expressions(max_terms=3, max_size=3), expressions(max_terms=3, max_size=3))
def test_product_matches_pairwise_reference(e, f):
    reference = _pairwise_product(e, f)
    assert e.product(f) == reference
    for cut in (0, 2, 6):
        truncated = e.product(f, max_degree=cut)
        assert truncated.max_length() <= cut
        for d in range(cut + 1):
            component = truncated.homogeneous_component(d)
            assert component == reference.homogeneous_component(d)


@given(circular_expressions(), circular_expressions())
def test_circular_closed_under_product(e, f):
    assert e.is_circular() and f.is_circular()
    assert e.product(f).is_circular()
    assert (e + f).is_circular()


def test_is_irreducible():
    good = Expression({Biword((1, 2), (2, 1)): 1, Biword((2, 1), (1, 2)): 1})
    assert good.is_irreducible()
    bad = good + Expression.single(Biword((2, 1), (1, 1)))
    assert not bad.is_irreducible()


def test_eval_at_one():
    bw = Biword((2, 1), (2, 1))
    e = Expression({bw: Laurent({1: 1, 0: -1})})
    assert e.eval_at_one().is_zero()
    f = Expression({bw: Laurent({1: 1, 0: 1})})
    assert f.eval_at_one() == Expression.single(bw, 2)


def test_max_length():
    assert Expression.zero().max_length() == 0
    assert Expression.unit().max_length() == 0
    assert Expression.single(Biword((1, 1), (1, 1))).max_length() == 2
