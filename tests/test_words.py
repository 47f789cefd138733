"""Word statistics and the Biword type."""

import doctest

import hypothesis.strategies as st
import pytest
from hypothesis import given

import rightq.words
from rightq import Biword, EMPTY_BIWORD, imv, inv

from _strategies import biwords, words


# frozen from brute-force pair enumeration
@pytest.mark.parametrize(
    "word,expected",
    [((), 0), ((1,), 0), ((1, 2, 3), 0), ((2, 3, 1), 2), ((3, 2, 1), 3), ((2, 2), 0)],
)
def test_inv_frozen(word, expected):
    assert inv(word) == expected


# frozen from brute-force pair enumeration
@pytest.mark.parametrize(
    "word,expected",
    [((), 0), ((1, 1), 1), ((1, 2, 3), 0), ((2, 2, 1), 3), ((2, 1, 2), 2)],
)
def test_imv_frozen(word, expected):
    assert imv(word) == expected


@given(st.lists(st.integers(min_value=1, max_value=6), max_size=9).map(tuple))
def test_inv_imv_match_pairwise_definition(w):
    pairs = [(w[i], w[j]) for i in range(len(w)) for j in range(i + 1, len(w))]
    strict = inv(w)
    weak = imv(w)
    assert type(strict) is int and strict == sum(1 for x, y in pairs if x > y)
    assert type(weak) is int and weak == sum(1 for x, y in pairs if x >= y)


@given(words(), words())
def test_inv_splits_over_concatenation(u, v):
    assert inv(u + v) == inv(u) + inv(v) + sum(x > y for x in u for y in v)


@given(words())
def test_imv_minus_inv_counts_equal_pairs(w):
    equal_pairs = sum(
        1
        for i in range(len(w))
        for j in range(i + 1, len(w))
        if w[i] == w[j]
    )
    assert imv(w) - inv(w) == equal_pairs


def test_biword_construction():
    bw = Biword((2, 1), (1, 2))
    assert bw.top == (2, 1) and bw.bottom == (1, 2)
    assert len(bw) == 2
    with pytest.raises(ValueError):
        Biword((1, 2), (1,))
    with pytest.raises(ValueError):
        Biword((0,), (1,))
    with pytest.raises(ValueError):
        Biword((1,), (-2,))
    with pytest.raises(TypeError):
        Biword((2.0, 1.0), (2, 1))
    with pytest.raises(TypeError):
        Biword((2, 1), (2, 1.0))
    with pytest.raises(TypeError):
        Biword((True,), (1,))
    with pytest.raises(TypeError):
        Biword((1,), (False,))


def test_biword_equality_and_hash():
    assert Biword((2, 1), (1, 2)) == Biword((2, 1), (1, 2))
    assert Biword((2, 1), (1, 2)) != Biword((2, 1), (2, 1))
    assert hash(Biword((2, 1), (1, 2))) == hash(Biword((2, 1), (1, 2)))
    assert len({Biword((1,), (1,)), Biword((1,), (1,))}) == 1


def test_biword_ordering_is_length_then_rows():
    a = Biword((9,), (9,))
    b = Biword((1, 1), (1, 1))
    c = Biword((1, 2), (3, 1))
    d = Biword((1, 2), (3, 2))
    assert sorted([d, c, b, a]) == [a, b, c, d]
    with pytest.raises(TypeError, match="not supported"):
        a < 5


def test_concatenation():
    assert Biword((2, 1), (1, 2)) * Biword((1,), (1,)) == Biword((2, 1, 1), (1, 2, 1))
    assert EMPTY_BIWORD * EMPTY_BIWORD == EMPTY_BIWORD
    bw = Biword((1,), (2,))
    assert EMPTY_BIWORD * bw == bw and bw * EMPTY_BIWORD == bw


# frozen from brute-force pair enumeration
def test_inv_minus_inv_plus_frozen():
    assert Biword((3, 2, 1), (2, 3, 1)).inv_minus() == -1
    assert Biword((3, 2, 1), (3, 2, 1)).inv_plus() == 6
    assert Biword((2, 1), (1, 2)).inv_minus() == 0 - 1
    assert Biword((2, 1), (1, 2)).inv_plus() == 0 + 1
    assert EMPTY_BIWORD.inv_minus() == 0
    assert EMPTY_BIWORD.inv_plus() == 0


@given(biwords())
def test_inv_minus_inv_plus_against_definitions(bw):
    assert bw.inv_minus() == inv(bw.bottom) - inv(bw.top)
    assert bw.inv_plus() == imv(bw.bottom) + inv(bw.top)


def test_double_descents_frozen():
    assert Biword((3, 2, 1), (3, 2, 1)).double_descents() == (1, 2)
    assert Biword((1, 2, 3), (3, 2, 1)).double_descents() == ()
    assert Biword((3, 1, 2), (2, 3, 1)).double_descents() == ()
    assert Biword((2, 1), (2, 2)).double_descents() == (1,)
    assert Biword((2, 1), (1, 2)).double_descents() == ()


@given(biwords())
def test_irreducible_means_no_double_descent(bw):
    assert bw.is_irreducible() == (bw.double_descents() == ())


def test_is_circuit():
    assert Biword((2, 1), (1, 2)).is_circuit()
    assert Biword((1, 2, 2), (2, 2, 1)).is_circuit()
    assert not Biword((1, 1), (1, 2)).is_circuit()
    assert EMPTY_BIWORD.is_circuit()


@given(biwords(), biwords())
def test_circuits_multiply(a, b):
    if a.is_circuit() and b.is_circuit():
        assert (a * b).is_circuit()


def test_docstring_examples():
    results = doctest.testmod(rightq.words)
    assert results.attempted > 0 and results.failed == 0
