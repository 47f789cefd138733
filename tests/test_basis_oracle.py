"""The linear-algebra dimension oracle."""

from fractions import Fraction

import pytest

import rightq.rewrite
from rightq import (
    Expression,
    SYSTEM_S,
    SYSTEM_SQ,
    check_basis_dimension,
    count_irreducible,
    enumerate_biwords,
    rank,
    reduce,
    reduce_biword,
    reducible_pairs,
    relation_matrix,
    spanning_rank,
)
from rightq.basis_oracle import _measure_priority


def transfer_matrix_count(r: int, n: int) -> int:
    """Independent count of double-descent-free biwords of length n.

    Walks length-n paths in the graph on columns (x/a) whose forbidden
    step (x/a) -> (y/b) is x > y and a >= b.
    """
    states = [(x, a) for x in range(1, r + 1) for a in range(1, r + 1)]
    if n == 0:
        return 1
    counts = {s: 1 for s in states}
    for _ in range(n - 1):
        nxt = {}
        for (y, b) in states:
            nxt[(y, b)] = sum(
                c for (x, a), c in counts.items() if not (x > y and a >= b)
            )
        counts = nxt
    return sum(counts.values())


# frozen from the transfer-matrix oracle above
IRREDUCIBLE_R2 = [1, 4, 13, 40, 121, 364, 1093]
IRREDUCIBLE_R3 = [1, 9, 63, 415]


def test_irreducible_counts_match_transfer_matrix():
    for n, expected in enumerate(IRREDUCIBLE_R2):
        assert transfer_matrix_count(2, n) == expected
        assert count_irreducible(2, n) == expected
    for n, expected in enumerate(IRREDUCIBLE_R3):
        assert transfer_matrix_count(3, n) == expected
        assert count_irreducible(3, n) == expected


def test_enumerate_biwords():
    biwords = enumerate_biwords(2, 2)
    assert len(biwords) == 16
    assert len(set(biwords)) == 16
    assert all(len(bw) == 2 for bw in biwords)
    tops = [bw.top for bw in biwords]
    assert tops == sorted(tops)


def test_reducible_pairs():
    pairs = reducible_pairs(2)
    assert [str(p) for p in pairs] == ["21/11", "21/21", "21/22"]
    assert len(reducible_pairs(3)) == 18
    assert all(not p.is_irreducible() for p in reducible_pairs(4))


def test_relation_matrix_smallest_case():
    rows = relation_matrix(2, 2)
    assert len(rows) == 3
    column = {str(bw): j for j, bw in enumerate(enumerate_biwords(2, 2))}
    # the two-term relation rows: generator minus its swap
    for pair_text, image_text in (("21/11", "12/11"), ("21/22", "12/22")):
        row = next(
            r for r in rows if set(r) == {column[pair_text], column[image_text]}
        )
        assert row[column[pair_text]] == 1
        assert row[column[image_text]] == -1
    four_term = next(r for r in rows if len(r) == 4)
    assert sorted(four_term.values()) == [-1, -1, 1, 1]


def test_relation_rows_vanish_under_plain_rewriting():
    for r, n in ((2, 2), (2, 3), (3, 2)):
        biwords = enumerate_biwords(r, n)
        for row in relation_matrix(r, n):
            expr = Expression({biwords[j]: c for j, c in row.items()})
            assert reduce(expr, SYSTEM_S).normal_form.is_zero()


def test_rank_basics():
    assert rank([]) == 0
    assert rank([{0: 1}, {1: 2}, {2: -1}]) == 3
    assert rank([{0: 2, 1: 4}, {0: 1, 1: 2}]) == 1
    assert rank([{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: -1}]) == 2
    assert rank([{}]) == 0
    # explicit zero entries are no pivots
    assert rank([{0: 0}]) == 0
    assert rank([{0: 0, 1: 5}, {1: 5}]) == 1


def test_rank_with_priority_permutation():
    rows = [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: -1}, {0: 3, 1: 2, 2: 1}]
    assert rank(rows) == rank(rows, [2, 0, 1]) == 3


def test_dimension_report_smallest_case():
    report = check_basis_dimension(2, 2)
    assert report.ambient_dim == 16
    assert report.relation_rank == 3
    assert report.quotient_dim == 13
    assert report.irreducible_count == 13
    assert report.match


def test_dimension_report_degenerate_degrees():
    for r in (2, 3):
        zero = check_basis_dimension(r, 0)
        assert zero.ambient_dim == 1 and zero.quotient_dim == 1 and zero.match
        one = check_basis_dimension(r, 1)
        assert one.relation_rank == 0
        assert one.quotient_dim == r * r and one.match


def test_dimension_report_rational_points():
    for q in (Fraction(3, 5), Fraction(-7, 2), 2):
        report = check_basis_dimension(2, 3, q)
        assert report.match
        assert report.relation_rank == check_basis_dimension(2, 3).relation_rank


def test_budget_guard():
    with pytest.raises(ValueError):
        check_basis_dimension(2, 11)
    with pytest.raises(ValueError):
        check_basis_dimension(3, 3, budget=100)


def test_q_zero_rejected():
    with pytest.raises(ValueError):
        check_basis_dimension(2, 2, 0)
    with pytest.raises(ValueError):
        relation_matrix(2, 2, Fraction(0))


def test_float_q_rejected():
    # 0.1 is not 1/10 in binary; ranking at its exact value would be silent.
    for q in (0.1, 1.0):
        with pytest.raises(TypeError, match="exact"):
            check_basis_dimension(2, 3, q)
        with pytest.raises(TypeError, match="exact"):
            relation_matrix(2, 2, q)
    assert check_basis_dimension(2, 2, "3/5").q_value == "3/5"
    assert check_basis_dimension(2, 2, "one").q_value == "1"


@pytest.mark.parametrize("fn", [relation_matrix, spanning_rank])
def test_oracle_rejects_bad_alphabet_or_degree(fn):
    with pytest.raises(ValueError, match="r must be at least 1, got 0"):
        fn(0, 3)
    with pytest.raises(ValueError, match="degree must be at least 0, got -1"):
        fn(2, -1)


def test_irreducibles_are_fixed_points():
    for bw in enumerate_biwords(2, 3):
        if bw.is_irreducible():
            for system in (SYSTEM_S, SYSTEM_SQ):
                assert reduce_biword(bw, system) == Expression.single(bw)


def test_spanning_rank_matches_quotient():
    for n in (0, 1, 2, 3):
        report = check_basis_dimension(2, n)
        assert spanning_rank(2, n) == report.quotient_dim
    assert spanning_rank(3, 2) == check_basis_dimension(3, 2).quotient_dim


_PRIORITY_CASES = [(2, n) for n in range(6)] + [(3, n) for n in range(4)]


@pytest.mark.parametrize("r, n", _PRIORITY_CASES)
def test_measure_priority_orders_columns_by_descending_measure(r, n):
    # reference order: high measure first, ties broken by column index
    biwords = enumerate_biwords(r, n)
    reference = sorted(range(len(biwords)), key=lambda j: (-biwords[j].inv_plus(), j))
    priority = _measure_priority(r, n)
    assert sorted(range(len(biwords)), key=priority.__getitem__) == reference


def test_plain_memo_holds_bare_ints():
    rightq.rewrite.clear_caches()
    spanning_rank(2, 4)
    memo = rightq.rewrite._NF_CACHES["s"]
    assert {(b.top, b.bottom) for b in enumerate_biwords(2, 4)} <= memo.keys()
    assert all(type(c) is int for nf in memo.values() for c in nf.values())
