"""The linear-algebra dimension oracle."""

import hashlib
import itertools
import math
import time
from collections import Counter
from fractions import Fraction
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given

import rightq.rewrite
from rightq import basis_oracle
from rightq import (
    Expression,
    SYSTEM_S,
    SYSTEM_SQ,
    check_ambiguity,
    check_basis_dimension,
    count_irreducible,
    enumerate_biwords,
    rank,
    reduce,
    relation_matrix,
    spanning_rank,
)
from rightq.basis_oracle import (
    _Degree,
    _block_ranks,
    _closed_form,
    _measure_priority,
    _relation_blocks,
    _relation_stencil,
)

from _wrong_tables import WRONG_RULES, use_wrong_rules


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


def snapshot(rows):
    return [list(row.items()) for row in rows]


@pytest.mark.parametrize(
    "rows",
    [
        relation_matrix(2, 4, Fraction(3, 5)),
        [{0: 0, 1: 6, 2: -4}, {1: 3, 2: 0, 3: -2}, {0: 0}, {}, {1: -9, 3: 6}],
    ],
    ids=["q=3/5", "zeros"],
)
def test_rank_leaves_its_input_rows_unchanged(rows):
    before = snapshot(rows)
    columns = {j for row in rows for j in row}
    priority = {j: -j for j in columns}
    assert rank(rows) == rank(rows, priority)
    assert snapshot(rows) == before


def fraction_rank(rows, columns):
    """Rank by Gaussian elimination over the rationals, on dense rows."""
    matrix = [[Fraction(row.get(j, 0)) for j in range(columns)] for row in rows]
    found = 0
    for j in range(columns):
        pivot = next((i for i in range(found, len(matrix)) if matrix[i][j]), None)
        if pivot is None:
            continue
        matrix[found], matrix[pivot] = matrix[pivot], matrix[found]
        top = matrix[found]
        for i in range(found + 1, len(matrix)):
            factor = matrix[i][j] / top[j]
            matrix[i] = [x - factor * y for x, y in zip(matrix[i], top)]
        found += 1
    return found


_COLUMNS = 6


@st.composite
def sparse_matrices(draw):
    """Rows with zero entries, negative leads and non-unit content, and
    repeats of earlier rows under a scalar factor."""
    entries = st.dictionaries(
        st.integers(0, _COLUMNS - 1), st.integers(-12, 12), max_size=_COLUMNS
    )
    content = st.sampled_from([1, 1, 2, 3, 6])
    rows = [
        {j: v * c for j, v in row.items()}
        for row, c in draw(st.lists(st.tuples(entries, content), max_size=8))
    ]
    for i, factor in draw(
        st.lists(st.tuples(st.integers(0, 7), st.sampled_from([1, -1, 2, -3])))
    ):
        if i < len(rows):
            rows.append({j: v * factor for j, v in rows[i].items()})
    return draw(st.permutations(rows))


@given(sparse_matrices(), st.permutations(range(_COLUMNS)))
def test_rank_equals_rational_elimination(rows, priority):
    expected = fraction_rank(rows, _COLUMNS)
    assert rank(rows) == expected
    assert rank(rows, priority) == expected


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


def test_one_letter_at_a_high_degree():
    # One letter never meets the column budget (1^(2n) = 1 column), and the
    # closed form descends from degree 1500 one letter at a time.
    report = check_basis_dimension(1, 1500)
    assert report.quotient_dim == report.irreducible_count == 1
    assert report.closed_form_count == 1
    assert report.match


def test_many_letters_at_degree_one_within_a_wall_budget():
    # 40,000 columns; the closed form of each block recurses over the
    # letters the block holds, not over all 200.
    start = time.perf_counter()
    assert check_basis_dimension(200, 1).match
    elapsed = time.perf_counter() - start
    assert elapsed <= 30.0, f"over budget: {elapsed:.2f}s > 30s"


def test_dimension_report_rational_points():
    for q in (Fraction(3, 5), Fraction(-7, 2), 2):
        report = check_basis_dimension(2, 3, q)
        assert report.match
        assert report.relation_rank == check_basis_dimension(2, 3).relation_rank


def test_budget_guard():
    with pytest.raises(ValueError):
        check_basis_dimension(2, 11)


def test_spanning_rank_budget_guard():
    # Refused before a single normal form is built, in the same words.
    rightq.rewrite.clear_caches()
    with pytest.raises(ValueError) as spanning:
        spanning_rank(2, 11)
    assert not rightq.rewrite._NF_CACHES
    with pytest.raises(ValueError) as dimension:
        check_basis_dimension(2, 11)
    with pytest.raises(ValueError) as matrix:
        relation_matrix(2, 11)
    with pytest.raises(ValueError) as biwords:
        enumerate_biwords(2, 11)
    with pytest.raises(ValueError) as count:
        count_irreducible(2, 11)
    with pytest.raises(ValueError) as priority:
        _measure_priority(2, 11)
    assert str(spanning.value) == str(dimension.value) == str(matrix.value)
    assert str(biwords.value) == str(count.value) == str(matrix.value)
    assert str(priority.value) == str(matrix.value)
    assert "4194304 columns, over the budget of 1000000" in str(spanning.value)


def test_q_zero_rejected():
    with pytest.raises(ValueError):
        check_basis_dimension(2, 2, 0)
    with pytest.raises(ValueError):
        relation_matrix(2, 2, Fraction(0))
    with pytest.raises(ValueError, match="zero denominator"):
        check_basis_dimension(2, 2, "1/0")


def test_float_q_rejected():
    # 0.1 is not 1/10 in binary; ranking at its exact value would be silent.
    for q in (0.1, 1.0, True):
        with pytest.raises(TypeError, match="exact"):
            check_basis_dimension(2, 3, q)
        with pytest.raises(TypeError, match="exact"):
            relation_matrix(2, 2, q)
    assert check_basis_dimension(2, 2, "3/5").q_value == "3/5"
    assert check_basis_dimension(2, 2, "one").q_value == "1"


@pytest.mark.parametrize(
    "fn",
    [
        relation_matrix,
        spanning_rank,
        enumerate_biwords,
        count_irreducible,
        _measure_priority,
    ],
)
def test_oracle_rejects_bad_alphabet_or_degree(fn):
    with pytest.raises(ValueError, match="r must be at least 1, got 0"):
        fn(0, 3)
    with pytest.raises(ValueError, match="degree must be at least 0, got -1"):
        fn(2, -1)


def test_irreducibles_are_fixed_points():
    for bw in enumerate_biwords(2, 3):
        if bw.is_irreducible():
            for system in (SYSTEM_S, SYSTEM_SQ):
                single = Expression.single(bw)
                assert reduce(single, system).normal_form == single


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
    memo = rightq.rewrite._NF_CACHES[SYSTEM_S]
    assert {(b.top, b.bottom) for b in enumerate_biwords(2, 4)} <= memo.keys()
    assert all(type(c) is int for nf in memo.values() for c in nf.values())


_BLOCK_CASES = [(2, n) for n in range(7)] + [(3, n) for n in range(5)]


def per_biword_count(r, n):
    """Irreducible biwords counted one by one, position by position."""
    return sum(
        not any(
            top[i] > top[i + 1] and bottom[i] >= bottom[i + 1] for i in range(n - 1)
        )
        for top in itertools.product(range(1, r + 1), repeat=n)
        for bottom in itertools.product(range(1, r + 1), repeat=n)
    )


@pytest.mark.parametrize("r, n", [(2, 7)] + _BLOCK_CASES)
def test_irreducible_count_equals_per_biword_count(r, n):
    assert count_irreducible(r, n) == per_biword_count(r, n)


def content(word):
    return tuple(sorted(word))


@pytest.mark.parametrize("q", [1, Fraction(3, 5), Fraction(-7, 2)])
@pytest.mark.parametrize("r, n", _BLOCK_CASES)
def test_blocked_rank_equals_whole_rank(r, n, q):
    whole = rank(relation_matrix(r, n, q), _measure_priority(r, n))
    assert check_basis_dimension(r, n, q).relation_rank == whole


def test_relation_rows_lie_in_one_content_block():
    for r, n in ((2, 5), (3, 3)):
        biwords = enumerate_biwords(r, n)
        for q in (1, Fraction(3, 5)):
            for row in relation_matrix(r, n, q):
                blocks = {
                    (content(biwords[j].top), content(biwords[j].bottom)) for j in row
                }
                assert len(blocks) == 1


# sha256 of the sorted rows, each as its sorted (column, value) items;
# frozen from a builder that placed each reducible pair between every
# left and right context, position by position
_RELATION_DIGESTS = {
    (2, 5, "one"): "4f14914894784117614d2a1464a0a1ec2640fe3f7e4b8ede8f989f2b525b44f5",
    (2, 5, "3/5"): "c891dcda456cf93e0f3861fffe97034b5833bcb0ec2f0ed0e629d1a99ce631b1",
    (3, 3, "one"): "bfd3b0d39a8c2e6066c7f96e35ee5035db02066a2344fa0be29a313fce1a62f3",
    (3, 3, "3/5"): "b5b18591a4e00783b712262424725a30faf851a0cde1fc1cc6201ca7f2d2efff",
}


@pytest.mark.parametrize("r, n, q", list(_RELATION_DIGESTS))
def test_relation_matrix_rows_unchanged(r, n, q):
    rows = sorted(tuple(sorted(row.items())) for row in relation_matrix(r, n, q))
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == _RELATION_DIGESTS[r, n, q]


@pytest.mark.parametrize("q", [1, Fraction(3, 5)])
@pytest.mark.parametrize("r, n", [(2, 5), (3, 3), (3, 4)])
def test_relation_matrix_row_order(r, n, q):
    # Block by block, blocks in the order their contents first appear in
    # the base-r word order, top content first; then by top word, bottom
    # word and position.  The order sets the fill-in of ranking it whole.
    biwords = enumerate_biwords(r, n)
    first_seen = {}
    for word in itertools.product(range(1, r + 1), repeat=n):
        first_seen.setdefault(content(word), len(first_seen))
    placed = []
    for row in relation_matrix(r, n, q):
        # The row's own biword has the highest measure of its columns; its
        # position is where the other columns first differ from it.
        w = biwords[max(row, key=lambda j: biwords[j].inv_plus())]
        p = min(
            i
            for j in row
            for i in range(n)
            if (biwords[j].top[i], biwords[j].bottom[i]) != (w.top[i], w.bottom[i])
        )
        block = first_seen[content(w.top)], first_seen[content(w.bottom)]
        placed.append((block, w.top, w.bottom, p))
    assert placed == sorted(set(placed))
    assert len(placed) == sum(len(bw.double_descents()) for bw in biwords)


@pytest.mark.parametrize("q", [Fraction(1), Fraction(3, 5), Fraction(-7, 2)])
def test_relation_stencil_clears_the_weighted_table(q):
    # q = p/s: the two-term rows are scaled by s, the four-term rows by p*s.
    p, s = q.numerator, q.denominator
    assert _relation_stencil(q) == {
        True: [(0, 0, s), (1, 0, -p)],
        False: [(0, 0, p * s), (1, 1, -p * s), (1, 0, -p * p), (0, 1, s * s)],
    }


@pytest.mark.parametrize(
    "name, relation_rank",
    [("swap-q-as-1", 320), ("split-q-inverse-as-q", 321)],
    ids=["swap-q-as-1", "split-q-inverse-as-q"],
)
def test_a_wrong_weighted_table_fails_overlaps_and_rank(
    monkeypatch, name, relation_rank
):
    # The oracle ranks the engine's own sq table, so a wrong rule there
    # must show both as an unresolved overlap and as a wrong rank.
    wrong = use_wrong_rules(monkeypatch, WRONG_RULES[name])
    overlaps = itertools.combinations_with_replacement((3, 2, 1), 3)
    assert not all(check_ambiguity(3, 2, 1, *abc, wrong) for abc in overlaps)
    report = check_basis_dimension(3, 3, Fraction(3, 5))
    assert (report.relation_rank, report.irreducible_count) == (relation_rank, 415)
    assert not report.match


def compositions(r, n):
    return [c for c in itertools.product(range(n + 1), repeat=r) if sum(c) == n]


@pytest.mark.parametrize("r, n", _BLOCK_CASES)
def test_closed_form_equals_brute_count_per_block(r, n):
    def multiplicities(word):
        return tuple(word.count(x) for x in range(1, r + 1))

    brute = Counter(
        (multiplicities(bw.top), multiplicities(bw.bottom))
        for bw in enumerate_biwords(r, n)
        if bw.is_irreducible()
    )
    memo = {}
    for alpha in compositions(r, n):
        for beta in compositions(r, n):
            assert _closed_form(alpha, beta, memo) == brute[alpha, beta]
    assert check_basis_dimension(r, n).closed_form_count == sum(brute.values())


def test_closed_form_lists_each_coefficients_lower_terms_once(monkeypatch):
    calls = Counter()
    lower_terms = basis_oracle._lower_terms

    def counted(top, bottom):
        calls[top, bottom] += 1
        return lower_terms(top, bottom)

    monkeypatch.setattr(basis_oracle, "_lower_terms", counted)
    memo = {}
    _closed_form((2, 2, 1), (1, 2, 2), memo)
    assert len(memo) == 70
    assert calls == Counter(dict.fromkeys(memo, 1))


@pytest.mark.parametrize(
    "shifts",
    [
        {((1, 2), (2, 1)): 1},
        # the total still agrees, but two blocks do not
        {((1, 2), (2, 1)): 1, ((2, 1), (1, 2)): -1},
        # the mirror of the first case: one block of the pair is ranked
        # and the other is not, and each has its closed form compared
        {((2, 1), (1, 2)): 1},
    ],
)
def test_closed_form_disagreement_breaks_match(monkeypatch, shifts):
    closed_form = basis_oracle._closed_form

    def shifted(alpha, beta, memo):
        return closed_form(alpha, beta, memo) + shifts.get((alpha, beta), 0)

    monkeypatch.setattr(basis_oracle, "_closed_form", shifted)
    report = check_basis_dimension(2, 3)
    assert report.quotient_dim == report.irreducible_count == 40
    assert report.closed_form_count == 40 + sum(shifts.values())
    assert not report.match


@pytest.mark.parametrize(
    "r, n, blocks, overlap_rows",
    [(2, 3, 8, 0), (3, 3, 52, 6), (3, 4, 117, 96), (2, 8, 41, 0)],
    ids=["2-3-8", "3-3-52", "3-4-117", "2-8-41"],
)
def test_check_basis_dimension_ranks_once_per_mirror_pair(
    monkeypatch, r, n, blocks, overlap_rows
):
    # 16 blocks, none self-mirror; 100 blocks, 4 of them self-mirror;
    # 225 blocks, 9 of them self-mirror; 81 blocks, 1 of them self-mirror.
    # Each ranked block eliminates only its overlap rows, against leftmost
    # rows built on demand: 96 rows at r = 3, n = 4, and none at r = 2,
    # where no two double descents are adjacent.  No overlap row leaves
    # a remainder, so no block adds an extra pivot.  _Degree.rows, which
    # builds the key and swap tables, runs once, and only if a row is built.
    whole = rank(relation_matrix(r, n), _measure_priority(r, n))
    eliminated = []
    eliminate = basis_oracle._eliminate
    rows_calls = []
    degree_rows = _Degree.rows

    def counted(rows, pivots, key=None, lookup=None):
        rows = list(rows)
        extra = eliminate(rows, pivots, key, lookup)
        eliminated.append((len(rows), extra))
        return extra

    def counted_rows(table, q):
        rows_calls.append(q)
        return degree_rows(table, q)

    monkeypatch.setattr(basis_oracle, "_eliminate", counted)
    monkeypatch.setattr(_Degree, "rows", counted_rows)
    report = check_basis_dimension(r, n)
    assert len(eliminated) == blocks
    assert sum(size for size, _ in eliminated) == overlap_rows
    assert not any(extra for _, extra in eliminated)
    assert len(rows_calls) == (overlap_rows > 0)
    assert report.relation_rank == whole
    assert report.match


def swapped(word, p):
    return word[:p] + (word[p + 1], word[p]) + word[p + 2 :]


def relation_row(stencil, w, p):
    """row(w, p) = w - R_p(w), as {(top, bottom): coefficient}.

    The stencil's rows are cleared of denominators; dividing by the
    pair's own coefficient gives the relation with w at coefficient 1.
    """
    top, bottom = w
    entries = stencil[bottom[p] == bottom[p + 1]]
    lead = entries[0][2]
    row = {}
    for ti, bi, c in entries:
        key = swapped(top, p) if ti else top, swapped(bottom, p) if bi else bottom
        row[key] = Fraction(c, lead)
    return row


def combine(*scaled_rows):
    """sum of factor * row over (factor, row), without its zero entries."""
    total = {}
    for factor, row in scaled_rows:
        for key, c in row.items():
            total[key] = total.get(key, 0) + factor * c
    return {key: c for key, c in total.items() if c}


@pytest.mark.parametrize("q", [Fraction(1), Fraction(3, 5)])
def test_rows_at_disjoint_double_descents_differ_by_lower_rows(q):
    # For p' >= p0 + 2, with p0 the leftmost double descent of w:
    # row(w, p') - row(w, p0)
    #   = sum_k c_k row(u_k, p') - sum_l c'_l row(v_l, p0),
    # where c_k u_k are the terms of R_p0(w) and c'_l v_l those of R_p'(w).
    stencil = _relation_stencil(q)
    dropped = 0
    for n in range(5):
        for bw in enumerate_biwords(3, n):
            w = (bw.top, bw.bottom)
            positions = [i - 1 for i in bw.double_descents()]
            for p in positions[1:]:
                p0 = positions[0]
                if p < p0 + 2:
                    continue
                dropped += 1
                at_p0 = relation_row(stencil, w, p0)
                at_p = relation_row(stencil, w, p)
                left = combine((1, at_p), (-1, at_p0))
                # R_p(w) = w - row(w, p): its terms are row(w, p) negated, w left out.
                r_p0 = [(u, -c) for u, c in at_p0.items() if u != w]
                r_p = [(v, -c) for v, c in at_p.items() if v != w]
                right = combine(
                    *[(c, relation_row(stencil, u, p)) for u, c in r_p0],
                    *[(-c, relation_row(stencil, v, p0)) for v, c in r_p],
                )
                assert left == right
    assert dropped == 324


def block_ranks(r, n, q):
    """Each block's rank from all of its relation rows."""
    return [
        (alpha, beta, rank(rows))
        for alpha, beta, rows in _relation_blocks(_Degree(r, n), q)
    ]


def overlap_ranks(r, n, q):
    """Each block's reducible count plus the rank its overlap rows add."""
    table = _Degree(r, n)
    return [
        (alpha, beta, reducible + extra)
        for alpha, beta, _, reducible, extra in _block_ranks(table, table.blocks(), q)
    ]


_KEPT_CASES = [(3, n) for n in range(5)] + [(4, 3)]


@pytest.mark.parametrize("q", [1, Fraction(3, 5), Fraction(-7, 2)])
@pytest.mark.parametrize("r, n", _KEPT_CASES)
def test_kept_rows_have_each_blocks_rank(r, n, q):
    assert overlap_ranks(r, n, q) == block_ranks(r, n, q)


@pytest.mark.parametrize("name", list(WRONG_RULES))
@pytest.mark.parametrize("r, n", _KEPT_CASES)
def test_kept_rows_have_each_blocks_rank_under_a_wrong_table(
    monkeypatch, r, n, name
):
    use_wrong_rules(monkeypatch, WRONG_RULES[name])
    q = Fraction(3, 5)
    assert overlap_ranks(r, n, q) == block_ranks(r, n, q)


# Integer tables of the stencil's shape; the pair's own coefficient is
# never 0, as in the cleared rows of pair - replacement.
_LEADS = st.integers(-6, 6).filter(bool)
_COEFFICIENTS = st.integers(-6, 6)


@given(_LEADS, _COEFFICIENTS, _LEADS, _COEFFICIENTS, _COEFFICIENTS, _COEFFICIENTS)
def test_kept_rows_have_each_blocks_rank_under_any_table(a, b, c, d, e, f):
    table = {
        True: [(0, 0, a), (1, 0, b)],
        False: [(0, 0, c), (1, 1, d), (1, 0, e), (0, 1, f)],
    }
    with mock.patch.object(basis_oracle, "_relation_stencil", lambda q: table):
        assert overlap_ranks(3, 4, 1) == block_ranks(3, 4, 1)


@pytest.mark.parametrize("q", [Fraction(1), Fraction(3, 5)], ids=["1", "3/5"])
@pytest.mark.parametrize("r, n", [(3, n) for n in range(5)] + [(4, 3)])
def test_leftmost_row_built_from_a_lead_key_is_the_relation_row(r, n, q):
    # A reducible biword has a positive measure, so its pivot key is
    # negative, and the decode takes j = key mod r^(2n) and
    # (top, bottom) = divmod(j, r^n).
    table = _Degree(r, n)
    words, (tops, bottoms) = table.words, table.keys
    _, leftmost = table.rows(q)
    stencil = _relation_stencil(q)
    size = len(words)
    built = 0
    for t, top in enumerate(words):
        for b, bottom in enumerate(words):
            key = tops[t] + bottoms[b]
            row = leftmost(key)
            descents = [
                i
                for i in range(n - 1)
                if top[i] > top[i + 1] and bottom[i] >= bottom[i + 1]
            ]
            if not descents:
                assert row is None
                continue
            built += 1
            assert key < 0 and min(row) == key
            biwords = {k: divmod(k % (size * size), size) for k in row}
            assert {
                (words[t2], words[b2]): Fraction(row[k], row[key])
                for k, (t2, b2) in biwords.items()
            } == relation_row(stencil, (top, bottom), descents[0])
    assert built == size * size - count_irreducible(r, n)


def extra_pivots(r, n, q):
    table = _Degree(r, n)
    return [extra for *_, extra in _block_ranks(table, table.blocks(), q)]


@pytest.mark.parametrize("name", list(WRONG_RULES))
def test_a_wrong_table_leaves_an_overlap_remainder(monkeypatch, name):
    q = Fraction(3, 5)
    assert not any(extra_pivots(3, 4, q))
    use_wrong_rules(monkeypatch, WRONG_RULES[name])
    assert any(extra_pivots(3, 4, q))


@pytest.mark.parametrize("r, n", [(2, 4), (3, 3)])
def test_whole_degree_paths_walk_every_block(r, n):
    # Only check_basis_dimension ranks one block per mirror pair.
    rightq.rewrite.clear_caches()
    spanning_rank(r, n)
    memo = rightq.rewrite._NF_CACHES[SYSTEM_S]
    assert {(b.top, b.bottom) for b in enumerate_biwords(r, n)} <= memo.keys()
    pairs = math.comb(r, 2) * math.comb(r + 1, 2)
    assert len(relation_matrix(r, n)) == (n - 1) * pairs * r ** (2 * (n - 2))
