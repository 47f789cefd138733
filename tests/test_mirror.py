"""The mirror: a symmetry of both rule tables.

Over the alphabet 1..k, rho reverses both rows of a biword and replaces
each letter x by k + 1 - x.  It maps a double descent to a double
descent and each rule to a rule with the same coefficient, and it keeps
inv and imv of each row, so it commutes with normal forms and turns
leftmost rewriting into rightmost.  It fixes Ferm and Bos term by term
and reverses products, so Bos * Ferm is congruent to 1 as Ferm * Bos is.
A rule table that is wrong in a mirror-symmetric way passes these checks.
"""

from collections import Counter
from fractions import Fraction

import pytest

from rightq import (
    Biword,
    Expression,
    LEFTMOST,
    RIGHTMOST,
    SYSTEM_S,
    SYSTEM_SQ,
    bos,
    enumerate_biwords,
    ferm,
    qmm_check,
    rank,
    reduce,
)
from rightq.basis_oracle import _blocks, _relation_blocks

# (alphabet size, longest length): 12,842 biwords in all
_CASES = [(2, 6), (3, 4)]
_SYSTEMS = [SYSTEM_S, SYSTEM_SQ]


def _biwords(r: int, max_len: int):
    return [b for n in range(max_len + 1) for b in enumerate_biwords(r, n)]


def rho(b: Biword, k: int) -> Biword:
    return Biword(
        tuple(k + 1 - x for x in reversed(b.top)),
        tuple(k + 1 - x for x in reversed(b.bottom)),
    )


def rho_expression(e: Expression, k: int) -> Expression:
    return Expression({rho(b, k): c for b, c in e.terms()})


def _nf(b: Biword, system) -> Expression:
    return reduce(Expression.single(b), system).normal_form


@pytest.mark.parametrize("system", _SYSTEMS, ids=["s", "sq"])
@pytest.mark.parametrize("r, max_len", _CASES)
def test_normal_forms_commute_with_rho(system, r, max_len):
    for b in _biwords(r, max_len):
        expected = rho_expression(_nf(b, system), r)
        assert _nf(rho(b, r), system) == expected


@pytest.mark.parametrize("system", _SYSTEMS, ids=["s", "sq"])
@pytest.mark.parametrize("r, max_len", _CASES)
def test_rho_turns_the_leftmost_trace_into_the_rightmost(system, r, max_len):
    # As multisets: each measure level drains in row order, which rho
    # does not keep, so the steps of one level may come in another order.
    for b in _biwords(r, max_len):
        if b.is_irreducible():
            continue
        left = reduce(Expression.single(b), system, LEFTMOST, keep_trace=True)
        right = reduce(
            Expression.single(rho(b, r)), system, RIGHTMOST, keep_trace=True
        )
        mirrored = Counter(
            (rho(step.biword, r), len(step.biword) - step.position, step.rule)
            for step in left.trace
        )
        assert Counter(right.trace) == mirrored
        assert right.normal_form == rho_expression(left.normal_form, r)


@pytest.mark.parametrize(
    "r, max_degree, variant", [(3, 6, "strong"), (3, 6, "q"), (4, 6, "strong")]
)
def test_bos_times_ferm_is_one_in_the_mirrored_steps(r, max_degree, variant):
    system = SYSTEM_SQ if variant == "q" else SYSTEM_S
    f, b = ferm(r, variant), bos(r, max_degree, variant)
    assert rho_expression(f, r) == f
    assert rho_expression(b, r) == b
    product = b.product(f, max_degree=max_degree)
    for row in qmm_check(r, max_degree, variant).per_degree:
        report = reduce(product.homogeneous_component(row.degree), system, RIGHTMOST)
        target = Expression.unit() if row.degree == 0 else Expression.zero()
        assert report.normal_form == target
        assert report.rewrite_steps == row.rewrite_steps


@pytest.mark.parametrize("q", [Fraction(1), Fraction(3, 5)], ids=["1", "3/5"])
@pytest.mark.parametrize(
    "r, n", [(2, n) for n in range(8)] + [(3, n) for n in range(5)]
)
def test_each_basis_block_has_its_mirrors_rank(r, n, q):
    # rho maps the block of contents (alpha, beta) onto the block of
    # (alpha reversed, beta reversed), relation rows onto relation rows.
    ranks = {
        (alpha, beta): rank(rows)
        for alpha, beta, _, rows in _relation_blocks(*_blocks(r, n), q)
    }
    for (alpha, beta), block_rank in ranks.items():
        assert ranks[alpha[::-1], beta[::-1]] == block_rank
