"""The reduction engine: rules, strategies, termination, confluence."""

import copy
import itertools
import random

import pytest
from hypothesis import given

import rightq.rewrite
from rightq import (
    Biword,
    Expression,
    Laurent,
    NotADoubleDescent,
    PreconditionViolation,
    RIGHTMOST,
    SYSTEM_S,
    SYSTEM_SQ,
    Strategy,
    TermCapExceeded,
    check_ambiguity,
    check_confluence_fuzz,
    enumerate_biwords,
    in_ideal,
    parse_biword,
    parse_expression,
    phi,
    phi_inv,
    qmm_check,
    reduce,
    rewrite_at,
    spanning_rank,
)
from rightq.laurent import ONE, Q, Q_INV

from _strategies import biwords, expressions
from _wrong_tables import WRONG_RULES, use_wrong_rules


def bw(text: str) -> Biword:
    return parse_biword(text)


def ex(text: str) -> Expression:
    return parse_expression(text)


def _leftmost(b: Biword, system) -> Expression:
    """b's normal form as the leftmost memo holds it."""
    return Expression._make(rightq.rewrite._leftmost_nf((b.top, b.bottom), system))


def test_unknown_system_tag_is_rejected():
    with pytest.raises(ValueError, match="unknown reduction system 'plain'"):
        rightq.rewrite.ReductionSystem("plain")


def test_rule_outputs_plain():
    assert rewrite_at(bw("21/11"), 1, SYSTEM_S) == ex("12/11")
    assert rewrite_at(bw("32/21"), 1, SYSTEM_S) == ex("23/12 + 23/21 - 32/12")
    assert rewrite_at(bw("21/21"), 1, SYSTEM_S) == ex("12/12 + 12/21 - 21/12")


def test_rule_outputs_weighted():
    assert rewrite_at(bw("21/11"), 1, SYSTEM_SQ) == ex("q*12/11")
    assert rewrite_at(bw("32/21"), 1, SYSTEM_SQ) == ex(
        "23/12 + q*23/21 - q^-1*32/12"
    )


def _factors(stencil) -> bool:
    """Whether each relation pair - replacement, with t, b the pair's top
    and bottom words and s their letter swap, is (t - q st) (x) (b + q^-1 sb)
    for a > b and (t - q st) (x) b for a = b, with Laurent coefficients."""
    top = {0: ONE, 1: -Q}
    for equal, rules in stencil.items():
        relation = {(0, 0): ONE}
        for ti, bi, c, _ in rules:
            relation[ti, bi] = relation.get((ti, bi), 0) - c
        bottom = {0: ONE} if equal else {0: ONE, 1: Q_INV}
        product = {(i, j): t * b for i, t in top.items() for j, b in bottom.items()}
        if {key: c for key, c in relation.items() if c} != product:
            return False
    return True


def test_rule_table_is_a_tensor_product():
    assert set(SYSTEM_SQ.stencil) == {True, False}
    assert _factors(SYSTEM_SQ.stencil)


@pytest.mark.parametrize("change", WRONG_RULES.values(), ids=list(WRONG_RULES))
def test_a_wrong_table_is_no_tensor_product(monkeypatch, change):
    use_wrong_rules(monkeypatch, change)
    assert not _factors(SYSTEM_SQ.stencil)


def test_rules_act_locally_in_context():
    inner = rewrite_at(bw("32/21"), 1, SYSTEM_S)
    left = Expression.single(bw("1/3"))
    right = Expression.single(bw("2/2"))
    wrapped = rewrite_at(bw("1322/3212"), 2, SYSTEM_S)
    assert wrapped == left.product(inner).product(right)


@given(biwords())
def test_weighted_rule_specializes_to_plain(b):
    for position in b.double_descents():
        weighted = rewrite_at(b, position, SYSTEM_SQ)
        assert weighted.eval_at_one() == rewrite_at(b, position, SYSTEM_S)


def test_rewrite_rejects_non_descents():
    with pytest.raises(NotADoubleDescent):
        rewrite_at(bw("12/12"), 1, SYSTEM_S)
    with pytest.raises(NotADoubleDescent):
        rewrite_at(bw("21/12"), 1, SYSTEM_S)  # bottom rises
    with pytest.raises(NotADoubleDescent):
        rewrite_at(bw("321/321"), 3, SYSTEM_S)  # past the end
    with pytest.raises(NotADoubleDescent):
        rewrite_at(bw("321/321"), 0, SYSTEM_S)


# frozen from the worked three-letter reductions
GOLDEN_5 = "123/122 + 123/212 - 213/122 + 123/221 - 231/212"
GOLDEN_15 = (
    "-1*231/312 - 312/231 + 123/123 + 123/213 - 213/123 + 123/132 + 123/312"
    " - 213/132 + 123/231 + 123/321 - 132/123 - 132/213 + 312/123 + 231/123"
    " - 321/123"
)


def test_golden_normal_form_five_terms():
    report = reduce(Expression.single(bw("321/221")), SYSTEM_S)
    assert report.normal_form == ex(GOLDEN_5)
    assert report.rewrite_steps == 4
    assert report.normal_form.is_irreducible()


def test_golden_normal_form_fifteen_terms():
    report = reduce(Expression.single(bw("321/321")), SYSTEM_S)
    assert report.normal_form == ex(GOLDEN_15)
    assert len(report.normal_form) == 15
    assert report.rewrite_steps == 9
    assert report.normal_form.is_irreducible()


def test_trace_records_each_rewrite():
    report = reduce(Expression.single(bw("321/221")), SYSTEM_S, keep_trace=True)
    assert [(str(s.biword), s.position, s.rule) for s in report.trace] == [
        ("321/221", 1, "swap"),
        ("231/221", 2, "split"),
        ("213/221", 1, "swap"),
        ("213/212", 1, "split"),
    ]
    assert reduce(Expression.single(bw("321/221")), SYSTEM_S).trace is None


def test_random_strategy_trace_is_pinned():
    # Recorded before the worklist moved to row pairs: the order within a
    # measure level decides which biword draws each random position.
    e = ex("321/221 + 4321/1111")
    report = reduce(e, SYSTEM_S, Strategy("random", 7), keep_trace=True)
    assert [(str(s.biword), s.position, s.rule) for s in report.trace] == [
        ("4321/1111", 2, "swap"),
        ("4231/1111", 1, "swap"),
        ("2431/1111", 3, "swap"),
        ("2413/1111", 2, "swap"),
        ("2143/1111", 1, "swap"),
        ("1243/1111", 3, "swap"),
        ("321/221", 2, "split"),
        ("312/221", 1, "swap"),
        ("321/212", 1, "split"),
        ("132/221", 2, "split"),
        ("312/212", 1, "split"),
        ("321/122", 2, "swap"),
        ("231/122", 2, "swap"),
        ("132/122", 2, "swap"),
    ]
    assert report.rewrite_steps == 14
    assert report.max_intermediate_terms == 8
    assert report.normal_form == reduce(e, SYSTEM_S).normal_form


def test_unknown_strategy_kind_is_rejected():
    with pytest.raises(ValueError, match="leftmost, rightmost or random"):
        Strategy("bogus")
    # A random strategy takes an int seed and no other kind takes one, so
    # no two values name one reduction and none reads the OS's entropy.
    for seed in (None, True, 7.0, "7"):
        with pytest.raises(ValueError, match="random strategy needs an int seed"):
            Strategy("random", seed)
    for kind in ("leftmost", "rightmost"):
        with pytest.raises(ValueError, match=f"{kind} strategy takes no seed"):
            Strategy(kind, 5)
    assert Strategy("random", 3) == Strategy("random", 3) != Strategy("random", 4)


def test_reduce_on_irreducible_input_is_identity():
    e = ex("12/21 + 3*q*123/321")
    report = reduce(e, SYSTEM_S)
    assert report.normal_form == e
    assert report.rewrite_steps == 0
    assert report.max_intermediate_terms == 2


@given(expressions())
def test_reduce_is_idempotent(e):
    once = reduce(e, SYSTEM_S).normal_form
    again = reduce(once, SYSTEM_S)
    assert again.normal_form == once
    assert again.rewrite_steps == 0


@given(expressions())
def test_normal_forms_are_irreducible(e):
    for system in (SYSTEM_S, SYSTEM_SQ):
        assert reduce(e, system).normal_form.is_irreducible()


@given(expressions(), expressions())
def test_reduce_is_linear(e, f):
    for system in (SYSTEM_S, SYSTEM_SQ):
        lhs = reduce(e + f, system).normal_form
        rhs = reduce(e, system).normal_form + reduce(f, system).normal_form
        assert lhs == rhs
        scaled = reduce(e.scale(Laurent.q_power(1, -2)), system).normal_form
        assert scaled == reduce(e, system).normal_form.scale(Laurent.q_power(1, -2))


@given(expressions())
def test_reduce_preserves_degree(e):
    for system in (SYSTEM_S, SYSTEM_SQ):
        nf = reduce(e, system).normal_form
        for d in range(e.max_length() + 1):
            comp = reduce(e.homogeneous_component(d), system).normal_form
            assert comp == nf.homogeneous_component(d)


@given(expressions())
def test_worklist_and_memoized_paths_agree(e):
    for system in (SYSTEM_S, SYSTEM_SQ):
        assert in_ideal(e - reduce(e, system).normal_form, system)


@given(expressions())
def test_weighted_reduction_specializes_at_one(e):
    lhs = reduce(e, SYSTEM_SQ).normal_form.eval_at_one()
    rhs = reduce(e.eval_at_one(), SYSTEM_S).normal_form
    assert lhs == rhs


@given(expressions())
def test_conjugating_by_the_weight_swaps_systems(e):
    lhs = reduce(e, SYSTEM_SQ).normal_form
    rhs = phi(reduce(phi_inv(e), SYSTEM_S).normal_form)
    assert lhs == rhs


@given(biwords())
def test_plain_normal_forms_have_integer_coefficients(b):
    nf = reduce(Expression.single(b), SYSTEM_S).normal_form
    for _, coeff in nf.terms():
        assert all(exp == 0 for exp, _ in coeff.monomials())


@given(expressions())
def test_plain_results_carry_laurent_coefficients(e):
    for inp in (e, e.eval_at_one()):
        results = [reduce(inp, SYSTEM_S).normal_form]
        for b in inp.support():
            single = Expression.single(b)
            results.append(reduce(single, SYSTEM_S).normal_form)
            results.append(reduce(single, SYSTEM_S, RIGHTMOST).normal_form)
            results += [rewrite_at(b, p, SYSTEM_S) for p in b.double_descents()]
        for result in results:
            assert all(type(c) is Laurent for _, c in result.terms())


def test_plain_reduce_of_non_constant_input_scales_constant_forms():
    nf_321 = reduce(ex("321/321"), SYSTEM_S).normal_form
    nf_21 = reduce(ex("21/11"), SYSTEM_S).normal_form
    expected = nf_321.scale(Laurent.q_power(1)) + nf_21.scale(2)
    mixed = ex("q*321/321 + 2*21/11")
    assert reduce(mixed, SYSTEM_S).normal_form == expected
    assert in_ideal(mixed - expected, SYSTEM_S)


def _drops(b: Biword, position: int, system) -> list[int]:
    parent = b.inv_plus()
    return [
        parent - child.inv_plus()
        for child, _ in rewrite_at(b, position, system).terms()
    ]


def test_measure_drops_exact_for_bare_pairs():
    # split rule: replaced pair drops 2, the two others drop 1
    drops = _drops(bw("32/21"), 1, SYSTEM_S)
    assert sorted(drops) == [1, 1, 2]
    # swap rule: single replacement drops 1
    assert _drops(bw("21/11"), 1, SYSTEM_S) == [1]


def test_measure_drops_exact_in_random_contexts():
    rng = random.Random(411)
    for _ in range(200):
        x = rng.randint(2, 4)
        y = rng.randint(1, x - 1)
        a = rng.randint(1, 4)
        b_ = rng.randint(1, a)
        n_left = rng.randint(0, 3)
        n_right = rng.randint(0, 3)
        left_top = tuple(rng.randint(1, 4) for _ in range(n_left))
        left_bot = tuple(rng.randint(1, 4) for _ in range(n_left))
        right_top = tuple(rng.randint(1, 4) for _ in range(n_right))
        right_bot = tuple(rng.randint(1, 4) for _ in range(n_right))
        whole = Biword(
            left_top + (x, y) + right_top, left_bot + (a, b_) + right_bot
        )
        drops = _drops(whole, n_left + 1, SYSTEM_S)
        if a == b_:
            assert drops == [1]
        else:
            assert sorted(drops) == [1, 1, 2]


@given(biwords(max_size=8))
def test_local_measure_drop_matches_full_recount(b):
    rows = b.top, b.bottom
    mask = rightq.rewrite._descent_mask(*rows)
    for system in (SYSTEM_S, SYSTEM_SQ):
        for position in b.double_descents():
            before = rightq.rewrite.measure_check_count()
            children = rightq.rewrite._expand_rows(rows, mask, position - 1, system)
            assert rightq.rewrite.measure_check_count() - before == len(children)
            for child_rows, _, _, drop in children:
                assert b.inv_plus() - drop == Biword(*child_rows).inv_plus()


def _spots(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


@given(biwords(max_size=8))
def test_carried_mask_matches_fresh_scan(b):
    rows = b.top, b.bottom
    mask = rightq.rewrite._descent_mask(*rows)
    assert _spots(mask) == b.double_descents()
    for system in (SYSTEM_S, SYSTEM_SQ):
        for position in b.double_descents():
            children = rightq.rewrite._expand_rows(rows, mask, position - 1, system)
            for child_rows, child_mask, _, _ in children:
                child = Biword(*child_rows)
                assert _spots(child_mask) == child.double_descents()


def test_stencil_rejects_a_rule_that_keeps_the_measure(monkeypatch):
    assert SYSTEM_S.stencil == {
        True: [(1, 0, 1, 1)],
        False: [(1, 1, 1, 2), (1, 0, 1, 1), (0, 1, -1, 1)],
    }
    q = Laurent.q_power
    assert SYSTEM_SQ.stencil == {
        True: [(1, 0, q(1), 1)],
        False: [(1, 1, q(0), 2), (1, 0, q(1), 1), (0, 1, q(-1, -1), 1)],
    }
    # An entry that swaps nothing, or only the equal bottom letters, leaves
    # the pair, and its measure, as it is.
    for ti, bi in ((0, 0), (0, 1)):
        monkeypatch.setattr(rightq.rewrite, "_RULES", {True: ((ti, bi, q(0)),)})
        kept = rightq.rewrite.ReductionSystem("s")
        assert kept.stencil == {True: [(ti, bi, 1, 0)]}
        with pytest.raises(AssertionError, match="measure failed to drop"):
            rewrite_at(bw("21/11"), 1, kept)


def test_memo_and_rewrite_at_count_no_inversions(monkeypatch):
    # Only the worklist turns drops into levels; the leftmost memo and a
    # single rewrite need no measure of the whole biword.
    def refuse(*_):
        raise AssertionError("measure recounted")

    monkeypatch.setattr(rightq.rewrite, "inv", refuse)
    monkeypatch.setattr(rightq.rewrite, "imv", refuse)
    rightq.rewrite.clear_caches()
    assert _leftmost(bw("321/321"), SYSTEM_S) == ex(GOLDEN_15)
    assert in_ideal(ex("21/11 - 12/11"), SYSTEM_S)
    assert not in_ideal(ex("21/11"), SYSTEM_S)
    monkeypatch.setattr(Biword, "inv_plus", refuse)
    assert rewrite_at(bw("21/11"), 1, SYSTEM_S) == ex("12/11")
    assert rewrite_at(bw("321/321"), 1, SYSTEM_S) == ex(
        "231/231 + 231/321 - 321/231"
    )


def test_measure_check_counter_advances():
    before = rightq.rewrite.measure_check_count()
    reduce(Expression.single(bw("321/321")), SYSTEM_S)
    assert rightq.rewrite.measure_check_count() > before


def _all_biwords(r: int, max_len: int):
    for n in range(max_len + 1):
        alphabet = range(1, r + 1)
        for top in itertools.product(alphabet, repeat=n):
            for bottom in itertools.product(alphabet, repeat=n):
                yield Biword(top, bottom)


def test_strategies_agree_exhaustively_small():
    for system in (SYSTEM_S, SYSTEM_SQ):
        for b in _all_biwords(2, 4):
            canonical = _leftmost(b, system)
            single = Expression.single(b)
            assert reduce(single, system, RIGHTMOST).normal_form == canonical
            random_nf = reduce(single, system, Strategy("random", 99)).normal_form
            assert random_nf == canonical


def test_leftmost_memo_is_stable():
    target = bw("321/321")
    first = _leftmost(target, SYSTEM_S)
    second = _leftmost(target, SYSTEM_S)
    assert first == second
    rightq.rewrite.clear_caches()
    assert _leftmost(target, SYSTEM_S) == first


def test_memo_holds_exactly_the_leftmost_closure():
    # 26 biwords are reachable from 321/321 by leftmost rewriting, and the
    # 13 reducible ones among them have 27 children between them.
    rightq.rewrite.clear_caches()
    before = rightq.rewrite.measure_check_count()
    _leftmost(bw("321/321"), SYSTEM_S)
    entries = sum(len(memo) for memo in rightq.rewrite._NF_CACHES.values())
    assert entries == 26
    assert rightq.rewrite.measure_check_count() - before == 27
    _leftmost(bw("321/321"), SYSTEM_S)
    assert rightq.rewrite.measure_check_count() - before == 27


_SWAP_CHAIN = Biword(tuple(range(60, 0, -1)), (1,) * 60)


@pytest.mark.parametrize("system", [SYSTEM_S, SYSTEM_SQ], ids=["s", "sq"])
def test_memo_paths_handle_long_swap_chain(system):
    # 1,770 leftmost rewrites in a row, far deeper than the interpreter stack.
    single = Expression.single(_SWAP_CHAIN)
    expected = reduce(single, system).normal_form
    rightq.rewrite.clear_caches()
    assert _leftmost(_SWAP_CHAIN, system) == expected
    rightq.rewrite.clear_caches()
    assert in_ideal(single - expected, system)
    assert not in_ideal(single, system)


def _memo_readers(system):
    alpha = bw("321/321")
    _leftmost(alpha, system)
    in_ideal(Expression.single(alpha, 3) - Expression.single(_SWAP_CHAIN), system)
    in_ideal(Expression.single(alpha) - rewrite_at(alpha, 1, system), system)
    in_ideal(Expression.single(_SWAP_CHAIN), system)
    _leftmost(_SWAP_CHAIN, system)
    spanning_rank(2, 3)
    check_confluence_fuzz(2, 4, 60, 1, system)


def _snapshot(memo):
    """A deep copy of memo under the same keys: systems match by identity."""
    return copy.deepcopy(memo, {id(system): system for system in memo})


@pytest.mark.parametrize("system", [SYSTEM_S, SYSTEM_SQ], ids=["s", "sq"])
def test_memo_readers_leave_shared_values_alone(system):
    # Memo values are shared between entries, so a reader that wrote into
    # one would corrupt the normal forms of other biwords as well.
    rightq.rewrite.clear_caches()
    _leftmost(bw("321/321"), system)
    _leftmost(_SWAP_CHAIN, system)
    memo = rightq.rewrite._NF_CACHES
    before = _snapshot(memo)
    _memo_readers(system)
    for key, entries in before.items():
        assert {rows: memo[key][rows] for rows in entries} == entries
    # Once the readers have filled what they need, a second round adds
    # nothing and changes nothing.
    before = _snapshot(memo)
    _memo_readers(system)
    assert memo == before


@pytest.mark.parametrize("system", [SYSTEM_S, SYSTEM_SQ], ids=["s", "sq"])
def test_confluence_fuzz_reports_a_wrong_canonical_form(monkeypatch, system):
    # A leftmost memo that loses every reducible biword's normal form must
    # be caught: the comparison cannot pass vacuously.
    real = rightq.rewrite._leftmost_nf

    def wrong(rows, system):
        return {} if rightq.rewrite._descent_mask(*rows) else real(rows, system)

    monkeypatch.setattr(rightq.rewrite, "_leftmost_nf", wrong)
    report = check_confluence_fuzz(2, 4, 60, 1, system)
    assert report.counterexamples
    assert all(not b.is_irreducible() for b in report.counterexamples)
    assert report.ok is False


def test_in_ideal_examples():
    assert in_ideal(ex("21/21 - 12/12 - 12/21 + 21/12"), SYSTEM_S)
    assert in_ideal(ex("21/11 - 12/11"), SYSTEM_S)
    assert in_ideal(Expression.zero(), SYSTEM_S)
    assert not in_ideal(ex("12/12"), SYSTEM_S)
    assert not in_ideal(Expression.unit(), SYSTEM_S)
    assert in_ideal(ex("21/11 - q*12/11"), SYSTEM_SQ)
    assert not in_ideal(ex("21/11 - 12/11"), SYSTEM_SQ)


@given(biwords(max_size=4))
def test_difference_with_own_rewrite_is_in_ideal(b):
    for system in (SYSTEM_S, SYSTEM_SQ):
        for position in b.double_descents():
            relation = Expression.single(b) - rewrite_at(b, position, system)
            assert in_ideal(relation, system)


def test_check_ambiguity_all_overlaps():
    for system in (SYSTEM_S, SYSTEM_SQ):
        for a in range(1, 4):
            for b_ in range(1, a + 1):
                for c in range(1, b_ + 1):
                    assert check_ambiguity(3, 2, 1, a, b_, c, system)


def test_check_ambiguity_rejects_non_overlaps():
    with pytest.raises(PreconditionViolation):
        check_ambiguity(1, 2, 3, 3, 2, 1, SYSTEM_S)
    with pytest.raises(PreconditionViolation):
        check_ambiguity(3, 2, 1, 1, 2, 1, SYSTEM_S)
    with pytest.raises(PreconditionViolation):
        check_ambiguity(3, 3, 1, 2, 2, 1, SYSTEM_S)


def test_confluence_fuzz_small():
    for system in (SYSTEM_S, SYSTEM_SQ):
        report = check_confluence_fuzz(2, 4, 60, 1, system)
        assert report.ok
        assert report.trials == 60
        assert 0 < report.reducible < 60
        assert report.counterexamples == []


def test_confluence_fuzz_without_a_reducible_draw_is_not_ok():
    # Seed 0 draws the one-column 2/1: nothing is rewritten, so nothing
    # was compared.
    report = check_confluence_fuzz(2, 2, 1, 0, SYSTEM_S)
    assert report.reducible == 0
    assert report.counterexamples == []
    assert report.ok is False


def test_term_cap_enforced():
    with pytest.raises(TermCapExceeded):
        reduce(Expression.single(bw("321/321")), SYSTEM_S, term_cap=3)


def test_term_cap_applies_to_the_input():
    irreducible = Expression.single(bw("12/12"))
    with pytest.raises(TermCapExceeded):
        reduce(irreducible, SYSTEM_S, term_cap=0)
    assert reduce(irreducible, SYSTEM_S, term_cap=1).normal_form == irreducible


def test_negative_term_cap_is_rejected():
    irreducible = Expression.single(bw("12/12"))
    with pytest.raises(ValueError, match="term_cap must be at least 0, got -5"):
        reduce(irreducible, SYSTEM_S, term_cap=-5)
    with pytest.raises(ValueError, match="term_cap must be at least 0, got -1"):
        qmm_check(2, 2, "strong", term_cap=-1)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_memo_paths_apply_the_term_cap(monkeypatch, warm):
    target = bw("321/321")  # its normal form has 15 terms
    single = Expression.single(target)
    rightq.rewrite.clear_caches()
    if warm:
        _leftmost(target, SYSTEM_S)
    monkeypatch.setattr(rightq.rewrite, "DEFAULT_TERM_CAP", 5)
    with pytest.raises(TermCapExceeded):
        _leftmost(target, SYSTEM_S)
    with pytest.raises(TermCapExceeded):
        in_ideal(single, SYSTEM_S)
    monkeypatch.undo()
    # An aborted fill leaves only complete normal forms behind.
    assert _leftmost(target, SYSTEM_S) == reduce(single, SYSTEM_S).normal_form


def test_one_memo_fill_stores_at_most_the_term_cap(monkeypatch):
    # Every normal form in the leftmost closure of 654321/654321 has at
    # most 13,543 terms, but the closure stores 650,654 in all.
    single = Expression.single(bw("654321/654321"))
    rightq.rewrite.clear_caches()
    monkeypatch.setattr(rightq.rewrite, "DEFAULT_TERM_CAP", 100_000)
    with pytest.raises(TermCapExceeded, match="stored terms"):
        in_ideal(single, SYSTEM_S)
    stored = rightq.rewrite._NF_CACHES[SYSTEM_S].values()
    assert sum(map(len, stored)) <= 100_000
    rightq.rewrite.clear_caches()
    report = reduce(single, SYSTEM_S, term_cap=100_000)
    assert len(report.normal_form) == 13_543
    # The cap's boundary: filling 4321/4321 stores 1,049 terms in 255
    # entries under either system, so a cap of 1,049 holds and 1,048 not.
    small = Expression.single(bw("4321/4321"))
    for system in (SYSTEM_S, SYSTEM_SQ):
        rightq.rewrite.clear_caches()
        monkeypatch.setattr(rightq.rewrite, "DEFAULT_TERM_CAP", 1_049)
        in_ideal(small, system)
        stored = rightq.rewrite._NF_CACHES[system].values()
        assert (len(stored), sum(map(len, stored))) == (255, 1_049)
        rightq.rewrite.clear_caches()
        monkeypatch.setattr(rightq.rewrite, "DEFAULT_TERM_CAP", 1_048)
        with pytest.raises(TermCapExceeded, match="stored terms"):
            in_ideal(small, system)
    rightq.rewrite.clear_caches()


def test_each_memo_holds_at_most_twice_the_term_cap(monkeypatch):
    # Filling 4321/4321 stores 1,049 terms in 255 entries, and 21/11 two
    # more (12/11, and 21/11 sharing its dict).  Once a system's fills
    # have stored more than the cap, its next fill empties its memo first.
    rows = {text: (bw(text).top, bw(text).bottom) for text in ("4321/4321", "21/11")}
    memo = rightq.rewrite._NF_CACHES
    rightq.rewrite.clear_caches()
    monkeypatch.setattr(rightq.rewrite, "DEFAULT_TERM_CAP", 1_049)
    _leftmost(bw("4321/4321"), SYSTEM_S)
    _leftmost(bw("21/11"), SYSTEM_S)  # 1,051 stored: over the cap
    _leftmost(bw("4321/4321"), SYSTEM_SQ)  # the other system's own total
    assert (len(memo[SYSTEM_S]), len(memo[SYSTEM_SQ])) == (257, 255)
    _leftmost(bw("4321/4321"), SYSTEM_S)  # a cached lookup empties nothing
    assert len(memo[SYSTEM_S]) == 257
    assert _leftmost(bw("31/11"), SYSTEM_S) == ex("13/11")
    assert set(memo[SYSTEM_S]) == {((3, 1), (1, 1)), ((1, 3), (1, 1))}
    assert len(memo[SYSTEM_SQ]) == 255
    # An aborted fill counts what it stored.
    rightq.rewrite.clear_caches()
    monkeypatch.setattr(rightq.rewrite, "DEFAULT_TERM_CAP", 1_048)
    with pytest.raises(TermCapExceeded, match="stored terms"):
        _leftmost(bw("4321/4321"), SYSTEM_S)
    _leftmost(bw("21/11"), SYSTEM_S)
    assert set(memo[SYSTEM_S]) == {rows["21/11"], ((1, 2), (1, 1))}
    # clear_caches resets the count along with the memo.
    rightq.rewrite.clear_caches()
    monkeypatch.setattr(rightq.rewrite, "DEFAULT_TERM_CAP", 1_049)
    _leftmost(bw("4321/4321"), SYSTEM_S)
    rightq.rewrite.clear_caches()
    _leftmost(bw("4321/4321"), SYSTEM_S)
    _leftmost(bw("21/11"), SYSTEM_S)
    assert {rows["4321/4321"], rows["21/11"]} <= memo[SYSTEM_S].keys()
    rightq.rewrite.clear_caches()


@pytest.mark.parametrize("system", [SYSTEM_S, SYSTEM_SQ], ids=["s", "sq"])
def test_memo_fill_does_not_depend_on_the_order(monkeypatch, system):
    biwords = [b for n in range(6) for b in enumerate_biwords(2, n)]
    expanded = []
    expand_rows = rightq.rewrite._expand_rows

    def counted(rows, *args):
        expanded.append(rows)
        return expand_rows(rows, *args)

    monkeypatch.setattr(rightq.rewrite, "_expand_rows", counted)
    fills = []
    for order in (biwords, biwords[::-1]):
        rightq.rewrite.clear_caches()
        expanded.clear()
        before = rightq.rewrite.measure_check_count()
        for b in order:
            _leftmost(b, system)
        memo = rightq.rewrite._NF_CACHES[system]
        reducible = [rows for rows in memo if rightq.rewrite._descent_mask(*rows)]
        assert len(memo) == 1365
        assert len(expanded) == 822
        assert sorted(expanded) == sorted(reducible)
        fills.append((memo, rightq.rewrite.measure_check_count() - before))
    assert fills[0] == fills[1]


@pytest.mark.parametrize("wrong_first", [True, False], ids=["wrong-first", "sq-first"])
def test_a_table_with_the_same_tag_has_its_own_memo(monkeypatch, wrong_first):
    # Normal forms belong to the table that made them: a perturbed table
    # tagged "sq" neither reads nor writes SYSTEM_SQ's leftmost memo.
    rules = {**rightq.rewrite._RULES, True: ((1, 0, Laurent.integer(1)),)}
    monkeypatch.setattr(rightq.rewrite, "_RULES", rules)
    wrong = rightq.rewrite.ReductionSystem("sq")
    single = Expression.single(bw("321/211"))
    right_nf = reduce(single, SYSTEM_SQ).normal_form
    rightq.rewrite.clear_caches()
    wrong_nf = _leftmost(bw("321/211"), wrong)  # alone in the memo
    assert (len(right_nf), len(wrong_nf)) == (5, 7)  # biwords in each
    order = [(wrong, wrong_nf), (SYSTEM_SQ, right_nf)]
    if not wrong_first:
        order.reverse()
    rightq.rewrite.clear_caches()
    for system, expected in order:
        assert _leftmost(bw("321/211"), system) == expected
        assert in_ideal(single - expected, system)
    assert not in_ideal(single - wrong_nf, SYSTEM_SQ)


def test_rewrite_steps_deterministic_and_bounded():
    e = ex("321/321 + 321/221")
    first = reduce(e, SYSTEM_S)
    second = reduce(e, SYSTEM_S)
    assert first.rewrite_steps == second.rewrite_steps
    bound = sum(3 ** b.inv_plus() for b in e.support())
    assert first.rewrite_steps <= bound
