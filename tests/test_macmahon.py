"""The truncated series and the degreewise master-identity check."""

import itertools
import math
import sys
import tracemalloc

import pytest

import rightq.rewrite
from rightq import macmahon
from rightq import (
    EMPTY_BIWORD,
    Expression,
    Laurent,
    SYSTEM_S,
    SYSTEM_SQ,
    TermCapExceeded,
    bos,
    ferm,
    inv,
    parse_expression,
    phi,
    qmm_check,
    reduce,
)

from _wrong_tables import WRONG_RULES, use_wrong_rules


def ex(text: str) -> Expression:
    return parse_expression(text)


def test_ferm_smallest_cases():
    assert ferm(1, "q") == ex("e - 1/1")
    assert ferm(2, "q") == ex("e - 1/1 - 2/2 + 12/12 - q^-1*21/12")
    assert ferm(2, "one") == ex("e - 1/1 - 2/2 + 12/12 - 21/12")


# ferm is built at q = 1 and weighted by phi; this reference weights each
# (sigma(J) / J) by (-1)^|J| (-q)^(-inv sigma) directly.
def test_ferm_is_the_signed_subset_permutation_sum():
    for r in (1, 2, 3, 4):
        reference = {}
        for size in range(r + 1):
            for subset in itertools.combinations(range(1, r + 1), size):
                for perm in itertools.permutations(subset):
                    k = inv(perm)
                    sign = (-1) ** (size + k)
                    reference[perm, subset] = Laurent.q_power(-k, sign)
        assert ferm(r, "q") == Expression._make(reference)
        assert ferm(r, "one") == Expression._make(reference).eval_at_one()


def test_ferm_term_count(monkeypatch):
    # one term per (subset, permutation) pair
    for r in (1, 2, 3, 4):
        expected = sum(math.comb(r, k) * math.factorial(k) for k in range(r + 1))
        assert len(ferm(r, "q")) == expected
        # ferm refuses by this closed form, against the default cap
        monkeypatch.setattr(macmahon, "DEFAULT_TERM_CAP", expected - 1)
        with pytest.raises(TermCapExceeded, match=f"exceeded {expected - 1} terms"):
            ferm(r)
        monkeypatch.undo()
    assert len(ferm(3, "q")) == 16


def test_ferm_is_irreducible_and_circular():
    for r in (2, 3):
        f = ferm(r, "q")
        assert f.is_irreducible()
        assert f.is_circular()
        assert f.coefficient(EMPTY_BIWORD) == 1


@pytest.mark.parametrize("r", [0, -2])
def test_ferm_refuses_an_empty_or_negative_alphabet(r):
    with pytest.raises(ValueError, match=f"r must be at least 1, got {r}"):
        ferm(r)


def test_bos_refuses_an_empty_alphabet_or_negative_length():
    with pytest.raises(ValueError, match="r must be at least 1, got -1"):
        bos(-1, 2)
    with pytest.raises(ValueError, match="r must be at least 1, got 0"):
        bos(0, 2)
    with pytest.raises(ValueError, match="max_len must be at least 0, got -1"):
        bos(2, -1)
    assert bos(2, 0) == Expression.unit()


def test_bos_smallest_cases():
    assert bos(1, 2, "q") == ex("e + 1/1 + 11/11")
    assert bos(2, 2, "q") == ex(
        "e + 1/1 + 2/2 + 11/11 + 12/12 + q*12/21 + 22/22"
    )
    assert bos(2, 2, "one") == ex("e + 1/1 + 2/2 + 11/11 + 12/12 + 12/21 + 22/22")


def test_bos_term_count_and_shape():
    for r in (2, 3):
        for cut in (0, 1, 2, 3):
            b = bos(r, cut, "q")
            assert len(b) == sum(r ** n for n in range(cut + 1))
            assert b.is_circular()
            for biword, _ in b.terms():
                assert sorted(biword.top) == list(biword.top)


def _multinomial(content):
    counts = [content.count(letter) for letter in set(content)]
    return math.factorial(len(content)) // math.prod(map(math.factorial, counts))


# bos is built one content at a time; every word of length n appears
# under its own content, so the contents of length <= D together are
# bos(r, D) at q = 1, and phi of them bos(r, D) itself, which must match
# every word of itertools.product.
@pytest.mark.parametrize("variant", ["q", "one"])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_bos_contents_together_are_bos(r, variant):
    weighted = variant == "q"
    for max_len in range(7):
        union, reference = {}, {}
        for n in range(max_len + 1):
            for content in itertools.combinations_with_replacement(range(1, r + 1), n):
                terms = macmahon._bos_content(content)
                words = [bottom for (top, bottom), _ in terms]
                assert all(top == content for (top, _), _ in terms)
                assert all(tuple(sorted(w)) == content for w in words)
                assert len(set(words)) == len(words) == _multinomial(content)
                assert words == sorted(words)
                union.update(terms)
            for w in itertools.product(range(1, r + 1), repeat=n):
                c = Laurent.q_power(inv(w)) if weighted else 1
                reference[tuple(sorted(w)), w] = c
        union = Expression._make(union)
        assert (phi(union) if weighted else union) == bos(r, max_len, variant)
        assert Expression._make(reference) == bos(r, max_len, variant)


def test_bos_content_of_no_letter_or_one_letter():
    assert macmahon._bos_content(()) == [(((), ()), 1)]
    for content in [(1,), (3,), (2, 2, 2, 2), (4,) * 1000]:
        assert macmahon._bos_content(content) == [((content, content), 1)]


def _lines_run(call):
    """The Python lines that call() executes, counted with sys.settrace."""
    lines = 0

    def tracer(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return tracer

    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(None)
    return lines


def test_one_letter_content_takes_no_step_per_letter():
    # a one-letter content has one word, built whole, not letter by letter
    short = _lines_run(lambda: macmahon._bos_content((2,) * 10))
    assert _lines_run(lambda: macmahon._bos_content((2,) * 100_000)) == short


def test_each_bos_content_is_built_once(monkeypatch):
    original = macmahon._bos_content
    built = []

    def counted(content):
        built.append(content)
        return original(content)

    monkeypatch.setattr(macmahon, "_bos_content", counted)
    assert qmm_check(3, 5, "strong").ok
    assert sorted(built) == sorted(
        content
        for n in range(6)
        for content in itertools.combinations_with_replacement(range(1, 4), n)
    )


def test_qmm_memory_does_not_hold_bos():
    # bos(1, 1000) has 1,001 terms and about a million letters in each
    # row; no block holds more than two terms of at most 1,000 letters.
    tracemalloc.start()
    try:
        assert qmm_check(1, 1000, "strong").ok
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_qmm_memory_does_not_hold_ferm():
    # ferm on at most two of 150 letters has 22,501 terms; a block of two
    # letters needs the ferm terms of four subsets, at most two each.
    tracemalloc.start()
    try:
        assert qmm_check(150, 2, "strong").ok
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_variant_validation():
    with pytest.raises(ValueError):
        ferm(2, "weird")
    with pytest.raises(ValueError):
        qmm_check(2, 2, "weird")


def test_weight_carries_series_between_variants():
    for r in (2, 3):
        assert phi(ferm(r, "one")) == ferm(r, "q")
        assert phi(bos(r, 4, "one")) == bos(r, 4, "q")


# frozen from expanding the r=2 product by hand through degree 2
def test_degree_two_component():
    product = ferm(2, "q").product(bos(2, 2, "q"), max_degree=2)
    component = product.homogeneous_component(2)
    assert component == ex("12/12 + q*12/21 - 21/21 - q^-1*21/12")
    assert reduce(component, SYSTEM_SQ).normal_form.is_zero()
    plain = component.eval_at_one()
    assert reduce(plain, SYSTEM_S).normal_form.is_zero()


def test_qmm_small_all_variants():
    for variant in ("q", "one", "strong"):
        report = qmm_check(2, 3, variant)
        assert report.ok
        assert report.variant == variant
        assert report.system == ("sq" if variant == "q" else "s")
        assert [row.degree for row in report.per_degree] == [0, 1, 2, 3]
        head = report.per_degree[0]
        assert head.term_count_before_reduction == 1
        assert head.rewrite_steps == 0
        assert head.normal_form == Expression.unit()
        for row in report.per_degree[1:]:
            assert row.normal_form.is_zero()


# qmm_check reduces under the plain table only, so a wrong weighted table
# cannot reach it; the direct weighted reduction of the same components
# is where such a table shows.
@pytest.mark.parametrize(
    "name, failing",
    [("swap-q-as-1", [3]), ("split-q-inverse-as-q", [2, 3])],
    ids=list(WRONG_RULES),
)
def test_a_wrong_weighted_table_fails_the_direct_reduction(monkeypatch, name, failing):
    use_wrong_rules(monkeypatch, WRONG_RULES[name])
    product = ferm(2, "q").product(bos(2, 3, "q"), max_degree=3)
    components = [product.homogeneous_component(d) for d in range(1, 4)]
    reduced = [reduce(c, SYSTEM_SQ).normal_form for c in components]
    assert [d for d, nf in enumerate(reduced, 1) if nf] == failing
    assert qmm_check(2, 3, "q").ok


def test_qmm_trivial_alphabet():
    report = qmm_check(1, 3, "strong")
    assert report.ok
    # every positive degree cancels before any rewriting happens
    assert all(row.rewrite_steps == 0 for row in report.per_degree)


def test_series_over_the_term_cap_are_refused_before_any_reduction():
    # bos(3, 10) has 88,573 terms.
    before = rightq.rewrite.measure_check_count()
    with pytest.raises(TermCapExceeded, match="series exceeded 1000 terms"):
        qmm_check(3, 10, "strong", term_cap=1000)
    assert rightq.rewrite.measure_check_count() == before


def test_series_over_the_term_cap_are_refused_unbuilt():
    # bos(30, 5) has 25,137,931 terms and ferm on at most 5 of 30 letters
    # 17,783,701; building the first 200,001 of them takes tens of MB.
    before = rightq.rewrite.measure_check_count()
    tracemalloc.start()
    try:
        with pytest.raises(TermCapExceeded, match="series exceeded 200000 terms"):
            qmm_check(30, 5, "strong", term_cap=200_000)
        # ferm(11) has 108,505,112 terms and bos(2, 23) 16,777,215.
        for build in (lambda: ferm(11), lambda: bos(2, 23, "one")):
            with pytest.raises(TermCapExceeded, match="series exceeded 10000000"):
                build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert rightq.rewrite.measure_check_count() == before


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("max_degree", range(6))
def test_series_cap_is_the_size_of_bos(r, max_degree, monkeypatch):
    # ferm on at most D letters never has more terms than bos, so the
    # series are refused exactly when bos is over the cap.
    size = len(bos(r, max_degree, "one"))
    with pytest.raises(TermCapExceeded, match=f"series exceeded {size - 1} terms"):
        qmm_check(r, max_degree, "strong", size - 1)
    assert qmm_check(r, max_degree, "strong", size).ok
    # bos refuses by the same closed form, against the default cap.
    monkeypatch.setattr(macmahon, "DEFAULT_TERM_CAP", size - 1)
    with pytest.raises(TermCapExceeded, match=f"series exceeded {size - 1} terms"):
        bos(r, max_degree)
    monkeypatch.setattr(macmahon, "DEFAULT_TERM_CAP", size)
    assert len(bos(r, max_degree)) == size


@pytest.mark.parametrize("variant", ["strong", "q"])
def test_large_alphabet_builds_only_the_subsets_a_degree_reaches(variant):
    # ferm(30) has about 7e32 terms; those on at most two letters number 901.
    report = qmm_check(30, 2, variant)
    assert report.ok
    terms = [row.term_count_before_reduction for row in report.per_degree]
    assert terms == [1, 0, 1740]


def test_strong_check_matches_plain_variant():
    direct = qmm_check(2, 4, "one")
    strong = qmm_check(2, 4, "strong")
    assert strong.ok and direct.ok
    assert [r.normal_form for r in strong.per_degree] == [
        r.normal_form for r in direct.per_degree
    ]


# The engine's rewrite work: how the measure and the coefficients are
# computed must not change which rewrites happen or how many checks run.
@pytest.mark.parametrize(
    "r, max_degree, variant, steps, terms, checks",
    [
        (4, 5, "strong", [0, 0, 6, 56, 408, 2450], [1, 0, 24, 124, 596, 2552], 6964),
        (
            3,
            6,
            "q",
            [0, 0, 3, 20, 98, 410, 1586],
            [1, 0, 12, 46, 158, 502, 1550],
            4543,
        ),
    ],
    ids=["strong-r4-d5", "q-r3-d6"],
)
def test_qmm_rewrite_work_is_pinned(r, max_degree, variant, steps, terms, checks):
    before = rightq.rewrite.measure_check_count()
    report = qmm_check(r, max_degree, variant)
    assert rightq.rewrite.measure_check_count() - before == checks
    assert report.ok
    assert [row.rewrite_steps for row in report.per_degree] == steps
    assert [row.term_count_before_reduction for row in report.per_degree] == terms


# The peak term count of each degree's reduction depends on the order in
# which biwords of one measure level are rewritten; recorded before the
# worklist moved to row pairs.
@pytest.mark.parametrize(
    "r, max_degree, variant, peaks",
    [
        (4, 5, "one", [1, 0, 24, 124, 612, 2664]),
        (3, 6, "q", [1, 0, 12, 46, 160, 512, 1578]),
    ],
    ids=["strong-r4-d5", "q-r3-d6"],
)
def test_qmm_peak_terms_are_pinned(r, max_degree, variant, peaks):
    system = SYSTEM_SQ if variant == "q" else SYSTEM_S
    f, b = ferm(r, variant), bos(r, max_degree, variant)
    fb = f.product(b, max_degree)
    components = [fb.homogeneous_component(d) for d in range(max_degree + 1)]
    assert [reduce(c, system).max_intermediate_terms for c in components] == peaks


# Each degree is reduced one content block at a time; the sums over the
# blocks must match a reduction of the whole degree component.
@pytest.mark.parametrize(
    "r, max_degree, variant",
    [(r, 6, v) for r in (1, 2, 3) for v in ("strong", "q")]
    + [(4, 5, "strong"), (1, 4, "strong"), (2, 0, "strong"), (2, 0, "q")],
)
def test_content_blocks_match_whole_degree_reduction(r, max_degree, variant):
    series, system = ("q", SYSTEM_SQ) if variant == "q" else ("one", SYSTEM_S)
    f, b = ferm(r, series), bos(r, max_degree, series)
    report = qmm_check(r, max_degree, variant)
    fb = f.product(b, max_degree)
    components = [fb.homogeneous_component(d) for d in range(max_degree + 1)]
    assert len(components) == len(report.per_degree)
    for row, component in zip(report.per_degree, components):
        whole = reduce(component, system)
        assert row.normal_form == whole.normal_form
        assert row.rewrite_steps == whole.rewrite_steps
        assert row.term_count_before_reduction == len(component)


# The truncated products whose sizes the traced perfbench qmm pass gates on.
@pytest.mark.parametrize(
    "r, max_degree, series, sizes",
    [
        (4, 7, "one", [1, 0, 24, 124, 596, 2552, 10532, 42872]),
        (3, 9, "q", [1, 0, 12, 46, 158, 502, 1550, 4726, 14318, 43222]),
    ],
    ids=["one-r4-d7", "q-r3-d9"],
)
def test_truncated_series_product_is_pinned(r, max_degree, series, sizes):
    product = ferm(r, series).product(bos(r, max_degree, series), max_degree=max_degree)
    assert len(product) == sum(sizes)
    degrees = range(max_degree + 1)
    assert [len(product.homogeneous_component(d)) for d in degrees] == sizes


def test_each_reduction_holds_one_content_block(monkeypatch):
    original = macmahon._reduce_rows
    peaks = []

    def one_block(work, *args):
        contents = {tuple(sorted(top)) for top, _ in work}
        contents |= {tuple(sorted(bottom)) for _, bottom in work}
        assert len(contents) <= 1
        steps, peak, trace = original(work, *args)
        peaks.append(peak)
        return steps, peak, trace

    monkeypatch.setattr(macmahon, "_reduce_rows", one_block)
    assert qmm_check(4, 5, "strong").ok
    # 126 contents of size at most 5 over 4 letters; the whole degree 5
    # component peaks at 2,664 terms (test_qmm_peak_terms_are_pinned).
    assert len(peaks) == 126
    assert max(peaks) == 252


@pytest.mark.parametrize(
    "r, max_degree, variant, reductions, shapes",
    [(4, 6, "strong", 210, 51), (3, 5, "q", 56, 21)],
)
def test_each_block_matches_its_compositions_block(
    monkeypatch, r, max_degree, variant, reductions, shapes
):
    # A rule compares letters within a row only, so an order-preserving
    # relabeling of the letters maps rules to rules: a block's terms,
    # steps and peak depend only on its composition, the multiplicities
    # of its content's letters in letter order.  Blocks of one letter
    # cancel before the reduction, so they have no content to key by.
    original = macmahon._reduce_rows
    by_shape = {}
    calls = 0

    def record(work, *args):
        nonlocal calls
        calls += 1
        content = next(iter(work), ((), ()))[0]
        terms = len(work)
        steps, peak, trace = original(work, *args)
        if terms:
            shape = tuple(content.count(x) for x in sorted(set(content)))
            by_shape.setdefault(shape, set()).add((terms, steps, peak))
        return steps, peak, trace

    monkeypatch.setattr(macmahon, "_reduce_rows", record)
    assert qmm_check(r, max_degree, variant).ok
    assert calls == reductions
    assert len(by_shape) == shapes
    assert all(len(triples) == 1 for triples in by_shape.values())


def test_term_cap_bounds_each_block(monkeypatch):
    # Both series are larger than any block, so lift the series cap to
    # reach the reduction; the largest block of r=4, D=5 peaks at 252.
    monkeypatch.setattr(macmahon, "_bos_size", lambda r, max_len: 0)
    assert qmm_check(4, 5, "strong", term_cap=252).ok
    with pytest.raises(TermCapExceeded, match="intermediate expression exceeded 251"):
        qmm_check(4, 5, "strong", term_cap=251)
