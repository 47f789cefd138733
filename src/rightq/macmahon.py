"""Desk-scale verification of the quantum MacMahon master identity.

ferm() is the finite alternating sum over subsets J of the alphabet and
permutations sigma of J, weighting (sigma(J)/J) by (-1)^|J| (-q)^(-inv sigma);
it is its own normal form since its bottom rows increase strictly.
bos() truncates the full sum over words w of q^(inv w) (sorted w / w).
The master identity says their product is congruent to 1 modulo the
defining ideal, which the checker verifies degree by degree.  Every term
of both series is a circuit and every rule rearranges letters within a
row, so each degree splits into independent blocks, one per content m
(the coefficient of x^m in the identity): the checker builds and reduces
one block at a time and never forms a whole degree component.  Nor does
it build either series whole: a block builds the ferm terms of each
subset of its letters, the permutations of that subset, and the bos
terms of one content are its distinct rearrangements, generated when a
block first asks for them.  All of it is built and reduced at q = 1,
with int coefficients, under the plain system; the q-weighted series
and normal forms are phi of the plain ones (the "1 = q" principle).
"""

import itertools
from collections.abc import Callable
from dataclasses import dataclass

from .expressions import Expression, _add_products
from .rewrite import (
    DEFAULT_TERM_CAP,
    LEFTMOST,
    SYSTEM_S,
    TermCapExceeded,
    _reduce_rows,
)
from .weight import phi
from .words import Rows, Word, _at_least, inv

_VARIANTS = ("q", "one", "strong")


def _series_weighted(variant: str) -> bool:
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    return variant == "q"


def _ferm_subset(subset: Word) -> list:
    """The ferm terms (perm / subset) of one sorted subset, permutations in
    lexicographic order, with (-1)^(|subset| + inv perm), the q = 1 value."""
    odd = len(subset) % 2
    return [
        ((perm, subset), -1 if (odd + inv(perm)) % 2 else 1)
        for perm in itertools.permutations(subset)
    ]


def _bos_size(r: int, max_len: int) -> int:
    """One bos term per word: the sum of r^n over n <= max_len."""
    return max_len + 1 if r == 1 else (r ** (max_len + 1) - 1) // (r - 1)


def _bos_content(content: Word) -> list:
    """The bos terms (content / w) of one sorted content, one per distinct
    rearrangement w in lexicographic order, with the q = 1 value 1: depth
    first over prefixes, and a prefix with one letter left built whole."""
    terms = []
    counts = tuple((letter, content.count(letter)) for letter in dict.fromkeys(content))
    stack = [((), counts)]
    while stack:
        prefix, left = stack.pop()
        if len(left) <= 1:
            w = prefix + (left[0][0],) * left[0][1] if left else prefix
            terms.append(((content, w), 1))
            continue
        for i in reversed(range(len(left))):
            letter, count = left[i]
            rest = left[:i] + ((letter, count - 1),) * (count > 1) + left[i + 1 :]
            stack.append((prefix + (letter,), rest))
    return terms


def _content_block(content: Word, bos_of: Callable[[Word], list]) -> dict:
    """The terms of ferm * bos at q = 1 whose rows have the given sorted
    content: the sum over subsets J of its letters, by size and then
    lexicographically, of _ferm_subset(J) * bos_of(content - J)."""
    block: dict[Rows, int] = {}
    letters = sorted(set(content))
    for size in range(len(letters) + 1):
        for subset in itertools.combinations(letters, size):
            rest = list(content)
            for letter in subset:
                rest.remove(letter)
            _add_products(block, _ferm_subset(subset), bos_of(tuple(rest)))
    return block


def ferm(r: int, variant: str = "q") -> Expression:
    """The alternating subset-permutation sum over the alphabet 1..r.

    Subsets are visited by size, then lexicographically, and permutations
    lexicographically, so construction order is reproducible.  The empty
    subset contributes the unit term.  It has the sum of r!/(r - k)! over
    k <= r terms, and over DEFAULT_TERM_CAP of them nothing is built.
    """
    _at_least(1, r=r)
    weighted = _series_weighted(variant)
    count = arrangements = 1
    for k in range(r):
        arrangements *= r - k
        count += arrangements
        if count > DEFAULT_TERM_CAP:
            raise TermCapExceeded(f"series exceeded {DEFAULT_TERM_CAP} terms")
    terms: dict[Rows, int] = {}
    for size in range(r + 1):
        for subset in itertools.combinations(range(1, r + 1), size):
            terms.update(_ferm_subset(subset))
    plain = Expression._make(terms)
    return phi(plain) if weighted else plain


def bos(r: int, max_len: int, variant: str = "q") -> Expression:
    """Sum of q^(inv w) (sorted w / w) over words of length at most max_len.

    Built one sorted content at a time, contents by length, from the same
    terms that qmm_check builds for each of its content blocks.  Over
    DEFAULT_TERM_CAP terms nothing is built.
    """
    _at_least(1, r=r)
    _at_least(0, max_len=max_len)
    weighted = _series_weighted(variant)
    if _bos_size(r, max_len) > DEFAULT_TERM_CAP:
        raise TermCapExceeded(f"series exceeded {DEFAULT_TERM_CAP} terms")
    terms: dict[Rows, int] = {}
    for n in range(max_len + 1):
        for content in itertools.combinations_with_replacement(range(1, r + 1), n):
            terms.update(_bos_content(content))
    plain = Expression._make(terms)
    return phi(plain) if weighted else plain


@dataclass
class DegreeResult:
    degree: int
    normal_form: Expression
    ok: bool
    term_count_before_reduction: int
    rewrite_steps: int


@dataclass
class QmmReport:
    """system tags the ideal the identity is checked in: "sq" for "q"."""

    r: int
    max_degree: int
    system: str
    variant: str
    per_degree: list[DegreeResult]

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.per_degree)


def qmm_check(
    r: int,
    max_degree: int,
    variant: str = "q",
    term_cap: int = DEFAULT_TERM_CAP,
) -> QmmReport:
    """Check the master identity through total degree max_degree.

    Every variant reduces the q = 1 product under the plain system;
    "one" and "strong" check it there (the strong form asserts the
    product's normal form is exactly the unit, the same degreewise
    condition).  "q" checks the q-weighted identity in the q-weighted
    ideal: phi(x) = q^(inv bottom - inv top) x adds up over products of
    circuits, so the weighted product is phi of the plain one, and each
    weighted rule is its plain rule conjugated by phi, so the weighted
    system takes the same rewrites to phi of the plain normal form.
    Degree 0 must reduce to the unit and every higher degree to zero.
    Each degree D is built and reduced one content block at a time: for
    each sorted content m with |m| = D, the sum over subsets J of m's
    letters of the ferm terms on J times the bos terms of content m - J.
    A rewrite keeps the content, so the blocks reduce independently; a
    degree's terms and steps are the sums over its blocks, and its
    normal form is their union.  Series terms and blocks stay keyed by
    (top, bottom) rows, with int coefficients, from construction through
    the reduction.  Neither series is built whole.  Each block builds
    the ferm terms of each subset of its letters and drops them with the
    block, so ferm is held for one block at a time.  The bos terms of a
    content are built when a block first asks for them and kept only
    while a later degree may ask again, so contents of at most r + 1
    lengths are held.  Whole, bos would have sum r^n terms over
    n <= max_degree, and that size alone decides the refusal: if it
    exceeds term_cap, nothing is built.  term_cap bounds each block.
    """
    _at_least(1, r=r)
    _at_least(0, max_degree=max_degree, term_cap=term_cap)
    weighted = _series_weighted(variant)
    if _bos_size(r, max_degree) > term_cap:
        raise TermCapExceeded(f"series exceeded {term_cap} terms")
    # A bos content is built when a block first asks for it and kept while
    # a later degree may ask again: content m serves degrees |m| to |m| + r,
    # and one of the top length serves one block only.
    kept: dict[Word, list] = {}

    def bos_of(rest: Word) -> list:
        terms = kept.get(rest)
        if terms is None:
            terms = _bos_content(rest)
            if len(rest) < max_degree:
                kept[rest] = terms
        return terms

    rows: list[DegreeResult] = []
    for degree in range(max_degree + 1):
        terms = steps = 0
        reduced: dict[Rows, int] = {}
        for content in itertools.combinations_with_replacement(range(1, r + 1), degree):
            block = _content_block(content, bos_of)
            terms += len(block)
            block_steps, _, _ = _reduce_rows(block, SYSTEM_S, LEFTMOST, False, term_cap)
            steps += block_steps
            reduced.update(block)
        for done in [m for m in kept if len(m) + r <= degree]:
            del kept[done]
        normal_form = Expression._make(reduced)
        if weighted:
            normal_form = phi(normal_form)
        target = Expression.unit() if degree == 0 else Expression.zero()
        rows.append(
            DegreeResult(
                degree=degree,
                normal_form=normal_form,
                ok=normal_form == target,
                term_count_before_reduction=terms,
                rewrite_steps=steps,
            )
        )
    return QmmReport(r, max_degree, "sq" if weighted else "s", variant, rows)

