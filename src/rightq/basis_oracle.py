"""Linear-algebra oracle for the dimension of each graded piece.

Without rewriting, the span of the engine's own relations (its weighted
rule table) in a fixed degree is computed as the exact rank of an integer
matrix: one row per (left context, reducible pair, right context), one
column per biword of that degree.  The codimension must match the count
of irreducible biwords obtained by brute enumeration, and a closed form.

A rule only rearranges the letters within each row of a biword, so
every relation row is supported inside one content block: the biwords
whose top word has letter multiplicities alpha and whose bottom word
has multiplicities beta.  The oracle ranks one (alpha, beta) block at
a time and sums the ranks, so memory follows one block (at most 4,900
of the 65,536 columns for r = 2, n = 8), not the whole matrix.
enumerate_biwords, count_irreducible, relation_matrix,
check_basis_dimension, spanning_rank and _measure_priority all read one
table per degree, _Degree, which checks r, the degree and the one column
budget, DEFAULT_BUDGET, computes each word's descent masks once, and
walks the blocks lazily.  Nothing is lost: eliminating a row only ever
subtracts pivot rows that share its pivot column, hence its block, so
the whole matrix's elimination never mixes blocks.  relation_matrix
lists the rows block by block, and within a block by top word, bottom
word and position; that order sets the fill-in of ranking it whole,
never its rank.

check_basis_dimension ranks one block of each mirror pair.  The mirror
rho reverses both rows of a biword and replaces each letter x by
r + 1 - x.  It maps a double descent at position i of a length-n biword
onto one at position n - 2 - i, with equal bottom letters kept equal,
and the relation row placed there onto the row placed at the image,
entry for entry: the term with the top swapped or not and the bottom
swapped or not goes to the term swapped in the same way, with the same
coefficient.  So rho maps the rows of block (alpha, beta) onto those of
block (alpha reversed, beta reversed) by a column permutation, which
keeps the rank.  This uses only the shape of the stencil, (top swapped,
bottom swapped, coefficient), never its values, so it holds at every q
and for any table of that shape, a wrong one included.  Each block's
codimension is compared with its own closed form, and the brute count
enumerates the whole degree; relation_matrix and spanning_rank walk
every block.

check_basis_dimension eliminates only the rows that can fail.  Call
the relation row of a reducible biword w at its leftmost double descent
p0 its leftmost row, and, when p0 + 1 is a double descent too, its row
there its overlap row.  The other rows are redundant: the "disjoint
ambiguities resolve trivially" step of Bergman's diamond lemma ("The
diamond lemma for ring theory", 1978), used only to skip rows already
in the span, never to assume the irreducible basis; check_basis_dimension
gives the identity behind it.  Every term of a row of w but w itself
has a lower measure, so the row leads with w's own column: the leftmost
rows, one per reducible biword, are triangular and independent with no
arithmetic.  A block's rank is therefore its count of reducible biwords
plus the rank its overlap rows add to the leftmost rows.  Only the
overlap rows are eliminated; a leftmost row is built from its lead's
column key when an overlap row first needs it as a pivot, and a nonzero
remainder, left at an irreducible lead, is an extra pivot.  So match
holds exactly when no overlap row leaves a remainder and each block's
irreducible count equals its closed form.  At r = 2 no two double
descents are adjacent (x > y > z needs three letters), so there are no
overlap rows and each block's rank is its reducible count; the work that
can tell a wrong table from the right one starts at r = 3.  Like the
mirror pairing, this uses only the stencil's shape, so it holds at every
q and for any table of that shape.

Reducing an overlap row against the triangular leftmost rows, highest
measure first, is the rewrite worklist's leftmost reduction of that
relation, so match says that every overlap resolves in every context:
what the ambiguity check and the diamond lemma already say.  The rank is
an independent implementation of that statement, with its own stencil at
a rational q and its own integer elimination, not an independent
argument.  The closed form below is the independent argument.

Rows at a rational evaluation point q = p/s are scaled by p*s (and the
two-term rows by s) to clear denominators; row scaling leaves the rank
unchanged.  rank and check_basis_dimension share one elimination loop,
_eliminate.  It works fraction-free on one copy of each input row,
subtracting pivots from it in place and dividing out its content only
as it becomes a pivot, and check_basis_dimension gives it a pivot
lookup, asked only at a lead with no pivot yet.  It pivots on the
column of highest termination measure so that fill-in follows the same
downhill structure the rewrite rules do.  That order needs no sort:
column j, top word t over bottom word b, gets the key
j - (inv(t) + imv(b)) * r^(2n), and the blocked oracle names each
column by its key, so that a row's pivot is its smallest column.

The third route is a closed form per block.  The irreducible count of
block (alpha, beta) is the coefficient of x^alpha y^beta in
1 / sum_k (-1)^k e_k(x) h_k(y), the multigraded form of the Koszul-dual
series (Hai-Lorenz, "Koszul algebras and the quantum MacMahon master
theorem").  Its e_k(x) h_k(y) reflects the rule table: with t, b the
pair's top and bottom words and s their letter swap, each relation is
(t - q st) (x) (b + q^-1 sb), or (t - q st) (x) b for equal bottom
letters, q-antisymmetric in the top row and q-symmetric in the bottom.
"""

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from .rewrite import SYSTEM_S, SYSTEM_SQ, _leftmost_nf
from .words import Biword, _at_least, descent_mask, imv, inv

DEFAULT_BUDGET = 10**6


def enumerate_biwords(r: int, n: int) -> list[Biword]:
    """All r^(2n) biwords of length n, by (top, bottom) lex, within the budget."""
    words = _Degree(r, n).words
    return [Biword._make(top, bottom) for top in words for bottom in words]


def count_irreducible(r: int, n: int) -> int:
    """Brute enumeration count of length-n biwords with no double descent."""
    return _Degree(r, n).irreducible_count()


def _as_q(q_value) -> Fraction:
    if isinstance(q_value, (float, bool)):
        raise TypeError(
            f"q must be exact, not the {type(q_value).__name__} {q_value!r}"
        )
    if q_value == "one":
        return Fraction(1)
    try:
        q = Fraction(q_value)
    except ZeroDivisionError:
        raise ValueError(f"q = {q_value} has a zero denominator") from None
    if q == 0:
        raise ValueError("q = 0 is outside the coefficient ring")
    return q


def _relation_stencil(q: Fraction) -> dict[bool, list[tuple[int, int, int]]]:
    """The weighted rule table's (pair) - (its replacement) at q = p/s.

    Keyed by whether the bottom letters are equal; entries are (top
    swapped, bottom swapped, coefficient), with each relation scaled by
    p^-lo * s^hi, where lo..hi span its powers of q, to clear denominators.
    """
    stencil = {}
    for equal, rules in SYSTEM_SQ.stencil.items():
        relation = [(0, 0, SYSTEM_SQ.one)] + [(ti, bi, -c) for ti, bi, c, _ in rules]
        powers = [e for *_, c in relation for e, _ in c.monomials()]
        scale = q.numerator ** -min(powers) * q.denominator ** max(powers)
        stencil[equal] = [
            (ti, bi, int(c.eval_at_rational(q) * scale)) for ti, bi, c in relation
        ]
    return stencil


class _Degree:
    """The oracle's one entry: the length-n words over 1..r, as one table.

    r, n and the column budget DEFAULT_BUDGET are checked before any work;
    ambient is the column count r^(2n).  words are in base-r order;
    classes groups their indices by content; strict[k] and weak[k] are
    word k's strict and weak descent masks, so a biword's double descents
    are the bits of strict[t] & weak[b].  The pivot keys and the swap
    index are built on first use.
    """

    def __init__(self, r: int, n: int):
        _at_least(1, r=r)
        _at_least(0, degree=n)
        self.ambient = r ** (2 * n)
        if self.ambient > DEFAULT_BUDGET:
            raise ValueError(
                f"degree {n} over alphabet 1..{r} needs {self.ambient} columns, "
                f"over the budget of {DEFAULT_BUDGET}"
            )
        self.words = list(itertools.product(range(1, r + 1), repeat=n))
        self.classes: dict[tuple[int, ...], list[int]] = {}
        for k, w in enumerate(self.words):
            self.classes.setdefault(tuple(map(w.count, range(1, r + 1))), []).append(k)
        self.strict = [descent_mask(w) for w in self.words]
        self.weak = [descent_mask(w, weak=True) for w in self.words]

    def blocks(self):
        """Yield (alpha, beta, top indices, bottom indices), one block at a time."""
        classes = self.classes.items()
        return ((alpha, beta, ts, bs) for alpha, ts in classes for beta, bs in classes)

    def irreducible_count(self) -> int:
        """Biwords with no double descent: a top's strict descents and a
        bottom's weak ones at disjoint positions, grouped by mask."""
        strict, weak = Counter(self.strict).items(), Counter(self.weak).items()
        return sum(t * b for s, t in strict for w, b in weak if not s & w)

    @cached_property
    def keys(self) -> tuple[list[int], list[int]]:
        """Each word's share of a pivot key, as a top word and as a bottom word.

        Column j = t * r^n + b has the key tops[t] + bottoms[b]; as
        j < r^(2n), the keys order columns by (-inv_plus, j), and j is the
        key modulo r^(2n).
        """
        size, ambient = len(self.words), self.ambient
        tops = [k * size - inv(w) * ambient for k, w in enumerate(self.words)]
        bottoms = [k - imv(w) * ambient for k, w in enumerate(self.words)]
        return tops, bottoms

    @cached_property
    def swapped(self) -> list[list[int]]:
        """swapped[k][i] is word k with its letters i and i + 1 swapped."""
        index = {w: k for k, w in enumerate(self.words)}
        return [
            [index[w[:i] + (w[i + 1], w[i]) + w[i + 2 :]] for i in range(len(w) - 1)]
            for w in self.words
        ]

    def rows(self, q: Fraction):
        """(at, leftmost): the relation rows at q, built one at a time.

        at(t, b, i) is the row of top word t over bottom word b at its
        double descent i, with each column named by its pivot key, so a
        row's lead is its smallest key.  leftmost(key) is the row at the
        leftmost double descent of the biword whose column has this key,
        or None if that biword is irreducible.
        """
        (tops, bottoms), swapped = self.keys, self.swapped
        strict, weak, size, ambient = self.strict, self.weak, len(tops), self.ambient
        stencil = _relation_stencil(q)

        def at(t: int, b: int, i: int) -> dict[int, int]:
            t2, b2 = swapped[t][i], swapped[b][i]
            key_t = tops[t], tops[t2]
            key_b = bottoms[b], bottoms[b2]
            return {key_t[ti] + key_b[bi]: c for ti, bi, c in stencil[b == b2] if c}

        def leftmost(key: int):
            t, b = divmod(key % ambient, size)
            placed = strict[t] & weak[b]
            return at(t, b, (placed & -placed).bit_length() - 1) if placed else None

        return at, leftmost


def _relation_blocks(table: _Degree, q: Fraction):
    """Yield (alpha, beta, rows) for each block of table in turn.

    rows are the block's relation rows, one per biword and double-descent
    position, by top word, bottom word and position, with each column
    named by its pivot key, so that a row's pivot is its minimum.
    """
    at, _ = table.rows(q)
    strict, weak, positions = table.strict, table.weak, range(len(table.words[0]) - 1)
    for alpha, beta, top_class, bottom_class in table.blocks():
        block = []
        for t in top_class:
            for b in bottom_class:
                placed = strict[t] & weak[b]
                block += [at(t, b, i) for i in positions if placed >> i & 1]
        yield alpha, beta, block


def _block_ranks(table: _Degree, blocks, q: Fraction):
    """Yield (alpha, beta, columns, reducible, extra) for each block in blocks,
    a walk of table's blocks.

    The block's rank is reducible + extra (see check_basis_dimension).
    reducible counts its biwords with a double descent, from the top
    words grouped by strict descent mask and the bottom words by weak
    descent mask.  extra is the rank its overlap rows add to the leftmost
    rows: each overlap row is eliminated, and each leftmost row is built
    only when a lead needs it as a pivot.  table.rows(q), which builds the
    key and swap tables, waits for the first overlap row: r = 2 has none.
    """
    at = leftmost = None

    def by_mask(indices, masks):
        groups: dict[int, list[int]] = {}
        for k in indices:
            groups.setdefault(masks[k], []).append(k)
        return groups.items()

    for alpha, beta, top_class, bottom_class in blocks:
        reducible = 0
        overlaps = []
        bottom_groups = by_mask(bottom_class, table.weak)
        for top_mask, ts in by_mask(top_class, table.strict):
            for bottom_mask, bs in bottom_groups:
                placed = top_mask & bottom_mask
                if placed:
                    reducible += len(ts) * len(bs)
                    low = placed & -placed
                    if placed & low << 1:
                        if at is None:
                            at, leftmost = table.rows(q)
                        i = low.bit_length()  # p0 + 1
                        overlaps += [at(t, b, i) for t in ts for b in bs]
        extra = _eliminate(overlaps, {}, lookup=leftmost)
        yield alpha, beta, len(top_class) * len(bottom_class), reducible, extra


def relation_matrix(r: int, n: int, q_value="one") -> list[dict[int, int]]:
    """Sparse integer rows spanning the degree-n relation space.

    Columns follow enumerate_biwords(r, n): top word t over bottom word b
    is column index(t) * r^n + index(b), where index reads a word as a
    base-r numeral with digits letter - 1.  One row per placement of a
    reducible pair between a left and a right context; n < 2 gives no
    rows.  Rows come one content block after another, and within a block
    by top word, bottom word and position; that order sets the fill-in of
    ranking them whole.  Like the other entries, it refuses more than
    DEFAULT_BUDGET columns.
    """
    table = _Degree(r, n)
    q = _as_q(q_value)
    ambient = table.ambient
    return [
        {key % ambient: c for key, c in row.items()}
        for *_, rows in _relation_blocks(table, q)
        for row in rows
    ]


def rank(rows: list[dict[int, int]], priority=None) -> int:
    """Exact rank of sparse integer rows by fraction-free elimination.

    priority, if given, maps a column index to its pivoting key; smaller
    keys are eliminated first, and without it the smallest column index
    is.  The rank does not depend on it, only the amount of fill-in does.
    The input rows are never mutated; see _eliminate.
    """
    key = None if priority is None else priority.__getitem__
    return _eliminate(rows, {}, key)


def _eliminate(rows, pivots: dict[int, dict[int, int]], key=None, lookup=None) -> int:
    """Reduce a copy of each row against pivots; return how many become pivots.

    Each row is copied once, without its zeros, and its lead is its
    smallest column under key.  Where pivots has no row for a lead,
    lookup (if given) is asked for one: a row it returns is stored as
    that lead's pivot and used, and None leaves the lead free.  Against
    the pivot of its lead, with leads a and b and g = gcd(a, b), the copy
    is scaled by a // g only if a does not divide b, then loses b // g
    times the pivot in place.  A copy left at a free lead becomes its
    pivot, divided by its content gcd and signed so that its lead is
    positive.
    """
    added = 0
    for row in rows:
        row = {j: v for j, v in row.items() if v}
        while row:
            lead = min(row, key=key)
            pivot = pivots.get(lead)
            if pivot is None and lookup is not None:
                pivot = lookup(lead)
                if pivot is not None:
                    pivots[lead] = pivot
            if pivot is None:
                g = gcd(*row.values()) if row[lead] > 0 else -gcd(*row.values())
                if g != 1:
                    for j in row:
                        row[j] //= g
                pivots[lead] = row
                added += 1
                break
            a = pivot[lead]
            b = row[lead]
            g = gcd(a, b)
            if g != a:
                for j in row:
                    row[j] *= a // g
            b //= g
            for j, v in pivot.items():
                w = row.get(j, 0) - v * b
                if w:
                    row[j] = w
                else:
                    del row[j]
    return added


def _measure_priority(r: int, n: int) -> list[int]:
    # Pivot on high-measure columns first; mirrors the rewrite direction.
    tops, bottoms = _Degree(r, n).keys
    return [t + b for t in tops for b in bottoms]


def _lower_terms(top: tuple[int, ...], bottom: tuple[int, ...]):
    """(sign, (top', bottom')) for each term of (1 - D) F at x^top y^bottom."""
    support = [x for x, a in enumerate(top) if a]
    held = [y for y, b in enumerate(bottom) if b]
    for k in range(1, len(support) + 1):
        sign = 1 if k % 2 else -1
        for subset in itertools.combinations(support, k):
            # tuple() of a list, not of a generator: the generator form
            # raised the traced peak of r = 2, n = 8 by about 0.1 MB.
            lower_top = tuple([a - subset.count(x) for x, a in enumerate(top)])
            for multiset in itertools.combinations_with_replacement(held, k):
                lower = tuple([b - multiset.count(y) for y, b in enumerate(bottom)])
                if min(lower) >= 0:
                    yield sign, (lower_top, lower)


def _closed_form(alpha: tuple[int, ...], beta: tuple[int, ...], memo: dict) -> int:
    """Coefficient of x^alpha y^beta in F = 1 / D, D = sum_k (-1)^k e_k(x) h_k(y).

    This is the irreducible count of the block with top content alpha and
    bottom content beta.  e_k(x) h_k(y) counts the biwords of length k
    whose top strictly decreases and whose bottom weakly decreases.
    F = 1 + (1 - D) F gives each coefficient from coefficients of lower
    degree; memo holds the ones found so far.  One post-order pass fills
    it: a coefficient goes back on the stack once, below its lower terms.
    """
    stack = [((alpha, beta), None)]
    while stack:
        cur, terms = stack.pop()
        if terms is not None:
            unit = not any(cur[0] + cur[1])  # the 1 of F = 1 + (1 - D) F
            memo[cur] = unit + sum(c * memo[child] for c, child in terms)
        elif cur not in memo:
            terms = list(_lower_terms(*cur))
            stack.append((cur, terms))
            stack += [(child, None) for _, child in terms if child not in memo]
    return memo[alpha, beta]


@dataclass
class DimensionReport:
    r: int
    degree: int
    ambient_dim: int
    relation_rank: int
    quotient_dim: int
    irreducible_count: int
    match: bool
    q_value: str
    closed_form_count: int


def check_basis_dimension(r: int, n: int, q_value="one") -> DimensionReport:
    """Compare the relation-space codimension with two irreducible counts.

    The codimension is summed over content blocks, each ranked on its
    own.  match requires it to equal the brute irreducible count, and
    every block's codimension to equal the block's closed form.

    Only one block of each mirror pair is built and ranked: the one with
    (alpha, beta) <= (alpha reversed, beta reversed).  Its rank counts
    for both blocks, since the mirror (reverse both rows, x -> r + 1 - x)
    maps each block's relation rows onto its partner's with the same
    coefficients, whatever the rule table's values.  Each block's
    codimension is compared with its own closed form.

    Within a block, write row(w, p) = w - R_p(w) for the relation placed
    at a double descent p of w, before its rows are scaled, where
    R_p(w) = sum_k c_k u_k is the rule's replacement of the pair at p.
    Let p0 be w's leftmost double descent and p' >= p0 + 2 another.  The
    rules at p0 and p' rearrange disjoint pairs of positions, so
    R_p' R_p0 w = R_p0 R_p' w, which is the identity

        row(w, p') - row(w, p0)
            = sum_k c_k row(u_k, p') - sum_l c'_l row(v_l, p0)

    with u_k, c_k the terms of R_p0(w) and v_l, c'_l those of R_p'(w).
    Each u_k keeps the double descent at p', each v_l the one at p0,
    and all lie in w's block at a lower measure than w.  By induction on
    the measure, every row then lies in the span of the leftmost rows,
    row(w, p0), and the overlap rows, row(w, p0 + 1) where p0 + 1 is a
    double descent too.  Each leads with w's own column, so the leftmost
    rows are triangular and the block's rank is its reducible count plus
    what the overlap rows add.  Only those are eliminated, each against
    leftmost rows built from their lead's column key, j = key mod r^(2n)
    and (top, bottom) = divmod(j, r^n), when it first needs them.  At
    r = 2 there are none.  The argument uses only the shape of the
    stencil, never its values, so like the mirror it holds at every q
    and for a wrong table.  It makes the rank an independent
    implementation of "every overlap resolves", not an independent
    argument; the closed form is the independent argument.
    """
    table = _Degree(r, n)
    q = _as_q(q_value)
    ranked = (b for b in table.blocks() if b[:2] <= (b[0][::-1], b[1][::-1]))
    relation_rank = closed_form = 0
    blocks_agree = True
    memo: dict = {}
    for alpha, beta, columns, reducible, extra in _block_ranks(table, ranked, q):
        block_rank = reducible + extra
        for pair in {(alpha, beta), (alpha[::-1], beta[::-1])}:
            expected = _closed_form(*pair, memo)
            relation_rank += block_rank
            closed_form += expected
            blocks_agree = blocks_agree and columns - block_rank == expected
    quotient = table.ambient - relation_rank
    irreducible = table.irreducible_count()
    return DimensionReport(
        r=r,
        degree=n,
        ambient_dim=table.ambient,
        relation_rank=relation_rank,
        quotient_dim=quotient,
        irreducible_count=irreducible,
        match=blocks_agree and quotient == irreducible,
        q_value=str(q),
        closed_form_count=closed_form,
    )


def spanning_rank(r: int, n: int) -> int:
    """Rank of the plain normal-form map on all length-n biwords.

    Cross-validates the rewrite engine against the oracle: the rank must
    equal the quotient dimension, and it can only exceed the irreducible
    count if some normal form escaped the irreducible span.  Normal forms
    keep content, so the rank is summed over content blocks.  The rows
    are the memo's normal forms as they are, with (top, bottom) columns.
    """
    table = _Degree(r, n)
    words = table.words
    return sum(
        rank([_leftmost_nf((words[t], words[b]), SYSTEM_S) for t in ts for b in bs])
        for *_, ts, bs in table.blocks()
    )
