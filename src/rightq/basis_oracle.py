"""Linear-algebra oracle for the dimension of each graded piece.

Without rewriting, the span of the engine's own relations (its weighted
rule table) in a fixed degree is computed as the exact rank of an integer
matrix: one row per (left context, reducible pair, right context), one
column per biword of that degree.  The codimension must match the count
of irreducible biwords obtained by brute enumeration, and a closed form.

A rule only rearranges the letters within each row of a biword, so
every relation row is supported inside one content block: the biwords
whose top word has letter multiplicities alpha and whose bottom word
has multiplicities beta.  The oracle builds, ranks and discards one
(alpha, beta) block at a time and sums the ranks, so memory follows the
largest block (4,900 of the 65,536 columns for r = 2, n = 8), not the
whole matrix.  enumerate_biwords, count_irreducible, relation_matrix,
check_basis_dimension and spanning_rank all enter through _blocks,
which checks r, the degree and the one column budget, DEFAULT_BUDGET,
then walks the blocks lazily.  Nothing is lost: eliminating a row only
ever subtracts pivot rows that share its pivot column, hence its block,
so the whole matrix's elimination never mixes blocks.
relation_matrix lists the rows block by block in the order the blocks
are walked, so ranking it whole does the blocked elimination step for
step: the same fill-in and the same rank.

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
codimension is still compared with its own closed form, and the brute
count still enumerates the whole degree; relation_matrix and
spanning_rank still walk every block.

check_basis_dimension also drops, in each block, the rows that linear
algebra alone shows are redundant: the "disjoint ambiguities resolve
trivially" step of Bergman's diamond lemma ("The diamond lemma for ring
theory", 1978), used only to skip rows already in the span, never to
assume the irreducible basis.  The rules at two double descents p0 and
p' >= p0 + 2 of a biword w rearrange disjoint pairs of positions, so
they commute, and row(w, p') - row(w, p0) is a combination of the rows
at p' and at p0 of the terms of the two replacements, which lie in w's
block at a lower measure.  By induction on the measure, each biword's
rows at its leftmost double descent p0 and, if it is one, at p0 + 1
span all of its rows.  In the double-descent mask m of a biword these
are the bits m & ((m & -m) * 3).  At r = 2 no two double descents are
adjacent (x > y > z needs three letters), so each reducible biword
keeps one row, led by its own column: the kept rows are triangular and
elimination reduces none of them.  At r >= 3 the work that can tell a
wrong table from the right one is in the overlap rows, the pairs at
p0 and p0 + 1.  Like the mirror pairing, this uses only the stencil's
shape, so it holds at every q and for any table of that shape.

Rows at a rational evaluation point q = p/s are scaled by p*s (and the
two-term rows by s) to clear denominators; row scaling leaves the rank
unchanged.  rank eliminates fraction-free on one copy of each input row,
subtracting pivots from it in place and dividing out its content only
as it becomes a pivot.  It pivots on the column of highest termination
measure so that fill-in follows the same downhill structure the rewrite
rules do.  That order needs no sort: column j, top
word t over bottom word b, gets the key j - (inv(t) + imv(b)) * r^(2n),
and the blocked oracle names each column by its key, so that a row's
pivot is its smallest column.

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
from math import gcd

from .rewrite import SYSTEM_S, SYSTEM_SQ, _leftmost_nf
from .words import Biword, Word, _at_least, descent_mask, imv, inv

DEFAULT_BUDGET = 10**6


def enumerate_biwords(r: int, n: int) -> list[Biword]:
    """All r^(2n) biwords of length n, by (top, bottom) lex, within the budget."""
    words, *_ = _blocks(r, n)
    return [Biword._make(top, bottom) for top in words for bottom in words]


def count_irreducible(r: int, n: int) -> int:
    """Brute enumeration count of length-n biwords with no double descent."""
    return _irreducible_count(_blocks(r, n)[0])


def _irreducible_count(words: list[Word]) -> int:
    """Biwords over words with no double descent: a top's strict descents
    and a bottom's weak ones at disjoint positions, grouped by mask."""
    strict = Counter(descent_mask(w) for w in words)
    weak = Counter(descent_mask(w, weak=True) for w in words)
    return sum(t * b for s, t in strict.items() for w, b in weak.items() if not s & w)


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


def _column_keys(r: int, n: int) -> tuple[list[Word], list[int], list[int]]:
    """The length-n words in base-r order, with each word's share of a pivot key.

    Column j = index(t) * r^n + index(b), top word t over bottom word b,
    has the key tops[index(t)] + bottoms[index(b)], which is
    j - (inv(t) + imv(b)) * r^(2n).  As j < r^(2n), the keys order
    columns by (-inv_plus, j), and j is the key modulo r^(2n).
    """
    words = list(itertools.product(range(1, r + 1), repeat=n))
    size = len(words)
    ambient = size * size
    tops = [k * size - inv(w) * ambient for k, w in enumerate(words)]
    bottoms = [k - imv(w) * ambient for k, w in enumerate(words)]
    return words, tops, bottoms


def _blocks(r: int, n: int):
    """The oracle's one entry: words, their pivot-key shares and a block walk.

    r, n and the column budget DEFAULT_BUDGET are checked before any work.
    The walk yields (alpha, beta, top indices, bottom indices) one block at
    a time.
    """
    _at_least(1, r=r)
    _at_least(0, degree=n)
    ambient = r ** (2 * n)
    if ambient > DEFAULT_BUDGET:
        raise ValueError(
            f"degree {n} over alphabet 1..{r} needs {ambient} columns, "
            f"over the budget of {DEFAULT_BUDGET}"
        )
    words, tops, bottoms = _column_keys(r, n)
    classes: dict[tuple[int, ...], list[int]] = {}
    for k, w in enumerate(words):
        classes.setdefault(tuple(map(w.count, range(1, r + 1))), []).append(k)
    blocks = (
        (alpha, beta, top_class, bottom_class)
        for alpha, top_class in classes.items()
        for beta, bottom_class in classes.items()
    )
    return words, tops, bottoms, blocks


def _relation_blocks(words, tops, bottoms, blocks, q: Fraction, pruned=False):
    """Yield (alpha, beta, columns, rows) for each block of _blocks in turn.

    columns is the number of biwords in the block.  rows are its
    relation rows, one per biword and double-descent position, with each
    column named by its pivot key, so that a row's pivot is its minimum.
    If pruned, a biword keeps only the rows at its leftmost double descent
    p0 and, if it is one too, at p0 + 1; the rows dropped lie in the span
    of the rows kept (see check_basis_dimension).
    """
    stencil = _relation_stencil(q)
    index = {w: k for k, w in enumerate(words)}

    def swaps(w: Word, weak: bool) -> tuple[int, dict[int, int]]:
        # The descent mask, and descent position i -> index of w with
        # letters i and i + 1 swapped.
        mask = descent_mask(w, weak)
        return mask, {
            i: index[w[:i] + (w[i + 1], w[i]) + w[i + 2 :]]
            for i in range(len(w) - 1)
            if mask >> i & 1
        }

    strict = [swaps(w, False) for w in words]
    weak = [swaps(w, True) for w in words]
    for alpha, beta, top_class, bottom_class in blocks:
        rows = []
        for t in top_class:
            top_mask, top_swaps = strict[t]
            for b in bottom_class:
                bottom_mask, bottom_swaps = weak[b]
                placed = top_mask & bottom_mask
                if pruned:
                    placed &= (placed & -placed) * 3
                for i, t2 in top_swaps.items():
                    if not placed >> i & 1:
                        continue
                    b2 = bottom_swaps[i]
                    key_t = tops[t], tops[t2]
                    key_b = bottoms[b], bottoms[b2]
                    rows.append(
                        {key_t[ti] + key_b[bi]: c for ti, bi, c in stencil[b == b2]}
                    )
        yield alpha, beta, len(top_class) * len(bottom_class), rows


def relation_matrix(r: int, n: int, q_value="one") -> list[dict[int, int]]:
    """Sparse integer rows spanning the degree-n relation space.

    Columns follow enumerate_biwords(r, n): top word t over bottom word b
    is column index(t) * r^n + index(b), where index reads a word as a
    base-r numeral with digits letter - 1.  One row per placement of a
    reducible pair between a left and a right context; n < 2 gives no
    rows.  Rows come one content block after another, in the order the
    blocked oracle ranks them.  Like the other entries, it refuses more
    than DEFAULT_BUDGET columns.
    """
    walk = _blocks(r, n)
    q = _as_q(q_value)
    ambient = r ** (2 * n)
    return [
        {key % ambient: c for key, c in row.items()}
        for *_, rows in _relation_blocks(*walk, q)
        for row in rows
    ]


def rank(rows: list[dict[int, int]], priority=None) -> int:
    """Exact rank of sparse integer rows by fraction-free elimination.

    priority, if given, maps a column index to its pivoting key; smaller
    keys are eliminated first, and without it the smallest column index
    is.  The rank does not depend on it, only the amount of fill-in does.

    The input rows are never mutated.  Each is copied once, without its
    zeros.  Against the pivot of its lead column, with leads a and b and
    g = gcd(a, b), the copy is scaled by a // g only if a does not divide
    b, then loses b // g times the pivot in place.  A row becomes a pivot
    divided by its content gcd, signed so that its lead is positive.
    """
    key = None if priority is None else priority.__getitem__
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = {j: v for j, v in row.items() if v}
        while row:
            lead = min(row, key=key)
            pivot = pivots.get(lead)
            if pivot is None:
                g = gcd(*row.values()) if row[lead] > 0 else -gcd(*row.values())
                if g != 1:
                    for j in row:
                        row[j] //= g
                pivots[lead] = row
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
    return len(pivots)


def _measure_priority(r: int, n: int) -> list[int]:
    # Pivot on high-measure columns first; mirrors the rewrite direction.
    _, tops, bottoms = _column_keys(r, n)
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
    codimension is still compared with its own closed form.

    Within a block only some rows are built and ranked.  Write
    row(w, p) = w - R_p(w) for the relation placed at a double descent
    p of w, before its rows are scaled, where R_p(w) = sum_k c_k u_k is
    the rule's replacement of the pair at p.  Let p0 be w's leftmost
    double descent and p' >= p0 + 2 another.  The rules at p0 and p'
    rearrange disjoint pairs of positions, so R_p' R_p0 w = R_p0 R_p' w,
    which is the identity

        row(w, p') - row(w, p0)
            = sum_k c_k row(u_k, p') - sum_l c'_l row(v_l, p0)

    with u_k, c_k the terms of R_p0(w) and v_l, c'_l those of R_p'(w).
    Each u_k keeps the double descent at p', each v_l the one at p0,
    and all lie in w's block at a lower measure than w.  By induction on
    the measure, every row then lies in the span of the rows kept: the
    one at p0, and the one at p0 + 1 when that is a double descent too.
    So the kept rows have the rank of the whole block.  The argument
    uses only the shape of the stencil, never its values, so like the
    mirror it holds at every q and for a wrong table.
    """
    words, *walk, blocks = _blocks(r, n)
    q = _as_q(q_value)
    ambient = r ** (2 * n)
    ranked = (b for b in blocks if b[:2] <= (b[0][::-1], b[1][::-1]))
    relation_rank = closed_form = 0
    blocks_agree = True
    memo: dict = {}
    kept = _relation_blocks(words, *walk, ranked, q, pruned=True)
    for alpha, beta, columns, rows in kept:
        block_rank = rank(rows)
        for pair in {(alpha, beta), (alpha[::-1], beta[::-1])}:
            expected = _closed_form(*pair, memo)
            relation_rank += block_rank
            closed_form += expected
            blocks_agree = blocks_agree and columns - block_rank == expected
    quotient = ambient - relation_rank
    irreducible = _irreducible_count(words)
    return DimensionReport(
        r=r,
        degree=n,
        ambient_dim=ambient,
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
    words, _, _, blocks = _blocks(r, n)
    return sum(
        rank([_leftmost_nf((words[t], words[b]), SYSTEM_S) for t in ts for b in bs])
        for *_, ts, bs in blocks
    )
