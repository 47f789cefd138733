"""Linear-algebra oracle for the dimension of each graded piece.

Independently of the rewrite engine, the span of the defining relations
in a fixed degree is computed as the exact rank of an integer matrix:
one row per (left context, reducible pair, right context), one column
per biword of that degree.  The codimension must match the count of
irreducible biwords obtained by brute enumeration.

Rows at a rational evaluation point q = p/s are scaled by p*s (and the
two-term rows by s) to clear denominators; row scaling leaves the rank
unchanged.  Elimination is fraction-free integer Gaussian elimination
on sparse rows with gcd normalization, pivoting on the column of
highest termination measure so that fill-in follows the same downhill
structure the rewrite rules do.  That order needs no sort: column j, top
word t over bottom word b, gets the key j - (inv(t) + imv(b)) * r^(2n).
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .rewrite import SYSTEM_S, _leftmost_nf
from .words import Biword, _at_least, imv, inv

DEFAULT_BUDGET = 10**6


def enumerate_biwords(r: int, n: int) -> list[Biword]:
    """All r^(2n) biwords of length n, ordered by (top, bottom) lex."""
    alphabet = range(1, r + 1)
    return [
        Biword._make(top, bottom)
        for top in itertools.product(alphabet, repeat=n)
        for bottom in itertools.product(alphabet, repeat=n)
    ]


def count_irreducible(r: int, n: int) -> int:
    """Brute enumeration count of length-n biwords with no double descent."""
    alphabet = range(1, r + 1)
    total = 0
    for top in itertools.product(alphabet, repeat=n):
        descents = [top[i] > top[i + 1] for i in range(n - 1)]
        for bottom in itertools.product(alphabet, repeat=n):
            if any(
                descents[i] and bottom[i] >= bottom[i + 1] for i in range(n - 1)
            ):
                continue
            total += 1
    return total


def reducible_pairs(r: int) -> list[Biword]:
    """The length-2 biwords carrying a double descent, in canonical order."""
    return [
        Biword._make((x, y), (a, b))
        for x in range(1, r + 1)
        for y in range(1, x)
        for a in range(1, r + 1)
        for b in range(1, a + 1)
    ]


def _as_q(q_value) -> Fraction:
    if isinstance(q_value, float):
        raise TypeError(f"q must be exact, not the float {q_value!r}")
    if isinstance(q_value, str):
        if q_value == "one":
            return Fraction(1)
        q_value = Fraction(q_value)
    q = Fraction(q_value)
    if q == 0:
        raise ValueError("q = 0 is outside the coefficient ring")
    return q


def _relation_stencil(q: Fraction) -> dict[bool, list[tuple[int, int, int]]]:
    """Integer-cleared coefficients of (pair) - (its replacement).

    Keyed by whether the bottom letters are equal; entries are
    (top arrangement, bottom arrangement, coefficient) with arrangement
    0 meaning kept and 1 meaning swapped.
    """
    p, s = q.numerator, q.denominator
    return {
        True: [(0, 0, s), (1, 0, -p)],
        False: [(0, 0, p * s), (1, 1, -p * s), (1, 0, -p * p), (0, 1, s * s)],
    }


def relation_matrix(r: int, n: int, q_value="one") -> list[dict[int, int]]:
    """Sparse integer rows spanning the degree-n relation space.

    Columns follow enumerate_biwords(r, n): top word t over bottom word b
    is column index(t) * r^n + index(b), where index reads a word as a
    base-r numeral with digits letter - 1.  One row per placement of a
    reducible pair between a left and a right context; n < 2 gives no
    rows.
    """
    _at_least(1, r=r)
    _at_least(0, degree=n)
    q = _as_q(q_value)
    stencil = _relation_stencil(q)
    size = r**n
    # Rows share one int object per column; a fresh int per entry would
    # grow the matrix by about a quarter-million objects for r=2, n=8.
    column = list(range(size * size))
    rows: list[dict[int, int]] = []
    for i in range(n - 1):
        # The pair's place value is the number of right contexts.
        rights = range(r ** (n - 2 - i))
        place = len(rights)
        lefts = range(0, size, place * r * r)
        for pair in reducible_pairs(r):
            (x, y), (a, b) = pair.top, pair.bottom
            tops = (x - 1) * r + y - 1, (y - 1) * r + x - 1
            bottoms = (a - 1) * r + b - 1, (b - 1) * r + a - 1
            entries = [
                ((tops[ti] * size + bottoms[bi]) * place, coeff)
                for ti, bi, coeff in stencil[a == b]
            ]
            for lt in lefts:
                for lb in lefts:
                    for rt in rights:
                        base = (lt + rt) * size + lb
                        for rb in rights:
                            rows.append({column[base + rb + j]: c for j, c in entries})
    return rows


def _normalize_row(row: dict[int, int]) -> None:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for j in row:
            row[j] //= g


def rank(rows: list[dict[int, int]], priority=None) -> int:
    """Exact rank of sparse integer rows by fraction-free elimination.

    priority, if given, maps a column index to its pivoting key; smaller
    keys are eliminated first.  The rank does not depend on it, only the
    amount of fill-in does.
    """
    if priority is None:
        key = lambda j: j
    else:
        key = priority.__getitem__
    pivots: dict[int, dict[int, int]] = {}
    found = 0
    for row in rows:
        row = {j: v for j, v in row.items() if v}
        while row:
            lead = min(row, key=key)
            pivot = pivots.get(lead)
            if pivot is None:
                _normalize_row(row)
                pivots[lead] = row
                found += 1
                break
            a = pivot[lead]
            b = row[lead]
            g = gcd(a, b)
            am, bm = a // g, b // g
            merged = {j: v * am for j, v in row.items()}
            for j, v in pivot.items():
                w = merged.get(j, 0) - v * bm
                if w:
                    merged[j] = w
                else:
                    merged.pop(j, None)
            _normalize_row(merged)
            row = merged
    return found


def _measure_priority(r: int, n: int) -> list[int]:
    # Pivot on high-measure columns first; mirrors the rewrite direction.
    # As j < r^(2n), the keys order columns by (-inv_plus, j).
    words = list(itertools.product(range(1, r + 1), repeat=n))
    size = r ** (2 * n)
    tops = [inv(w) * size for w in words]
    bottoms = [imv(w) * size for w in words]
    return [j - t - b for j, (t, b) in enumerate(itertools.product(tops, bottoms))]


@dataclass
class DimensionReport:
    r: int
    degree: int
    ambient_dim: int
    relation_rank: int
    quotient_dim: int
    irreducible_count: int
    match: bool
    q_value: str = "1"


def check_basis_dimension(
    r: int, n: int, q_value="one", budget: int = DEFAULT_BUDGET
) -> DimensionReport:
    """Compare the relation-space codimension with the irreducible count."""
    _at_least(1, r=r)
    _at_least(0, degree=n)
    ambient = r ** (2 * n)
    if ambient > budget:
        raise ValueError(
            f"degree {n} over alphabet 1..{r} needs {ambient} columns, "
            f"over the budget of {budget}"
        )
    q = _as_q(q_value)
    rows = relation_matrix(r, n, q)
    relation_rank = rank(rows, _measure_priority(r, n)) if rows else 0
    quotient = ambient - relation_rank
    irreducible = count_irreducible(r, n)
    return DimensionReport(
        r=r,
        degree=n,
        ambient_dim=ambient,
        relation_rank=relation_rank,
        quotient_dim=quotient,
        irreducible_count=irreducible,
        match=quotient == irreducible,
        q_value=str(q),
    )


def spanning_rank(r: int, n: int) -> int:
    """Rank of the plain normal-form map on all length-n biwords.

    Cross-validates the rewrite engine against the oracle: the rank must
    equal the quotient dimension, and it can only exceed the irreducible
    count if some normal form escaped the irreducible span.
    """
    _at_least(1, r=r)
    _at_least(0, degree=n)
    size = r**n
    words = list(itertools.product(range(1, r + 1), repeat=n))
    index = {w: k for k, w in enumerate(words)}  # the base-r value of w
    rows = [
        {
            index[t] * size + index[b]: c
            for (t, b), c in _leftmost_nf((top, bottom), SYSTEM_S).items()
        }
        for top in words
        for bottom in words
    ]
    return rank(rows, _measure_priority(r, n))
