"""References that the benchmark computes without calling rightq.

Each function here re-derives an expected value from the definitions in
the paper, so a gate that compares against it does not trust the code it
measures.  Biwords are plain (top, bottom) tuple pairs.
"""

import random
from math import comb


def koszul_dimension(r: int, n: int) -> int:
    """Coefficient of t^n in 1 / sum_k (-1)^k C(r,k) C(r+k-1,k) t^k.

    The denominator counts length-k biwords whose top strictly decreases
    and whose bottom weakly decreases.  By the Koszul reading of the
    MacMahon identity (Hai-Lorenz; Garoufalidis-Le-Zeilberger) the
    Hilbert series of the quotient over alphabet 1..r is its reciprocal,
    so this is the dimension of the degree-n quotient.
    """
    denominator = [(-1) ** k * comb(r, k) * comb(r + k - 1, k) for k in range(r + 1)]
    h = [1]
    for m in range(1, n + 1):
        h.append(-sum(denominator[k] * h[m - k] for k in range(1, min(m, r) + 1)))
    return h[n]


def first_double_descent(top, bottom) -> int:
    """0-based index of the leftmost double descent, or -1 if there is none."""
    for i in range(len(top) - 1):
        if top[i] > top[i + 1] and bottom[i] >= bottom[i + 1]:
            return i
    return -1


def relation_terms(x: int, y: int, a: int, b: int) -> list[tuple[tuple, tuple, int]]:
    """The plain defining relation (x y / a b) minus its replacement.

    Written out from the rule itself (x > y, a >= b), as a list of
    (top, bottom, integer coefficient).
    """
    if a == b:
        return [((x, y), (a, a), 1), ((y, x), (a, a), -1)]
    return [
        ((x, y), (a, b), 1),
        ((y, x), (b, a), -1),
        ((y, x), (a, b), -1),
        ((x, y), (b, a), 1),
    ]


def leftmost_closure(starts, limit: int | None = None) -> int:
    """How many biwords leftmost rewriting reaches from the given ones.

    A memo that normalizes by recursing into every child of the leftmost
    rewrite stores exactly this set, leaves included.  Children have the
    shapes the rule produces, whatever their coefficients.  With a limit,
    the search stops once it has found more than limit biwords.
    """
    seen = set()
    stack = list(starts)
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if limit is not None and len(seen) > limit:
            break
        top, bottom = node
        i = first_double_descent(top, bottom)
        if i < 0:
            continue
        x, y, a, b = top[i], top[i + 1], bottom[i], bottom[i + 1]
        swapped_top = top[:i] + (y, x) + top[i + 2 :]
        if a == b:
            stack.append((swapped_top, bottom))
            continue
        swapped_bottom = bottom[:i] + (b, a) + bottom[i + 2 :]
        stack.append((swapped_top, swapped_bottom))
        stack.append((swapped_top, bottom))
        stack.append((top, swapped_bottom))
    return len(seen)


def confluence_draws(r: int, max_len: int, trials: int, seed: int) -> list[tuple]:
    """The biwords check_confluence_fuzz(r, max_len, trials, seed, .) visits.

    Replays its draw order: per trial a length, the top row, the bottom
    row, then 32 random bits for the random strategy.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(trials):
        n = rng.randint(0, max_len)
        top = tuple(rng.randint(1, r) for _ in range(n))
        bottom = tuple(rng.randint(1, r) for _ in range(n))
        rng.getrandbits(32)
        out.append((top, bottom))
    return out
