"""Rewriting biword expressions onto the irreducible basis.

Two reduction systems act on the same set of rewritable spots.  A spot
is a double descent: adjacent columns (x y / a b) with x > y and
a >= b.  The plain system "s" replaces such a pair by

    (y x / b a) + (y x / a b) - (x y / b a)      when a > b,
    (y x / a a)                                   when a = b,

and the q-weighted system "sq" by

    (y x / b a) + q (y x / a b) - q^-1 (x y / b a)   when a > b,
    q (y x / a a)                                     when a = b.

_RULES writes the weighted rules once; the plain rules are their values
at q = 1, and the basis oracle ranks the same table at rational q.
With t, b the pair's top and bottom words and s the swap of their two
letters, each relation pair - replacement is (t - q st) (x) (b + q^-1 sb)
when a > b and (t - q st) (x) b when a = b.
Every replacement strictly lowers the measure imv(bottom) + inv(top):
the three branches above drop it by exactly 2, 1, 1 and the swap branch
by 1.  A replacement only swaps letters within a row of the pair, so the
drop is the same in every context: each system computes it once from the
bare pair, and the kernel returns it with each child.  The kernel checks
that every drop is positive and treats a violation as internal
corruption; only the worklist turns drops into levels.  Under "s" the
memo holds ints and constant inputs are lowered to ints once, so all
plain arithmetic is on ints; Laurent values appear only in the
expressions returned.

reduce() runs a worklist over whole expressions, keyed by each biword's
plain (top, bottom) pair of tuples, whose hashing and comparison run in
C; biwords are built again only at the public boundary.
Pending reducible pairs are bucketed by measure value and processed
from the highest bucket down; since every new term lands strictly
lower, each distinct biword is rewritten at most once per call and its
coefficient is final when its turn comes.  Each pending pair carries its
double-descent mask (bit i for columns i, i + 1): a rewrite at position
p changes columns p and p + 1 only, and bit p of a child is clear exactly
when its drop is positive, so a child's mask is its parent's with bit p
cleared and bits p - 1 and p + 1 recomputed.  The leftmost spot is the
lowest set bit.  Input measures come from inv and imv tables over the
call's distinct top and bottom words.  Each bucket is sorted by
words.row_key: the order within a level changes no coefficient, but
it does change the peak term count, the trace and which biword draws
each random choice.  reduce() is the one public route to a normal form.
Its batch readers, in_ideal(), the confluence fuzz and spanning_rank(),
read one leftmost memo per ReductionSystem object (not per tag), keyed
by rows, filled in one post-order pass through the same rewrite kernel
and compared as row dicts.  It pays off over many related biwords; on
one large one it stores many times the answer's terms, so one fill
stores at most the term cap in total, and a fill first empties a memo
whose fills have stored more than the cap.  Its values are shared and
read-only: a lone unit-coefficient child (the plain swap) lends its
parent its dict.
"""

import random
from dataclasses import dataclass, field
from typing import NamedTuple

from .expressions import Expression, _accumulate
from .laurent import Laurent, ONE, Q, Q_INV
from .words import (
    Biword,
    Rows,
    _at_least,
    _descent_mask,
    format_word_pair,
    imv,
    inv,
    row_key,
)

DEFAULT_TERM_CAP = 10_000_000


class NotADoubleDescent(ValueError):
    """Raised when a rewrite is requested at a position with no double descent."""


class PreconditionViolation(ValueError):
    """Raised when an overlap check is asked for letters that do not overlap."""


class TermCapExceeded(RuntimeError):
    """Raised when an intermediate expression outgrows the configured cap."""


# The weighted rules above as (top swapped, bottom swapped, coefficient)
# replacing (x y / a b), keyed by a == b.
_RULES = {
    True: ((1, 0, Q),),
    False: ((1, 1, ONE), (1, 0, Q), (0, 1, -Q_INV)),
}


class ReductionSystem:
    """One of the two rule tables, identified by tag "s" or "sq".

    stencil[a == b]: (top swapped, bottom swapped, coefficient, measure
    drop) per replacement of (x y / a b); one is the unit.  Ints under "s".
    """

    __slots__ = ("tag", "one", "stencil")

    def __init__(self, tag: str):
        if tag not in ("s", "sq"):
            raise ValueError(f"unknown reduction system {tag!r}")
        self.tag = tag
        self.one = ONE if tag == "sq" else 1
        self.stencil = {}
        for equal, rules in _RULES.items():
            top, bottom = (2, 1), (1, 1) if equal else (2, 1)  # (x y / a b)
            tops, bottoms = (top, top[::-1]), (bottom, bottom[::-1])
            self.stencil[equal] = entries = []
            for ti, bi, weighted in rules:
                coeff = weighted if tag == "sq" else weighted.eval_at_one()
                drop = inv(top) + imv(bottom) - inv(tops[ti]) - imv(bottoms[bi])
                entries.append((ti, bi, coeff, drop))

    def __repr__(self) -> str:
        return f"ReductionSystem({self.tag!r})"


SYSTEM_S = ReductionSystem("s")
SYSTEM_SQ = ReductionSystem("sq")


@dataclass(frozen=True)
class Strategy:
    """Position-picking policy; only a random one takes a seed, an int."""

    kind: str  # "leftmost" | "rightmost" | "random"
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in ("leftmost", "rightmost", "random"):
            raise ValueError(
                f"unknown strategy kind {self.kind!r}; "
                "expected leftmost, rightmost or random"
            )
        if self.kind == "random" and type(self.seed) is not int:
            raise ValueError(f"a random strategy needs an int seed, got {self.seed!r}")
        if self.kind != "random" and self.seed is not None:
            raise ValueError(f"a {self.kind} strategy takes no seed, got {self.seed!r}")


LEFTMOST = Strategy("leftmost")
RIGHTMOST = Strategy("rightmost")


class TraceStep(NamedTuple):
    biword: Biword
    position: int  # 1-based
    rule: str  # "swap" (equal bottom letters) or "split" (three-term rule)


@dataclass
class ReductionReport:
    normal_form: Expression
    rewrite_steps: int
    max_intermediate_terms: int
    trace: list[TraceStep] | None


@dataclass
class ConfluenceReport:
    trials: int
    system: str
    reducible: int = 0  # trials whose draw has a double descent
    counterexamples: list[Biword] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Some draw was rewritten, and every such normal form agreed."""
        return self.reducible > 0 and not self.counterexamples


_measure_checks = 0


def measure_check_count() -> int:
    """How many rewrites have had their measure drop verified so far."""
    return _measure_checks


def _expand_rows(
    rows: Rows, mask: int, pos0: int, system: ReductionSystem
) -> list[tuple[Rows, int, "Laurent | int", int]]:
    """Apply the local rule at 0-based position pos0 of rows = (top, bottom).

    mask is the parent's double-descent mask.  Returns [(child rows, child
    mask, rule coefficient, measure drop), ...], verifying that every drop
    is positive.  The rule rewrites columns pos0 and pos0 + 1 only, and
    the replacement is a double descent exactly when its drop is not
    positive; so a child's bit pos0 is clear, and only its bits pos0 - 1
    and pos0 + 1 are recomputed.
    """
    global _measure_checks
    top, bottom = rows
    x, y = top[pos0], top[pos0 + 1]
    a, b = bottom[pos0], bottom[pos0 + 1]
    if not (x > y and a >= b):
        raise NotADoubleDescent(
            f"position {pos0 + 1} of {format_word_pair(top, bottom)} "
            "has no double descent"
        )
    head_t, tail_t = top[:pos0], top[pos0 + 2 :]
    head_b, tail_b = bottom[:pos0], bottom[pos0 + 2 :]
    # Letters are positive, so a 0 left neighbour never makes a descent.
    left_t, left_b = (top[pos0 - 1], bottom[pos0 - 1]) if pos0 else (0, 0)
    bit = 1 << pos0
    kept = mask & ~(7 << pos0 >> 1)
    tops, bottoms = ((x, y), (y, x)), ((a, b), (b, a))
    out = []
    for ti, bi, coeff, drop in system.stencil[a == b]:
        (t0, t1), (b0, b1) = tops[ti], bottoms[bi]
        child = head_t + tops[ti] + tail_t, head_b + bottoms[bi] + tail_b
        _measure_checks += 1
        if drop <= 0:
            raise AssertionError(
                f"measure failed to drop: {format_word_pair(top, bottom)} -> "
                f"{format_word_pair(*child)} (drop {drop})"
            )
        child_mask = kept
        if left_t > t0 and left_b >= b0:
            child_mask |= bit >> 1
        if tail_t and t1 > tail_t[0] and b1 >= tail_b[0]:
            child_mask |= bit << 1
        out.append((child, child_mask, coeff, drop))
    return out


def rewrite_at(bw: Biword, position: int, system: ReductionSystem) -> Expression:
    """One rewrite of bw at the given 1-based double-descent position."""
    if not 1 <= position <= len(bw) - 1:
        raise NotADoubleDescent(
            f"position {position} is not interior to {bw}"
        )
    rows = bw.top, bw.bottom
    children = _expand_rows(rows, _descent_mask(*rows), position - 1, system)
    return Expression._make({child: coeff for child, _, coeff, _ in children})


def _lowered(terms: dict) -> dict:
    """A copy of terms, with int coefficients if every one is a constant."""
    if all(c._terms.keys() == {0} for c in terms.values()):
        return {t: c._terms[0] for t, c in terms.items()}
    return dict(terms)


def _choose(strategy: Strategy, mask: int, rng) -> int:
    """The 0-based position to rewrite among the set bits of mask."""
    if strategy.kind == "leftmost":
        return (mask & -mask).bit_length() - 1
    if strategy.kind == "rightmost":
        return mask.bit_length() - 1
    spots = [i for i in range(mask.bit_length()) if mask >> i & 1]
    return spots[rng.randrange(len(spots))]


def _reduce_rows(
    work: dict,
    system: ReductionSystem,
    strategy: Strategy,
    keep_trace: bool,
    term_cap: int,
) -> tuple[int, int, list[TraceStep] | None]:
    """The worklist of reduce() on {(top, bottom): coefficient}, in place.

    Returns the rewrite count, the peak term count and the trace.
    """
    steps = 0
    max_terms = len(work)
    if max_terms > term_cap:
        raise TermCapExceeded(f"input expression exceeded {term_cap} terms")
    masks = {rows: mask for rows in work if (mask := _descent_mask(*rows))}
    inv_of = {top: inv(top) for top in {top for top, _ in masks}}
    imv_of = {bottom: imv(bottom) for bottom in {bottom for _, bottom in masks}}
    # Pending reducible rows by measure, each with its double-descent mask.
    buckets: dict[int, dict[Rows, int]] = {}
    for (top, bottom), mask in masks.items():
        buckets.setdefault(inv_of[top] + imv_of[bottom], {})[top, bottom] = mask
    rng = random.Random(strategy.seed) if strategy.kind == "random" else None
    trace: list[TraceStep] | None = [] if keep_trace else None
    while buckets:
        level = max(buckets)
        bucket = buckets.pop(level)
        # In row_key order: the order within a level changes no
        # coefficient, but it does change the peak term count, the trace
        # and the random choices.
        for rows in sorted(bucket, key=row_key):
            c = work.pop(rows, None)
            if c is None:
                continue  # earlier contributions cancelled
            mask = bucket[rows]
            pos0 = _choose(strategy, mask, rng)
            children = _expand_rows(rows, mask, pos0, system)
            steps += 1
            if trace is not None:
                kind = "swap" if rows[1][pos0] == rows[1][pos0 + 1] else "split"
                trace.append(TraceStep(Biword._make(*rows), pos0 + 1, kind))
            for child, child_mask, coeff, drop in children:
                s = work.get(child)
                s = c * coeff if s is None else s + c * coeff
                if s:
                    work[child] = s
                    if child_mask:
                        buckets.setdefault(level - drop, {})[child] = child_mask
                else:
                    work.pop(child, None)
            if len(work) > term_cap:
                raise TermCapExceeded(
                    f"intermediate expression exceeded {term_cap} terms"
                )
            if len(work) > max_terms:
                max_terms = len(work)
    return steps, max_terms, trace


def reduce(
    expr: Expression,
    system: ReductionSystem,
    strategy: Strategy = LEFTMOST,
    keep_trace: bool = False,
    term_cap: int = DEFAULT_TERM_CAP,
) -> ReductionReport:
    """Rewrite expr until no support biword has a double descent.

    The worklist drains measure buckets from the top down, so each
    distinct biword is expanded at most once and sees its fully merged
    coefficient.  Rewrite counts and the optional trace are therefore
    deterministic for deterministic strategies.
    """
    _at_least(0, term_cap=term_cap)
    work = _lowered(expr._terms)
    steps, max_terms, trace = _reduce_rows(
        work, system, strategy, keep_trace, term_cap
    )
    return ReductionReport(
        normal_form=Expression._make(work),
        rewrite_steps=steps,
        max_intermediate_terms=max_terms,
        trace=trace,
    )


# Leftmost normal forms per system object, keyed by (top, bottom) rows, with
# int coefficients under "s".  Values are shared and read-only.
_NF_CACHES: dict[ReductionSystem, dict[Rows, dict[Rows, Laurent | int]]] = {}
# Terms each system's fills stored since its memo was emptied, aborted ones too.
_NF_STORED: dict[ReductionSystem, int] = {}


def clear_caches() -> None:
    _NF_CACHES.clear()
    _NF_STORED.clear()


def _within_cap(terms: dict) -> dict:
    """terms itself, once it is known to hold at most the term cap."""
    if len(terms) > DEFAULT_TERM_CAP:
        raise TermCapExceeded(f"normal form exceeded {DEFAULT_TERM_CAP} terms")
    return terms


def _leftmost_nf(rows: Rows, system: ReductionSystem) -> dict:
    """Leftmost normal form of rows, held to the term cap; shared, read-only."""
    memo = _NF_CACHES.setdefault(system, {})
    total = _NF_STORED.get(system, 0)
    if total > DEFAULT_TERM_CAP and rows not in memo:
        memo.clear()
        total = 0
    one = system.one
    stored = 0
    # Entries as _expand_rows makes them: (rows, mask, coefficient, drop).
    # An expanded entry goes back as (rows, children) below its children;
    # they lie strictly lower, so all are in memo when it is on top again.
    stack = [] if rows in memo else [(rows, _descent_mask(*rows), one, 0)]
    while stack:
        entry = stack.pop()
        if len(entry) == 2:
            cur, children = entry
            first, _, coeff, _ = children[0]
            if coeff == one:
                # A unit first child starts the sum; a lone one is shared.
                result = memo[first] if len(children) == 1 else dict(memo[first])
                children = children[1:]
            else:
                result = {}
            for child, _, coeff, _ in children:
                _accumulate(result, memo[child], coeff)
        elif entry[0] in memo:
            continue
        else:
            cur, mask, _, _ = entry
            if mask:
                pos0 = (mask & -mask).bit_length() - 1
                children = _expand_rows(cur, mask, pos0, system)
                stack.append((cur, children))
                stack += children
                continue
            result = {cur: one}
        stored += len(result)
        _NF_STORED[system] = total + stored
        if stored > DEFAULT_TERM_CAP:
            raise TermCapExceeded(
                f"leftmost memo fill exceeded {DEFAULT_TERM_CAP} stored terms"
            )
        memo[cur] = result
    return _within_cap(memo[rows])


def in_ideal(expr: Expression, system: ReductionSystem) -> bool:
    """Whether expr rewrites to zero, i.e. lies in the defining ideal.

    Reads the leftmost memo, built for many related expressions; for one
    large expression, reduce() is cheaper.
    """
    acc: dict[Rows, Laurent | int] = {}
    for rows, c in _lowered(expr._terms).items():
        _accumulate(acc, _leftmost_nf(rows, system), c)
        _within_cap(acc)
    return not acc


def check_ambiguity(
    x: int, y: int, z: int, a: int, b: int, c: int, system: ReductionSystem
) -> bool:
    """Resolve the overlap on (x y z / a b c) both ways and compare.

    The two rewrites of the length-3 biword at positions 1 and 2 are
    each reduced to normal form; True means they agree.  Requires
    x > y > z and a >= b >= c.
    """
    if not (x > y > z and a >= b >= c):
        raise PreconditionViolation(
            f"letters ({x},{y},{z})/({a},{b},{c}) do not form an overlap"
        )
    bw = Biword((x, y, z), (a, b, c))
    left = reduce(rewrite_at(bw, 1, system), system).normal_form
    right = reduce(rewrite_at(bw, 2, system), system).normal_form
    return left == right


def _random_rows(rng: random.Random, r: int, max_len: int) -> Rows:
    """Random rows over 1..r: draws the length, then the top, then the bottom."""
    n = rng.randint(0, max_len)
    top = tuple(rng.randint(1, r) for _ in range(n))
    return top, tuple(rng.randint(1, r) for _ in range(n))


def check_confluence_fuzz(
    r: int, max_len: int, trials: int, seed: int, system: ReductionSystem
) -> ConfluenceReport:
    """Compare leftmost and seeded-random normal forms on random biwords."""
    _at_least(2, r=r, max_len=max_len)  # fewer leave nothing to rewrite
    _at_least(1, trials=trials)
    rng = random.Random(seed)
    report = ConfluenceReport(trials, system.tag)
    for _ in range(trials):
        top, bottom = _random_rows(rng, r, max_len)
        if _descent_mask(top, bottom):
            report.reducible += 1
        canonical = _leftmost_nf((top, bottom), system)
        alt = {(top, bottom): 1}
        strategy = Strategy("random", rng.getrandbits(32))
        _reduce_rows(alt, system, strategy, False, DEFAULT_TERM_CAP)
        if canonical != alt:
            report.counterexamples.append(Biword._make(top, bottom))
    return report
