"""Words and biwords over the alphabet {1, 2, ..., r}.

A word is a tuple of positive integer letters.  A biword is a pair of
words of equal length, viewed as a two-row array whose columns are read
left to right; the top row is written over the bottom row.  Biwords
multiply by concatenation and the empty biword is the unit.

The alphabet bound r belongs to whoever generates words (random draws,
enumeration, the series); letters themselves are plain ints, and a
Biword or the parser checks only that each one is positive.
"""

from collections.abc import Iterable, Sequence
from itertools import combinations, starmap
from operator import ge, gt

Word = tuple[int, ...]
Rows = tuple[Word, Word]  # a biword as its plain (top, bottom) pair


def inv(word: Sequence[int]) -> int:
    """Number of strict inversions: pairs i < j with word[i] > word[j].

    >>> inv((2, 3, 1))
    2
    >>> inv(())
    0
    """
    return sum(starmap(gt, combinations(word, 2)))


def imv(word: Sequence[int]) -> int:
    """Number of large inversions: pairs i < j with word[i] >= word[j].

    >>> imv((2, 2, 1))
    3
    >>> imv((1, 2, 3))
    0
    """
    return sum(starmap(ge, combinations(word, 2)))


def descent_mask(word: Sequence[int], weak: bool = False) -> int:
    """Bit i set when word[i] > word[i + 1], or word[i] >= word[i + 1] if weak.

    >>> bin(descent_mask((3, 1, 2, 2)))
    '0b1'
    >>> bin(descent_mask((3, 1, 2, 2), weak=True))
    '0b101'
    """
    return sum(d << i for i, d in enumerate(map(ge if weak else gt, word, word[1:])))


def _descent_mask(top: Word, bottom: Word) -> int:
    """descent_mask(top) & descent_mask(bottom, weak=True), fused: bit i
    set at each double descent, top[i] > top[i+1] and bottom[i] >= bottom[i+1].

    >>> bin(_descent_mask((3, 2, 1), (3, 2, 1)))
    '0b11'
    >>> _descent_mask((1, 2, 3), (3, 2, 1))
    0
    """
    mask = 0
    for i in range(len(top) - 1):
        if top[i] > top[i + 1] and bottom[i] >= bottom[i + 1]:
            mask |= 1 << i
    return mask


def _at_least(least: int, **values: int) -> None:
    """Raise ValueError naming the first argument below least."""
    for name, value in values.items():
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")


def row_key(rows: Rows) -> tuple[int, Word, Word]:
    """The canonical biword order: length, then top word, then bottom word."""
    top, bottom = rows
    return len(top), top, bottom


def format_word_pair(top: Word, bottom: Word) -> str:
    if not top and not bottom:
        return "e"
    # Letters are positive (Biword and the parser check it).
    if max(top + bottom) <= 9:
        return "%s/%s" % ("".join(map(str, top)), "".join(map(str, bottom)))
    return "(%s)/(%s)" % (",".join(map(str, top)), ",".join(map(str, bottom)))


class Biword:
    """An ordered pair of equal-length words, multiplied by concatenation.

    Immutable by convention; instances hash by their rows and sort by
    row_key, which is also the printing order for expressions.
    """

    __slots__ = ("top", "bottom")

    def __init__(self, top: Iterable[int], bottom: Iterable[int]):
        top = tuple(top)
        bottom = tuple(bottom)
        if len(top) != len(bottom):
            raise ValueError(
                f"rows differ in length: {len(top)} vs {len(bottom)}"
            )
        for x in top + bottom:
            if type(x) is not int:
                raise TypeError(f"letter {x!r} is not an int")
            if x < 1:
                raise ValueError(f"letter {x} is not a positive integer")
        self.top = top
        self.bottom = bottom

    @classmethod
    def _make(cls, top: Word, bottom: Word) -> "Biword":
        # Trusted constructor for internal call sites that already hold
        # validated tuples; skips the per-letter checks.
        self = object.__new__(cls)
        self.top = top
        self.bottom = bottom
        return self

    def __len__(self) -> int:
        return len(self.top)

    def __hash__(self) -> int:
        return hash((self.top, self.bottom))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Biword):
            return NotImplemented
        return self.top == other.top and self.bottom == other.bottom

    def __lt__(self, other: "Biword") -> bool:
        if not isinstance(other, Biword):
            return NotImplemented
        return row_key((self.top, self.bottom)) < row_key((other.top, other.bottom))

    def __mul__(self, other: "Biword") -> "Biword":
        if not isinstance(other, Biword):
            return NotImplemented
        return Biword._make(self.top + other.top, self.bottom + other.bottom)

    def inv_minus(self) -> int:
        """inv(bottom) - inv(top), the exponent used by the q-weighting.

        >>> Biword((3, 2, 1), (2, 3, 1)).inv_minus()
        -1
        """
        return inv(self.bottom) - inv(self.top)

    def inv_plus(self) -> int:
        """imv(bottom) + inv(top), the termination measure of rewriting.

        >>> Biword((3, 2, 1), (3, 2, 1)).inv_plus()
        6
        """
        return imv(self.bottom) + inv(self.top)

    def double_descents(self) -> tuple[int, ...]:
        """1-based positions i with top[i] > top[i+1] and bottom[i] >= bottom[i+1].

        >>> Biword((3, 2, 1), (3, 2, 1)).double_descents()
        (1, 2)
        >>> Biword((1, 2, 3), (3, 2, 1)).double_descents()
        ()
        """
        mask = _descent_mask(self.top, self.bottom)
        return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)

    def is_irreducible(self) -> bool:
        """True when the biword has no double descent."""
        return not _descent_mask(self.top, self.bottom)

    def is_circuit(self) -> bool:
        """True when the top word is a rearrangement of the bottom word.

        >>> Biword((2, 1), (1, 2)).is_circuit()
        True
        >>> Biword((1, 1), (1, 2)).is_circuit()
        False
        """
        return sorted(self.top) == sorted(self.bottom)

    def __str__(self) -> str:
        return format_word_pair(self.top, self.bottom)

    def __repr__(self) -> str:
        return f"Biword({self.top!r}, {self.bottom!r})"


EMPTY_BIWORD = Biword((), ())
