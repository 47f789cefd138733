"""Finite linear combinations of biwords with Laurent coefficients.

An Expression is the free module element sum(c_alpha * alpha) over
finitely many biwords alpha, keyed by their (top, bottom) rows as in
every engine path; Biwords appear only at the public methods.  The
product extends biword concatenation bilinearly; an optional degree
cutoff makes products of infinite-series truncations exact through the
cutoff.
"""

from .laurent import Laurent, ONE, as_laurent
from .words import Biword, Rows, _at_least, _descent_mask, row_key


def _accumulate(acc: dict, terms: dict, scale: "Laurent | int" = 1) -> None:
    """acc += scale * terms, keyed by rows, dropping cancelled terms."""
    for rows, k in terms.items():
        s = acc.get(rows)
        s = k * scale if s is None else s + k * scale
        if s:
            acc[rows] = s
        else:
            acc.pop(rows, None)


def _add_products(out: dict, left: list, right: list) -> None:
    """out += every concatenation of a left term with a right term, both
    given as ((top, bottom), coefficient) pairs, dropping cancelled terms."""
    for (lt, lb), ca in left:
        for (rt, rb), cb in right:
            rows = lt + rt, lb + rb
            c = ca * cb
            s = out.get(rows)
            s = c if s is None else s + c
            if s:
                out[rows] = s
            else:
                del out[rows]


class Expression:
    """Canonical dict of {(top, bottom) rows: nonzero Laurent coefficient}."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Biword, "Laurent | int"] | None = None):
        clean: dict[Rows, Laurent] = {}
        if terms:
            for bw, c in terms.items():
                c = as_laurent(c)
                if c:
                    clean[bw.top, bw.bottom] = c
        self._terms = clean

    @classmethod
    def _make(cls, terms: dict[Rows, "Laurent | int"]) -> "Expression":
        # Trusted constructor from {(top, bottom): nonzero coefficient};
        # copies terms, so a shared dict such as a memo value stays intact.
        self = object.__new__(cls)
        self._terms = {rows: as_laurent(c) for rows, c in terms.items()}
        return self

    @classmethod
    def zero(cls) -> "Expression":
        return cls._make({})

    @classmethod
    def unit(cls) -> "Expression":
        return cls._make({((), ()): ONE})

    @classmethod
    def single(cls, biword: Biword, coefficient: "Laurent | int" = 1) -> "Expression":
        c = as_laurent(coefficient)
        return cls._make({(biword.top, biword.bottom): c} if c else {})

    def terms(self) -> list[tuple[Biword, Laurent]]:
        """(biword, coefficient) pairs in canonical biword order."""
        items = sorted(self._terms.items(), key=lambda item: row_key(item[0]))
        return [(Biword._make(*rows), c) for rows, c in items]

    def support(self) -> tuple[Biword, ...]:
        return tuple(Biword._make(*rows) for rows in sorted(self._terms, key=row_key))

    def coefficient(self, biword: Biword) -> Laurent:
        return self._terms.get((biword.top, biword.bottom), Laurent.integer(0))

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Expression):
            return NotImplemented
        return self._terms == other._terms

    def __neg__(self) -> "Expression":
        return Expression._make({rows: -c for rows, c in self._terms.items()})

    def __add__(self, other: "Expression") -> "Expression":
        if not isinstance(other, Expression):
            return NotImplemented
        merged = dict(self._terms)
        _accumulate(merged, other._terms)
        return Expression._make(merged)

    def __sub__(self, other: "Expression") -> "Expression":
        if not isinstance(other, Expression):
            return NotImplemented
        return self + (-other)

    def scale(self, coefficient: "Laurent | int") -> "Expression":
        c = as_laurent(coefficient)
        if not c:
            return Expression.zero()
        return Expression._make({rows: k * c for rows, k in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, Expression):
            return self.product(other)
        if isinstance(other, (Laurent, int)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (Laurent, int)):
            return self.scale(other)
        return NotImplemented

    def product(self, other: "Expression", max_degree: int | None = None) -> "Expression":
        """Concatenation product, dropping terms longer than max_degree.

        Each degree d is summed over self_k * other_(d-k), so no pair longer
        than max_degree is visited."""
        if max_degree is None:
            max_degree = self.max_length() + other.max_length()
        _at_least(0, max_degree=max_degree)
        degrees = range(max_degree + 1)
        left: list[list] = [[] for _ in degrees]
        right: list[list] = [[] for _ in degrees]
        for by_length, terms in ((left, self._terms), (right, other._terms)):
            for rows, c in terms.items():
                if len(rows[0]) <= max_degree:
                    by_length[len(rows[0])].append((rows, c))
        out: dict[Rows, Laurent] = {}
        for degree in degrees:
            for k in range(degree + 1):
                _add_products(out, left[k], right[degree - k])
        return Expression._make(out)

    def homogeneous_component(self, degree: int) -> "Expression":
        return Expression._make(
            {rows: c for rows, c in self._terms.items() if len(rows[0]) == degree}
        )

    def max_length(self) -> int:
        """Length of the longest biword in the support (0 for the zero expression)."""
        return max((len(top) for top, _ in self._terms), default=0)

    def is_irreducible(self) -> bool:
        """True when every support biword has no double descent."""
        return not any(_descent_mask(*rows) for rows in self._terms)

    def is_circular(self) -> bool:
        """True when every support biword is a circuit."""
        return all(sorted(t) == sorted(b) for t, b in self._terms)

    def eval_at_one(self) -> "Expression":
        """Specialize every coefficient at q = 1, dropping terms that vanish."""
        values = ((rows, c.eval_at_one()) for rows, c in self._terms.items())
        return Expression._make({rows: v for rows, v in values if v})

    def __str__(self) -> str:
        from .textform import print_expression

        return print_expression(self)

    def __repr__(self) -> str:
        terms = {Biword._make(*rows): c for rows, c in self._terms.items()}
        return f"Expression({terms!r})"
