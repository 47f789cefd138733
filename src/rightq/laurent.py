"""Exact coefficient arithmetic: integer Laurent polynomials in q."""

from fractions import Fraction


class Laurent:
    """A Laurent polynomial in q with integer coefficients.

    Stored as a dict {exponent: coefficient} holding no zero values, so
    equality and hashing see a canonical form.  Instances are immutable
    by convention and safe to share.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, int] | None = None):
        clean: dict[int, int] = {}
        if terms:
            for e, c in terms.items():
                _check_term(e, c)
                if c:
                    clean[e] = c
        self._terms = clean

    @classmethod
    def _make(cls, terms: dict[int, int]) -> "Laurent":
        # Trusted constructor: terms must already contain no zero values.
        self = object.__new__(cls)
        self._terms = terms
        return self

    @classmethod
    def integer(cls, n: int) -> "Laurent":
        return cls.q_power(0, n)

    @classmethod
    def q_power(cls, exponent: int, coefficient: int = 1) -> "Laurent":
        _check_term(exponent, coefficient)
        return cls._make({exponent: coefficient} if coefficient else {})

    def monomials(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs, ascending in the exponent."""
        return sorted(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = _constant(other)
        if not isinstance(other, Laurent):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # A constant equals its int, so it must hash like one.
        t = self._terms
        return hash(t.get(0, 0) if t.keys() <= {0} else frozenset(t.items()))

    def __neg__(self) -> "Laurent":
        return Laurent._make({e: -c for e, c in self._terms.items()})

    def __add__(self, other: "Laurent | int") -> "Laurent":
        if isinstance(other, int):
            other = _constant(other)
        if not isinstance(other, Laurent):
            return NotImplemented
        merged = dict(self._terms)
        for e, c in other._terms.items():
            s = merged.get(e, 0) + c
            if s:
                merged[e] = s
            else:
                merged.pop(e, None)
        return Laurent._make(merged)

    __radd__ = __add__

    def __sub__(self, other: "Laurent | int") -> "Laurent":
        if isinstance(other, int):
            other = _constant(other)
        if not isinstance(other, Laurent):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: int) -> "Laurent":
        if not isinstance(other, int):
            return NotImplemented
        return _constant(other) - self

    def __mul__(self, other: "Laurent | int") -> "Laurent":
        if isinstance(other, int):
            if other == 0:
                return ZERO
            return Laurent._make({e: c * other for e, c in self._terms.items()})
        if not isinstance(other, Laurent):
            return NotImplemented
        a, b = self._terms, other._terms
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            (e2, c2), = b.items()
            return Laurent._make({e + e2: c * c2 for e, c in a.items()})
        out: dict[int, int] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return Laurent._make(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "Laurent":
        """Multiply by q^k."""
        if k == 0:
            return self
        return Laurent._make({e + k: c for e, c in self._terms.items()})

    def eval_at_one(self) -> int:
        return sum(self._terms.values())

    def eval_at_rational(self, q: "Fraction | int") -> Fraction:
        q = Fraction(q)
        if q == 0:
            raise ValueError("q = 0 is outside the coefficient ring")
        return sum((c * q ** e for e, c in self._terms.items()), Fraction(0))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for e, c in self.monomials():
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                qp = "q" if e == 1 else f"q^{e}"
                body = qp if mag == 1 else f"{mag}*{qp}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Laurent({self._terms!r})"


def _check_term(exponent: int, coefficient: int) -> None:
    # type(x) is int, not isinstance: a bool is not an exact int here.
    if not (type(exponent) is int and type(coefficient) is int):
        raise TypeError(f"term q^{exponent!r} * {coefficient!r} is not over the ints")


def _constant(n: int) -> Laurent:
    # Unchecked Laurent.integer, for callers that already hold an int.
    return Laurent._make({0: n} if n else {})


ZERO = _constant(0)
ONE = _constant(1)
Q = Laurent._make({1: 1})
Q_INV = Laurent._make({-1: 1})


def as_laurent(value: "Laurent | int") -> Laurent:
    if isinstance(value, Laurent):
        return value
    if type(value) is int:
        return _constant(value)
    raise TypeError(f"cannot use {type(value).__name__} as a coefficient")
