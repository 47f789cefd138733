"""Textual form of biwords and expressions.

Grammar (whitespace between tokens is insignificant), as the parser
reads it from the tokens of one pattern, _TOKEN:

    expr    := term (('+'|'-') term)*
    term    := '-'* [int '*'] [qpower '*'] biword | '-'* coeff
    coeff   := int | [int '*'] qpower
    qpower  := 'q' ['^' ['-'] int]
    biword  := digits '/' digits | '(' intlist ')' '/' '(' intlist ')' | 'e'

An int is a run of ASCII digits 0-9, and any character other than a
token or ASCII whitespace is a ParseError.  An int is a coefficient
unless a '/' follows it, when it is the top row of a digits biword.  In
the digits form every digit is one letter, so it only covers letters
1..9; the parenthesized form covers any letters.  A letter 0 is a
LetterOutOfRange; there is no upper bound.  'e' is the empty biword.
A term that stops after its coefficient is a multiple of 'e', so '0' is
the zero expression.  A biword prints as str(bw), in the biword form
above.  The expression printer emits terms in canonical order (degree,
then top word, then bottom word; exponents ascending inside one
coefficient), never a unary minus, and always stays inside the grammar.
"""

import re
from typing import NamedTuple

from .expressions import Expression, _accumulate
from .laurent import Laurent
from .words import Biword, Rows, format_word_pair, row_key

_EMPTY: Rows = (), ()


class ParseError(ValueError):
    def __init__(self, position: int, expected: str, found: str):
        self.position = position
        self.expected = expected
        self.found = found
        super().__init__(
            f"offset {position}: expected {expected}, found {found}"
        )


class LengthMismatch(ParseError):
    """Top and bottom rows of a biword literal differ in length."""


class LetterOutOfRange(ParseError):
    """A letter is zero."""


class _Token(NamedTuple):
    kind: str  # "int" | "name" | "sym" | "end"
    text: str
    pos: int


_TOKEN = re.compile(
    r"(?P<int>[0-9]+)|(?P<name>[qe])|(?P<sym>[-+*/^(),])|[ \t\r\n]+|(?P<bad>.)"
)


def _lex(text: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(m.start(), "a token", repr(m[0]))
        if kind:
            tokens.append(_Token(kind, m[0], m.start()))
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _lex(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected: str) -> ParseError:
        tok = self.peek()
        found = "end of input" if tok.kind == "end" else f"{tok.text!r}"
        return ParseError(tok.pos, expected, found)

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind == "sym" and tok.text == text:
            return self.next()
        raise self.fail(f"{text!r}")

    def at_sym(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "sym" and tok.text == text

    def _letter(self, value: int, pos: int) -> int:
        if value < 1:
            raise LetterOutOfRange(pos, "a letter in 1..", str(value))
        return value

    def _digit_word(self) -> tuple[int, ...]:
        tok = self.peek()
        if tok.kind != "int":
            raise self.fail("a digit string")
        self.next()
        return tuple(
            self._letter(int(ch), tok.pos + k) for k, ch in enumerate(tok.text)
        )

    def _int_list(self) -> tuple[int, ...]:
        letters = []
        if self.at_sym(")"):
            return ()
        while True:
            tok = self.peek()
            if tok.kind != "int":
                raise self.fail("a letter")
            self.next()
            letters.append(self._letter(int(tok.text), tok.pos))
            if not self.at_sym(","):
                return tuple(letters)
            self.next()

    def biword(self) -> Rows:
        tok = self.peek()
        if tok.kind == "name" and tok.text == "e":
            self.next()
            return _EMPTY
        if self.at_sym("("):
            start = tok.pos
            self.next()
            top = self._int_list()
            self.expect(")")
            self.expect("/")
            self.expect("(")
            bottom = self._int_list()
            self.expect(")")
        elif tok.kind == "int":
            start = tok.pos
            top = self._digit_word()
            self.expect("/")
            bottom = self._digit_word()
        else:
            raise self.fail("a biword")
        if len(top) != len(bottom):
            raise LengthMismatch(
                start,
                "rows of equal length",
                f"{len(top)} top letters over {len(bottom)} bottom letters",
            )
        return top, bottom

    def _signed_int(self) -> int:
        negative = False
        if self.at_sym("-"):
            self.next()
            negative = True
        tok = self.peek()
        if tok.kind != "int":
            raise self.fail("an integer")
        self.next()
        value = int(tok.text)
        return -value if negative else value

    def term(self, sign: int) -> tuple[Rows, Laurent]:
        while self.at_sym("-"):
            self.next()
            sign = -sign
        tok = self.peek()
        if tok.kind == "end" or tok.kind == "sym" and tok.text != "(":
            raise self.fail("a term")
        coefficient, exponent = sign, 0
        if tok.kind == "int" and self.tokens[self.i + 1].text != "/":
            self.next()
            coefficient *= int(tok.text)
            if not self.at_sym("*"):
                return _EMPTY, Laurent.integer(coefficient)
            self.next()
        tok = self.peek()
        if tok.kind == "name" and tok.text == "q":
            self.next()
            exponent = 1
            if self.at_sym("^"):
                self.next()
                exponent = self._signed_int()
            if not self.at_sym("*"):
                return _EMPTY, Laurent.q_power(exponent, coefficient)
            self.next()
        return self.biword(), Laurent.q_power(exponent, coefficient)

    def expression(self) -> Expression:
        acc: dict[Rows, Laurent] = {}
        sign = 1
        while True:
            rows, coeff = self.term(sign)
            _accumulate(acc, {rows: coeff})
            tok = self.peek()
            if tok.kind == "end":
                return Expression._make(acc)
            if tok.kind != "sym" or tok.text not in "+-":
                raise self.fail("'+', '-' or end of input")
            self.next()
            sign = 1 if tok.text == "+" else -1


def parse_expression(text: str) -> Expression:
    """Parse an expression."""
    return _Parser(text).expression()


def parse_biword(text: str) -> Biword:
    """Parse a single biword literal."""
    parser = _Parser(text)
    rows = parser.biword()
    if parser.peek().kind != "end":
        raise parser.fail("end of input")
    return Biword._make(*rows)


def print_expression(expr: Expression) -> str:
    """Canonical text of an expression; parse_expression inverts it."""
    if expr.is_zero():
        return "0"
    chunks: list[str] = []
    first = True
    for rows in sorted(expr._terms, key=row_key):
        pair = format_word_pair(*rows)
        for exponent, c in expr._terms[rows].monomials():
            magnitude = abs(c)
            negative = c < 0
            factors: list[str] = []
            if magnitude != 1 or (first and negative):
                # a leading negative keeps its sign inside the integer
                # factor so the output stays inside the grammar
                factors.append(str(-magnitude if first and negative else magnitude))
            if exponent:
                factors.append("q" if exponent == 1 else f"q^{exponent}")
            factors.append(pair)
            body = "*".join(factors)
            if first:
                chunks.append(body)
            else:
                chunks.append(("- " if negative else "+ ") + body)
            first = False
    return " ".join(chunks)
