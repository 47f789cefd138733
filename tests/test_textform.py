"""Parsing and printing of biwords and expressions."""

import pytest
from hypothesis import given

from rightq import (
    Biword,
    EMPTY_BIWORD,
    Expression,
    Laurent,
    LengthMismatch,
    LetterOutOfRange,
    ParseError,
    parse_biword,
    parse_expression,
    print_expression,
)

from _strategies import expressions


def test_parse_biword_forms():
    assert parse_biword("e") == EMPTY_BIWORD
    assert parse_biword("21/12") == Biword((2, 1), (1, 2))
    assert parse_biword("321/321") == Biword((3, 2, 1), (3, 2, 1))
    assert parse_biword("(10,2)/(1,10)") == Biword((10, 2), (1, 10))
    assert parse_biword("(3,2,1)/(2,2,1)") == parse_biword("321/221")
    assert parse_biword("()/()") == EMPTY_BIWORD
    assert parse_biword(" 21 / 12 ") == Biword((2, 1), (1, 2))


def test_parse_biword_rejects_trailing_input():
    with pytest.raises(ParseError) as info:
        parse_biword("21/12 + 1")
    assert info.value.position == 6


def test_parse_expression_examples():
    assert parse_expression("0").is_zero()
    assert parse_expression("e") == Expression.unit()
    assert parse_expression("5") == Expression.single(EMPTY_BIWORD, 5)
    assert parse_expression("-3") == Expression.single(EMPTY_BIWORD, -3)
    assert parse_expression("q") == Expression.single(EMPTY_BIWORD, Laurent.q_power(1))
    assert parse_expression("2*q^-3") == Expression.single(
        EMPTY_BIWORD, Laurent.q_power(-3, 2)
    )
    assert parse_expression("21/12") == Expression.single(Biword((2, 1), (1, 2)))
    assert parse_expression("3*21/12") == Expression.single(
        Biword((2, 1), (1, 2)), 3
    )
    assert parse_expression("q*12/21") == Expression.single(
        Biword((1, 2), (2, 1)), Laurent.q_power(1)
    )
    assert parse_expression("2*q^-1*21/12") == Expression.single(
        Biword((2, 1), (1, 2)), Laurent.q_power(-1, 2)
    )


def test_parse_expression_sums_and_signs():
    e = parse_expression("21/12 - q*12/21 + 2*e")
    assert e.coefficient(Biword((2, 1), (1, 2))) == 1
    assert e.coefficient(Biword((1, 2), (2, 1))) == Laurent.q_power(1, -1)
    assert e.coefficient(EMPTY_BIWORD) == 2
    # repeated biwords merge, cancellations drop out
    assert parse_expression("21/12 - 21/12").is_zero()
    # a zero coefficient merges like any other, into a present or absent term
    bw = Expression.single(Biword((2, 1), (1, 2)))
    assert parse_expression("0*21/12").is_zero()
    assert parse_expression("0 + 21/12") == bw
    assert parse_expression("21/12 + 0*q*21/12") == bw
    assert parse_expression("q - q + e") == Expression.unit()
    assert parse_expression("q*11/11 + 11/11 - q*11/11") == Expression.single(
        Biword((1, 1), (1, 1))
    )
    # tolerated unary minus forms
    assert parse_expression("-21/12") == Expression.single(
        Biword((2, 1), (1, 2)), -1
    )
    assert parse_expression("-1*21/12") == parse_expression("-21/12")
    assert parse_expression("1 + -1*e").is_zero()
    assert parse_expression("-q + q").is_zero()


def test_parse_error_positions():
    cases = [
        ("", "offset 0: expected a term, found end of input"),
        ("   ", "offset 3: expected a term, found end of input"),
        ("q^", "offset 2: expected an integer, found end of input"),
        ("21/", "offset 3: expected a digit string, found end of input"),
        ("21//12", "offset 3: expected a digit string, found '/'"),
        ("3*", "offset 2: expected a biword, found end of input"),
        ("21/12 21/12", "offset 6: expected '+', '-' or end of input, found '21'"),
        ("x", "offset 0: expected a token, found 'x'"),
        ("(1,2/(1,2)", "offset 4: expected ')', found '/'"),
        ("+", "offset 0: expected a term, found '+'"),
        ("2q", "offset 1: expected '+', '-' or end of input, found 'q'"),
        (")", "offset 0: expected a term, found ')'"),
        ("q^*2", "offset 2: expected an integer, found '*'"),
        ("12 - ", "offset 5: expected a term, found end of input"),
        # digits are ASCII 0-9 only, not every character str.isdigit admits
        ("²/1", "offset 0: expected a token, found '²'"),
        ("1/²", "offset 2: expected a token, found '²'"),
        ("q^²", "offset 2: expected a token, found '²'"),
        ("(①)/(1)", "offset 1: expected a token, found '①'"),
        ("٣/١", "offset 0: expected a token, found '٣'"),
    ]
    for text, message in cases:
        with pytest.raises(ParseError) as info:
            parse_expression(text)
        assert str(info.value) == message, text


def test_length_mismatch():
    with pytest.raises(LengthMismatch) as info:
        parse_expression("21/1")
    assert info.value.position == 0
    with pytest.raises(LengthMismatch):
        parse_expression("3*(1,2)/(1,2,3)")


def test_letter_out_of_range_positions():
    with pytest.raises(LetterOutOfRange) as info:
        parse_expression("101/111")
    assert info.value.position == 1
    with pytest.raises(LetterOutOfRange) as info:
        parse_expression("(0)/(1)")
    assert info.value.position == 1
    with pytest.raises(LetterOutOfRange) as info:
        parse_expression("12/12 + 10/13")
    assert info.value.position == 9


def test_error_payload_fields():
    with pytest.raises(ParseError) as info:
        parse_expression("q^*2")
    err = info.value
    assert err.position == 2
    assert "integer" in err.expected
    assert "*" in err.found
    assert "offset 2" in str(err)


def test_print_expression_frozen():
    assert print_expression(Expression.zero()) == "0"
    assert print_expression(Expression.unit()) == "e"
    assert print_expression(Expression.single(EMPTY_BIWORD, -1)) == "-1*e"
    bw = Biword((2, 1), (1, 2))
    assert print_expression(Expression.single(bw)) == "21/12"
    assert print_expression(Expression.single(bw, -1)) == "-1*21/12"
    assert print_expression(Expression.single(bw, Laurent.q_power(-1))) == "q^-1*21/12"
    assert (
        print_expression(Expression.single(bw, Laurent.q_power(2, -3)))
        == "-3*q^2*21/12"
    )
    mixed = Expression(
        {
            bw: Laurent({0: 1, 1: -2}),
            EMPTY_BIWORD: Laurent.integer(4),
            Biword((1, 2), (2, 1)): Laurent.integer(-1),
        }
    )
    assert print_expression(mixed) == "4*e - 12/21 + 21/12 - 2*q*21/12"


def test_print_orders_canonically():
    e = parse_expression("21/12 + 12/21 + e + 1/1 + (1,1,1)/(1,1,1)")
    assert print_expression(e) == "e + 1/1 + 12/21 + 21/12 + 111/111"


@given(expressions())
def test_parse_inverts_print(e):
    assert parse_expression(print_expression(e)) == e


@given(expressions())
def test_print_is_stable_under_reparsing(e):
    text = print_expression(e)
    assert print_expression(parse_expression(text)) == text


def test_print_picks_tuple_form_for_wide_letters():
    e = Expression.single(Biword((12,), (3,)), 2)
    text = print_expression(e)
    assert text == "2*(12)/(3)"
    assert parse_expression(text) == e
