import dataclasses

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from iobf import parse_module, print_module, validate
from iobf.parser import ParseError, ValidationError

from conftest import GCD_TEXT, random_modules


def test_minimal_module():
    m = parse_module('func @main src "main" () -> int { entry: ret 0 }')
    assert len(m.functions) == 1
    assert len(m.functions[0].blocks) == 1
    assert m.functions[0].base_name == "main"


def test_roundtrip_gcd():
    m = parse_module(GCD_TEXT)
    assert parse_module(print_module(m)) == m


def test_print_is_normalizing_fixpoint():
    text = 'func @f src "f" () -> void {\n entry:   ret\n }'
    normalized = print_module(parse_module(text))
    assert print_module(parse_module(normalized)) == normalized


def test_function_order_preserved():
    text = (
        'func @b src "b" () -> void { entry: ret }\n'
        'func @a src "a" () -> void { entry: ret }\n'
    )
    m = parse_module(text)
    assert [f.mangled_name for f in m.functions] == ["b", "a"]


def test_comments_and_negative_literals():
    m = parse_module(
        "global @g = -5  ; negative initializer\n"
        'func @f src "f" () -> int {\n'
        "entry:\n"
        "  %x = -3     ; constant\n"
        "  %y = add %x, @g\n"
        "  ret %y\n"
        "}\n"
    )
    assert m.globals == [("g", -5)]


def test_duplicate_case_rejected():
    text = (
        'func @f src "f" (%x: int) -> int {\n'
        "entry:\n"
        "  switch %x [3 -> a, 3 -> b] default a\n"
        "a:\n  ret 1\n"
        "b:\n  ret 2\n"
        "}\n"
    )
    with pytest.raises(ValidationError) as err:
        parse_module(text)
    assert "DuplicateCase" in err.value.codes


def test_syntax_error_carries_location():
    # a newline inside a string moves the lines after it; a string token
    # is located at its opening quote
    for text, line, col in [
        ('func @f src "f" () -> int {\nentry:\n  %x = $\n  ret 0\n}', 3, 8),
        ('func @f src "a\nb" () -> int {\nentry:\n  %x = $\n  ret 0\n}', 4, 8),
        ('func @f "f" () -> int { entry: ret 0 }', 1, 9),
    ]:
        with pytest.raises(ParseError) as err:
            parse_module(text)
        assert (err.value.line, err.value.col) == (line, col), text
        assert err.value.codes == ["Syntax"]


@pytest.mark.parametrize("literal, col, message", [
    ("²", 13, "unexpected character '²'"),
    ("3²", 14, "unexpected character '²'"),
    ("-²", 13, "stray '-'"),
    ("7" * 5000, 13, "integer literal of 5000 characters is too long"),
], ids=["digit_like", "int_then_digit_like", "minus_digit_like", "too_long"])
def test_bad_integer_literal_is_syntax_error(literal, col, message):
    with pytest.raises(ParseError) as err:
        parse_module(f"global @g = {literal}\n")
    assert (err.value.line, err.value.col) == (1, col)
    assert message in str(err.value)


def test_integers_are_unicode_decimal_digits():
    m = parse_module("global @g = -\u0664\u0662\n")  # Arabic-Indic 42
    assert m.globals == [("g", -42)]


def test_missing_terminator_is_syntax_error():
    with pytest.raises(ParseError):
        parse_module('func @f src "f" () -> int {\nentry:\n  %x = 1\n}')


def test_undefined_label():
    with pytest.raises(ValidationError) as err:
        parse_module('func @f src "f" () -> int { entry: br ghost }')
    assert "UndefinedLabel" in err.value.codes


def test_unknown_callee():
    with pytest.raises(ValidationError) as err:
        parse_module('func @f src "f" () -> void { entry: call @ghost() ret }')
    assert "UnknownCallee" in err.value.codes


def test_role_marks_roundtrip():
    text = (
        'func @f src "f" (%x: int) -> int {\n'
        "entry:\n"
        "  %c = cmp ge %x, 0\n"
        "  cbr %c, good, fake\n"
        "bogus fake:\n"
        "  br good\n"
        "good:\n"
        "  ret %x\n"
        "}\n"
    )
    m = parse_module(text)
    roles = {b.label: b.role for b in m.functions[0].blocks}
    assert roles == {"entry": "real", "fake": "bogus", "good": "real"}
    assert parse_module(print_module(m)) == m


def test_block_named_like_role_keyword():
    # `bogus:` is a label, `bogus other:` is a role mark
    m = parse_module(
        'func @f src "f" () -> int {\n'
        "entry:\n  br bogus\n"
        "bogus:\n  ret 1\n"
        "}\n"
    )
    assert m.functions[0].blocks[1].label == "bogus"


def test_greek_identifiers_parse():
    m = parse_module('func @κουηα src "count" () -> int { entry: ret 0 }')
    assert m.functions[0].mangled_name == "κουηα"
    assert parse_module(print_module(m)) == m


def test_int_literals_wrap_to_64_bit():
    m = parse_module(
        'func @f src "f" () -> int { entry: %x = 18446744073709551617 ret %x }')
    assert m.functions[0].blocks[0].insts[0].value == 1


def test_switch_with_no_cases():
    m = parse_module(
        'func @f src "f" (%x: int) -> int {\n'
        "entry:\n  switch %x [] default out\n"
        "out:\n  ret 0\n}\n"
    )
    term = m.functions[0].blocks[0].term
    assert term.cases == ()


# ---------------------------------------------------------------------------
# Random well-formed modules: parse/print round-trip as a property

@settings(max_examples=60, deadline=None)
@given(random_modules())
def test_roundtrip_property(m):
    assert validate(m) == []
    assert parse_module(print_module(m)) == m


@settings(max_examples=100, deadline=None)
@given(random_modules(), st.text("ab\n", min_size=1, max_size=4), st.data())
def test_syntax_error_location_property(m, base_name, data):
    """`$` inserted anywhere outside the source-name string and not right
    after a `-` is reported at its own line and column."""
    fn = dataclasses.replace(m.functions[0], base_name=base_name)
    text = print_module(dataclasses.replace(m, functions=[fn]))
    quote = text.index('"')
    at = data.draw(st.integers(0, len(text)))
    assume(not quote < at <= quote + len(base_name) + 1)
    assume(text[at - 1:at] != "-")
    before = text[:at]
    with pytest.raises(ParseError) as err:
        parse_module(before + "$" + text[at:])
    lines = before.split("\n")
    assert (err.value.line, err.value.col) == (len(lines), len(lines[-1]) + 1)
    assert "unexpected character '$'" in str(err.value)
