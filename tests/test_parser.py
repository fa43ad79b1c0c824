import dataclasses
import re

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
    assert m.globals == (("g", -5),)


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


_F = 'func @f src "f" () -> int {\n'


@pytest.mark.parametrize("text, message, line, col", [
    ("@g", "expected top-level declaration, got '@'", 1, 1),
    ("global @g = 1\nfunction @f",
     "expected 'global', 'extern' or 'func', got 'function'", 2, 1),
    # a type is checked after it is read, so the error sits on the next token
    ("extern @e(int, long) -> int", "unknown type 'long'", 1, 20),
    ('func @f src "f" (%x: long) -> int { entry: ret 0 }',
     "unknown type 'long'", 1, 26),
    ("extern @e() -> long\nglobal @g = 1", "unknown return type 'long'", 2, 1),
    ('func @f src "f" () -> long { entry: ret 0 }',
     "unknown return type 'long'", 1, 28),
    ("func @f src f () -> int { entry: ret 0 }",
     "expected source name string", 1, 13),
    ("global @3 = 1", "expected identifier, got '3'", 1, 9),
    ('func @f "f" () -> int { entry: ret 0 }',
     "expected identifier, got 'f'", 1, 9),
    ('func @f source "f" () -> int { entry: ret 0 }',
     "expected 'src', got 'source'", 1, 9),
    (_F + "entry:\n  switch %x [1 -> a] otherwise a\n}",
     "expected 'default', got 'otherwise'", 3, 22),
    ("global @g := 1", "expected '=', got ':'", 1, 11),
    (_F + "entry:\n  %x = add 1 2\n  ret %x\n}", "expected ',', got '2'", 3, 14),
    ("extern @e(int", "expected ',', got ''", 1, 14),
    ('global "g" = 1', "expected '@', got 'g'", 1, 8),
    ("global @g = true", "expected integer, got 'true'", 1, 13),
    (_F + "entry:\n  switch %x [a -> b] default b\n}",
     "expected integer, got 'a'", 3, 14),
    (_F + "entry:\n  %x = add 1, ret\n}", "expected operand, got 'ret'", 3, 15),
    (_F + "entry:\n  %x = foo\n  ret %x\n}", "expected operand, got 'foo'", 3, 8),
    (_F + "entry:\n  ret % 3\n}", "expected identifier, got '3'", 3, 9),
    (_F + "entry:\n  %c = cmp lte 1, 2\n  ret 0\n}",
     "unknown comparison 'lte'", 3, 16),
    (_F + "entry:\n  %x = 1\n}", "block is missing a terminator", 4, 1),
    (_F + "entry:\n  ret " + "9" * 4301 + "\n}",
     "integer literal of 4301 characters is too long", 3, 7),
    ('func @f src "f () -> int { entry: ret 0 }', "unterminated string", 1, 13),
    ("global @g = - 1", "stray '-'", 1, 13),
    ("global @g = 1 # one", "unexpected character '#'", 1, 15),
    ("global @²g = 1", "unexpected character '²'", 1, 9),
], ids=[
    "top_level_punct", "top_level_word", "extern_type", "param_type",
    "extern_return_type", "func_return_type", "source_name", "identifier",
    "keyword_not_identifier", "keyword_src", "keyword_default", "punct",
    "comma", "end_of_text", "string_got", "integer", "case_integer",
    "operand", "operand_word", "operand_identifier", "unknown_comparison",
    "missing_terminator", "too_long", "unterminated_string", "stray_minus",
    "unexpected_character", "digit_like_start",
])
def test_every_parse_error_form(text, message, line, col):
    with pytest.raises(ParseError) as err:
        parse_module(text)
    assert str(err.value) == f"Syntax: {message} (line {line}, col {col})"
    assert (err.value.line, err.value.col) == (line, col)


def test_lexical_error_reported_before_earlier_grammar_error():
    with pytest.raises(ParseError) as err:
        parse_module('global @g = true\nfunc @f src "f () -> int { entry: ret 0 }')
    assert str(err.value) == "Syntax: unterminated string (line 2, col 13)"


def test_long_integer_where_no_integer_fits():
    """Only a literal the grammar takes is converted, so one that stands
    where a label belongs is an unexpected token, not a long literal."""
    long = "9" * 4400
    with pytest.raises(ParseError) as err:
        parse_module(_F + f"entry:\n  ret 0\n{long}:\n  ret 1\n}}")
    assert str(err.value) == f"Syntax: expected identifier, got '{long}' (line 4, col 1)"


def test_string_escapes_any_character():
    m = parse_module('func @f src "a\\\nb\\\\c\\"d" () -> int { entry: ret 0 }')
    assert m.functions[0].base_name == 'a\nb\\c"d'


def test_integers_are_unicode_decimal_digits():
    m = parse_module("global @g = -\u0664\u0662\n")  # Arabic-Indic 42
    assert m.globals == (("g", -42),)


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


def test_digit_like_character_in_string_or_comment_is_accepted():
    m = parse_module('func @f src "x²" () -> int {\n'
                     "entry: ; x² is not an identifier\n  ret 0\n}\n")
    assert m.functions[0].base_name == "x²"


def test_digit_like_identifier_start_after_greek_identifiers():
    text = ('func @φ src "f" (%α: int) -> int {\n'
            "entry:\n  %β = add %α, 1\n  %²γ = add %β, 1\n  ret %β\n}\n")
    with pytest.raises(ParseError) as err:
        parse_module(text)
    assert str(err.value) == "Syntax: unexpected character '²' (line 4, col 4)"


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


# Every statement form the grammar has, beside what random_modules() draws
_ALL_FORMS = """\
global @g = -7
extern @e(int, bool) -> void
extern @n() -> int
func @_O1hv src "h\\"q" (%p: int, %q: bool) -> bool {
entry:
  %a = @g
  %b = true
  %c = cmp le %p, @g
  %d = call @n()
  call @e(%d, false)
  switch %p [0 -> done, -3 -> fake] default done
bogus fake:
  cbr %q, done, fake
dispatcher done:
  ret %c
}
func @_O1kv src "k" () -> void { entry: ret }
"""
_TOKENS = re.compile(r'"(?:\\.|[^"\\])*"|->|-?\d+|\w+|\S')


@settings(max_examples=60, deadline=None)
@given(random_modules(), st.data())
def test_layout_property(m, data):
    """Blanks, newlines and comments between any two tokens change nothing."""
    text = print_module(m) + _ALL_FORMS
    seps = st.sampled_from([" ", "\n", "\t", "\r\n", " ; note\n", ";\n  "])
    reflowed = "".join(tok + data.draw(seps) for tok in _TOKENS.findall(text))
    expected = parse_module(text)
    assert expected.functions[0] == m.functions[0]
    assert parse_module(reflowed) == expected
