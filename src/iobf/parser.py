"""Parser for the textual IR: one grammar, matched a statement at a time.

Grammar (UTF-8; `;` starts a comment running to end of line):

    module    := (global | extern | function)*
    global    := "global" "@" ident "=" int
    extern    := "extern" "@" ident "(" types? ")" "->" rettype
    function  := "func" "@" ident "src" string "(" params? ")" "->" rettype
                 "{" block+ "}"
    params    := "%" ident ":" type ("," "%" ident ":" type)*
    block     := role? ident ":" inst* term
    role      := "bogus" | "dispatcher"
    inst      := "%" ident "=" rhs | "call" "@" ident "(" operands? ")"
    rhs       := operand
               | binop operand "," operand
               | "cmp" rel operand "," operand
               | "call" "@" ident "(" operands? ")"
    term      := "br" ident
               | "cbr" "%" ident "," ident "," ident
               | "switch" "%" ident "[" cases? "]" "default" ident
               | "ret" operand?
    cases     := int "->" ident ("," int "->" ident)*
    operand   := "%" ident | "@" ident | int | "true" | "false"

Identifiers are a Unicode letter or `_` followed by letters, digits or
`_` (Greek letters are valid, which homoglyph renaming relies on).
Integers are an optional `-` and Unicode decimal digits (exactly what
`\\d` and `int()` accept, so `²` is not one), wrapped to signed 64 bits;
a literal longer than Python's int-string limit (4,300 digits by
default) is a syntax error at the literal. Strings take `\\` escapes of
any character.

The grammar is written once, below, as statement forms (a header up to
its first list item, a block label, an instruction, a terminator, a list
item with its separator): token sequences with blanks and comments
allowed between any two. The forms that may stand at one place compile
to one regular expression, so a statement costs one match; when none
matches, the same sequences, walked a token at a time, find the error.
There is no other parser. Errors carry the line and column of a token:
the text's first lexical error (unterminated string, stray `-`,
unexpected character), else the first token that does not fit, with the
token found there (`got ''` is the end of the text; an unknown type or
comparison is reported at the token after it). `parse_module` validates
the result and raises on any diagnostic, so a returned module is valid.
"""

from __future__ import annotations

import functools
import re

from .ir import (
    Assign, BasicBlock, BinOp, BINOPS, Br, Call, Cbr, Cmp, CMP_RELS, Const,
    ExternDecl, GlobalRef, IrFunction, IrModule, Local, RET_TYPES, Ret, ROLES,
    Switch, VALUE_TYPES, wrap64,
)
from .validate import Diagnostic, validate


class IrError(Exception):
    """Base error for parse and validation failures."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(str(d) for d in diagnostics))

    @property
    def codes(self) -> list[str]:
        return [d.code for d in self.diagnostics]


class ParseError(IrError):
    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        diag = Diagnostic("Syntax", f"{message} (line {line}, col {col})")
        super().__init__([diag])


class ValidationError(IrError):
    pass


# ---- tokens ---------------------------------------------------------------

# Blanks and comments. Each piece of the grammar's patterns matches in one
# way only (a comment runs to the end of its line, a word or an integer
# takes all its characters), so backtracking never re-reads the text.
_BLANKS = r"[ \t\r\n]*(?:;[^\n]*(?![^\n])[ \t\r\n]*)*"
# Each match skips blanks and comments, then takes exactly one token.
_TOKEN = re.compile(_BLANKS + r"""
    (?:(?P<punct>->|[@%=,(){}\[\]:])
      |(?P<int>-?\d+)
      |(?P<string>"(?:\\.|[^"\\])*")
      |(?P<ident>\w+)
      |(?P<bad>.)
      |(?P<eof>\Z))
""", re.VERBOSE | re.DOTALL)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_NON_ASCII = re.compile(r"[^\x00-\x7f]")
# a `"` that starts no string has no closing quote; a `-` that starts no
# integer and no `->` stands alone
_BAD_START = {'"': "unterminated string", "-": "stray '-'"}


def _error(text: str, pos: int, message: str) -> ParseError:
    line = text.count("\n", 0, pos) + 1
    return ParseError(message, line, pos - text.rfind("\n", 0, pos))


def _token_at(text: str, pos: int) -> tuple[str, str, int, int]:
    """Kind, text (a string's unquoted and unescaped), start and end of the
    token after the blanks at `pos`, in a text without lexical errors."""
    m = _TOKEN.match(text, pos)
    kind = m.lastgroup
    lit = _ESCAPE.sub(r"\1", m[kind][1:-1]) if kind == "string" else m[kind]
    return kind, lit, m.start(kind), m.end()


def _lexical_error(text: str) -> ParseError | None:
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "eof":
            return None
        c = m[kind][0]
        # `\w` also takes digit-like characters (`²`), which start no identifier
        if kind == "bad" or kind == "ident" and not (c.isalpha() or c == "_"):
            return _error(text, m.start(kind),
                          _BAD_START.get(c, f"unexpected character {c!r}"))


# ---- grammar nodes, the parts of a statement form: `tail` is a node's
# pattern after the blanks before it; `first` matches, without captures,
# the tokens that decide that it is there; `walk` matches it a token at a
# time and raises the error for the first token that does not fit.

def _starts(node, text: str, pos: int):
    return re.compile(_BLANKS + node.first).match(text, pos)


class _Tok:
    def __init__(self, first: str, error=None, capture: bool = False):
        self.first, self.error = f"(?:{first})", error
        self.tail = f"({first})" if capture else self.first
        self.groups = int(capture)

    def walk(self, text, pos):
        m = _starts(self, text, pos)
        kind, lit, start, end = _token_at(text, pos)
        if m is None:
            raise self.error(text, kind, lit, start, end)
        if kind == "int" and m.end() == end:  # it took an integer literal
            try:
                int(lit)
            except ValueError:  # longer than Python's int-string digit limit
                raise _error(text, start, f"integer literal of {len(lit)} "
                                          "characters is too long") from None
        return m.end()


class _Seq:
    def __init__(self, *parts, decide: int = 1):
        self.parts = parts
        self.first = _BLANKS.join(p.first for p in parts[:decide])
        self.tail = _BLANKS.join(p.tail for p in parts)
        self.groups = sum(p.groups for p in parts)

    def walk(self, text, pos):
        for p in self.parts:
            pos = p.walk(text, pos)
        return pos


class _Alt:
    """Alternatives told apart by their first tokens. With no `error`, a
    token that starts none of them is the last one's error."""

    def __init__(self, *alts, error=None, capture: bool = False):
        self.alts, self.error = alts, error
        self.first = "(?:%s)" % "|".join(a.first for a in alts)
        self.tail = ("(%s)" if capture else "(?:%s)") % "|".join(a.tail for a in alts)
        self.groups = 1 if capture else sum(a.groups for a in alts)

    def walk(self, text, pos):
        for a in self.alts:
            if _starts(a, text, pos):
                return a.walk(text, pos)
        if self.error is None:
            return self.alts[-1].walk(text, pos)
        raise self.error(text, *_token_at(text, pos))


class _Choice(_Alt):
    """The (form, build) pairs that may stand at one place, compiled to one
    pattern. The form that matched is the last group its match closes;
    `build(parser, *captures)` makes the statement's value."""

    def __init__(self, *forms, error=None):
        super().__init__(*(node for node, _ in forms), error=error)
        self.regex = re.compile(_BLANKS + "(?:%s)" % "|".join(
            f"({node.tail})" for node, _ in forms))
        self.builds, n = {}, 1
        for node, build in forms:
            self.builds[n] = (build, slice(n, n + node.groups))  # into m.groups()
            n += 1 + node.groups


def _expected(what: str, word: str | None = None):
    """The error for a token that is not `what` (not `word`, if a word)."""
    def error(text, kind, lit, start, end):
        found = word if word is not None and kind == "ident" else what
        return _error(text, start, f"expected {found}, got {lit!r}")
    return error


def _unknown(what: str):
    # a word from a fixed set is checked after it is read
    def error(text, kind, lit, start, end):
        if kind != "ident":
            return _expected("identifier")(text, kind, lit, start, end)
        return _error(text, _token_at(text, end)[2], f"unknown {what} {lit!r}")
    return error


def _message(message: str):
    return lambda text, kind, lit, start, end: _error(text, start, message)


def _opt(part):
    """`part`, or nothing where its first token is not."""
    return _Alt(part, _Tok(f"(?!{_BLANKS}{part.first})"))


def _p(punct: str, capture: bool = False) -> _Tok:
    return _Tok(re.escape(punct), _expected(repr(punct)), capture)


def _kw(word: str) -> _Tok:
    return _Tok(word + r"(?!\w)", _expected("identifier", repr(word)))


def _one_of(words, error=None, lookahead: str = "") -> _Tok:
    return _Tok("(?:%s)(?!\\w)%s" % ("|".join(words), lookahead), error, True)


_WORD = r"[^\W\d]\w*(?!\w)"
_IDENT = _Tok(_WORD, _expected("identifier"), True)
_INT = _Tok(r"-?\d+(?!\d)", _expected("integer"), True)
_STRING = _Tok(r'"(?:\\(?s:.)|[^"\\])*"', _message("expected source name string"), True)
_VALUE_TYPE = _one_of(VALUE_TYPES, _unknown("type"))
_RET_TYPE = _one_of(RET_TYPES, _unknown("return type"))
# an operand is one capture, read by `_operand`
_NAME = _Tok(_WORD, _expected("identifier"))
_OPERAND = _Alt(_Seq(_p("%"), _NAME), _Seq(_p("@"), _NAME), _Tok(
    r"-?\d+(?!\d)|(?:true|false)(?!\w)"), error=_expected("operand"), capture=True)
# a list item's separator captures the closing `)`, or None
_SEP = _Alt(_p(","), _p(")", capture=True), error=_expected("','"))
_EMPTY = _opt(_p(")", capture=True))
# a role mark is a role word followed by the label
_ROLE = _one_of([r for r in ROLES if r != "real"], lookahead=rf"(?={_BLANKS}[^\W\d])")
_HEAD = (_opt(_ROLE), _IDENT, _p(":"))
_ASSIGN = (_p("%"), _IDENT, _p("="))
_CALL = (_kw("call"), _p("@"), _IDENT, _p("("), _EMPTY)


class _Parser:
    """Takes the statements of one text in order."""

    def __init__(self, text: str):
        self.text, self.pos = text, 0

    def take(self, choice: _Choice):
        """Match one of `choice`'s forms at the current place and build it."""
        text, start = self.text, self.pos
        m = choice.regex.match(text, start)
        if m is not None:
            self.pos = m.end()
            build, captures = choice.builds[m.lastindex]
            try:
                return build(self, *m.groups()[captures])
            except ValueError:  # an integer too long for int(): the walk finds it
                pass
        # the walk raises the error for the token that does not fit
        raise _lexical_error(text) or choice.walk(text, start)

    def items(self, element: _Choice, end):
        """Take list items, each with its separator, while `end` is None."""
        out = []
        while end is None:
            item, end = self.take(element)
            out.append(item)
        return tuple(out), end

    def module(self) -> IrModule:
        lists = {IrFunction: [], tuple: [], ExternDecl: []}  # IrModule's order
        while (item := self.take(_TOP)) is not None:
            lists[type(item)].append(item)
        return IrModule(*map(tuple, lists.values()))

    def function(self, name, base, end):
        params, _ = self.items(_PARAM, end)
        ret_type, head = self.take(_FUNC_OPEN)
        blocks = []
        while head is not None:
            role, label = head
            insts = []
            while type(stmt := self.take(_BODY)) not in _TERMINATORS:
                insts.append(stmt)
            blocks.append(BasicBlock(label, tuple(insts), stmt, role or "real"))
            head = self.take(_NEXT_BLOCK)
        return IrFunction(name, _ESCAPE.sub(r"\1", base[1:-1]), params,
                          ret_type, tuple(blocks))


_LITERALS = {"true": True, "false": False}
_TERMINATORS = (Br, Cbr, Switch, Ret)


@functools.lru_cache(maxsize=4096)  # operands are immutable, so shared
def _operand(text):
    if text[0] in "%@":  # the name is the word that ends the operand
        name = re.search(r"\w+\Z", text)[0]
        return Local(name) if text[0] == "%" else GlobalRef(name)
    return _LITERALS[text] if text in _LITERALS else wrap64(int(text))


def _binary(cls):
    return lambda p, dst, op, a, b: cls(dst, op, _operand(a), _operand(b))


_TOP = _Choice(
    (_Tok(r"\Z"), lambda p: None),
    (_Seq(_kw("global"), _p("@"), _IDENT, _p("="), _INT),
     lambda p, name, lit: (name, wrap64(int(lit)))),
    (_Seq(_kw("extern"), _p("@"), _IDENT, _p("("), _EMPTY), lambda p, name, end:
     ExternDecl(name, p.items(_TYPE_ITEM, end)[0], p.take(_RETURNS))),
    (_Seq(_kw("func"), _p("@"), _IDENT, _kw("src"), _STRING, _p("("), _EMPTY),
     _Parser.function),
    error=_expected("top-level declaration", "'global', 'extern' or 'func'"))
_TYPE_ITEM = _Choice((_Seq(_VALUE_TYPE, _SEP), lambda p, ty, end: (ty, end)))
_PARAM = _Choice((_Seq(_p("%"), _IDENT, _p(":"), _VALUE_TYPE, _SEP),
                  lambda p, name, ty, end: ((name, ty), end)))
_RETURNS = _Choice((_Seq(_p("->"), _RET_TYPE), lambda p, ty: ty))
# a function's blocks start with a head: the role mark, if any, and label
_FUNC_OPEN = _Choice((_Seq(_p("->"), _RET_TYPE, _p("{"), *_HEAD),
                      lambda p, ty, *head: (ty, head)))
_NEXT_BLOCK = _Choice((_p("}"), lambda p: None),
                      (_Seq(*_HEAD), lambda p, *head: head))
_BODY = _Choice(
    # an assignment's form is decided by the word after its `=`
    (_Seq(*_ASSIGN, _one_of(BINOPS), _OPERAND, _p(","), _OPERAND, decide=4),
     _binary(BinOp)),
    (_Seq(*_ASSIGN, _kw("cmp"), _one_of(CMP_RELS, _unknown("comparison")),
          _OPERAND, _p(","), _OPERAND, decide=4), _binary(Cmp)),
    (_Seq(*_ASSIGN, *_CALL, decide=4),
     lambda p, dst, callee, end: Call(dst, callee, p.items(_ARG, end)[0])),
    (_Seq(*_ASSIGN, _OPERAND),
     lambda p, dst, src: (Assign if src[0] in "%@" else Const)(dst, _operand(src))),
    (_Seq(*_CALL), lambda p, callee, end: Call(None, callee, p.items(_ARG, end)[0])),
    (_Seq(_kw("br"), _IDENT), lambda p, label: Br(label)),
    (_Seq(_kw("cbr"), _p("%"), _IDENT, _p(","), _IDENT, _p(","), _IDENT),
     lambda p, *names: Cbr(*names)),
    (_Seq(_kw("switch"), _p("%"), _IDENT, _p("["),
          _opt(_Seq(_p("]"), _kw("default"), _IDENT))),
     lambda p, scrutinee, default: Switch(scrutinee, *p.items(_CASE, default))),
    (_Seq(_kw("ret"), _opt(_OPERAND)), lambda p, value: Ret(value and _operand(value))),
    error=_message("block is missing a terminator"))
_ARG = _Choice((_Seq(_OPERAND, _SEP), lambda p, arg, end: (_operand(arg), end)))
# a case's separator captures the default label after the closing `]`
_CASE = _Choice((_Seq(_INT, _p("->"), _IDENT, _Alt(
    _p(","), _Seq(_p("]"), _kw("default"), _IDENT), error=_expected("','"))),
    lambda p, lit, label, default: ((wrap64(int(lit)), label), default)))


def is_identifier(word: str) -> bool:
    """Whether `word` reads as one identifier: a letter or `_`, then
    letters, digits or `_` (the lexer rejects other `\\w` characters, such
    as `²`, at a word's start)."""
    return re.fullmatch(_WORD, word) is not None and (
        word[0].isalpha() or word[0] == "_")


def parse_module(text: str) -> IrModule:
    """Parse and validate; raises ParseError or ValidationError."""
    module = _Parser(text).module()
    # `\w` in the grammar's identifiers also takes characters that are
    # neither letters nor decimal digits (`²`, `Ⅻ`) and start no identifier;
    # only the lexer rejects them, so it runs only when one is there
    if not text.isascii() and any(
            c.isalnum() and not (c.isalpha() or c.isdecimal())
            for c in set(_NON_ASCII.findall(text))):
        if lexical := _lexical_error(text):
            raise lexical
    if diags := validate(module):
        raise ValidationError(diags)
    return module
