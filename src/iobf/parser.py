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
its first block's label, an instruction, a terminator with the block
head or `}` after it): token sequences with blanks and comments allowed
between any two. The forms that may stand at one place compile to one
regular expression, in which each form is a named group, so the match's
`lastindex` names the form and the form's captures follow it. A
function body is one loop that looks each statement up by its first
line and matches only where the text there is not the statement found
(see `_function` for why that is exact); in printed text it builds a
node once per distinct statement text in the module and shares it at
every repeat, and the assignments share one reading of their `%dst =`.
A list (parameters, extern types, switch cases, call arguments) is
matched whole by one repeated pattern, and `findall` over the span it
took reads its items. When a match fails, or an integer is too long
for `int()`, the same sequences, walked a token at a time from the
statement's start, find the error. There is no other parser. Errors
carry the line and column of a token: the text's first lexical error
(unterminated string, stray `-`, unexpected character), else the first
token that does not fit, with the token found there (`got ''` is the
end of the text; an unknown type or comparison is reported at the token
after it). `parse_module` validates the result and raises on any
diagnostic, so a returned module is valid.
"""

from __future__ import annotations

import functools
import operator
import re

from .ir import (
    Assign, BasicBlock, BinOp, BINOPS, Br, Call, Cbr, Cmp, CMP_RELS,
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
# takes all its characters), so the quantifiers are possessive: giving
# characters back could find no other match.
_BLANKS = r"[ \t\r\n]*+(?:;[^\n]*+[ \t\r\n]*+)*+"
# Each match skips blanks and comments, then takes exactly one token.
_TOKEN = re.compile(_BLANKS + r"""
    (?:(?P<punct>->|[@%=,(){}\[\]:])
      |(?P<int>-?\d+)
      |(?P<string>"(?:\\.|[^"\\])*")
      |(?P<ident>\w+)
      |(?P<bad>.)
      |(?P<eof>\Z))
""", re.VERBOSE | re.DOTALL)
# a string's text from between its quotes: `sub` calls a function only per
# escape, where the template `\1` costs a Python-level call on every `sub`
_UNESCAPE = functools.partial(re.compile(r"\\(.)", re.DOTALL).sub, operator.itemgetter(1))
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
    lit = _UNESCAPE(m[kind][1:-1]) if kind == "string" else m[kind]
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
# pattern after the blanks before it, `plain` the same without captures;
# `first` matches, without captures, the tokens that decide that it is
# there; `walk` matches it a token at a time and raises the error for the
# first token that does not fit.

def _starts(node, text: str, pos: int):
    return re.compile(_BLANKS + node.first).match(text, pos)


class _Tok:
    def __init__(self, first: str, error=None, capture: bool = False):
        self.first = self.plain = f"(?:{first})"
        self.error = error
        self.tail = f"({first})" if capture else self.first

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
    """Parts in order. A `form` is a named group around them: the last
    group its match closes, so `lastindex` tells the forms of an `_Alt`
    apart, and the form's captures are the groups after its own."""

    def __init__(self, *parts, form: str | None = None):
        self.parts, self.first = parts, parts[0].first
        self.plain = _BLANKS.join(p.plain for p in parts)
        self.tail = _BLANKS.join(p.tail for p in parts)
        if form is not None:
            self.tail = f"(?P<{form}>{self.tail})"

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
        self.plain = "(?:%s)" % "|".join(a.plain for a in alts)
        self.tail = ("(%s)" if capture else "(?:%s)") % "|".join(a.tail for a in alts)

    def walk(self, text, pos):
        for a in self.alts:
            if _starts(a, text, pos):
                return a.walk(text, pos)
        if self.error is None:
            return self.alts[-1].walk(text, pos)
        raise self.error(text, *_token_at(text, pos))


class _Items:
    """A list: `item`s separated by `,`, then `close`. One group takes the
    items' span, matched whole; `findall` over it reads the items' captures
    in order."""

    def __init__(self, item, close):
        self.item, self.close = item, close
        items = f"(?:{item.plain}(?:{_BLANKS},{_BLANKS}{item.plain})*+)?+"
        self.plain = items + _BLANKS + close.plain
        self.tail = f"({items}){_BLANKS}{close.tail}"
        self.findall = re.compile(f"{_BLANKS},?+{_BLANKS}{item.tail}").findall

    def walk(self, text, pos):
        if not _starts(self.close, text, pos):
            pos = self.item.walk(text, pos)
            while not _starts(self.close, text, pos):
                pos = self.item.walk(text, _COMMA.walk(text, pos))
        return self.close.walk(text, pos)


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


def _p(punct: str) -> _Tok:
    return _Tok(re.escape(punct), _expected(repr(punct)))


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
_COMMA = _p(",")
# an operand is one capture, read by `_operand`
_NAME = _Tok(_WORD, _expected("identifier"))
_OPERAND = _Alt(_Seq(_p("%"), _NAME), _Seq(_p("@"), _NAME), _Tok(
    r"-?\d+(?!\d)|(?:true|false)(?!\w)"), error=_expected("operand"), capture=True)
# a role mark is a role word followed by the label
_ROLE = _one_of([r for r in ROLES if r != "real"], lookahead=rf"(?={_BLANKS}[^\W\d])")
_HEAD = (_opt(_ROLE), _IDENT, _p(":"))
# a terminator is matched with what follows it: the next block's head or
# the function's closing `}`
_NEXT = _Alt(_p("}"), _Seq(*_HEAD))
_TYPES = _Items(_VALUE_TYPE, _p(")"))
_PARAMS = _Items(_Seq(_p("%"), _IDENT, _p(":"), _VALUE_TYPE), _p(")"))
_ARGS = _Items(_OPERAND, _p(")"))
_CASES = _Items(_Seq(_INT, _p("->"), _IDENT), _p("]"))
_CALL_EXPR = (_kw("call"), _p("@"), _IDENT, _p("("), _ARGS)

_TOP = _Alt(
    _Tok(r"\Z"),
    _Seq(_kw("global"), _p("@"), _IDENT, _p("="), _INT, form="global"),
    _Seq(_kw("extern"), _p("@"), _IDENT, _p("("), _TYPES, _p("->"), _RET_TYPE,
         form="extern"),
    # a function's header runs to its first block's head
    _Seq(_kw("func"), _p("@"), _IDENT, _kw("src"), _STRING, _p("("), _PARAMS,
         _p("->"), _RET_TYPE, _p("{"), *_HEAD, form="func"),
    error=_expected("top-level declaration", "'global', 'extern' or 'func'"))
_BODY = _Alt(
    # an assignment's `%dst =` is group 1; its form is decided by the word
    # after the `=`
    _Seq(_p("%"), _IDENT, _p("="), _Alt(
        _Seq(_one_of(BINOPS), _OPERAND, _COMMA, _OPERAND, form="binop"),
        _Seq(_kw("cmp"), _one_of(CMP_RELS, _unknown("comparison")), _OPERAND,
             _COMMA, _OPERAND, form="cmp"),
        _Seq(*_CALL_EXPR, form="call_to"),
        _Seq(_OPERAND, form="assign"))),
    _Seq(*_CALL_EXPR, form="call"),
    _Seq(_kw("br"), _IDENT, _NEXT, form="br"),
    _Seq(_kw("cbr"), _p("%"), _IDENT, _COMMA, _IDENT, _COMMA, _IDENT, _NEXT,
         form="cbr"),
    _Seq(_kw("switch"), _p("%"), _IDENT, _p("["), _CASES, _kw("default"), _IDENT,
         _NEXT, form="switch"),
    _Seq(_kw("ret"), _opt(_OPERAND), _NEXT, form="ret"),
    error=_message("block is missing a terminator"))


def _forms(node, *names):
    """The match function of `node`'s pattern after blanks, and the group
    of each named form."""
    regex = re.compile(_BLANKS + node.tail)
    return (regex.match, *(regex.groupindex[name] for name in names))


_TOP_MATCH, _GLOBAL, _EXTERN, _FUNC = _forms(_TOP, "global", "extern", "func")
_BODY_MATCH, _BINOP, _ASSIGN, _CMP, _CALL_TO, _CALL, _BR, _CBR, _SWITCH = _forms(
    _BODY, "binop", "assign", "cmp", "call_to", "call", "br", "cbr", "switch")
_LITERALS = {"true": True, "false": False}
_HEAD_LINE = object()  # `shared`'s mark on a terminator's first line


@functools.lru_cache(maxsize=4096)  # operands are immutable, so shared
def _operand(text):
    if text[0] in "%@":  # the name is the word that ends the operand
        name = re.search(r"\w+\Z", text)[0]
        return Local(name) if text[0] == "%" else GlobalRef(name)
    return _LITERALS[text] if text in _LITERALS else wrap64(int(text))


def _module(text: str) -> IrModule:
    """Take the text's declarations in order; a failed match, or an integer
    too long for `int()`, is found again by the walk from its statement's
    start, which raises the error."""
    lists = {IrFunction: [], tuple: [], ExternDecl: []}  # IrModule's order
    pos, shared = 0, {}
    try:
        while m := _TOP_MATCH(text, start := pos):
            pos, k = m.end(), m.lastindex
            if k == _FUNC:
                item, pos = _function(text, m, k, shared)
            elif k == _GLOBAL:
                item = (m[k + 1], wrap64(int(m[k + 2])))
            elif k == _EXTERN:
                item = ExternDecl(m[k + 1], tuple(_TYPES.findall(text, *m.span(k + 2))),
                                  m[k + 3])
            else:  # the end of the text
                return IrModule(*map(tuple, lists.values()))
            lists[type(item)].append(item)
    except ValueError:
        pass
    raise _lexical_error(text) or _TOP.walk(text, start)


def _function(text: str, m, k, shared: dict):
    """The function whose header `m` matched as `_TOP`'s form at group `k`,
    and the end of its closing `}`. The body is one loop, a statement at a
    time.

    `shared`, made for one `parse_module` call, maps a statement's first
    line (from where its match starts, at the end of the statement before,
    through the next newline) to the text matched there plus the one
    character after it, the match's length and what was built from it: an
    instruction, or a terminator with the (role, label) of the head after
    it. The text is None where it is the key itself: the statement ends at
    the key's newline. A terminator's match takes the head after it, which
    differs where one terminator ends many blocks (a `br` back to a
    dispatcher), so a first line that has begun a terminator maps to
    `_HEAD_LINE`, and a statement that begins with it is keyed by its first
    two lines. Where the stored text stands at `pos`, the stored result is
    taken without a match; else `_BODY_MATCH` matches and builds, and its
    result replaces the entry. This is exact because a match at `pos`
    depends only on the characters it reads, and none reads more than one
    past its match: no pattern looks behind, the only lookaheads that
    reach past a statement are `(?!\\w)` and `(?!\\d)` on its last token, a
    terminator's form ends in the next head's `:` or the closing `}`, and
    every other lookahead reads text the match takes. The character after
    the match is what tells `%a =` / `add %x, 1` from `%a =` /
    `add %x, 15`. So a key only finds a candidate: a poor one (in text
    whose lines end in `\\r\\n`, the first line is the `\\r\\n` before the
    statement) costs a match, never the result. In printed text a key
    holds one statement, so every repeat is the node built first; where
    two statements share a first line, a repeat can be an equal node."""
    name, base, ret_type = m[k + 1], _UNESCAPE(m[k + 2][1:-1]), m[k + 4]
    params = tuple(_PARAMS.findall(text, *m.span(k + 3)))
    role, label, pos = m[k + 5], m[k + 6], m.end()
    blocks, insts = [], []
    try:
        while True:
            line = text[(start := pos):(nl := text.find("\n", pos + 1)) + 1]
            if marked := (seen := shared.get(line)) is _HEAD_LINE:
                seen = shared.get(line := text[start:(nl := text.find("\n", nl + 1)) + 1])
            if type(seen) is tuple and (seen[0] is None or text.startswith(seen[0], pos)):
                pos, node = pos + seen[1], seen[2]
            elif m := _BODY_MATCH(text, pos):
                pos = m.end()
                node = _statement(text, m, m.lastindex)
                if type(node) is tuple and not marked:  # a terminator: key it by its head too
                    shared[line] = _HEAD_LINE
                    line = text[start:(nl := text.find("\n", nl + 1)) + 1]
                shared[line] = None if pos == nl else text[start:pos + 1], pos - start, node
            else:
                break
            if type(node) is not tuple:
                insts.append(node)
            else:  # a terminator, then the head (role, label) it ends before
                blocks.append(BasicBlock(label, tuple(insts), node[0], role or "real"))
                _, role, label = node
                insts = []
                if label is None:  # the function's closing `}`
                    return IrFunction(name, base, params, ret_type, tuple(blocks)), pos
    except ValueError:
        pass
    raise _lexical_error(text) or _BODY.walk(text, start)


def _statement(text: str, m, k):
    """The node that `m` matched as `_BODY`'s form at group `k`; for a
    terminator, the tuple of it and the next head's role and label."""
    if k == _BINOP:
        return BinOp(m[1], m[k + 1], _operand(m[k + 2]), _operand(m[k + 3]))
    if k == _ASSIGN:
        return Assign(m[1], _operand(m[k + 1]))
    if k == _CMP:
        return Cmp(m[1], m[k + 1], _operand(m[k + 2]), _operand(m[k + 3]))
    if k == _CALL_TO or k == _CALL:  # group 1 is None for the latter
        args = _ARGS.findall(text, *m.span(k + 2))
        return Call(m[1], m[k + 1], tuple(map(_operand, args)))
    if k == _BR:
        term, head = Br(m[k + 1]), k + 2
    elif k == _CBR:
        term, head = Cbr(m[k + 1], m[k + 2], m[k + 3]), k + 4
    elif k == _SWITCH:
        cases = _CASES.findall(text, *m.span(k + 2))
        term, head = Switch(m[k + 1], tuple(
            (wrap64(int(v)), to) for v, to in cases), m[k + 3]), k + 4
    else:
        term, head = Ret(m[k + 1] and _operand(m[k + 1])), k + 2
    return term, m[head], m[head + 1]


def is_identifier(word: str) -> bool:
    """Whether `word` reads as one identifier: a letter or `_`, then
    letters, digits or `_` (the lexer rejects other `\\w` characters, such
    as `²`, at a word's start)."""
    return re.fullmatch(_WORD, word) is not None and (
        word[0].isalpha() or word[0] == "_")


def parse_module(text: str) -> IrModule:
    """Parse and validate; raises ParseError or ValidationError."""
    module = _module(text)
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
