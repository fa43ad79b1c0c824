"""Recursive-descent parser for the textual IR.

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
any character. Errors carry the line and column of the offending token.
`parse_module` validates the result and raises on any diagnostic, so a
returned module is valid.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .ir import (
    Assign,
    BasicBlock,
    BinOp,
    BINOPS,
    Br,
    Call,
    Cbr,
    Cmp,
    CMP_RELS,
    Const,
    ExternDecl,
    GlobalRef,
    IrFunction,
    IrModule,
    Local,
    RET_TYPES,
    Ret,
    ROLES,
    Switch,
    VALUE_TYPES,
    wrap64,
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


@dataclass(slots=True)
class Token:
    kind: str  # punct | int | string | ident | eof
    text: str
    pos: int  # offset of the first character (a string's opening quote)


# Each match skips blanks and comments, then takes exactly one token.
_TOKEN = re.compile(r"""
    (?:[ \t\r\n]+|;[^\n]*)*
    (?:(?P<punct>->|[@%=,(){}\[\]:])
      |(?P<int>-?\d+)
      |(?P<string>"(?:\\.|[^"\\])*")
      |(?P<ident>\w+)
      |(?P<bad>.)
      |(?P<eof>\Z))
""", re.VERBOSE | re.DOTALL)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
# a `"` that starts no string has no closing quote; a `-` that starts no
# integer and no `->` stands alone
_BAD_START = {'"': "unterminated string", "-": "stray '-'"}


def _error(text: str, pos: int, message: str) -> ParseError:
    line = text.count("\n", 0, pos) + 1
    return ParseError(message, line, pos - text.rfind("\n", 0, pos))


def _tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        lit = m[kind]
        pos = m.start(kind)
        # `\w` also matches digit-like characters such as `²`, which may
        # continue an identifier but not start one
        if kind == "bad" or kind == "ident" and not (
                lit[0].isalpha() or lit[0] == "_"):
            c = lit[0]
            raise _error(text, pos,
                         _BAD_START.get(c, f"unexpected character {c!r}"))
        if kind == "string":
            lit = _ESCAPE.sub(r"\1", lit[1:-1])
        toks.append(Token(kind, lit, pos))
        if kind == "eof":  # finditer would add a second, empty one
            break
    return toks


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def error(self, t: Token, message: str) -> ParseError:
        return _error(self.text, t.pos, message)

    def fail(self, message: str):
        raise self.error(self.peek(), message)

    def expect_punct(self, text: str) -> Token:
        t = self.next()
        if t.kind != "punct" or t.text != text:
            raise self.error(t, f"expected {text!r}, got {t.text!r}")
        return t

    def expect_ident(self, expected: str | None = None) -> str:
        t = self.next()
        if t.kind != "ident":
            raise self.error(t, f"expected identifier, got {t.text!r}")
        if expected is not None and t.text != expected:
            raise self.error(t, f"expected {expected!r}, got {t.text!r}")
        return t.text

    def accept_punct(self, text: str) -> bool:
        t = self.peek()
        if t.kind == "punct" and t.text == text:
            self.next()
            return True
        return False

    def expect_int(self) -> int:
        t = self.next()
        if t.kind != "int":
            raise self.error(t, f"expected integer, got {t.text!r}")
        try:
            return wrap64(int(t.text))
        except ValueError:  # longer than Python's int-string digit limit
            raise self.error(t, f"integer literal of {len(t.text)} characters "
                                "is too long") from None

    # ---- module level -----------------------------------------------------

    def module(self) -> IrModule:
        m = IrModule()
        while True:
            t = self.peek()
            if t.kind == "eof":
                break
            if t.kind != "ident":
                self.fail(f"expected top-level declaration, got {t.text!r}")
            if t.text == "global":
                self.next()
                self.expect_punct("@")
                name = self.expect_ident()
                self.expect_punct("=")
                m.globals.append((name, self.expect_int()))
            elif t.text == "extern":
                self.next()
                self.expect_punct("@")
                name = self.expect_ident()
                self.expect_punct("(")
                tys: list[str] = []
                if not self.accept_punct(")"):
                    while True:
                        tys.append(self.value_type())
                        if self.accept_punct(")"):
                            break
                        self.expect_punct(",")
                self.expect_punct("->")
                m.externs.append(ExternDecl(name, tys, self.ret_type()))
            elif t.text == "func":
                m.functions.append(self.function())
            else:
                self.fail(f"expected 'global', 'extern' or 'func', got {t.text!r}")
        return m

    def value_type(self) -> str:
        t = self.expect_ident()
        if t not in VALUE_TYPES:
            self.fail(f"unknown type {t!r}")
        return t

    def ret_type(self) -> str:
        t = self.expect_ident()
        if t not in RET_TYPES:
            self.fail(f"unknown return type {t!r}")
        return t

    def function(self) -> IrFunction:
        self.expect_ident("func")
        self.expect_punct("@")
        mangled = self.expect_ident()
        self.expect_ident("src")
        t = self.next()
        if t.kind != "string":
            raise self.error(t, "expected source name string")
        base = t.text
        self.expect_punct("(")
        params: list[tuple[str, str]] = []
        if not self.accept_punct(")"):
            while True:
                self.expect_punct("%")
                pname = self.expect_ident()
                self.expect_punct(":")
                params.append((pname, self.value_type()))
                if self.accept_punct(")"):
                    break
                self.expect_punct(",")
        self.expect_punct("->")
        rty = self.ret_type()
        self.expect_punct("{")
        blocks = [self.block()]
        while not self.accept_punct("}"):
            blocks.append(self.block())
        return IrFunction(mangled, base, params, rty, blocks)

    # ---- blocks -----------------------------------------------------------

    def block(self) -> BasicBlock:
        role = "real"
        t = self.peek()
        if t.kind == "ident" and t.text in ROLES and t.text != "real":
            nxt = self.peek(1)
            if nxt.kind == "ident":  # role mark followed by the label
                role = self.next().text
        label = self.expect_ident()
        self.expect_punct(":")
        insts = []
        while True:
            t = self.peek()
            if t.kind == "punct" and t.text == "%":
                insts.append(self.instruction())
            elif t.kind == "ident" and t.text == "call":
                insts.append(self.call_inst(None))
            elif t.kind == "ident" and t.text in ("br", "cbr", "switch", "ret"):
                return BasicBlock(label, insts, self.terminator(), role)
            else:
                self.fail("block is missing a terminator")

    def instruction(self):
        self.expect_punct("%")
        dst = self.expect_ident()
        self.expect_punct("=")
        t = self.peek()
        if t.kind == "ident" and t.text in BINOPS:
            op = self.next().text
            a = self.operand()
            self.expect_punct(",")
            return BinOp(dst, op, a, self.operand())
        if t.kind == "ident" and t.text == "cmp":
            self.next()
            rel = self.expect_ident()
            if rel not in CMP_RELS:
                self.fail(f"unknown comparison {rel!r}")
            a = self.operand()
            self.expect_punct(",")
            return Cmp(dst, rel, a, self.operand())
        if t.kind == "ident" and t.text == "call":
            return self.call_inst(dst)
        op = self.operand()
        if isinstance(op, (Local, GlobalRef)):
            return Assign(dst, op)
        return Const(dst, op)

    def call_inst(self, dst: str | None) -> Call:
        self.expect_ident("call")
        self.expect_punct("@")
        callee = self.expect_ident()
        self.expect_punct("(")
        args = []
        if not self.accept_punct(")"):
            while True:
                args.append(self.operand())
                if self.accept_punct(")"):
                    break
                self.expect_punct(",")
        return Call(dst, callee, tuple(args))

    def terminator(self):
        kw = self.expect_ident()
        if kw == "br":
            return Br(self.expect_ident())
        if kw == "cbr":
            self.expect_punct("%")
            cond = self.expect_ident()
            self.expect_punct(",")
            then_l = self.expect_ident()
            self.expect_punct(",")
            return Cbr(cond, then_l, self.expect_ident())
        if kw == "switch":
            self.expect_punct("%")
            scrut = self.expect_ident()
            self.expect_punct("[")
            cases: list[tuple[int, str]] = []
            if not self.accept_punct("]"):
                while True:
                    lit = self.expect_int()
                    self.expect_punct("->")
                    cases.append((lit, self.expect_ident()))
                    if self.accept_punct("]"):
                        break
                    self.expect_punct(",")
            self.expect_ident("default")
            return Switch(scrut, tuple(cases), self.expect_ident())
        if kw == "ret":
            t = self.peek()
            if (t.kind == "punct" and t.text in ("%", "@")) or t.kind == "int" or (
                t.kind == "ident" and t.text in ("true", "false")
            ):
                return Ret(self.operand())
            return Ret(None)
        self.fail(f"expected terminator, got {kw!r}")

    def operand(self):
        t = self.peek()
        if t.kind == "punct" and t.text == "%":
            self.next()
            return Local(self.expect_ident())
        if t.kind == "punct" and t.text == "@":
            self.next()
            return GlobalRef(self.expect_ident())
        if t.kind == "int":
            return self.expect_int()
        if t.kind == "ident" and t.text in ("true", "false"):
            return self.next().text == "true"
        self.fail(f"expected operand, got {t.text!r}")


def parse_module(text: str) -> IrModule:
    """Parse and validate; raises ParseError or ValidationError."""
    module = _Parser(text).module()
    diags = validate(module)
    if diags:
        raise ValidationError(diags)
    return module
