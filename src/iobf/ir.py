"""Core IR data model.

A module holds integer globals, extern declarations, and
functions. Functions hold ordered basic blocks over named mutable
registers (non-SSA: reassignment is permitted). Values are signed 64-bit
integers with wrapping arithmetic, plus booleans produced by comparisons.

Every node is frozen and every sequence in one is a tuple. Nodes are
shared between modules, a pass cannot change the module it was given (it
builds new blocks with `dataclasses.replace` and returns a new function
or module), and the interpreter's per-module compile cache needs no
invalidation.

This file owns the in-memory types, canonical text printing and the
simulated name-mangling scheme. Parsing lives in `parser`, semantic
checking in `validate`.
"""

from __future__ import annotations

from dataclasses import dataclass

INT_BITS = 64
INT_MASK = (1 << INT_BITS) - 1
INT_MIN = -(1 << (INT_BITS - 1))
INT_MAX = (1 << (INT_BITS - 1)) - 1

BINOPS = ("add", "sub", "mul", "sdiv", "srem", "and", "or", "xor", "shl", "shr")
CMP_RELS = ("eq", "ne", "lt", "le", "gt", "ge")
VALUE_TYPES = ("int", "bool")
RET_TYPES = ("int", "bool", "void")
ROLES = ("real", "bogus", "dispatcher")


def wrap64(value: int) -> int:
    """Reduce an unbounded integer to signed 64-bit two's complement."""
    return ((value + (1 << 63)) & INT_MASK) - (1 << 63)


# ---------------------------------------------------------------------------
# Operands

@dataclass(frozen=True)
class Local:
    name: str


@dataclass(frozen=True)
class GlobalRef:
    name: str


# An operand is a Local, a GlobalRef, or a literal (bool before int: bool is
# a subclass of int in Python, so isinstance checks must test bool first).
Operand = Local | GlobalRef | int | bool


def operand_type(op: Operand) -> str | None:
    """Static type of a literal operand; None for names (resolved later)."""
    if isinstance(op, bool):
        return "bool"
    if isinstance(op, int):
        return "int"
    return None


# ---------------------------------------------------------------------------
# Instructions

@dataclass(frozen=True)
class Const:
    dst: str
    value: int | bool


@dataclass(frozen=True)
class BinOp:
    dst: str
    op: str
    a: Operand
    b: Operand


@dataclass(frozen=True)
class Cmp:
    dst: str
    rel: str
    a: Operand
    b: Operand


@dataclass(frozen=True)
class Assign:
    dst: str
    src: Operand


@dataclass(frozen=True)
class Call:
    dst: str | None
    callee: str
    args: tuple[Operand, ...]


Instruction = Const | BinOp | Cmp | Assign | Call


# ---------------------------------------------------------------------------
# Terminators

@dataclass(frozen=True)
class Br:
    label: str


@dataclass(frozen=True)
class Cbr:
    cond: str
    then_label: str
    else_label: str


@dataclass(frozen=True)
class Switch:
    scrutinee: str
    cases: tuple[tuple[int, str], ...]
    default: str


@dataclass(frozen=True)
class Ret:
    value: Operand | None = None


Terminator = Br | Cbr | Switch | Ret


def targets(term: Terminator) -> tuple[str, ...]:
    """The labels a terminator branches to, in printed order (switch cases,
    then the default); parallel edges repeat and `ret` has none."""
    if isinstance(term, Br):
        return (term.label,)
    if isinstance(term, Cbr):
        return (term.then_label, term.else_label)
    if isinstance(term, Switch):
        return tuple(lab for _, lab in term.cases) + (term.default,)
    return ()


def retarget(term: Terminator, mapping: dict[str, str]) -> Terminator:
    """The terminator with every edge to a key of `mapping` redirected to
    its value; `term` itself when it names no key."""
    if not any(lab in mapping for lab in targets(term)):
        return term

    def new(lab: str) -> str:
        return mapping.get(lab, lab)

    if isinstance(term, Br):
        return Br(new(term.label))
    if isinstance(term, Cbr):
        return Cbr(term.cond, new(term.then_label), new(term.else_label))
    return Switch(term.scrutinee,
                  tuple((lit, new(lab)) for lit, lab in term.cases),
                  new(term.default))


# ---------------------------------------------------------------------------
# Blocks, functions, modules

@dataclass(frozen=True)
class BasicBlock:
    label: str
    insts: tuple[Instruction, ...] = ()
    term: Terminator | None = None
    role: str = "real"


@dataclass(frozen=True)
class ExternDecl:
    name: str
    param_types: tuple[str, ...]
    ret_type: str


@dataclass(frozen=True)
class IrFunction:
    mangled_name: str
    base_name: str
    params: tuple[tuple[str, str], ...]  # (name, type)
    ret_type: str
    blocks: tuple[BasicBlock, ...]

    @property
    def entry(self) -> str:
        return self.blocks[0].label if self.blocks else ""

    def labels(self) -> list[str]:
        return [b.label for b in self.blocks]

    def local_names(self) -> set[str]:
        """All register names: parameters plus every assignment target."""
        names = {name for name, _ in self.params}
        for b in self.blocks:
            for ins in b.insts:
                if not isinstance(ins, Call) or ins.dst is not None:
                    names.add(ins.dst)
        return names


@dataclass(frozen=True)
class IrModule:
    functions: tuple[IrFunction, ...] = ()
    globals: tuple[tuple[str, int], ...] = ()
    externs: tuple[ExternDecl, ...] = ()

    def function(self, mangled: str) -> IrFunction | None:
        for f in self.functions:
            if f.mangled_name == mangled:
                return f
        return None

    def extern(self, name: str) -> ExternDecl | None:
        for e in self.externs:
            if e.name == name:
                return e
        return None

    def global_value(self, name: str) -> int | None:
        for gname, value in self.globals:
            if gname == name:
                return value
        return None

    def all_names(self) -> set[str]:
        """Every `@`-namespace name: functions, externs, globals."""
        names = {f.mangled_name for f in self.functions}
        names.update(e.name for e in self.externs)
        names.update(g for g, _ in self.globals)
        return names


class NameAllocator:
    """Deterministic fresh-name source over a set of taken names: `base`,
    else `base` plus the least positive suffix whose name is free."""

    def __init__(self, taken):
        self._taken = set(taken)
        self._next: dict[str, int] = {}  # base -> first suffix to probe

    def fresh(self, base: str) -> str:
        # names only join the taken set, so the suffixes below the last
        # one handed out for `base` stay taken and need no second probe
        name = base
        if name in self._taken:
            i = self._next.get(base, 1)
            while (name := f"{base}{i}") in self._taken:
                i += 1
            self._next[base] = i + 1
        self._taken.add(name)
        return name


# ---------------------------------------------------------------------------
# Name mangling (simulated scheme: prefix, base-name length, base name, one
# code letter per parameter: i = int, b = bool)

MANGLE_PREFIX = "_O"
TYPE_CODES = {"int": "i", "bool": "b"}


def mangle(base_name: str, param_types: list[str]) -> str:
    codes = "".join(TYPE_CODES[t] for t in param_types)
    return f"{MANGLE_PREFIX}{len(base_name)}{base_name}{codes}"


# ---------------------------------------------------------------------------
# Canonical printing

def _operand_str(op: Operand) -> str:
    if isinstance(op, Local):
        return f"%{op.name}"
    if isinstance(op, GlobalRef):
        return f"@{op.name}"
    if isinstance(op, bool):
        return "true" if op else "false"
    return str(op)


def _inst_str(ins: Instruction) -> str:
    if isinstance(ins, Const):
        return f"%{ins.dst} = {_operand_str(ins.value)}"
    if isinstance(ins, BinOp):
        return f"%{ins.dst} = {ins.op} {_operand_str(ins.a)}, {_operand_str(ins.b)}"
    if isinstance(ins, Cmp):
        return f"%{ins.dst} = cmp {ins.rel} {_operand_str(ins.a)}, {_operand_str(ins.b)}"
    if isinstance(ins, Assign):
        return f"%{ins.dst} = {_operand_str(ins.src)}"
    if isinstance(ins, Call):
        args = ", ".join(_operand_str(a) for a in ins.args)
        call = f"call @{ins.callee}({args})"
        return f"%{ins.dst} = {call}" if ins.dst is not None else call
    raise TypeError(f"not an instruction: {ins!r}")


def _term_str(term: Terminator) -> str:
    if isinstance(term, Br):
        return f"br {term.label}"
    if isinstance(term, Cbr):
        return f"cbr %{term.cond}, {term.then_label}, {term.else_label}"
    if isinstance(term, Switch):
        cases = ", ".join(f"{lit} -> {lab}" for lit, lab in term.cases)
        return f"switch %{term.scrutinee} [{cases}] default {term.default}"
    if isinstance(term, Ret):
        return "ret" if term.value is None else f"ret {_operand_str(term.value)}"
    raise TypeError(f"not a terminator: {term!r}")


def _escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def print_function(fn: IrFunction) -> str:
    params = ", ".join(f"%{name}: {ty}" for name, ty in fn.params)
    lines = [
        f'func @{fn.mangled_name} src "{_escape(fn.base_name)}" ({params}) -> {fn.ret_type} {{'
    ]
    for b in fn.blocks:
        mark = "" if b.role == "real" else f"{b.role} "
        lines.append(f"{mark}{b.label}:")
        for ins in b.insts:
            lines.append(f"  {_inst_str(ins)}")
        if b.term is not None:
            lines.append(f"  {_term_str(b.term)}")
    lines.append("}")
    return "\n".join(lines)


def print_module(m: IrModule) -> str:
    """Canonical text for a module.

    Deterministic: globals, then externs, then functions, each in declared
    order. `parse_module(print_module(m))` is structurally equal to `m`.
    """
    parts: list[str] = []
    for name, value in m.globals:
        parts.append(f"global @{name} = {value}")
    for e in m.externs:
        tys = ", ".join(e.param_types)
        parts.append(f"extern @{e.name}({tys}) -> {e.ret_type}")
    for fn in m.functions:
        parts.append(print_function(fn))
    return "\n\n".join(parts) + "\n"


def instruction_count(m: IrModule) -> int:
    """Total instructions plus terminators across the module."""
    n = 0
    for fn in m.functions:
        for b in fn.blocks:
            n += len(b.insts) + (1 if b.term is not None else 0)
    return n
