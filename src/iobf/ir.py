"""Core IR data model.

A module holds integer globals, extern declarations, and
functions. Functions hold ordered basic blocks over named mutable
registers (non-SSA: reassignment is permitted). Values are signed 64-bit
integers with wrapping arithmetic, plus booleans produced by comparisons.

Every node is a frozen dataclass with slots, built through its slots
(`_node`), and every sequence in one is a tuple. Nodes are shared between
modules and within one (the parser builds a repeated statement once per
module), a pass cannot change the module it was given (it builds new
nodes, directly or by `dataclasses.replace`, and returns a new function
or module), and the interpreter's per-module compile cache needs no
invalidation.

This file owns the in-memory types, canonical text printing and the
simulated name-mangling scheme. Parsing lives in `parser`, semantic
checking in `validate`.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, fields

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


def _frozen(self, name, *value):
    # dataclass's own test the class that slots=True rebuilt (a TypeError)
    raise FrozenInstanceError(
        f"cannot {'assign to' if value else 'delete'} field {name!r}")


def _node(cls=None, /, **kw):
    """`dataclass(frozen=True, slots=True, **kw)` whose `__init__` (same
    signature) sets each field by its slot, not by `object.__setattr__`."""
    def wrap(cls):
        cls = dataclass(cls, frozen=True, slots=True, **kw)
        names = [f.name for f in fields(cls)]
        ns, old = {}, cls.__init__
        exec(f"def make({', '.join('set_' + n for n in names)}):\n"
             f" def __init__(self, {', '.join(names)}):\n"
             + "".join(f"  set_{n}(self, {n})\n" for n in names)
             + " return __init__", globals(), ns)
        cls.__init__ = init = ns["make"](*(getattr(cls, n).__set__ for n in names))
        init.__defaults__, init.__annotations__ = old.__defaults__, old.__annotations__
        cls.__setattr__ = cls.__delattr__ = _frozen
        return cls
    return wrap if cls is None else wrap(cls)


# ---------------------------------------------------------------------------
# Operands

@_node
class Local:
    name: str


@_node
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

@_node
class BinOp:
    dst: str
    op: str
    a: Operand
    b: Operand


@_node
class Cmp:
    dst: str
    rel: str
    a: Operand
    b: Operand


@_node
class Assign:
    """`%dst = src`: a copy of a register or global, or a literal store."""
    dst: str
    src: Operand


@_node
class Call:
    dst: str | None
    callee: str
    args: tuple[Operand, ...]


Instruction = BinOp | Cmp | Assign | Call


# ---------------------------------------------------------------------------
# Terminators

@_node
class Br:
    label: str


@_node
class Cbr:
    cond: str
    then_label: str
    else_label: str


@_node
class Switch:
    scrutinee: str
    cases: tuple[tuple[int, str], ...]
    default: str


@_node
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


def switch_mask(b: BasicBlock) -> int | None:
    """`c` when `b` ends in a masked switch: a switch on a register that `b`
    last writes (no later write, a call's result included) as `and v, c` or
    `and c, v` with an int literal `c >= 0`, the smaller if both are. The
    register then holds `x & c`, in [0, c], so no case outside [0, c] is
    ever taken; `indeg` and the interpreter's compile rely on this."""
    if type(b.term) is Switch:
        for ins in reversed(b.insts):
            if ins.dst == b.term.scrutinee:
                if type(ins) is not BinOp or ins.op != "and":
                    return None
                return min((c for c in (ins.a, ins.b) if type(c) is int and c >= 0),
                           default=None)
    return None


# ---------------------------------------------------------------------------
# Blocks, functions, modules

@_node
class BasicBlock:
    label: str
    insts: tuple[Instruction, ...] = ()
    term: Terminator | None = None
    role: str = "real"


@_node
class ExternDecl:
    name: str
    param_types: tuple[str, ...]
    ret_type: str


@_node
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


@_node(weakref_slot=True)
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


def print_module(m: IrModule) -> str:
    """Canonical text for a module.

    Deterministic: globals, then externs, then functions, each in declared
    order. `parse_module(print_module(m))` is structurally equal to `m`.
    An instruction object that stands in several places (the parser shares
    repeated statements, passes share the unchanged instructions of cloned
    blocks) is printed once: its line is kept by `id()`, which no other
    object takes while `m` holds them all.
    """
    parts = [f"global @{name} = {value}" for name, value in m.globals]
    for e in m.externs:
        tys = ", ".join(e.param_types)
        parts.append(f"extern @{e.name}({tys}) -> {e.ret_type}")
    printed: dict[int, str] = {}  # id of an instruction -> its line
    for fn in m.functions:
        params = ", ".join(f"%{name}: {ty}" for name, ty in fn.params)
        lines = [f'func @{fn.mangled_name} src "{_escape(fn.base_name)}" '
                 f'({params}) -> {fn.ret_type} {{']
        for b in fn.blocks:
            mark = "" if b.role == "real" else f"{b.role} "
            lines.append(f"{mark}{b.label}:")
            for ins in b.insts:
                if (line := printed.get(id(ins))) is None:
                    line = printed[id(ins)] = f"  {_inst_str(ins)}"
                lines.append(line)
            if b.term is not None:
                lines.append(f"  {_term_str(b.term)}")
        lines.append("}")
        parts.append("\n".join(lines))
    return "\n\n".join(parts) + "\n"


def instruction_count(m: IrModule) -> int:
    """Total instructions plus terminators across the module."""
    n = 0
    for fn in m.functions:
        for b in fn.blocks:
            n += len(b.insts) + (1 if b.term is not None else 0)
    return n
