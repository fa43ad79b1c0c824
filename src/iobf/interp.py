"""Reference interpreter: the semantics oracle for every pass.

Execution runs over the block graph with wrapping signed 64-bit
arithmetic. Registers read before their first assignment hold the zero of
their type; `validate` guarantees every register name that appears is
declared.

Each function is compiled to a flat tuple form (blocks resolved to object
references) at its first call: `run` compiles the entry, and a call
compiles its callee when the loop first reaches it, so functions that
never run (the decoy overloads of `ident-overload`, code that is dead by
design) are never compiled. A module's table of compiled functions is
cached by module identity and holds the module only weakly, so the entry
goes when the module does. The cache needs no invalidation because every
IR node is frozen, so a module never changes once built.
Compilation splits every block after each call to a defined function, so
the call ends its part of the block and a run of ops never stops midway.

A frame's registers are one list, and every operand is an index into it.
Compilation gives each register a slot, and each literal and folded
global (globals are immutable integers) a slot that the frame starts
with its value in; literals are keyed by type and value, so `true` and
`1` never share one. A binary op is one call of an `operator` function
(or of a small one for the trapping divisions and the masked shifts) on
unbounded ints; the loop keeps a result that is already in the signed
64-bit range and calls `wrap64` only on the rest, which is exactly
`wrap64` for every int and leaves comparison booleans as they are.

One loop executes every function on an explicit frame stack (caller
registers, part to resume, destination slot): an IR call pushes a frame
instead of recursing in Python. More than `MAX_CALL_DEPTH` active frames
trap with "call depth exceeded". Fuel counts every executed instruction
and terminator in execution order, so a run that exhausts a budget of
`fuel` steps has printed exactly what its first `fuel` steps print, and
equivalence checks stay deterministic and loop-proof.
"""

from __future__ import annotations

import operator
import statistics
import time
import weakref
from dataclasses import dataclass, field

from .ir import (
    Assign,
    BinOp,
    Br,
    Call,
    Cbr,
    Cmp,
    Const,
    GlobalRef,
    IrFunction,
    IrModule,
    Local,
    Ret,
    Switch,
    wrap64,
)
from .validate import infer_local_types

DEFAULT_FUEL = 1_000_000
MAX_CALL_DEPTH = 10_000  # active frames, the entry function's included

RETURNED = "returned"
TRAPPED = "trapped"
FUEL_EXHAUSTED = "fuel_exhausted"


@dataclass
class ExecutionResult:
    status: str  # returned | trapped | fuel_exhausted
    value: int | bool | None = None
    reason: str | None = None
    output: list[int] = field(default_factory=list)
    steps: int = 0

    def observable(self) -> tuple:
        """The facets that semantics-preservation compares."""
        return (self.status, self.value, self.reason, tuple(self.output))


class EntryError(ValueError):
    """Entry function could not be resolved (unknown name or arity)."""


class _Trap(Exception):
    def __init__(self, reason: str):
        self.reason = reason


def resolve_entry(m: IrModule, base_name: str, arity: int) -> IrFunction:
    """Find the unique function with this source base name and arity.

    Resolution goes through recorded source names, not mangled symbols, so
    a renamed module still accepts the original entry name.
    """
    matches = [
        f for f in m.functions
        if f.base_name == base_name and len(f.params) == arity
    ]
    if not matches:
        raise EntryError(f"no function named {base_name!r} taking {arity} args")
    if len(matches) > 1:
        raise EntryError(f"{base_name!r}/{arity} is ambiguous "
                         f"({len(matches)} candidates)")
    return matches[0]


# ---------------------------------------------------------------------------
# Compilation to tuple form

def _sdiv(a, b):
    if b == 0:
        raise _Trap("sdiv by zero")
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _srem(a, b):
    if b == 0:
        raise _Trap("srem by zero")
    r = abs(a) % abs(b)
    return -r if a < 0 else r


def _shl(a, b):
    return a << (b & 63)


def _shr(a, b):
    return a >> (b & 63)  # arithmetic: Python >> keeps the sign


# binary ops and comparisons over unbounded ints; the loop wraps results
_FUNCS = {
    "add": operator.add, "sub": operator.sub, "mul": operator.mul,
    "sdiv": _sdiv, "srem": _srem, "and": operator.and_, "or": operator.or_,
    "xor": operator.xor, "shl": _shl, "shr": _shr,
    "eq": operator.eq, "ne": operator.ne, "lt": operator.lt,
    "le": operator.le, "gt": operator.gt, "ge": operator.ge,
}

# op tags; every operand and destination is a slot of the frame's list
_BIN = 0      # (_BIN, dst, fn, a, b)          binary op or comparison
_COPY = 1     # (_COPY, dst, src)              constant store or copy
_PRINT = 2    # (_PRINT, src)

# terminator tags
_T_BR = 0     # (_T_BR, part)
_T_CBR = 1    # (_T_CBR, cond, then_part, else_part)
_T_SW = 2     # (_T_SW, scrutinee, {lit: part}, default_part)
_T_CALL = 3   # (_T_CALL, callee_name, (arg, ...), dst | None, next_part)
_T_RET = 4    # (_T_RET, None | value)
_T_STOP = 5   # (_T_STOP,) stands in for the terminator that fuel cannot reach

_STOP = (_T_STOP,)


class _Part:
    """A run of ops that ends in a terminator or a call: blocks are split
    after every call, so a call always ends its part."""

    __slots__ = ("trace", "ops", "term", "cost")

    def __init__(self, trace):
        self.trace = trace  # (function, label) for block_tracer; None after a call
        self.ops = []
        self.term = None
        self.cost = 0

    def end(self, term):
        self.term = term
        self.cost = len(self.ops) + 1


class _CompiledFunction:
    __slots__ = ("params", "entry", "init_env")

    def __init__(self, params, entry, init_env):
        self.params = params  # [(slot, is_bool)]
        self.entry = entry
        self.init_env = init_env  # registers at their type's zero, literals

    def frame_env(self, args):
        env = self.init_env.copy()
        for (slot, is_bool), arg in zip(self.params, args):
            env[slot] = bool(arg) if is_bool else wrap64(int(arg))
        return env


class _Slots(dict):
    """Register name, or (type, value) of a literal, -> slot in the frame's
    list. A key gets the next slot when first looked up; `init` holds each
    slot's start value: a register's type's zero, a literal's value."""

    def __init__(self, types):
        super().__init__()
        self.types = types
        self.init = []

    def __missing__(self, key):
        index = self[key] = len(self.init)
        if isinstance(key, str):
            self.init.append(False if self.types.get(key) == "bool" else 0)
        else:
            self.init.append(key[1])
        return index


def _compile_function(fn: IrFunction, module: IrModule, globals_map,
                      builtin_print: bool) -> _CompiledFunction:
    slots = _Slots(infer_local_types(fn, module))

    def operand(op):
        if isinstance(op, Local):
            return slots[op.name]
        if isinstance(op, GlobalRef):
            op = globals_map[op.name]  # globals are immutable integers
        return slots[type(op), op]  # `true` and `1` stay apart

    params = [(slots[name], ty == "bool") for name, ty in fn.params]
    parts = {b.label: _Part((fn.mangled_name, b.label)) for b in fn.blocks}
    for b in fn.blocks:
        part = parts[b.label]
        for ins in b.insts:
            if isinstance(ins, BinOp):
                part.ops.append((_BIN, slots[ins.dst], _FUNCS[ins.op],
                                 operand(ins.a), operand(ins.b)))
            elif isinstance(ins, Cmp):
                part.ops.append((_BIN, slots[ins.dst], _FUNCS[ins.rel],
                                 operand(ins.a), operand(ins.b)))
            elif isinstance(ins, Const):
                part.ops.append((_COPY, slots[ins.dst], operand(ins.value)))
            elif isinstance(ins, Assign):
                part.ops.append((_COPY, slots[ins.dst], operand(ins.src)))
            elif isinstance(ins, Call):
                if ins.callee == "print_int" and builtin_print:
                    part.ops.append((_PRINT, operand(ins.args[0])))
                else:
                    args = tuple(operand(a) for a in ins.args)
                    dst = None if ins.dst is None else slots[ins.dst]
                    rest = _Part(None)
                    part.end((_T_CALL, ins.callee, args, dst, rest))
                    part = rest
            else:
                raise TypeError(f"unknown instruction {ins!r}")
        t = b.term
        if isinstance(t, Br):
            part.end((_T_BR, parts[t.label]))
        elif isinstance(t, Cbr):
            part.end((_T_CBR, slots[t.cond], parts[t.then_label],
                      parts[t.else_label]))
        elif isinstance(t, Switch):
            table = {lit: parts[lab] for lit, lab in t.cases}
            part.end((_T_SW, slots[t.scrutinee], table, parts[t.default]))
        elif isinstance(t, Ret):
            part.end((_T_RET, None if t.value is None else operand(t.value)))
        else:
            raise ValueError(f"block {b.label} has no terminator")
    return _CompiledFunction(params, parts[fn.entry], slots.init)


class _Table(dict):
    """Mangled name -> _CompiledFunction, compiled at its first lookup; a
    name the module does not define traps as an unresolved extern. The
    module is held weakly, and its death drops the table from the cache;
    lookups happen only while `run` holds the module."""

    def __init__(self, module: IrModule):
        super().__init__()
        key = id(module)
        self.module = weakref.ref(
            module, lambda _ref: _module_cache.pop(key, None))
        self.functions = {fn.mangled_name: fn for fn in module.functions}
        self.globals_map = dict(module.globals)
        self.builtin_print = "print_int" not in self.functions

    def __missing__(self, name):
        fn = self.functions.get(name)
        if fn is None:
            raise _Trap(f"unresolved extern @{name}")
        cfn = self[name] = _compile_function(fn, self.module(), self.globals_map,
                                             self.builtin_print)
        return cfn


_module_cache: dict[int, _Table] = {}


def _compiled(module: IrModule) -> _Table:
    table = _module_cache.get(id(module))
    if table is None or table.module() is not module:
        table = _module_cache[id(module)] = _Table(module)
    return table


# ---------------------------------------------------------------------------
# Execution

def _execute(table, cfn: _CompiledFunction, args, fuel: int,
             tracer) -> ExecutionResult:
    budget = fuel
    output: list[int] = []
    frames = []  # (caller env, part to resume, dst slot)
    env = cfn.frame_env(args)
    part = cfn.entry
    try:
        while True:
            if tracer is not None and part.trace is not None:
                tracer(*part.trace)
            ops = part.ops
            fuel -= part.cost
            if fuel < 0:
                # run the ops that still fit, then stop
                ops = ops[:fuel + part.cost]
                term = _STOP
            else:
                term = part.term
            for op in ops:
                tag = op[0]
                if tag == _BIN:
                    _, dst, fn, a, b = op
                    r = fn(env[a], env[b])
                    # exactly wrap64(r); comparison booleans pass unchanged
                    env[dst] = r if -2**63 <= r < 2**63 else wrap64(r)
                elif tag == _COPY:
                    env[op[1]] = env[op[2]]
                else:
                    output.append(int(env[op[1]]))

            tag = term[0]
            if tag == _T_BR:
                part = term[1]
            elif tag == _T_CBR:
                part = term[2] if env[term[1]] else term[3]
            elif tag == _T_SW:
                part = term[2].get(env[term[1]], term[3])
            elif tag == _T_CALL:
                _, callee, arg_slots, dst, rest = term
                callee_fn = table[callee]  # compiles at the first call
                if len(frames) + 1 >= MAX_CALL_DEPTH:
                    raise _Trap("call depth exceeded")
                frames.append((env, rest, dst))
                env = callee_fn.frame_env([env[a] for a in arg_slots])
                part = callee_fn.entry
            elif tag == _T_RET:
                value = term[1]
                if value is not None:
                    value = env[value]
                if not frames:
                    return ExecutionResult(RETURNED, value=value, output=output,
                                           steps=budget - fuel)
                env, part, dst = frames.pop()
                if dst is not None:
                    env[dst] = value
            else:
                return ExecutionResult(FUEL_EXHAUSTED, output=output,
                                       steps=budget)
    except _Trap as t:
        # a trap charges the whole part it happened in, within the budget
        return ExecutionResult(TRAPPED, reason=t.reason, output=output,
                               steps=budget - max(fuel, 0))


def run(
    m: IrModule,
    entry_fn: str,
    args: list[int],
    fuel: int = DEFAULT_FUEL,
    block_tracer=None,
) -> ExecutionResult:
    """Execute `entry_fn` (a source base name) on integer arguments.

    Pure in (module, entry, args, fuel): the result is always the same.
    `block_tracer`, if given, is called as tracer(mangled_name, label) on
    every block entry; it exists for never-executes checks in tests.

    Only functions that are called get compiled, so a malformed function
    (one that `validate` rejects, e.g. a block without a terminator) raises
    only when this run calls it; one that is never called goes unnoticed.
    """
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    fn = resolve_entry(m, entry_fn, len(args))
    table = _compiled(m)
    return _execute(table, table[fn.mangled_name], args, fuel, block_tracer)


def timed_run(
    m: IrModule,
    entry_fn: str,
    args: list[int],
    repetitions: int,
    fuel: int = DEFAULT_FUEL,
) -> float:
    """Median wall-clock seconds per run over `repetitions` executions.

    Advisory only: used by the overhead report, never for correctness.
    """
    if repetitions < 3:
        raise ValueError("repetitions must be at least 3")
    samples = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        run(m, entry_fn, args, fuel)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)
