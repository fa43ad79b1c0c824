"""Reference interpreter: the semantics oracle for every pass.

Execution runs over the block graph with wrapping signed 64-bit
arithmetic. Registers read before their first assignment hold the zero of
their type; `validate` guarantees every register name that appears is
declared.

Modules are compiled once to a flat tuple form (blocks resolved to object
references, globals folded, operands pre-dispatched) and the result is
cached by module identity. The cache needs no invalidation because no
pass edits a module it was given: instructions and terminators are
frozen, and passes edit only blocks they created, returning a new module.
Compilation splits every block after each call to a defined function, so
the call ends its part of the block and a run of ops never stops midway.

One loop executes every function on an explicit frame stack (caller
env, part to resume, destination register): an IR call pushes a frame
instead of recursing in Python. More than `MAX_CALL_DEPTH` active frames
trap with "call depth exceeded". Fuel counts every executed instruction
and terminator in execution order, so a run that exhausts a budget of
`fuel` steps has printed exactly what its first `fuel` steps print, and
equivalence checks stay deterministic and loop-proof.
"""

from __future__ import annotations

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

def _op_add(a, b):
    return wrap64(a + b)


def _op_sub(a, b):
    return wrap64(a - b)


def _op_mul(a, b):
    return wrap64(a * b)


def _op_sdiv(a, b):
    if b == 0:
        raise _Trap("sdiv by zero")
    q = abs(a) // abs(b)
    return wrap64(-q if (a < 0) != (b < 0) else q)


def _op_srem(a, b):
    if b == 0:
        raise _Trap("srem by zero")
    r = abs(a) % abs(b)
    return wrap64(-r if a < 0 else r)


def _op_and(a, b):
    return wrap64(a & b)


def _op_or(a, b):
    return wrap64(a | b)


def _op_xor(a, b):
    return wrap64(a ^ b)


def _op_shl(a, b):
    return wrap64(a << (b & 63))


def _op_shr(a, b):
    return a >> (b & 63)  # arithmetic: Python >> keeps the sign


_OP_FUNCS = {
    "add": _op_add, "sub": _op_sub, "mul": _op_mul, "sdiv": _op_sdiv,
    "srem": _op_srem, "and": _op_and, "or": _op_or, "xor": _op_xor,
    "shl": _op_shl, "shr": _op_shr,
}

_REL_FUNCS = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
}

# op tags
_SET = 0      # (_SET, dst, value)            constant store
_COPY = 1     # (_COPY, dst, src_name)        register copy
_BIN = 2      # (_BIN, dst, fn, af, av, bf, bv)   binary op or comparison
_PRINT = 3    # (_PRINT, (flag, value))

# terminator tags
_T_BR = 0     # (_T_BR, part)
_T_CBR = 1    # (_T_CBR, cond_name, then_part, else_part)
_T_SW = 2     # (_T_SW, scrut_name, {lit: part}, default_part)
_T_CALL = 3   # (_T_CALL, callee_name, ((flag, value), ...), dst, next_part)
_T_RET = 4    # (_T_RET, None | (flag, value))
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
        self.params = params  # [(name, is_bool)]
        self.entry = entry
        self.init_env = init_env

    def frame_env(self, args):
        env = dict(self.init_env)
        for (pname, is_bool), arg in zip(self.params, args):
            env[pname] = bool(arg) if is_bool else wrap64(int(arg))
        return env


def _operand(op, globals_map):
    """Encode an operand as (is_register, payload); globals fold to their
    initializer (they are immutable integers)."""
    if isinstance(op, Local):
        return (True, op.name)
    if isinstance(op, GlobalRef):
        return (False, globals_map[op.name])
    return (False, op)


def _compile_function(fn: IrFunction, module: IrModule, globals_map,
                      builtin_print: bool) -> _CompiledFunction:
    types = infer_local_types(fn, module)
    init_env = {
        name: False if types.get(name) == "bool" else 0
        for name in fn.local_names()
    }
    parts = {b.label: _Part((fn.mangled_name, b.label)) for b in fn.blocks}
    for b in fn.blocks:
        part = parts[b.label]
        for ins in b.insts:
            if isinstance(ins, BinOp):
                af, av = _operand(ins.a, globals_map)
                bf, bv = _operand(ins.b, globals_map)
                part.ops.append((_BIN, ins.dst, _OP_FUNCS[ins.op], af, av, bf, bv))
            elif isinstance(ins, Cmp):
                af, av = _operand(ins.a, globals_map)
                bf, bv = _operand(ins.b, globals_map)
                part.ops.append((_BIN, ins.dst, _REL_FUNCS[ins.rel], af, av, bf, bv))
            elif isinstance(ins, Const):
                part.ops.append((_SET, ins.dst, ins.value))
            elif isinstance(ins, Assign):
                flag, val = _operand(ins.src, globals_map)
                part.ops.append((_COPY, ins.dst, val) if flag
                                else (_SET, ins.dst, val))
            elif isinstance(ins, Call):
                if ins.callee == "print_int" and builtin_print:
                    part.ops.append((_PRINT, _operand(ins.args[0], globals_map)))
                else:
                    args = tuple(_operand(a, globals_map) for a in ins.args)
                    rest = _Part(None)
                    part.end((_T_CALL, ins.callee, args, ins.dst, rest))
                    part = rest
            else:
                raise TypeError(f"unknown instruction {ins!r}")
        t = b.term
        if isinstance(t, Br):
            part.end((_T_BR, parts[t.label]))
        elif isinstance(t, Cbr):
            part.end((_T_CBR, t.cond, parts[t.then_label], parts[t.else_label]))
        elif isinstance(t, Switch):
            table = {lit: parts[lab] for lit, lab in t.cases}
            part.end((_T_SW, t.scrutinee, table, parts[t.default]))
        elif isinstance(t, Ret):
            part.end((_T_RET, None if t.value is None
                      else _operand(t.value, globals_map)))
        else:
            raise ValueError(f"block {b.label} has no terminator")
    params = [(name, ty == "bool") for name, ty in fn.params]
    return _CompiledFunction(params, parts[fn.entry], init_env)


def _compile_module(module: IrModule) -> dict[str, _CompiledFunction]:
    globals_map = dict(module.globals)
    builtin_print = module.function("print_int") is None
    return {
        fn.mangled_name: _compile_function(fn, module, globals_map,
                                           builtin_print)
        for fn in module.functions
    }


_module_cache: dict[int, tuple] = {}


def _compiled(module: IrModule) -> dict[str, _CompiledFunction]:
    key = id(module)
    hit = _module_cache.get(key)
    if hit is not None and hit[0]() is module:
        return hit[1]
    table = _compile_module(module)

    def _drop(_ref, _key=key):
        _module_cache.pop(_key, None)

    _module_cache[key] = (weakref.ref(module, _drop), table)
    return table


# ---------------------------------------------------------------------------
# Execution

def _execute(table, cfn: _CompiledFunction, args, fuel: int,
             tracer) -> ExecutionResult:
    budget = fuel
    output: list[int] = []
    frames = []  # (caller env, part to resume, dst register)
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
                    _, dst, fn, af, av, bf, bv = op
                    env[dst] = fn(env[av] if af else av,
                                  env[bv] if bf else bv)
                elif tag == _SET:
                    env[op[1]] = op[2]
                elif tag == _COPY:
                    env[op[1]] = env[op[2]]
                else:
                    flag, val = op[1]
                    output.append(int(env[val] if flag else val))

            tag = term[0]
            if tag == _T_BR:
                part = term[1]
            elif tag == _T_CBR:
                part = term[2] if env[term[1]] else term[3]
            elif tag == _T_SW:
                part = term[2].get(env[term[1]], term[3])
            elif tag == _T_CALL:
                _, callee, arg_enc, dst, rest = term
                callee_fn = table.get(callee)
                if callee_fn is None:
                    raise _Trap(f"unresolved extern @{callee}")
                if len(frames) + 1 >= MAX_CALL_DEPTH:
                    raise _Trap("call depth exceeded")
                frames.append((env, rest, dst))
                env = callee_fn.frame_env(
                    [env[v] if f else v for f, v in arg_enc])
                part = callee_fn.entry
            elif tag == _T_RET:
                value = term[1]
                if value is not None:
                    flag, val = value
                    value = env[val] if flag else val
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
