"""Reference interpreter: the semantics oracle for every pass.

Execution is big-step over the block graph with wrapping signed 64-bit
arithmetic. A fuel budget bounds the number of executed instructions and
terminators, so equivalence checks are deterministic and loop-proof.
Registers read before their first assignment hold the zero of their type;
`validate` guarantees every register name that appears is declared.

Modules are compiled once to a flat tuple form (blocks resolved to object
references, globals folded, operands pre-dispatched) and the result is
cached by module identity. The cache needs no invalidation because no
pass edits a module it was given: instructions and terminators are
frozen, and passes edit only blocks they created, returning a new module.
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


class _OutOfFuel(Exception):
    pass


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
_BIN = 2      # (_BIN, dst, fn, af, av, bf, bv)
_CMP = 3      # (_CMP, dst, fn, af, av, bf, bv)
_CALL = 4     # (_CALL, dst, callee_name, [(flag, value), ...])
_PRINT = 5    # (_PRINT, (flag, value))

# terminator tags
_T_BR = 0     # (_T_BR, block)
_T_CBR = 1    # (_T_CBR, cond_name, then_block, else_block)
_T_SW = 2     # (_T_SW, scrut_name, {lit: block}, default_block)
_T_RET = 3    # (_T_RET, None | (flag, value))


class _CompiledBlock:
    __slots__ = ("label", "ops", "term", "cost")

    def __init__(self, label):
        self.label = label
        self.ops = []
        self.term = None
        self.cost = 0


class _CompiledFunction:
    __slots__ = ("name", "params", "entry", "init_env")

    def __init__(self, name, params, entry, init_env):
        self.name = name
        self.params = params  # [(name, is_bool)]
        self.entry = entry
        self.init_env = init_env


def _operand(op, globals_map):
    """Encode an operand as (is_register, payload); globals fold to their
    initializer (they are immutable integers)."""
    if isinstance(op, Local):
        return (True, op.name)
    if isinstance(op, GlobalRef):
        return (False, globals_map[op.name])
    return (False, op)


def _compile_function(fn: IrFunction, module: IrModule,
                      globals_map) -> _CompiledFunction:
    types = infer_local_types(fn, module)
    init_env = {
        name: False if types.get(name) == "bool" else 0
        for name in fn.local_names()
    }
    blocks = {b.label: _CompiledBlock(b.label) for b in fn.blocks}
    for b in fn.blocks:
        cb = blocks[b.label]
        for ins in b.insts:
            if isinstance(ins, BinOp):
                af, av = _operand(ins.a, globals_map)
                bf, bv = _operand(ins.b, globals_map)
                cb.ops.append((_BIN, ins.dst, _OP_FUNCS[ins.op], af, av, bf, bv))
            elif isinstance(ins, Cmp):
                af, av = _operand(ins.a, globals_map)
                bf, bv = _operand(ins.b, globals_map)
                cb.ops.append((_CMP, ins.dst, _REL_FUNCS[ins.rel], af, av, bf, bv))
            elif isinstance(ins, Const):
                cb.ops.append((_SET, ins.dst, ins.value))
            elif isinstance(ins, Assign):
                flag, val = _operand(ins.src, globals_map)
                if flag:
                    cb.ops.append((_COPY, ins.dst, val))
                else:
                    cb.ops.append((_SET, ins.dst, val))
            elif isinstance(ins, Call):
                if ins.callee == "print_int" and module.function("print_int") is None:
                    cb.ops.append((_PRINT, _operand(ins.args[0], globals_map)))
                else:
                    args = [_operand(a, globals_map) for a in ins.args]
                    cb.ops.append((_CALL, ins.dst, ins.callee, args))
            else:
                raise TypeError(f"unknown instruction {ins!r}")
        t = b.term
        if isinstance(t, Br):
            cb.term = (_T_BR, blocks[t.label])
        elif isinstance(t, Cbr):
            cb.term = (_T_CBR, t.cond, blocks[t.then_label], blocks[t.else_label])
        elif isinstance(t, Switch):
            table = {lit: blocks[lab] for lit, lab in t.cases}
            cb.term = (_T_SW, t.scrutinee, table, blocks[t.default])
        elif isinstance(t, Ret):
            cb.term = (_T_RET, None if t.value is None
                       else _operand(t.value, globals_map))
        else:
            raise ValueError(f"block {b.label} has no terminator")
        cb.cost = len(cb.ops) + 1
    params = [(name, ty == "bool") for name, ty in fn.params]
    return _CompiledFunction(fn.mangled_name, params, blocks[fn.entry], init_env)


def _compile_module(module: IrModule) -> dict[str, _CompiledFunction]:
    globals_map = dict(module.globals)
    return {
        fn.mangled_name: _compile_function(fn, module, globals_map)
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

class _Machine:
    def __init__(self, table, fuel: int, block_tracer=None):
        self.table = table
        self.fuel = fuel
        self.output: list[int] = []
        self.block_tracer = block_tracer

    def call(self, cfn: _CompiledFunction, args):
        env = dict(cfn.init_env)
        for (pname, is_bool), arg in zip(cfn.params, args):
            env[pname] = bool(arg) if is_bool else wrap64(int(arg))
        block = cfn.entry
        tracer = self.block_tracer
        fuel = self.fuel
        try:
            while True:
                if tracer is not None:
                    tracer(cfn.name, block.label)
                fuel -= block.cost
                if fuel < 0:
                    # the block does not fit the remaining budget: execute
                    # the ops that still fit one by one, then stop
                    fuel += block.cost
                    for op in block.ops:
                        if fuel == 0:
                            raise _OutOfFuel()
                        fuel -= 1
                        if op[0] == _CALL:
                            self.fuel = fuel
                            self._do_call(op, env)
                            fuel = self.fuel
                        else:
                            self._exec_op(op, env)
                    fuel = 0
                    raise _OutOfFuel()  # the terminator cannot fit
                else:
                    for op in block.ops:
                        tag = op[0]
                        if tag == _BIN:
                            _, dst, fn, af, av, bf, bv = op
                            env[dst] = fn(env[av] if af else av,
                                          env[bv] if bf else bv)
                        elif tag == _SET:
                            env[op[1]] = op[2]
                        elif tag == _COPY:
                            env[op[1]] = env[op[2]]
                        elif tag == _CMP:
                            _, dst, fn, af, av, bf, bv = op
                            env[dst] = fn(env[av] if af else av,
                                          env[bv] if bf else bv)
                        elif tag == _PRINT:
                            flag, val = op[1]
                            self.output.append(int(env[val] if flag else val))
                        else:
                            self.fuel = fuel
                            self._do_call(op, env)
                            fuel = self.fuel

                term = block.term
                tag = term[0]
                if tag == _T_BR:
                    block = term[1]
                elif tag == _T_CBR:
                    block = term[2] if env[term[1]] else term[3]
                elif tag == _T_SW:
                    block = term[2].get(env[term[1]], term[3])
                else:
                    value = term[1]
                    if value is None:
                        return None
                    flag, val = value
                    return env[val] if flag else val
        finally:
            # An exception that crossed a nested call leaves the local
            # counter stale (higher than the callee's write-back); never
            # let fuel increase.
            if 0 <= fuel < self.fuel:
                self.fuel = fuel

    def _exec_op(self, op, env):
        # slow path used only on the final partially-funded block
        tag = op[0]
        if tag == _BIN or tag == _CMP:
            _, dst, fn, af, av, bf, bv = op
            env[dst] = fn(env[av] if af else av, env[bv] if bf else bv)
        elif tag == _SET:
            env[op[1]] = op[2]
        elif tag == _COPY:
            env[op[1]] = env[op[2]]
        elif tag == _PRINT:
            flag, val = op[1]
            self.output.append(int(env[val] if flag else val))

    def _do_call(self, op, env):
        _, dst, callee, arg_enc = op
        args = [env[v] if f else v for f, v in arg_enc]
        cfn = self.table.get(callee)
        if cfn is None:
            raise _Trap(f"unresolved extern @{callee}")
        result = self.call(cfn, args)
        if dst is not None:
            env[dst] = result


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
    machine = _Machine(table, fuel, block_tracer)
    try:
        value = machine.call(table[fn.mangled_name], list(args))
        result = ExecutionResult(RETURNED, value=value)
        result.steps = fuel - machine.fuel
    except _Trap as t:
        result = ExecutionResult(TRAPPED, reason=t.reason)
        result.steps = fuel - max(machine.fuel, 0)
    except _OutOfFuel:
        result = ExecutionResult(FUEL_EXHAUSTED)
        result.steps = fuel
    result.output = machine.output
    return result


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
