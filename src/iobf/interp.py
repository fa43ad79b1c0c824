"""Reference interpreter: the semantics oracle for every pass.

Execution runs over the block graph with wrapping signed 64-bit
arithmetic. A register starts at 0, which every bool context reads as
false; `run` returns a bool function's value as a bool. `validate`
guarantees every register name that appears is declared.

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
A block marked `bogus` (the passes' decoys, which never run) is compiled
at its first entry instead: at the function's first call it gets a guard,
a part with no ops, no cost and no trace, and every edge into the block
leads to the guard. The driver builds the block when it first takes the
guard's terminator, and from then on goes from the guard to the block's
part. So the decoys of an obfuscated function are never compiled, and
the mark is only a hint: a marked block that runs gives the same results
and steps as unmarked.
A masked switch (`ir.switch_mask`, which states the rule) with no case in
[0, c] compiles to a br to its default: both cost one step, its `and`
still runs, and a `block_tracer` sees the same blocks.

A frame's registers are one list, and every operand is an index into it.
Compilation gives each parameter the slot of its position, each other
register a slot that the frame starts at 0 (a bool context reads it as
false), and each literal and folded global (globals are immutable
integers) a slot that the frame starts with its value in; literals are
keyed by type and value, so `true` and `1` never share one.
A decoy's registers and literals that no other block uses get their
slots when it is built, after all the others, so a frame made before
may be too short for them. The guard is the one place a frame grows: it
extends the frame's list to the function's slots, and a decoy's ops are
reached only through its guard, in the same frame.
A binary op is one call of an `operator` function (or of a small one for
the trapping divisions and the masked shifts) on unbounded ints; the loop
keeps a result that is already in the signed 64-bit range and calls
`wrap64` only on the rest, which is exactly `wrap64` for every int and
leaves comparison booleans as they are.

The driver, `_drive`, runs frames on an explicit frame stack (caller
registers, part to resume, destination slot): in the tuple tier an IR
call pushes a frame instead of recursing in Python. More than
`MAX_CALL_DEPTH` active frames trap with "call depth exceeded". A call
copies its argument values into the callee's new frame: in a module
`validate` accepts, every argument has its parameter's type, and every
int a frame holds is already in the signed 64-bit range (the parser wraps
literals, `validate` rejects out-of-range literals and globals, ops wrap).
Only `run`'s entry arguments, which come from outside, are checked to be
ints or bools, converted and wrapped. Fuel counts every executed
instruction and terminator in execution order, so a run that exhausts a
budget of `fuel` steps has printed exactly what its first `fuel` steps
print, and equivalence checks stay deterministic and loop-proof.

Parts run in one of two tiers. Every module starts in the tuple tier
above. The module's table counts the steps of its runs. Once they reach
FUSE_AFTER_STEPS (a constant, not an option), mid-run like Dynamo's
fragment counters, each part counts the steps of its untraced visits, as
Dynamo keeps one counter per trace head (Bala, Duesterwald & Banerjia,
"Dynamo: A Transparent Dynamic Optimization System", PLDI 2000). The
visit that brings a part's count to HOT_PART_STEPS (a constant too)
generates a Python function (`compile`/`exec`) for the part's region,
and that visit already runs it. 16,384 lies above the at most 8,928
steps that any bundled program's `nested,indeg,ident-default` output
runs over its manifest vectors, so those short runs pay no code
generation, and within the first two vectors of every `exec-long`
benchmark module but gcd's. The count per part keeps a module whose runs
have reached the threshold from generating code for the parts it
seldom reaches: there a prologue of three steps gets its region only in
its 43rd run, a loop head within its first hundred trips. 128 is the
lowest power of two at which the regions that one `exec-long` benchmark
cycle generates for its obfuscated modules reach their floor: 71 at 64,
48 at 128 and at each power up to 2,048, against 94 when every part gets
its region at its first visit. The module's count comes first, so a
module that runs little pays no code generation even where one loop
takes most of its steps. That function holds the ops inline: registers
in locals, known values folded, the `operator` calls as Python
operators, and an sdiv or srem as Python's `//` or `%` where the
dividend is at least 0 and the divisor above 0 (a divisor known to be
above 0 is not tested), else `_sdiv`/`_srem`, which trap and take the
other signs.
A local may hold a value not yet reduced to the signed 64-bit range. On
Python ints, wrap64 commutes with add, sub, mul, and, or, xor and a shl
by its masked amount: the low 64 bits of their results depend only on
the low 64 bits of their operands. So the range check and an inline
`wrap64` run only where a value is observed: as an operand of sdiv,
srem or a comparison, the shifted operand of shr, a cbr condition, a
call argument or a printed value, the value that `enter` returns, a
store to the frame's registers where the region leaves, and a carried
register where a trip loops back to the head. Generation keeps a bound
on each unreduced local's bits: 64 for a reduced value, one more after
add, sub or sdiv (`INT_MIN / -1`), the shift more after shl (63 when
unknown), the sum after mul, its operand's after shr, and 64 after an
`and` with a known operand at least 0. A result past REDUCE_PAST_BITS (a
constant) is reduced at once, so no value grows without limit.
A shr by a known amount k also takes its operand unreduced when its
result is dead but for `and`s whose other operand is known, at that
`and`, to lie in [0, 2**(64 - k)) (`_masked_shifts`): until the part
writes the result again, no other op reads it, and at the part's end no
part carries it and the terminator does not read it. The unreduced v and
the tuple tier's r = wrap64(v) differ by t * 2**64, so v >> k is
(r >> k) + t * 2**(64 - k), and the mask clears the difference. LLVM's
DemandedBits analysis skips the bits that no later instruction uses in
the same way.

The function runs the part's region, not the part alone: Dynamo's linked
fragments grown into a tree, as trace trees grow them (Gal & Franz,
"Incremental Dynamic Code Generation with Trace Trees", UCI TR 06-16,
2006). From its head the region follows, breadth first, the part that a
terminator leads to statically: a br (indeg's `x & 1` selectors
included, see above), or a cbr or switch whose scrutinee is known at that
point of the path (a literal, a slot nothing in the function writes, or
an op of the path on known values), which resolves flatten's
`%disp_key = <lit>; br dispatch` and nested's inner mix. A cbr on an
unknown condition becomes a Python `if`/`else` that follows both
arms. A part may appear again on a path (the dispatcher,
reached with another routing key) until the region holds CHAIN_PARTS
parts, and an arm back to the head is one more trip of a `while` loop
inside the function, taken only while the fuel covers the region's
costliest path. The region leaves at a ret, a call that traps as an
unresolved extern, a switch on an unknown scrutinee or a decoy's guard,
which the driver transfers with. Where it leaves, it stores back the registers written on
its path and on every path that loops (at a ret only the value), and
returns the fuel left and the terminator the driver takes. A trap inside
it reports the fuel left after the part it happened in, as the tuple ops
charge a trap its whole part.
The driver calls a region only when the fuel covers its costliest path up
to its first call; otherwise it runs the head's tuple ops, so fuel cuts
stay exact. A region is analysed and generated only when its head turns
hot, so a part that the driver seldom reaches costs nothing, and a region
stops at a decoy's guard, so no decoy reaches generated code. Analysing
a function reads the registers that each block writes, and those it
reads before writing, from the function's IR by name, so a decoy counts
without being built: a register that only a decoy writes is never folded
as a constant, and a hot function's decoys stay unbuilt.

A call to a function the module defines does not end a region: the trace
tree goes on through the call, as tracing JITs inline through calls
(Bolz et al., "Tracing the Meta-Level: PyPy's Tracing JIT Compiler",
ICOOOLPS 2009). The region binds a callee that is compiled when the
region is generated (`enter` calls itself by name) and looks any other
callee up in the table when the call runs, so a callee still compiles at
its first call. It calls the callee's `enter`: the function generated,
at the first such call, for the callee's entry region, which takes the
arguments as Python parameters and returns the fuel left and the value
at its ret. The caller's registers stay in locals across the call, and
the region goes on with the part after it. Fuel is charged in execution
order: the caller pays its path up to the call before the callee runs,
and once the call returns the region runs on only while the fuel covers
the costliest path after it; otherwise it stores back its registers and
leaves for the driver at the part after the call. Where the callee's own
region leaves before a ret, `enter` hands the rest of its frame to a
nested `_drive`. A trap in a callee keeps the fuel that its own part
reported, and fuel that runs out inside a callee ends the run at once,
with what it printed.

Direct calls nest on the Python stack, so a run's direct calls, and the
drivers they nest, stack at most NESTED_FRAMES (a constant, not an
option) Python frames. A call past that bound leaves its region, and the
driver pushes an explicit frame for it, whose own calls stay explicit
until it returns; so do the frames already on the stack at the mid-run
switch. MAX_CALL_DEPTH stays exact, and a hot run needs at most
NESTED_FRAMES + 144 = 400 Python frames below `run`'s caller, code
generation at the deepest frame included: a caller that leaves that
headroom below `sys.getrecursionlimit()` (1,000 by default) never sees
`RecursionError`. exec-long's deepest recursion, ack(2, 86), stacks 177
frames, all of them direct.

The fused output cannot differ from the tuple tier's: each generated op
is the tuple op's expression with the operand reads resolved, on values
equal to the tuple tier's modulo 2**64 where the op allows it, a folded
value is the tuple op's result on the same known operands, a branch is
resolved only on a value every run has there, prints happen in order
before any trap, and registers are stored back before the driver reads
them. A direct call runs the frame that the driver would push, on the
same argument values, charges the same parts in the same order, returns
the same value into the same register and traps where the driver would;
the driver makes every call that a region does not. The driver keeps the
tuple ops for every run with a `block_tracer`. The generated source holds
only slot numbers, int and bool literals and fixed names, never IR text,
so no identifier can reach `compile`; a callee's name travels as a value
bound to a fixed name.
"""

from __future__ import annotations

import operator
import statistics
import time
import weakref
from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter

from .ir import (
    Assign,
    BinOp,
    Br,
    Call,
    Cbr,
    Cmp,
    GlobalRef,
    IrFunction,
    IrModule,
    Local,
    Ret,
    Switch,
    switch_mask,
    wrap64,
)

DEFAULT_FUEL = 1_000_000
MAX_CALL_DEPTH = 10_000  # active frames, the entry function's included
FUSE_AFTER_STEPS = 16_384  # a module's runs let parts count from this step
HOT_PART_STEPS = 128  # a part's counted steps that generate its region
CHAIN_PARTS = 32  # most parts that one region holds, calls included
NESTED_FRAMES = 256  # most Python frames that a run's direct calls stack up
REDUCE_PAST_BITS = 192  # a region's unreduced value past this many bits is reduced

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
    def __init__(self, reason: str, fuel=None):
        self.reason = reason
        self.fuel = fuel  # the fuel left after the part it happened in


class _OutOfFuel(Exception):
    """The fuel ran out before a terminator: the run ends there."""


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
_T_CALL = 3   # (_T_CALL, callee_name, gather, dst | None, next_part, arg slots)
_T_RET = 4    # (_T_RET, None | value)
_T_STOP = 5   # (_T_STOP,) stands in for the terminator that fuel cannot reach
_T_DECOY = 6  # (_T_DECOY, guard) a bogus block, built at its first entry

_STOP = (_T_STOP,)


class _Part:
    """A run of ops that ends in a terminator or a call: blocks are split
    after every call, so a call always ends its part."""

    __slots__ = ("trace", "ops", "term", "cost", "cfn", "fused", "need",
                 "steps")

    def __init__(self, cfn, trace):
        self.trace = trace  # (function, label) for block_tracer; None after a call
        self.ops = []
        self.term = None
        self.cost = 0
        self.cfn = cfn  # the _CompiledFunction that holds it
        cfn.parts.append(self)
        # None until its region is generated, then the generated function,
        # or False where the region is the empty part's bare terminator
        self.fused = None
        self.need = 0  # once generated: the fuel of its region's costliest path
        self.steps = 0  # the cost of its counted visits before its region

    def end(self, term):
        self.term = term
        self.cost = len(self.ops) + 1


def _op_reads(op):
    """The slots that a tuple op reads."""
    return op[3:] if op[0] == _BIN else op[2:] if op[0] == _COPY else op[1:]


def _term_reads(term):
    """The slots that a terminator reads."""
    if term[0] in (_T_CBR, _T_SW):
        return term[1:2]
    if term[0] == _T_CALL:
        return term[5]
    return () if term[0] != _T_RET or term[1] is None else term[1:2]


def _convert(value, boolean):
    """An entry argument, an int or a bool, as its parameter's type."""
    return bool(value) if boolean else wrap64(value)


class _CompiledFunction:
    """Parameter i lives in slot i; the other slots follow."""

    __slots__ = ("params", "entry", "init_env", "locals_env", "parts",
                 "decoys", "build", "uses", "_flow", "enter")

    def __init__(self, params, init_env):
        self.params = params  # whether each parameter is a bool
        self.entry = None
        self.init_env = init_env  # registers at 0, literals
        self.locals_env = None  # the slots after the parameters
        self.parts = []  # every part, those after calls included
        self.decoys = {}  # guard -> its bogus block, once built the block's part
        self.build = None  # block -> its part, split after each call
        self.uses = None  # () -> (written, read before written) slots
        self._flow = None

    def decoy(self, guard):
        """The part that runs `guard`'s block, built at its first entry: its
        new registers and literals take slots after all the others, which
        `flow` knows from then on. Regions generated before read none of
        them, and `flow` counted the block's other slots the same."""
        part = self.decoys[guard]
        if type(part) is not _Part:
            part = self.decoys[guard] = self.build(part)
            self.locals_env = self.init_env[len(self.params):]
            self._flow = None
        return part

    def flow(self):
        """(constants, carried): slot -> the int or bool start value of each
        slot that no parameter, op or call result writes, as such a slot
        keeps it in every frame; and the slots that some part reads before
        writing them, as every other slot is dead wherever a part starts.
        Both come from the function's IR (`uses`), so a slot only a decoy
        writes is not taken for a constant, and the decoy stays unbuilt."""
        if self._flow is None:
            written, carried = self.uses()
            constants = {slot: value for slot, value in enumerate(self.init_env)
                         if slot not in written and type(value) in (int, bool)}
            self._flow = constants, carried
        return self._flow


class _Slots(dict):
    """Register name, or (type, value) of a literal, -> slot in the frame's
    list. A key gets the next slot when first looked up; `init` holds each
    slot's start value: 0 for a register, which every bool context reads as
    false, a literal's value."""

    def __init__(self):
        super().__init__()
        self.init = []

    def __missing__(self, key):
        index = self[key] = len(self.init)
        self.init.append(0 if isinstance(key, str) else key[1])
        return index


def _arguments(args, params) -> list:
    """A call's arguments for a callee with `params`: extra ones are
    dropped, and a missing one is 0, as the callee's registers start, which
    every bool context reads as false."""
    return [*args[:len(params)], *[0] * (len(params) - len(args))]


def _unmatched(b) -> bool:
    """Whether `b` ends in a masked switch with no case that its mask lets
    through, which compiles to a br to its default."""
    c = switch_mask(b)
    return c is not None and not any(0 <= lit <= c for lit, _ in b.term.cases)


def _compile_function(fn: IrFunction, table: _Table) -> _CompiledFunction:
    slots = _Slots()

    def key(op):
        """The key of `op`'s slot in `slots`."""
        if isinstance(op, Local):
            return op.name
        if isinstance(op, GlobalRef):
            op = table.globals_map[op.name]  # globals are immutable integers
        return type(op), op  # `true` and `1` stay apart

    def operand(op):
        return slots[key(op)]

    def gatherer(args, params):
        """The function of the caller's registers that gives the values of
        a call's arguments for a callee with `params`, in order, and the
        slots it reads."""
        arg_slots = tuple(operand(a) for a in _arguments(args, params))
        if len(arg_slots) > 1:
            return itemgetter(*arg_slots), arg_slots
        start = arg_slots[0] if arg_slots else 0
        return itemgetter(slice(start, start + len(arg_slots))), arg_slots  # a list

    for name, _ in fn.params:
        # parameter i takes slot i; a repeated name reads its last position
        slots.pop(name, None)
        slots[name]
    cfn = _CompiledFunction([ty == "bool" for _, ty in fn.params], slots.init)
    parts = {}  # label -> the part that the block's edges lead to
    for b in fn.blocks:
        if b.role == "bogus":
            # a guard: no ops, no cost, no trace; it builds the block at
            # the block's first entry
            parts[b.label] = guard = _Part(cfn, None)
            guard.term = (_T_DECOY, guard)
            cfn.decoys[guard] = b
        else:
            parts[b.label] = _Part(cfn, (fn.mangled_name, b.label))

    def build(b):
        part = head = (_Part(cfn, (fn.mangled_name, b.label))
                       if b.role == "bogus" else parts[b.label])
        for ins in b.insts:
            if isinstance(ins, BinOp):
                part.ops.append((_BIN, slots[ins.dst], _FUNCS[ins.op],
                                 operand(ins.a), operand(ins.b)))
            elif isinstance(ins, Cmp):
                part.ops.append((_BIN, slots[ins.dst], _FUNCS[ins.rel],
                                 operand(ins.a), operand(ins.b)))
            elif isinstance(ins, Assign):
                part.ops.append((_COPY, slots[ins.dst], operand(ins.src)))
            elif isinstance(ins, Call):
                if ins.callee == "print_int" and table.builtin_print:
                    part.ops.append((_PRINT, operand(ins.args[0])))
                else:
                    callee = table.functions.get(ins.callee)
                    # a callee the module does not define traps at the call
                    gather, reads = ((None, ()) if callee is None
                                     else gatherer(ins.args, callee.params))
                    dst = None if ins.dst is None else slots[ins.dst]
                    rest = _Part(cfn, None)
                    part.end((_T_CALL, ins.callee, gather, dst, rest, reads))
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
            if _unmatched(b):
                part.end((_T_BR, parts[t.default]))
            else:
                cases = {lit: parts[lab] for lit, lab in t.cases}
                part.end((_T_SW, slots[t.scrutinee], cases, parts[t.default]))
        elif isinstance(t, Ret):
            part.end((_T_RET, None if t.value is None else operand(t.value)))
        else:
            raise ValueError(f"block {b.label} has no terminator")
        return head

    def uses():
        """(written, read): the slots that a parameter, op or call writes,
        and those that some part, built or not, reads before writing them,
        found from every block's IR by name. A name or literal without a
        slot is left out, as only a decoy not yet built uses it."""
        read, written, wrote = set(), {name for name, _ in fn.params}, set()

        def use(*ops):
            read.update(k for k in map(key, ops) if k not in wrote)

        for b in fn.blocks:
            wrote.clear()
            for ins in b.insts:
                if isinstance(ins, (BinOp, Cmp)):
                    use(ins.a, ins.b)
                elif isinstance(ins, Assign):
                    use(ins.src)
                elif not isinstance(ins, Call):
                    continue  # `build` raises on it
                elif ins.callee == "print_int" and table.builtin_print:
                    use(*ins.args[:1])
                    continue
                else:
                    callee = table.functions.get(ins.callee)
                    if callee is not None:
                        use(*_arguments(ins.args, callee.params))
                    wrote.clear()  # the call ends its part
                    if ins.dst is not None:
                        written.add(ins.dst)
                    continue
                wrote.add(ins.dst)
                written.add(ins.dst)
            t = b.term
            if isinstance(t, Cbr):
                use(Local(t.cond))
            elif isinstance(t, Switch) and not _unmatched(b):
                use(Local(t.scrutinee))
            elif isinstance(t, Ret) and t.value is not None:
                use(t.value)
        return ({slots[k] for k in written if k in slots},
                {slots[k] for k in read if k in slots})

    cfn.build, cfn.uses = build, uses
    for b in fn.blocks:
        if b.role != "bogus":
            build(b)
    cfn.entry = parts[fn.entry]
    cfn.locals_env = slots.init[len(fn.params):]
    # a region's direct call runs the callee's frame through `enter`, which
    # is generated at its first call
    cfn.enter = lambda *args: _fuse_region(table, cfn.entry, True)(*args)
    return cfn


# ---------------------------------------------------------------------------
# The fused tier: one generated Python function per region of parts

# Python expression of each binary op on operand texts {0} and {1}; the
# helpers are the generated code's only free names besides its parts
_EXPR = {
    operator.add: "{0} + {1}", operator.sub: "{0} - {1}",
    operator.mul: "{0} * {1}", operator.and_: "{0} & {1}",
    operator.or_: "{0} | {1}", operator.xor: "{0} ^ {1}",
    # Python's `//` and `%` equal the truncating ops where both signs are
    # the common ones; the helpers take the others and trap on zero
    _sdiv: "({0} // {1} if {0} >= 0 and {1} > 0 else _sdiv({0}, {1}))",
    _srem: "({0} % {1} if {0} >= 0 and {1} > 0 else _srem({0}, {1}))",
    _shl: "{0} << ({1} & 63)", _shr: "{0} >> ({1} & 63)",
    operator.eq: "{0} == {1}", operator.ne: "{0} != {1}",
    operator.lt: "{0} < {1}", operator.le: "{0} <= {1}",
    operator.gt: "{0} > {1}", operator.ge: "{0} >= {1}",
}
# the ops whose result's low 64 bits depend only on their operands' low 64
# bits, so their operands may be unreduced (a shift's amount is masked)
_LAZY = {operator.add, operator.sub, operator.mul, operator.and_, operator.or_,
         operator.xor, _shl}
# wrap64 inline: ((v + 2**63) & (2**64 - 1)) - 2**63 outside the range
_WRAP = ("if not -9223372036854775808 <= {0} <= 9223372036854775807: "
         "{0} = (({0} + 9223372036854775808) & 18446744073709551615)"
         " - 9223372036854775808")
# sdiv and srem by a divisor known to be above 0: CPython does not fold `4 > 0`
_BY_POSITIVE = {
    _sdiv: "({0} // {1} if {0} >= 0 else _sdiv({0}, {1}))",
    _srem: "({0} % {1} if {0} >= 0 else _srem({0}, {1}))",
}
_UNKNOWN = object()


def _bits(fn, a: int, b: int, known_a, known_b) -> int:
    """A bound on the bits of `fn`'s result from its operands' (a value in
    the signed 64-bit range has 64), with `known_a` and `known_b` their
    known values or _UNKNOWN; an op outside _LAZY but shr has reduced
    operands. An `and` with a known operand at least 0 lies in [0, 2**63),
    as every known value is reduced."""
    if fn is operator.mul:
        return a + b
    if fn is _shl:
        return a + (63 if known_b is _UNKNOWN else known_b & 63)
    if fn in (operator.add, operator.sub, _sdiv):  # _sdiv(INT_MIN, -1) is 2**63
        return max(a, b) + 1
    if fn is operator.and_ and any(v is not _UNKNOWN and v >= 0
                                   for v in (known_a, known_b)):
        return 64
    return a if fn is _shr else max(a, b) if fn in _LAZY else 64


def _masked_shifts(part: _Part, before, carried) -> set:
    """The positions in `part.ops` of the shr ops whose operand a region
    may leave unreduced (see the module docstring), with `before` the
    values known where the part starts and `carried` the slots that some
    part reads before writing: the amount k is known, and the result is
    dead except as an operand of `and`s whose other operand is known there
    to lie in [0, 2**(64 - k)). It is dead where the part writes it again,
    or at the part's end when it is not in `carried` and the terminator
    does not read it."""
    consts, pending, masked = _Consts(before), {}, set()  # pending: dst -> (i, k)
    for i, op in enumerate(part.ops):
        for slot in pending.keys() & _op_reads(op):
            mask = _UNKNOWN
            if op[0] == _BIN and op[2] is operator.and_ and op[3] != op[4]:
                mask = consts.value(op[4] if op[3] == slot else op[3])
            if mask is _UNKNOWN or not 0 <= mask < 1 << 64 - pending[slot][1]:
                del pending[slot]
        if op[0] != _PRINT and op[1] in pending:
            masked.add(pending.pop(op[1])[0])
        if op[0] == _BIN and op[2] is _shr and op[1] not in carried:
            amount = consts.value(op[4])
            if amount is not _UNKNOWN:
                pending[op[1]] = i, amount & 63
        consts.apply(op)
    taken = _term_reads(part.term)
    masked.update(i for slot, (i, _) in pending.items() if slot not in taken)
    return masked


class _Consts(dict):
    """Slot -> value known at the point that a region's path has reached:
    the function's constants, and what ops of the path wrote from known
    values."""

    def value(self, slot):
        return self.get(slot, _UNKNOWN)

    def apply(self, op):
        """Run `op` on the known values; a division by zero stays unknown,
        as it traps when it runs."""
        if op[0] == _PRINT:
            return
        if op[0] == _COPY:
            value = self.value(op[2])
        else:
            _, _, fn, a, b = op
            a, b = self.value(a), self.value(b)
            if (a is _UNKNOWN or b is _UNKNOWN
                    or b == 0 and fn in (_sdiv, _srem)):
                value = _UNKNOWN
            else:
                value = fn(a, b)
                if not -2**63 <= value < 2**63:
                    value = wrap64(value)
        if value is _UNKNOWN:
            self.pop(op[1], None)
        else:
            self[op[1]] = value

    def arms(self, term):
        """The parts that `term` may lead to on the known values: the one it
        resolves to, a cbr's two on an unknown condition, the part after a
        call to a function the module defines, or none (a ret, a call that
        traps as an unresolved extern, a switch nothing resolves, a
        decoy's guard)."""
        tag = term[0]
        if tag == _T_BR:
            return [term[1]]
        if tag == _T_CALL:
            return [term[4]] if term[2] is not None else []
        if tag not in (_T_CBR, _T_SW):
            return []
        key = self.value(term[1])
        if tag == _T_CBR:
            if key is _UNKNOWN:
                return [term[2], term[3]]
            return [term[2] if key else term[3]]
        return [] if key is _UNKNOWN else [term[2].get(key, term[3])]


_LOOP = object()  # a region's arm back to its head


class _Node:
    """A part on a path of a region. `before` and `after` hold the values
    known where the part starts and ends, and `arms` what follows it: one
    arm, or a cbr's two when `cond`, the condition's slot, is unknown. An
    arm is a _Node, _LOOP, or the terminator that the driver takes when the
    region leaves: a ret, a call that traps as an unresolved extern, a
    switch nothing resolves, a decoy's guard, or a br to the part the
    region does not hold.
    The head and each part after a call start a segment, `start`: `total`
    is the cost of the path from there to the part's end, and the start's
    `need` the cost of its segment's costliest path, which the fuel must
    cover before the segment runs."""

    __slots__ = ("part", "before", "after", "start", "total", "need", "cond",
                 "arms")

    def __init__(self, part, before, parent):
        self.part = part
        self.before = before
        self.after = _Consts(before)
        for op in part.ops:
            self.after.apply(op)
        if part.term[0] == _T_CALL and part.term[3] is not None:
            self.after.pop(part.term[3], None)  # a call's result is never known
        if parent is None or parent.part.term[0] == _T_CALL:
            self.start, self.total = self, part.cost
        else:
            self.start, self.total = parent.start, parent.total + part.cost
        self.need = 0
        self.start.need = max(self.start.need, self.total)
        self.cond = None
        self.arms = []


def _region(head: _Part):
    """The tree of parts that `head`'s generated function runs, and the
    cost of its costliest path up to a call. It grows breadth first from
    `head` until it holds CHAIN_PARTS parts, so a part may appear again on
    a path (a dispatcher reached with another routing key); an arm back to
    `head` loops."""
    root = _Node(head, _Consts(head.cfn.flow()[0]), None)
    size, frontier = 1, deque([root])
    while frontier:
        node = frontier.popleft()
        term = node.part.term
        targets = node.after.arms(term)
        if not targets:
            node.arms.append(term)
        elif len(targets) == 2:
            node.cond = term[1]
        for target in targets:
            if target is head:
                node.arms.append(_LOOP)
            elif size < CHAIN_PARTS:
                ahead = _Node(target, node.after, node)
                size += 1
                frontier.append(ahead)
                node.arms.append(ahead)
            else:
                node.arms.append((_T_BR, target))
    return root, root.need


def _loop_slots(node: _Node, reads, writes) -> bool:
    """Whether a path from `node` loops back to the head; adds the slots
    that the parts on such paths read to `reads` and write to `writes`."""
    loops = False
    for arm in node.arms:
        if arm is _LOOP or (type(arm) is _Node
                            and _loop_slots(arm, reads, writes)):
            loops = True
    if loops:
        for op in node.part.ops:
            reads.update(_op_reads(op))
            if op[0] != _PRINT:
                writes.add(op[1])
        term = node.part.term
        if node.cond is not None:
            reads.add(node.cond)
        elif term[0] == _T_CALL:
            reads.update(term[5])
            if term[3] is not None:
                writes.add(term[3])
    return loops


def _literal(value) -> str:
    return f"({value!r})" if value < 0 else repr(value)


def _fuse_region(table, head: _Part, entry=False):
    """Generate and compile the function that runs `head`'s region; set it
    as `head.fused`, or False when the region is only the head's empty part
    and its terminator, and the fuel of the region's costliest path up to
    a call as `head.need`; return the function. With `entry`, `head` is its
    function's entry part, and the function generated is the function's
    `enter` instead, which a call runs the callee's frame through.

    The region function takes the frame's registers, `output.append`, the
    fuel, the frame's call depth and `room`, how many more Python frames its
    direct calls may stack; `enter` takes the arguments in place of the
    registers, and itself traps past MAX_CALL_DEPTH and hands its frame to
    `_drive` when the fuel does not cover its costliest path. Both keep
    registers in locals, fold the values that `_Consts` knows and reduce
    a value to 64 bits only where it is observed (see the module
    docstring). A cbr on an unknown condition becomes an `if`, and a path
    back to the head a trip of a `while` loop: the registers those paths
    read are loaded before it, and a trip that leaves less fuel than the
    costliest path returns to the head instead. A call to a function the
    module defines runs the callee through its `enter` (bound where the
    callee is compiled by now, else looked up in `table`), which returns
    the fuel left and the value of its ret; while the fuel covers
    the costliest path of the segment after the call, the region runs on,
    else it leaves at the part after the call. With no room left, it
    leaves at the call. Where a path leaves, it stores back the registers
    written on it, and on every looping path, that a part or the terminator
    it leaves with may read before writing (at a ret only the value, as the
    driver then drops the frame), and returns the fuel left and the
    terminator the driver takes; `enter` returns the value at a ret and
    otherwise runs the rest of its frame through `_drive`. A trap reports
    the fuel left after the part it happened in: before its first sdiv or
    srem whose divisor is not a known nonzero value, a part stores the cost
    of its segment's path as `spent`, and a trap that a callee has not
    already given its fuel gets the segment's fuel less `spent`. The source
    holds only slot numbers, int and bool literals and fixed names, never a
    name or text from the IR."""
    cfn = head.cfn
    constants, carried = cfn.flow()
    root, need = _region(head)
    if not entry and not head.ops and root.arms == [head.term]:
        head.fused = False  # the driver takes the terminator as fast
        return False
    # `enter` takes the arguments as its first parameters
    arity = len(cfn.params) if entry else 0
    params = "".join(f"v{slot}, " for slot in range(arity))
    reads, writes = set(), set()
    body = []
    cells = []  # terminators the code returns or hands on, callee names
    # slot -> local name, and -> its text to store
    local, stored = {slot: f"v{slot}" for slot in range(arity)}, {}
    loops = _loop_slots(root, reads, writes)

    def cell(value):
        cells.append(value)
        return f"c{len(cells) - 1}"

    def load(slot):
        """A register's value where the region starts."""
        return _literal(cfn.init_env[slot]) if entry else f"env[{slot}]"

    def leave(term, total, stored, wide, pad, read):
        left = f"fuel - {total}" if total else "fuel"
        if entry and term[0] == _T_RET:
            if term[1] in wide:
                body.append(pad + _WRAP.format(f"v{term[1]}"))
            value = "None" if term[1] is None else read(term[1])
            body.append(f"{pad}return {left}, {value}")
            return
        if entry:
            body.append(f"{pad}env = [{params}*{cell(cfn.locals_env)}]")
        taken = _term_reads(term)
        # the driver drops the frame at a ret once it has read the value
        live = () if term[0] == _T_RET else carried
        kept = [slot for slot in stored if slot in live or slot in taken]
        body.extend(pad + _WRAP.format(f"v{slot}") for slot in kept if slot in wide)
        body.extend(f"{pad}env[{slot}] = {stored[slot]}" for slot in kept)
        if entry:
            # the driver and the regions it calls stack two more frames
            body.append(f"{pad}return _drive(table, env, {cell(term)}, emit, "
                        f"{left}, depth, room - 2)")
        else:
            body.append(f"{pad}return {left}, {cell(term)}")

    if entry:
        body.append(f"if depth > {MAX_CALL_DEPTH}:")
        body.append(' raise _Trap("call depth exceeded", fuel)')
        body.append(f"if fuel < {need}:")
        leave((_T_BR, head), 0, {}, {}, " ", None)
    if loops:
        for slot in sorted((reads.difference(constants) | writes) & carried):
            if slot not in local:
                local[slot] = f"v{slot}"
                body.append(f"v{slot} = {load(slot)}")
        stored = {slot: f"v{slot}" for slot in sorted(writes & carried)}
        body.append("while True:")

    def walk(node, local, stored, wide, pad):
        consts = _Consts(node.before)

        def read(slot):
            value = consts.value(slot)
            if value is not _UNKNOWN:
                return _literal(value)
            name = local.get(slot)
            if name is None:
                name = local[slot] = f"v{slot}"
                body.append(f"{pad}{name} = {load(slot)}")
            return name

        def reduce(*slots):
            """Reduce the unreduced registers among `slots`, which are
            observed here."""
            for slot in slots:
                if wide.pop(slot, None):
                    body.append(pad + _WRAP.format(f"v{slot}"))

        spent = False
        masked = _masked_shifts(node.part, node.before, carried)
        for i, op in enumerate(node.part.ops):
            if op[0] == _PRINT:
                reduce(op[1])
                body.append(f"{pad}emit(int({read(op[1])}))")
                continue
            if op[0] == _BIN:
                _, dst, fn, a, b = op
                if fn is _shr:
                    if i not in masked:
                        reduce(a)
                elif fn not in _LAZY:
                    reduce(a, b)
                known_b = consts.value(b)
                if (not spent and fn in (_sdiv, _srem)
                        and known_b in (_UNKNOWN, 0)):
                    body.append(f"{pad}spent = {node.total}")
                    spent = True
                bits = _bits(fn, wide.get(a, 64), wide.get(b, 64),
                             consts.value(a), known_b)
                template = (_BY_POSITIVE[fn] if fn in _BY_POSITIVE and known_b
                            is not _UNKNOWN and known_b > 0 else _EXPR[fn])
                value = template.format(read(a), read(b))
            else:
                dst, value, bits = op[1], read(op[2]), wide.get(op[2], 64)
            consts.apply(op)
            wide.pop(dst, None)
            if dst in consts:
                stored[dst] = _literal(consts[dst])
                continue
            stored[dst] = name = local[dst] = f"v{dst}"
            body.append(f"{pad}{name} = {value}")
            if bits > REDUCE_PAST_BITS:
                body.append(pad + _WRAP.format(name))
            elif bits > 64:
                wide[dst] = bits
        term = node.part.term
        if node.cond is not None:
            reduce(node.cond)
            body.append(f"{pad}if {read(node.cond)}:")
            follow(node.arms[0], node.total, dict(local), dict(stored),
                   dict(wide), pad + " ", read)
            body.append(f"{pad}else:")
            follow(node.arms[1], node.total, local, stored, wide, pad + " ",
                   read)
        elif term[0] == _T_CALL and node.arms[0] is not term:
            _, callee, _, dst, _, arg_slots = term
            reduce(*arg_slots)
            args = "".join(f"{read(slot)}, " for slot in arg_slots)
            body.append(f"{pad}if room < 1:")
            leave(term, node.total, stored, wide, pad + " ", read)
            # a callee compiled by now is bound; the others compile at the call
            bound = table.get(callee)
            target = ("enter" if entry and bound is cfn
                      else f"table[{cell(callee)}].enter" if bound is None
                      else f"{cell(bound)}.enter")
            call = (f"{target}({args}emit, fuel - {node.total}, depth + 1, "
                    "room - 1)")
            if dst is None:
                body.append(f"{pad}fuel = {call}[0]")
            else:
                stored[dst] = local[dst] = f"v{dst}"
                wide.pop(dst, None)  # `enter` returns a reduced value
                body.append(f"{pad}fuel, v{dst} = {call}")
            arm = node.arms[0]
            if type(arm) is _Node:
                body.append(f"{pad}if fuel < {arm.need}:")
                leave((_T_BR, arm.part), 0, stored, wide, pad + " ", read)
            follow(arm, 0, local, stored, wide, pad, read)
        else:
            follow(node.arms[0], node.total, local, stored, wide, pad, read)

    def follow(arm, total, local, stored, wide, pad, read):
        if type(arm) is _Node:
            walk(arm, local, stored, wide, pad)
        elif arm is _LOOP:
            # every trip starts on reduced registers; the others are dead
            kept = [slot for slot in stored if slot in carried]
            body.extend(pad + _WRAP.format(f"v{slot}") for slot in kept
                        if slot in wide)
            body.extend(f"{pad}v{slot} = {stored[slot]}" for slot in kept
                        if stored[slot] != f"v{slot}")
            if total:
                body.append(f"{pad}fuel -= {total}")
            body.append(f"{pad}if fuel < {need}:")
            leave((_T_BR, head), 0, {slot: f"v{slot}" for slot in kept}, {},
                  pad + " ", read)
            body.append(f"{pad}continue")
        else:
            leave(arm, total, stored, wide, pad, read)

    walk(root, local, stored, {}, " " if loops else "")
    name = "enter" if entry else "region"
    signature = ("" if entry else "env, ") + params + "emit, fuel, depth, room"
    source = (f"def {name}({signature}):\n try:\n"
              + "".join(f"  {line}\n" for line in body)
              + " except _Trap as trap:\n  if trap.fuel is None:\n"
              "   trap.fuel = fuel - spent\n  raise\n")
    namespace = {"_sdiv": _sdiv, "_srem": _srem, "_Trap": _Trap,
                 "_drive": _drive, "table": table}
    namespace.update((f"c{i}", value) for i, value in enumerate(cells))
    exec(compile(source, "<fused region>", "exec"), namespace)
    if entry:
        cfn.enter = namespace[name]
    else:
        head.fused, head.need = namespace[name], need
    return namespace[name]


class _Table(dict):
    """Mangled name -> _CompiledFunction, compiled at its first lookup; a
    name the module does not define traps as an unresolved extern. The
    module is held weakly, and its death drops the table from the cache;
    lookups happen only while `run` holds the module. `steps` counts the
    steps of its runs."""

    def __init__(self, module: IrModule):
        super().__init__()
        key = id(module)
        self.module = weakref.ref(
            module, lambda _ref: _module_cache.pop(key, None))
        self.functions = {fn.mangled_name: fn for fn in module.functions}
        self.globals_map = dict(module.globals)
        self.builtin_print = "print_int" not in self.functions
        self.steps = 0

    def __missing__(self, name):
        fn = self.functions.get(name)
        if fn is None:
            raise _Trap(f"unresolved extern @{name}")
        cfn = self[name] = _compile_function(fn, self)
        return cfn


_module_cache: dict[int, _Table] = {}


def _compiled(module: IrModule) -> _Table:
    table = _module_cache.get(id(module))
    if table is None or table.module() is not module:
        table = _module_cache[id(module)] = _Table(module)
    return table


# ---------------------------------------------------------------------------
# Execution

def _drive(table, env, term, emit, fuel: int, depth: int, room: int,
           hot_at=float("inf"), tracer=None):
    """Take `term` in a frame with registers `env`, run on to the ret of
    that frame and return the fuel left and the value. `depth` counts the
    active frames with this one, `room` how many more Python frames the
    direct calls of its regions may stack. Calls that no region makes
    push explicit frames, whose regions get the same `room`. Once the fuel
    is down to `hot_at`, a visit of a part with no region adds the part's
    cost to its `steps`, and the visit that brings them to HOT_PART_STEPS
    generates its region. A trap leaves with its `fuel` set, and fuel that
    runs out raises _OutOfFuel."""
    frames = []  # (caller env, part to resume, dst slot)
    try:
        while True:
            tag = term[0]
            if tag == _T_BR:
                part = term[1]
            elif tag == _T_CBR:
                part = term[2] if env[term[1]] else term[3]
            elif tag == _T_SW:
                part = term[2].get(env[term[1]], term[3])
            elif tag == _T_CALL:
                _, callee, gather, dst, rest, _ = term
                callee_fn = table[callee]  # compiles at the first call
                if depth >= MAX_CALL_DEPTH:
                    raise _Trap("call depth exceeded")
                frames.append((env, rest, dst))
                depth += 1
                env = [*gather(env), *callee_fn.locals_env]
                part = callee_fn.entry
            elif tag == _T_RET:
                value = term[1]
                if value is not None:
                    value = env[value]
                if not frames:
                    return fuel, value
                env, part, dst = frames.pop()
                depth -= 1
                if dst is not None:
                    env[dst] = value
            elif tag == _T_DECOY:
                # the frame grows to the slots that its function has once
                # the block is built; only a guard leads to a decoy's ops
                cfn = term[1].cfn
                part = cfn.decoy(term[1])
                if len(env) < len(cfn.init_env):
                    env += cfn.init_env[len(env):]
            else:
                raise _OutOfFuel

            fused = part.fused
            if fused is None and fuel <= hot_at:
                part.steps += part.cost
                if part.steps >= HOT_PART_STEPS:
                    fused = _fuse_region(table, part)
            if fused and tracer is None and fuel >= part.need:
                fuel, term = fused(env, emit, fuel, depth, room)
            else:
                # the tuple ops: cold parts, traced runs, bare terminators,
                # and fuel that cannot pay for the region's costliest path
                if tracer is not None and part.trace is not None:
                    tracer(*part.trace)
                fuel -= part.cost
                if fuel < 0:
                    # run the ops that still fit, then stop
                    ops = part.ops[:fuel + part.cost]
                    term = _STOP
                else:
                    ops = part.ops
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
                        emit(int(env[op[1]]))
    except _Trap as t:
        # a trap charges the whole part it happened in; a generated region
        # or a callee's frame has already set the fuel left after its part
        if t.fuel is None:
            t.fuel = fuel
        raise


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

    `fuel` must be an int, and each argument an int or a bool; any other
    type raises TypeError, naming an argument's position, before any step
    runs. An argument is converted to its parameter's type and wrapped to
    the signed 64-bit range. A function declared `-> bool` returns a bool.

    Only functions that are called get compiled, so a malformed function
    (one that `validate` rejects, e.g. a block without a terminator) raises
    only when this run calls it; one that is never called goes unnoticed.
    """
    if type(fuel) is not int:
        raise TypeError(f"fuel is {type(fuel).__name__}, not int")
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    for i, arg in enumerate(args):
        if type(arg) not in (int, bool):
            raise TypeError(f"argument {i} is {type(arg).__name__}, "
                            "not int or bool")
    fn = resolve_entry(m, entry_fn, len(args))
    table = _compiled(m)
    cfn = table[fn.mangled_name]
    env = [*map(_convert, args, cfn.params), *cfn.locals_env]
    # the fuel left when the table's runs reach FUSE_AFTER_STEPS: from there
    # on, an untraced run counts each part's steps towards its region
    hot_at = fuel + table.steps - FUSE_AFTER_STEPS if block_tracer is None else -1
    output: list[int] = []
    try:
        left, value = _drive(table, env, (_T_BR, cfn.entry), output.append, fuel,
                             1, NESTED_FRAMES, hot_at, block_tracer)
    except _Trap as t:
        result = ExecutionResult(TRAPPED, reason=t.reason, output=output,
                                 steps=fuel - max(t.fuel, 0))
    except _OutOfFuel:
        result = ExecutionResult(FUEL_EXHAUSTED, output=output, steps=fuel)
    else:
        # registers start at 0, so a bool function's value gets its type here
        if fn.ret_type == "bool":
            value = bool(value)
        result = ExecutionResult(RETURNED, value=value, output=output,
                                 steps=fuel - left)
    table.steps += result.steps
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
