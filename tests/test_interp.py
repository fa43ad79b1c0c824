import gc
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from iobf import parse_module, run, timed_run
from iobf.interp import (
    EntryError,
    FUEL_EXHAUSTED,
    MAX_CALL_DEPTH,
    RETURNED,
    TRAPPED,
    _compiled,
    _module_cache,
)
from iobf.ir import BasicBlock, Const, INT_MAX, INT_MIN, IrFunction, IrModule, Ret, wrap64
from iobf.parser import ValidationError
from iobf.rename import obfuscate_identifiers_default

from conftest import GCD_TEXT


def test_trivial_return():
    m = parse_module('func @main src "main" () -> int { entry: ret 7 }')
    r = run(m, "main", [], fuel=10)
    assert r.status == RETURNED
    assert r.value == 7
    assert 0 < r.steps <= 2


def test_infinite_loop_exhausts_fuel():
    m = parse_module('func @spin src "spin" () -> int { entry: br entry }')
    r = run(m, "spin", [], fuel=100)
    assert r.status == FUEL_EXHAUSTED
    assert r.steps == 100


def test_gcd_runs_and_prints():
    m = parse_module(GCD_TEXT)
    r = run(m, "gcd", [48, 36])
    assert r.status == RETURNED
    assert r.value == 12
    assert r.output == [12]


def test_entry_resolution_by_base_name():
    m = parse_module(GCD_TEXT)
    with pytest.raises(EntryError):
        run(m, "_O3gcdii", [48, 36])  # mangled names do not resolve
    with pytest.raises(EntryError):
        run(m, "gcd", [1, 2, 3])  # arity mismatch


def test_division_by_zero_traps():
    m = parse_module(
        'func @f src "f" (%x: int) -> int {\n'
        "entry:\n  %y = sdiv 10, %x\n  ret %y\n}\n")
    r = run(m, "f", [0])
    assert r.status == TRAPPED
    assert "zero" in r.reason
    assert run(m, "f", [3]).value == 3


def test_unassigned_registers_read_zero():
    m = parse_module(
        'func @f src "f" (%x: int) -> int {\n'
        "entry:\n"
        "  %c = cmp gt %x, 0\n"
        "  cbr %c, set, out\n"
        "set:\n  %y = 5\n  br out\n"
        "out:\n  ret %y\n}\n")
    assert run(m, "f", [1]).value == 5
    assert run(m, "f", [-1]).value == 0


def test_unresolved_extern_traps_at_call():
    m = parse_module(
        "extern @mystery(int) -> int\n"
        'func @f src "f" () -> int { entry: %a = 1 %b = add %a, 2 '
        "%r = call @mystery(%b) ret %r }")
    for _ in range(2):  # the trap is not cached as a compiled function
        r = run(m, "f", [])
        assert (r.status, r.reason, r.steps) == (
            TRAPPED, "unresolved extern @mystery", 3)
    assert set(_compiled(m)) == {"f"}


def test_determinism():
    m = parse_module(GCD_TEXT)
    runs = [run(m, "gcd", [270, 192], fuel=500) for _ in range(3)]
    assert len({(r.status, r.value, tuple(r.output), r.steps)
                for r in runs}) == 1


def test_fuel_boundary_is_exact():
    m = parse_module(GCD_TEXT)
    full = run(m, "gcd", [270, 192])
    assert full.status == RETURNED
    k = full.steps
    assert run(m, "gcd", [270, 192], fuel=k).status == RETURNED
    assert run(m, "gcd", [270, 192], fuel=k - 1).status == FUEL_EXHAUSTED


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 400))
def test_fuel_monotonicity(fuel):
    m = parse_module(GCD_TEXT)
    r = run(m, "gcd", [1071, 462], fuel=fuel)
    if r.status == RETURNED:
        bigger = run(m, "gcd", [1071, 462], fuel=fuel + 37)
        assert bigger.observable() == r.observable()
        assert bigger.steps == r.steps


_I64 = st.integers(INT_MIN, INT_MAX)
_OPS = ("add", "sub", "mul", "and", "or", "xor", "sdiv", "srem", "shl", "shr")
_BOUNDARY = (INT_MIN, INT_MIN + 1, -1, 0, 1, INT_MAX)


def _with_boundary_examples(test):
    """Every op on every pair of boundary values, and shifts by 63 and 64."""
    for op in _OPS:
        for a in _BOUNDARY:
            for b in _BOUNDARY + (63, 64):
                test = example(a, b, op)(test)
    return test


def _bigint_model(op, a, b):
    """Oracle: compute with unbounded Python integers, wrap at the end
    (shifts mask their amount; division truncates toward zero)."""
    if op == "add":
        return wrap64(a + b)
    if op == "sub":
        return wrap64(a - b)
    if op == "mul":
        return wrap64(a * b)
    if op == "and":
        return wrap64(a & b)
    if op == "or":
        return wrap64(a | b)
    if op == "xor":
        return wrap64(a ^ b)
    if op == "shl":
        return wrap64(a << (b & 63))
    if op == "shr":
        return a >> (b & 63)
    if op == "sdiv":
        q = abs(a) // abs(b)
        return wrap64(-q if (a < 0) != (b < 0) else q)
    rem = abs(a) % abs(b)
    return wrap64(-rem if a < 0 else rem)


@_with_boundary_examples
@settings(max_examples=120, deadline=None)
@given(_I64, _I64, st.sampled_from(_OPS))
def test_wrapping_arithmetic_matches_bigint_model(a, b, op):
    m = parse_module(
        f'func @f src "f" (%a: int, %b: int) -> int {{\n'
        f"entry:\n  %r = {op} %a, %b\n  ret %r\n}}\n")
    r = run(m, "f", [a, b])
    if op in ("sdiv", "srem") and b == 0:
        assert r.status == TRAPPED
        return
    assert r.status == RETURNED
    assert r.value == _bigint_model(op, a, b)
    assert type(r.value) is int


@_with_boundary_examples
@settings(max_examples=120, deadline=None)
@given(_I64, _I64, st.sampled_from(_OPS))
def test_wrapping_arithmetic_on_literals_matches_bigint_model(a, b, op):
    text = (f'func @f src "f" () -> int {{\n'
            f"entry:\n  %r = {op} {a}, {b}\n  ret %r\n}}\n")
    if op in ("sdiv", "srem") and b == 0:
        with pytest.raises(ValidationError) as err:
            parse_module(text)
        assert err.value.codes == ["DivByZeroConst"]
        return
    r = run(parse_module(text), "f", [])
    assert r.status == RETURNED
    assert r.value == _bigint_model(op, a, b)
    assert type(r.value) is int


def test_boolean_and_integer_literals_keep_their_types():
    m = parse_module("""\
extern @print_int(int) -> void

func @ints_first src "ints_first" (%k: int) -> bool {
entry:
  %one = 1
  call @print_int(%one)
  call @print_int(0)
  %c = cmp eq %k, 1
  cbr %c, yes, no
yes:
  ret true
no:
  %f = false
  ret %f
}

func @bools_first src "bools_first" (%k: int) -> int {
entry:
  %t = true
  %c = cmp eq %k, 1
  %d = cmp eq %c, %t
  %f = cmp eq %c, false
  cbr %d, one, zero
one:
  ret 1
zero:
  %z = 0
  ret %z
}
""")
    yes = run(m, "ints_first", [1])
    assert yes.value is True
    assert yes.output == [1, 0]
    assert [type(v) for v in yes.output] == [int, int]
    assert run(m, "ints_first", [0]).value is False
    one = run(m, "bools_first", [1])
    assert one.value == 1 and type(one.value) is int
    zero = run(m, "bools_first", [0])
    assert zero.value == 0 and type(zero.value) is int


def test_unassigned_bool_register_reads_false():
    m = parse_module(
        'func @f src "f" (%x: int) -> bool {\n'
        "entry:\n"
        "  %c = cmp gt %x, 0\n"
        "  cbr %c, set, out\n"
        "set:\n  %b = cmp eq %x, %x\n  br out\n"
        "out:\n  ret %b\n}\n")
    assert run(m, "f", [1]).value is True
    assert run(m, "f", [-1]).value is False


def test_recursion():
    m = parse_module(
        'func @f src "f" (%n: int) -> int {\n'
        "entry:\n"
        "  %c = cmp le %n, 1\n"
        "  cbr %c, base, rec\n"
        "base:\n  ret 1\n"
        "rec:\n"
        "  %n1 = sub %n, 1\n"
        "  %r = call @f(%n1)\n"
        "  %out = mul %n, %r\n"
        "  ret %out\n}\n")
    assert run(m, "f", [10]).value == 3628800


COUNT_DOWN = (
    'func @f src "f" (%n: int) -> int {\n'
    "entry:\n"
    "  %c = cmp le %n, 0\n"
    "  cbr %c, base, rec\n"
    "base:\n  ret 0\n"
    "rec:\n"
    "  %n1 = sub %n, 1\n"
    "  %r = call @f(%n1)\n"
    "  %out = add %r, 1\n"
    "  ret %out\n}\n")


def test_deep_recursion_returns():
    r = run(parse_module(COUNT_DOWN), "f", [5000], fuel=10**7)
    assert r.status == RETURNED
    assert r.value == 5000


def test_call_depth_limit_traps():
    m = parse_module(COUNT_DOWN)
    # f(n) keeps n + 1 frames active at its deepest point
    deepest = run(m, "f", [MAX_CALL_DEPTH - 1], fuel=10**7)
    assert deepest.status == RETURNED
    assert deepest.value == MAX_CALL_DEPTH - 1
    r = run(m, "f", [MAX_CALL_DEPTH], fuel=10**7)
    assert r.status == TRAPPED
    assert r.reason == "call depth exceeded"
    assert r.steps < deepest.steps


def test_timed_run_positive_and_validated():
    m = parse_module('func @main src "main" () -> int { entry: ret 7 }')
    assert timed_run(m, "main", [], repetitions=5) > 0
    with pytest.raises(ValueError):
        timed_run(m, "main", [], repetitions=2)


PRINT_LOOP = """\
extern @print_int(int) -> void

func @f src "f" (%n: int) -> int {
entry:
  %i = 0
  br loop
loop:
  %c = cmp lt %i, %n
  cbr %c, body, done
body:
  call @print_int(%i)
  %i = add %i, 1
  br loop
done:
  ret %i
}
"""


# the caller's ops after the call must not be charged before the callee runs
CALL_THEN_PRINT = """\
extern @print_int(int) -> void

func @g src "g" () -> void {
entry:
  call @print_int(1)
  call @print_int(2)
  call @print_int(3)
  ret
}

func @f src "f" () -> int {
entry:
  call @g()
  %a = 1
  %b = add %a, 1
  %c = add %b, 1
  %d = add %c, 1
  call @print_int(9)
  ret %d
}
"""


@pytest.mark.parametrize("text, args, printed", [
    (PRINT_LOOP, [5], [0, 1, 2, 3, 4]),
    (CALL_THEN_PRINT, [], [1, 2, 3, 9]),
], ids=["print_loop", "call_then_print"])
def test_fuel_sweep_outputs_are_prefixes(text, args, printed):
    """Every fuel value from 1 to the full step count yields a
    deterministic result whose output is a prefix of the full run's,
    growing monotonically with the budget."""
    m = parse_module(text)
    full = run(m, "f", args)
    assert full.status == RETURNED
    assert full.output == printed
    previous = -1
    for fuel in range(1, full.steps + 1):
        r = run(m, "f", args, fuel=fuel)
        again = run(m, "f", args, fuel=fuel)
        assert r.observable() == again.observable()
        assert r.steps == again.steps <= fuel
        assert r.output == full.output[:len(r.output)]
        assert len(r.output) >= previous
        previous = len(r.output)
        if r.status == RETURNED:
            assert fuel >= full.steps
            assert r.value == full.value
    assert run(m, "f", args, fuel=full.steps).status == RETURNED


def test_fuel_exhaustion_prints_first_steps_only():
    m = parse_module(CALL_THEN_PRINT)
    # call @g, then g's three prints: the caller's later ops are not charged
    assert run(m, "f", [], fuel=4).output == [1, 2, 3]
    assert run(m, "f", [], fuel=7).output == [1, 2, 3]
    assert run(m, "f", [], fuel=10).output == [1, 2, 3, 9]


def test_fuel_accounting_through_nested_calls():
    text = (
        "extern @print_int(int) -> void\n"
        'func @leaf src "leaf" (%x: int) -> int {\n'
        "entry:\n  call @print_int(%x)\n  %y = sdiv 10, %x\n  ret %y\n}\n"
        'func @top src "top" (%x: int) -> int {\n'
        "entry:\n"
        "  %a = call @leaf(%x)\n"
        "  %b = call @leaf(%a)\n"
        "  ret %b\n}\n")
    m = parse_module(text)
    ok = run(m, "top", [5])
    assert ok.status == RETURNED and ok.value == 5 and ok.output == [5, 2]
    # the second call divides by zero when the first returns zero
    trap = run(m, "top", [11])
    assert trap.status == TRAPPED
    assert trap.output == [11, 0]
    assert trap.steps <= 1_000_000
    # exhaustion inside the callee is charged to the shared budget
    tight = run(m, "top", [5], fuel=3)
    assert tight.status == FUEL_EXHAUSTED
    assert tight.steps == 3


def test_block_tracer_sees_executed_blocks():
    m = parse_module(GCD_TEXT)
    seen = []
    run(m, "gcd", [48, 36], block_tracer=lambda fn, label: seen.append(label))
    assert seen[0] == "entry"
    assert "done" in seen


def test_block_tracer_reports_each_block_entry_once():
    m = parse_module(CALL_THEN_PRINT)
    seen = []
    run(m, "f", [], block_tracer=lambda fn, label: seen.append((fn, label)))
    # resuming the caller after the call is not a new block entry
    assert seen == [("f", "entry"), ("g", "entry")]


def test_only_called_functions_are_compiled(corpus):
    for entry in corpus:
        obf, _ = obfuscate_identifiers_default(entry.module, seed=1)
        # decoy overloads follow the module's own functions
        added = obf.functions[len(entry.module.functions):]
        assert added
        called = set()
        for args in entry.inputs:
            run(obf, entry.entry, args, entry.fuel,
                block_tracer=lambda fn, label: called.add(fn))
        compiled = set(_compiled(obf))
        assert compiled == called, entry.name
        assert not compiled & {f.mangled_name for f in added}, entry.name


def test_cache_entry_goes_with_its_module():
    m = parse_module(GCD_TEXT)
    run(m, "gcd", [48, 36])
    key, ref = id(m), weakref.ref(m)
    assert key in _module_cache
    del m
    gc.collect()
    assert ref() is None
    assert key not in _module_cache


def test_malformed_function_raises_only_when_called():
    good = IrFunction("good", "good", [], "int", [BasicBlock("entry", [], Ret(1))])
    bad = IrFunction("bad", "bad", [], "int", [BasicBlock("entry", [Const("x", 1)], None)])
    m = IrModule(functions=[good, bad])
    assert run(m, "good", []).value == 1
    with pytest.raises(ValueError, match="no terminator"):
        run(m, "bad", [])
    assert set(_compiled(m)) == {"good"}
