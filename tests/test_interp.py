import dataclasses
import gc
import random
import sys
import weakref
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from iobf import interp, parse_module, run, timed_run
from iobf.cli import PASS_APPLIERS, PipelineConfig, transform_module
from iobf.interp import (
    DEFAULT_FUEL,
    EntryError,
    FUEL_EXHAUSTED,
    FUSE_AFTER_STEPS,
    HOT_PART_STEPS,
    MAX_CALL_DEPTH,
    RETURNED,
    TRAPPED,
    _LOOP,
    _Node,
    _PRINT,
    _T_BR,
    _T_CALL,
    _T_RET,
    _T_SW,
    _compiled,
    _module_cache,
    _op_reads,
    _region,
    _term_reads,
)
from iobf.ir import (Assign, BasicBlock, BinOp, Br, Cbr, Cmp, INT_MAX, INT_MIN, IrFunction,
                     IrModule, Local, Ret, switch_mask, wrap64)
from iobf.parser import ValidationError, _module as parse_unvalidated
from iobf.rename import obfuscate_identifiers_default

from conftest import GCD_TEXT, random_modules, random_programs


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
    twice = parse_module('func @_O1fi src "f" (%x: int) -> int { entry: ret 1 }\n'
                         'func @_O1fb src "f" (%x: bool) -> int { entry: ret 2 }\n')
    with pytest.raises(EntryError) as err:
        run(twice, "f", [1])
    assert str(err.value) == "'f'/1 is ambiguous (2 candidates)"


@pytest.mark.parametrize("bad, kind", [
    ("7", "str"), (1.7, "float"), (None, "NoneType")])
def test_entry_arguments_must_be_int_or_bool(bad, kind):
    m = parse_module(GCD_TEXT)
    steps = _compiled(m).steps
    with pytest.raises(TypeError, match=f"^argument 1 is {kind}, not int or bool$"):
        run(m, "gcd", [48, bad])
    with pytest.raises(TypeError, match="^argument 0 "):
        run(m, "gcd", [bad, 36])
    assert _compiled(m).steps == steps  # no step ran


@pytest.mark.parametrize("fuel", [2.5, 3.0, True], ids=["fraction", "whole_float", "bool"])
def test_fuel_must_be_an_int(fuel):
    m = parse_module(GCD_TEXT)
    steps = _compiled(m).steps
    with pytest.raises(TypeError, match=f"^fuel is {type(fuel).__name__}, not int$"):
        run(m, "gcd", [48, 36], fuel)
    assert _compiled(m).steps == steps  # no step ran


def test_fuel_must_be_positive():
    with pytest.raises(ValueError) as err:
        run(parse_module(GCD_TEXT), "gcd", [48, 36], fuel=0)
    assert str(err.value) == "fuel must be positive"


def test_unvalidated_non_instruction_raises_when_compiled():
    """`run` does not validate, so an object among a function's
    instructions that is none of them raises when the function compiles."""
    for ins in (SimpleNamespace(), Br("entry")):
        m = IrModule(functions=(IrFunction("_O1f", "f", (), "int", (
            BasicBlock("entry", (ins,), Ret(0)),)),))
        with pytest.raises(TypeError) as err:
            run(m, "f", [])
        assert str(err.value) == f"unknown instruction {ins!r}"


def test_entry_arguments_take_their_parameters_types():
    m = parse_module(
        'func @f src "f" (%b: bool, %n: int) -> int {\n'
        "entry:\n  cbr %b, yes, no\n"
        "yes:\n  %r = add %n, 1\n  ret %r\n"
        "no:\n  ret %n\n}\n")
    assert run(m, "f", [True, 41]).value == 42
    assert run(m, "f", [0, INT_MAX + 1]).value == INT_MIN  # wrapped
    r = run(m, "f", [5, True])  # 5 is true, True is the int 1
    assert (r.value, type(r.value)) == (2, int)


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


BOOL_ARGUMENT = """\
func @id src "id" (%b: bool) -> bool {
entry:
  ret %b
}

func @f src "f" (%x: int) -> bool {
entry:
  %c = cmp gt %x, 0
  cbr %c, set, out
set:
  %b = cmp eq %x, %x
  br out
out:
  %r = call @id(%b)
  ret %r
}
"""


def test_unassigned_bool_register_passed_as_a_bool_argument_returns_false():
    """The register starts at 0 in the caller and the callee alike; `run`
    gives the entry's result its declared type, cold and hot."""
    m = parse_module(BOOL_ARGUMENT)
    assert run(m, "f", [-1]).value is False
    hot = _fused_twin(m)
    for _ in range(2):
        assert run(hot, "f", [-1]).value is False
        assert run(hot, "f", [1]).value is True
    assert _compiled(hot)["f"].entry.fused


def test_a_bool_function_returns_a_bool_in_an_unvalidated_module():
    m = IrModule(functions=(IrFunction("_O1f", "f", (), "bool", (
        BasicBlock("entry", (), Ret(5)),)),))
    assert run(m, "f", []).value is True


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
        hot = _fused_twin(obf)
        for args in entry.inputs:
            run(hot, entry.entry, args, entry.fuel)
        assert set(_compiled(hot)) == called, entry.name


def test_a_hot_region_compiles_only_the_callees_it_calls():
    m = parse_module(
        'func @never src "never" () -> int {\nentry:\n  ret 1\n}\n'
        'func @f src "f" (%x: int) -> int {\n'
        "entry:\n  %c = cmp lt %x, 0\n  cbr %c, neg, pos\n"
        "neg:\n  %r = call @never()\n  ret %r\n"
        "pos:\n  ret %x\n}\n")
    hot = _fused_twin(m)
    assert run(hot, "f", [3]).value == 3
    table = _compiled(hot)
    # the entry's region holds the call, which this run never makes
    paths = _regions(m, "f", [3], "f")["entry"]
    assert (["entry", "neg", "<resume>"], "<ret>") in paths
    assert table["f"].entry.fused
    assert set(table) == {"f"}
    assert run(hot, "f", [-3]).value == 1
    assert set(table) == {"f", "never"}


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
    bad = IrFunction("bad", "bad", [], "int", [BasicBlock("entry", [Assign("x", 1)], None)])
    m = IrModule(functions=[good, bad])
    assert run(m, "good", []).value == 1
    with pytest.raises(ValueError, match="no terminator"):
        run(m, "bad", [])
    assert set(_compiled(m)) == {"good"}


# ---------------------------------------------------------------------------
# The fused tier must give what the tuple ops give, in every field. Tests
# make a module hot by setting the private `_Table.steps` to
# FUSE_AFTER_STEPS and each part's count to HOT_PART_STEPS, which the
# module's runs otherwise reach by executing that many steps.

class _HotTable(interp._Table):
    """A table whose functions compile with every part's count at
    HOT_PART_STEPS, so that a part's first untraced visit generates its
    region."""

    def __missing__(self, name):
        cfn = super().__missing__(name)
        for part in cfn.parts:
            part.steps = HOT_PART_STEPS
        return cfn


def _fused_twin(m):
    """An equal module whose parts are hot from their first visit on."""
    twin = dataclasses.replace(m)
    table = _compiled(twin)
    table.__class__ = _HotTable
    table.steps = FUSE_AFTER_STEPS
    return twin


def _generated(m):
    """How many parts of `m`'s table have had their region generated."""
    return sum(p.fused is not None
               for cfn in _compiled(m).values() for p in cfn.parts)


def _facets(r):
    return r.observable(), r.steps, type(r.value)


def _tuple_run(m, entry, args, fuel=DEFAULT_FUEL):
    """A run on the tuple ops alone: traced runs never take generated code,
    and their visits add nothing to a part's count."""
    return run(m, entry, args, fuel, block_tracer=lambda *_: None)


def _assert_tiers_agree(m, entry, runs):
    """Each (args, fuel) run gives the same result on a fresh, cold copy of
    `m` as on one hot copy; returns the hot copy."""
    hot = _fused_twin(m)
    for args, fuel in runs:
        cold = dataclasses.replace(m)
        expected = _tuple_run(cold, entry, args, fuel)
        assert _generated(cold) == 0
        assert _facets(run(hot, entry, args, fuel)) == _facets(expected), (
            entry, args, fuel)
    return hot


def test_fused_tier_matches_tuple_tier_on_corpus_under_every_pass(corpus):
    for entry in corpus:
        runs = [(args, entry.fuel) for args in entry.inputs]
        for name in (None, *PASS_APPLIERS):
            m = entry.module
            if name is not None:
                m, _ = transform_module(PipelineConfig([name], seed=5), m)
            hot = _assert_tiers_agree(m, entry.entry, runs)
            assert _generated(hot), (entry.name, name)


@settings(max_examples=150, deadline=None)
@given(random_modules(), st.integers(-8, 8))
def test_fused_tier_matches_tuple_tier_on_random_modules(m, x):
    _assert_tiers_agree(m, "f", [([x], 300)])


_BUDGETS = st.lists(st.integers(1, 400), min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(random_modules(divisions=True), st.integers(-8, 8), _BUDGETS)
def test_fused_tier_matches_tuple_tier_on_random_modules_that_divide(m, x, budgets):
    _assert_tiers_agree(m, "f", [([x], fuel) for fuel in (*budgets, 300)])


@settings(max_examples=150, deadline=None)
@given(random_programs(), st.integers(-8, 8), _BUDGETS)
def test_fused_tier_matches_tuple_tier_on_random_programs(m, x, budgets):
    """Calls, switches, prints and a global, which random modules lack."""
    _assert_tiers_agree(m, "f", [([x], fuel) for fuel in (*budgets, 300)])


@pytest.mark.parametrize("text, args", [
    (PRINT_LOOP, [5]),
    (CALL_THEN_PRINT, []),
], ids=["print_loop", "call_then_print"])
def test_fused_tier_matches_tuple_tier_at_every_fuel_cut(text, args):
    m = parse_module(text)
    full = run(m, "f", args)
    hot = _assert_tiers_agree(
        m, "f", [(args, fuel) for fuel in range(1, full.steps + 2)])
    assert _generated(hot)


TRAP_AFTER_PRINT = """\
extern @print_int(int) -> void

func @f src "f" (%x: int) -> int {
entry:
  %a = add %x, 1
  call @print_int(%a)
  %q = sdiv 10, %x
  %r = add %q, 1
  ret %r
}
"""


def test_fused_tier_traps_mid_part_after_a_print():
    m = parse_module(TRAP_AFTER_PRINT)
    hot = _assert_tiers_agree(m, "f", [([0], DEFAULT_FUEL), ([2], DEFAULT_FUEL)])
    r = run(hot, "f", [0])
    assert (r.status, r.reason, r.output) == (TRAPPED, "sdiv by zero", [1])
    assert r.steps == 5  # the whole part: four ops and the ret
    assert _generated(hot)


def test_fused_tier_keeps_the_call_depth_limit():
    m = parse_module(COUNT_DOWN)
    hot = _assert_tiers_agree(m, "f", [([MAX_CALL_DEPTH - 1], 10**7),
                                       ([MAX_CALL_DEPTH], 10**7)])
    assert run(hot, "f", [MAX_CALL_DEPTH], fuel=10**7).reason == "call depth exceeded"


@pytest.mark.parametrize("op", _OPS)
def test_fused_tier_wraps_like_the_tuple_tier(op):
    m = parse_module(
        "extern @print_int(int) -> void\n"
        f'func @f src "f" (%a: int, %b: int) -> int {{\n'
        "entry:\n"
        f"  %r = {op} %a, %b\n"
        "  call @print_int(%r)\n"
        f"  %s = {op} %a, {INT_MAX}\n"
        "  call @print_int(%s)\n"
        f"  %t = {op} {INT_MIN}, %b\n"
        "  call @print_int(%t)\n"
        f"  %u = {op} %r, {INT_MIN}\n"
        "  ret %u\n}\n")
    _assert_tiers_agree(m, "f", [([a, b], DEFAULT_FUEL) for a in _BOUNDARY
                                 for b in _BOUNDARY + (63, 64)])


# Regions leave the results of add, sub, mul, and, or, xor and shl
# unreduced and wrap a value only where it is observed. The chains below
# mix those ops with every point of observation: an operand of shr, sdiv,
# srem or a comparison, a cbr on that comparison, a call argument and the
# callee's returned value, a print, a switch that leaves the region with
# its scrutinee, the ret value, and the loop's carried registers.

_RING = ("add", "sub", "mul", "and", "or", "xor", "shl")
# words near the ends of the range, where a ring op leaves it at once
_CHAIN_WORDS = st.one_of(
    st.sampled_from([INT_MIN, INT_MIN + 1, -1, 1, 2, 63, 64, INT_MAX, 2654435761,
                     wrap64(0x9E3779B97F4A7C15)]),
    st.integers(2**62, INT_MAX), st.integers(INT_MIN, -2**62), _I64)


@st.composite
def _ring_chains(draw):
    """`f(%x, %n)`: a loop of `%n` trips over blocks of ring-op chains on
    `%acc`, `%y` and `%z`, each observed after the chain that wrote it; the
    loop's head is the entry's successor or, behind a switch that the
    entry's region leaves at, a region's head. `g(%a, %b)`, which `f`
    calls, compares its arguments and returns one of them, or a chain."""
    def word():
        return str(draw(_CHAIN_WORDS))

    def chain(regs):
        lines = []
        for _ in range(draw(st.integers(1, 6))):
            dst = draw(st.sampled_from(regs))
            b = draw(st.one_of(st.sampled_from([r for r in regs if r != dst])
                               .map("%{}".format), st.builds(word)))
            lines.append(f"  %{dst} = {draw(st.sampled_from(_RING))} %{dst}, {b}\n")
        return "".join(lines)

    regs = ["acc", "y", "z"]

    def reg():
        return "%" + draw(st.sampled_from(regs))

    def observe():
        kind = draw(st.sampled_from(("shr", "div", "call", "print", "none")))
        if kind == "shr":
            return f"  {reg()} = shr {reg()}, {draw(st.integers(0, 64))}\n"
        if kind == "div":  # by an odd register or a nonzero literal: no trap
            op = draw(st.sampled_from(("sdiv", "srem")))
            divisor = draw(st.sampled_from(["%d", "-1", "7", "-7", str(INT_MIN)]))
            return f"  %d = or {reg()}, 1\n  {reg()} = {op} {reg()}, {divisor}\n"
        if kind == "call":
            dst = reg()
            return f"  {dst} = call @g({reg()}, {reg()})\n  call @print_int({dst})\n"
        if kind == "print":
            return f"  call @print_int({reg()})\n"
        return ""

    segments = draw(st.integers(1, 4))
    blocks = []
    for k in range(segments):
        after = f"s{k + 1}" if k + 1 < segments else "latch"
        body = "".join(observe() + chain(regs) for _ in range(draw(st.integers(1, 3))))
        end = draw(st.sampled_from(("br", "cbr", "cbr", "switch")))
        if end == "br":
            blocks.append(f"s{k}:\n{body}  br {after}\n")
            continue
        if end == "cbr":
            rel = draw(st.sampled_from(("eq", "ne", "lt", "le", "gt", "ge")))
            test = f"  %c = cmp {rel} {reg()}, {reg()}\n  cbr %c, {after}, t{k}\n"
        else:
            test = f"  switch {reg()} [{word()} -> t{k}] default {after}\n"
        blocks.append(f"s{k}:\n{body}{test}t{k}:\n{observe()}{chain(regs)}  br {after}\n")
    start = draw(st.sampled_from(("br s0", *["switch %n [0 -> done] default s0"] * 2)))
    return (
        "extern @print_int(int) -> void\n\n"
        'func @g src "g" (%a: int, %b: int) -> int {\n'
        f"entry:\n  %c = cmp {draw(st.sampled_from(('lt', 'eq')))} %a, %b\n"
        f"  cbr %c, chain, other\nchain:\n{chain(['a', 'b'])}  ret %a\n"
        "other:\n  ret %b\n}\n\n"
        'func @f src "f" (%x: int, %n: int) -> int {\n'
        f"entry:\n  %acc = %x\n  %y = {word()}\n  %z = {word()}\n  %d = 1\n  %i = 0\n"
        f"  {start}\n" + "".join(blocks)
        + "latch:\n  %i = add %i, 1\n  %c = cmp lt %i, %n\n  cbr %c, s0, done\n"
        "done:\n  ret %acc\n}\n")


@settings(max_examples=100, deadline=None)
@given(_ring_chains(), _CHAIN_WORDS, st.integers(1, 4))
def test_unreduced_ring_chains_match_the_tuple_tier_at_every_fuel_cut(text, x, n):
    m = parse_module(text)
    full = _tuple_run(m, "f", [x, n])
    hot = _assert_tiers_agree(m, "f", [([x, n], fuel) for fuel in
                                       (*range(1, full.steps + 1), DEFAULT_FUEL)])
    assert _generated(hot)


# A region's shr by a known k may read an unreduced operand v when its
# result is dead but for `and`s with a mask known there to lie in
# [0, 2**(64 - k)): v >> k and the tuple tier's wrap64(v) >> k differ by a
# multiple of 2**(64 - k), which the mask clears. Any other read of the
# result, a register that carries it into the next trip, or a mask that is
# wide, negative or unknown where the `and` runs must keep the reduction.

_SHIFT_TAILS = {
    "none": "  br latch\n",
    "op": "  %o = sub %s, %x\n  %acc = add %acc, %o\n  br latch\n",
    "print": "  call @print_int(%s)\n  br latch\n",
    "call": "  %o = call @g(%s)\n  %acc = xor %acc, %o\n  br latch\n",
    "switch": "  switch %s [-2 -> w0, -1 -> w1, 0 -> w2, 1 -> w3] default latch\n"
              + "".join(f"w{j}:\n  %acc = add %acc, {j + 1}\n  br latch\n" for j in range(4)),
    "cbr": "  cbr %s, odd, latch\nodd:\n  %acc = add %acc, 1\n  br latch\n",
    "ret": "  ret %s\n",
    "carried": "  br latch\n",
}
# a multiplier that spreads every input over the high bits, so that the
# unreduced value differs from its reduction in bit 64 about half the time
_SPREAD = f"  %v = mul %v, {wrap64(0x9E3779B97F4A7C15)}\n"


def _shift_case(widen, amount, mask, reader, mask_first=False, again=None):
    """(text, whether the rule applies, whether the text validates) of
    `f(%x, %y, %n)`, which loops `%n` trips over a part that sets `%v` to
    `%x + %i` through `_SPREAD` and the lines `widen`, shifts it right into
    `%s` by `amount` (a literal or `%y`) and xors `%s & mask` into `%acc`.
    `mask` is a literal, `%y`, or a tuple of the values written to `%mr`,
    the first before the shift and the rest between it and the `and`.
    `reader` reads `%s` once more (`_SHIFT_TAILS`; the cbr on the int
    itself is in an unvalidated module), or at the next trip's start
    ("carried"); with `again`, `%s` is set to `%x + again` before that."""
    before = between = ""
    operand = at_and = mask
    if isinstance(mask, tuple):
        before = f"  %mr = {mask[0]}\n"
        between = "".join(f"  %mr = {value}\n" for value in mask[1:])
        operand, at_and = "%mr", mask[-1]
    applies = (amount != "%y" and at_and != "%y"
               and 0 <= at_and < 2**(64 - (amount & 63))
               and (reader == "none" or again is not None and reader != "carried"))
    masking = f"{operand}, %s" if mask_first else f"%s, {operand}"
    text = (
        "extern @print_int(int) -> void\n\n"
        'func @g src "g" (%a: int) -> int {\nentry:\n  ret %a\n}\n\n'
        'func @f src "f" (%x: int, %y: int, %n: int) -> int {\n'
        "entry:\n  %acc = 0\n  %s = 0\n  %i = 0\n  br body\nbody:\n"
        + ("  %acc = xor %acc, %s\n" if reader == "carried" else "")
        + f"  %v = add %x, %i\n{_SPREAD}{widen}{before}  %s = shr %v, {amount}\n"
        + f"{between}  %r = and {masking}\n  %acc = xor %acc, %r\n"
        + ("" if again is None else f"  %s = add %x, {again}\n")
        + _SHIFT_TAILS[reader]
        + "latch:\n  %i = add %i, 1\n  %c = cmp lt %i, %n\n  cbr %c, body, done\n"
        "done:\n  ret %acc\n}\n")
    return text, applies, reader != "cbr"


@st.composite
def _shift_cases(draw):
    """Shifts of a value widened by shl, xor, add and or, by literal
    amounts 0-63, 64 and above, or an unknown one; masks just below and at
    2**(64 - k), inside that range or negative, as literals, registers
    written before the shift and maybe again before the `and`, or unknown;
    and every reader of the result."""
    def widen():
        op = draw(st.sampled_from(("shl", "xor", "add", "or")))
        if op == "shl":
            return f"  %v = shl %v, {draw(st.integers(1, 63))}\n"
        return f"  %v = {op} %v, {draw(st.sampled_from(['%x', str(draw(_CHAIN_WORDS))]))}\n"

    lines = f"  %v = shl %v, {draw(st.integers(1, 63))}\n" + "".join(
        widen() for _ in range(draw(st.integers(0, 2))))
    amount = draw(st.one_of(st.integers(0, 63), st.sampled_from([57, 60, 63]),
                            st.integers(64, INT_MAX), st.just("%y")))
    k = draw(st.integers(0, 63)) if amount == "%y" else amount & 63
    values = st.one_of(st.just(2**(64 - k) - 1), st.just(2**(64 - k)),
                       st.integers(0, 2**(64 - k) - 1),
                       st.integers(INT_MIN, -1)).map(wrap64)
    kind = draw(st.sampled_from(("literal", "register", "rewritten", "unknown")))
    mask = ("%y" if kind == "unknown" else draw(values) if kind == "literal"
            else (draw(values),) if kind == "register"
            else (draw(values), draw(st.one_of(values, st.just("%y")))))
    reader = draw(st.one_of(st.just("none"), st.sampled_from(list(_SHIFT_TAILS))))
    again = draw(st.one_of(st.none(), _CHAIN_WORDS))
    return _shift_case(lines, amount, mask, reader, draw(st.booleans()), again)


def _with_shift_examples(test):
    """The cases each part of the rule is there for, on an input whose
    unreduced shift operand differs from its reduction in bit 64 on the
    first trip: the mask at 2**(64 - k) and a mask register rewritten to it
    after the shift;
    a result carried into the next trip; read by a switch, a ret or a call
    argument after the `and`; and read by another op or a print."""
    widen = "  %v = shl %v, 13\n"
    for amount, mask, reader in ((7, 2**57, "none"), (7, (2**57 - 1, 2**57), "none"),
                                 (7, 2**57 - 1, "carried"), (60, 15, "switch"),
                                 (7, 2**57 - 1, "ret"), (7, 2**57 - 1, "call"),
                                 (7, 2**57 - 1, "op"), (7, 2**57 - 1, "print")):
        test = example(_shift_case(widen, amount, mask, reader), 1, 0, 2)(test)
    return test


@_with_shift_examples
@settings(max_examples=200, deadline=None)
@given(_shift_cases(), _CHAIN_WORDS, _CHAIN_WORDS, st.integers(1, 3))
def test_masked_shifts_match_the_tuple_tier_at_every_fuel_cut(case, x, y, n):
    text, applies, valid = case
    m = parse_module(text) if valid else parse_unvalidated(text)
    full = _tuple_run(m, "f", [x, y, n])
    hot = _assert_tiers_agree(m, "f", [([x, y, n], fuel) for fuel in
                                       (*range(1, full.steps + 1), DEFAULT_FUEL)])
    constants, carried = _compiled(hot)["f"].flow()
    body = _parts_by_label(hot, "f")["body"]
    assert bool(interp._masked_shifts(body, interp._Consts(constants), carried)) == applies


DIVIDE_LOOP = """\
extern @print_int(int) -> void

func @f src "f" (%a: int, %b: int, %n: int) -> int {{
entry:
  %i = 0
  br loop
loop:
  %q = {op} %a, %b
  call @print_int(%q)
  %r = {op} %a, 7
  %s = {op} -9, %b
  %t = {op} 9, %b
  call @print_int(%t)
  %i = add %i, 1
  %c = cmp lt %i, %n
  cbr %c, loop, done
done:
  ret %q
}}
"""


@pytest.mark.parametrize("op", ["sdiv", "srem"])
def test_inline_division_matches_the_helpers_on_every_sign(op):
    """Python's `//` and `%` run only on a dividend of at least 0 and a
    divisor above 0; `INT_MIN / -1`, a negative operand on either side and
    a zero divisor take the helper, which traps with the whole part's
    steps."""
    m = parse_module(DIVIDE_LOOP.format(op=op))
    values = (INT_MIN, INT_MIN + 1, -7, -1, 0, 1, 7, INT_MAX)
    hot = _assert_tiers_agree(m, "f", [([a, b, 3], DEFAULT_FUEL)
                                       for a in values for b in values])
    assert _generated(hot)
    trap = run(hot, "f", [5, 0, 3])
    assert (trap.status, trap.reason, trap.output, trap.steps) == (
        TRAPPED, f"{op} by zero", [], 2 + 9)  # entry, then the loop's part
    _assert_tiers_agree(m, "f", [([a, b, 3], fuel) for a, b in
                                 ((INT_MIN, -1), (-7, 2), (7, -2), (5, 0))
                                 for fuel in range(1, 40)])


def test_block_tracer_on_a_hot_table_sees_each_block_entry_once():
    for text, entry, args in ((CALL_THEN_PRINT, "f", []),
                              (GCD_TEXT, "gcd", [1071, 462])):
        m = parse_module(text)
        hot = _fused_twin(m)
        run(hot, entry, args)
        assert _generated(hot)
        expected, seen = [], []
        cold = run(m, entry, args, block_tracer=lambda *b: expected.append(b))
        traced = run(hot, entry, args, block_tracer=lambda *b: seen.append(b))
        assert seen == expected
        assert _facets(traced) == _facets(cold)
    assert expected[0] == ("_O3gcdii", "entry")


# the loop's part costs three steps a trip, the prologue three and `done` two
PROLOGUE_LOOP = """\
extern @print_int(int) -> void

func @f src "f" (%n: int) -> int {
entry:
  call @print_int(%n)
  %i = 0
  br loop
loop:
  %i = add %i, 1
  %c = cmp lt %i, %n
  cbr %c, loop, done
done:
  call @print_int(%i)
  ret %i
}
"""


def _counts(m):
    """Label -> the steps that f's part of that label has counted."""
    return {label: part.steps for label, part in _parts_by_label(m, "f").items()}


def _hot_labels(m):
    return sorted(label for label, part in _parts_by_label(m, "f").items()
                  if part.fused is not None)


def test_table_turns_hot_once_its_runs_reach_the_threshold():
    m = parse_module(PRINT_LOOP)
    table = _compiled(m)
    total = 0
    while total < FUSE_AFTER_STEPS:
        assert _generated(m) == 0
        assert all(part.steps == 0 for part in table["f"].parts)  # none counts
        r = run(m, "f", [1000])
        total += r.steps
        assert table.steps == total
    assert _generated(m)
    assert _facets(run(m, "f", [1000])) == _facets(r)


def test_a_cold_run_past_the_threshold_turns_the_table_hot_during_it():
    m = parse_module(PRINT_LOOP)
    n = FUSE_AFTER_STEPS // 5 + 100  # an iteration takes five steps
    r = run(m, "f", [n])
    assert _generated(m)
    assert _compiled(m).steps == r.steps > FUSE_AFTER_STEPS
    assert _facets(r) == _facets(_tuple_run(parse_module(PRINT_LOOP), "f", [n]))


@pytest.mark.parametrize("earlier, counted, switch", [
    # the loop counts from its visit 16,386 steps into a run, and its 43rd
    # counted visit, 16,512 steps in, brings it to 129
    (0, 0, 16_512),
    # a run cut at 16,509 steps counts 42 visits, the last with no fuel
    # left: the loop's first visit of the next run brings it to 129
    (16_509, 126, 3),
    # one cut at 16,507 counts 41 visits, the last whole though it spans
    # the cut: the loop's second visit of the next run brings it to 129
    (16_507, 123, 6),
], ids=["fresh", "one_short", "spanning"])
def test_tiers_agree_at_every_fuel_cut_around_the_switch(earlier, counted, switch):
    """Once a table's runs have executed FUSE_AFTER_STEPS steps, a part
    turns hot at the visit that brings its count to HOT_PART_STEPS, here
    `switch` steps into a run after a run of `earlier` steps that left the
    loop's count at `counted`: that visit generates its region. Cuts around
    it give the tuple ops' result."""
    n = FUSE_AFTER_STEPS // 3 + 100
    for fuel in (*range(max(switch - 2, 1), switch + 3), DEFAULT_FUEL):
        m = parse_module(PROLOGUE_LOOP)
        if earlier:
            assert run(m, "f", [n], earlier).status == FUEL_EXHAUSTED
        table = _compiled(m)
        assert (table.steps, _counts(m)["loop"], _generated(m)) == (
            earlier, counted, 0)
        r = run(m, "f", [n], fuel)
        assert (_hot_labels(m) == ["loop"]) == (fuel >= switch), fuel
        assert table.steps == earlier + r.steps
        expected = _tuple_run(parse_module(PROLOGUE_LOOP), "f", [n], fuel)
        assert _facets(r) == _facets(expected), fuel


def test_a_prologue_stays_cold_while_its_loop_turns_hot():
    """On a hot table, runs of ten trips count the loop's 30 steps a run
    and the prologue's 3. The loop's count reaches 129 in run 5, at its
    third visit 9 steps in, and its region runs `done` from there on; the
    prologue's reaches it only in run 43, and its region then runs the
    whole frame."""
    expected = _tuple_run(parse_module(PROLOGUE_LOOP), "f", [10])
    for fuel in (*range(7, 12), DEFAULT_FUEL):
        m = parse_module(PROLOGUE_LOOP)
        _compiled(m).steps = FUSE_AFTER_STEPS
        for _ in range(4):
            assert _facets(run(m, "f", [10])) == _facets(expected)
            _tuple_run(m, "f", [10])  # a traced run counts nothing
        assert _counts(m) == {"entry": 12, "loop": 120, "done": 8}
        r = run(m, "f", [10], fuel)
        assert (_hot_labels(m) == ["loop"]) == (fuel >= 9), fuel
        cut = _tuple_run(parse_module(PROLOGUE_LOOP), "f", [10], fuel)
        assert _facets(r) == _facets(cut), fuel
    for _ in range(6, 43):
        assert _facets(run(m, "f", [10])) == _facets(expected)
        assert _hot_labels(m) == ["loop"]
    assert _counts(m) == {"entry": 126, "loop": 129, "done": 8}
    assert _facets(run(m, "f", [10])) == _facets(expected)
    assert _hot_labels(m) == ["entry", "loop"]


def test_no_corpus_program_reaches_the_threshold_under_the_default_pipeline(corpus):
    """Short runs stay in the tuple tier and pay no code generation: no
    `nested,indeg,ident-default` output reaches FUSE_AFTER_STEPS over its
    manifest vectors."""
    for entry in corpus:
        for seed in range(4):
            m, _ = transform_module(PipelineConfig(
                ["nested", "indeg", "ident-default"], seed=seed), entry.module)
            steps = sum(run(m, entry.entry, args, entry.fuel).steps
                        for args in entry.inputs)
            assert steps < FUSE_AFTER_STEPS, (entry.name, seed, steps)
            assert _generated(m) == 0


def test_functions_compiled_on_a_hot_table_are_fused():
    m = _fused_twin(parse_module(CALL_THEN_PRINT))
    table = _compiled(m)
    assert not table  # nothing is compiled yet
    assert run(m, "f", []).output == [1, 2, 3, 9]
    assert set(table) == {"f", "g"}
    # f's region runs on through its call of g, whose frame runs through
    # g's generated `enter`
    assert table["f"].entry.fused
    assert table["g"].enter.__name__ == "enter"


# ---------------------------------------------------------------------------
# Regions: a part's generated function runs on through the parts its
# terminator leads to statically, forks on a cbr whose condition is
# unknown, and loops back to its head. Fuel, traps and the call depth limit
# must come out as in the tuple tier.

def _parts_by_label(m, name):
    return {p.trace[1]: p for p in _compiled(m)[name].parts if p.trace}


def _label(part):
    return part.trace[1] if part.trace else "<resume>"


def _paths(node):
    """Each path of a region from `node`: the labels of its parts, and
    where it ends: "<loop>" back to the head, the label of the part it
    leaves for, or the terminator the driver takes."""
    for arm in node.arms:
        if isinstance(arm, _Node):
            for labels, end in _paths(arm):
                yield [_label(node.part), *labels], end
        elif arm is _LOOP:
            yield [_label(node.part)], "<loop>"
        elif arm[0] == _T_BR:
            yield [_label(node.part)], _label(arm[1])
        else:
            yield [_label(node.part)], {_T_CALL: "<call>", _T_RET: "<ret>",
                                        _T_SW: "<switch>"}[arm[0]]


def _regions(m, entry, args, name):
    """Label -> the paths of the region its part heads, in function `name`
    of an equal module that one cold run has compiled."""
    twin = dataclasses.replace(m)
    run(twin, entry, args)
    cfn = _compiled(twin)[name]
    return {label: list(_paths(_region(part)[0]))
            for label, part in _parts_by_label(twin, name).items()}


def _count_calls(m):
    """Wrap every generated function of `m`'s table so that it counts its
    calls; returns the counter, keyed by head part."""
    calls = Counter()
    for cfn in _compiled(m).values():
        for part in cfn.parts:
            if part.fused:
                def counted(env, emit, fuel, depth, room, fused=part.fused,
                            head=part):
                    calls[head] += 1
                    return fused(env, emit, fuel, depth, room)
                part.fused = counted
    return calls


def test_chains_match_the_tuple_tier_at_every_fuel_cut_on_nested_indeg():
    m, _ = transform_module(PipelineConfig(["nested", "indeg"], seed=5),
                            parse_module(PRINT_LOOP))
    hot = _fused_twin(m)
    run(hot, "f", [1])  # generates the regions whose heads run
    parts = [p for p in _compiled(hot)["f"].parts if p.need]
    longest = max(p.need for p in parts)
    assert longest > max(p.cost for p in parts)  # a region spans several parts
    full = run(m, "f", [3])
    assert full.steps > longest + 2 and full.output == [0, 1, 2]
    _assert_tiers_agree(m, "f", [([3], fuel) for fuel in range(1, full.steps + 3)])


def test_chains_resolve_the_nested_dispatch_through_constant_switches():
    m, _ = transform_module(PipelineConfig(["nested"], seed=5),
                            parse_module(GCD_TEXT))
    regions = _regions(m, "gcd", [1071, 462], "_O3gcdii")
    # the outer switch on the literal routing key, then the inner mix of it
    assert regions["loop_go1"] == [(["loop_go1", "dispatch", "done", "done_main"],
                                    "<ret>")]
    # loop_main divides by a register, and the region runs on through it
    assert regions["loop_go"] == [
        (["loop_go", "dispatch", "loop", "loop_main"], "<loop>"),
        (["loop_go", "dispatch", "loop", "loop_main",
          "loop_go1", "dispatch", "done", "done_main"], "<ret>")]
    # the entry's cbr forks, and each arm's key resolves the dispatch
    start = ["entry", "entry_go", "dispatch"]
    trip = ["loop", "loop_main", "loop_go", "dispatch"]
    out = ["loop", "loop_main", "loop_go1", "dispatch", "done"]
    assert regions["entry"] == [
        ([*start, *trip * 3, "loop", "loop_main"], "loop_go"),
        ([*start, *trip * 3, "loop", "loop_main"], "loop_go1"),
        ([*start, *trip * 2, *out], "done_main"),
        ([*start, *trip, *out, "done_main"], "<ret>"),
        ([*start, *out, "done_main"], "<ret>"),
        (["entry", "entry_go1", "dispatch", "done", "done_main"], "<ret>")]
    hot = _assert_tiers_agree(m, "gcd", [([1071, 462], DEFAULT_FUEL)])
    parts = _parts_by_label(hot, "_O3gcdii")
    assert _region(parts["loop_go1"])[1] == sum(
        parts[label].cost for label in regions["loop_go1"][0][0])


DIVIDE_AFTER_BR = """\
func @f src "f" (%x: int, %y: int) -> int {
entry:
  %a = add %x, 1
  %k = 3
  br div
div:
  %q = sdiv %a, %y
  %r = srem %q, %k
  br out
out:
  %s = add %r, 1
  ret %s
}
"""


def test_regions_run_through_a_part_that_might_trap():
    m = parse_module(DIVIDE_AFTER_BR)
    hot = _assert_tiers_agree(m, "f", [([x, y], fuel) for x in (-7, 0, 5)
                                       for y in (0, 2) for fuel in range(1, 10)])
    regions = _regions(m, "f", [5, 2], "f")
    assert regions["entry"] == [(["entry", "div", "out"], "<ret>")]
    assert regions["div"] == [(["div", "out"], "<ret>")]
    # the trap in the entry's region charges entry and div whole, as the
    # tuple ops do
    r = run(hot, "f", [5, 0])
    assert (r.status, r.reason, r.steps) == (TRAPPED, "sdiv by zero", 6)
    assert _generated(hot)


MASKED_SWITCH = """\
extern @print_int(int) -> void

func @f src "f" (%x: int, %y: int) -> int {{
entry:
  %s = and {mask}
  switch %s [{cases}] default live
dead:
  call @print_int(0)
  ret 0
live:
  call @print_int(1)
  ret 1
}}
"""


@pytest.mark.parametrize("mask, cases, resolved", [
    ("%x, 1", "2 -> dead, 3 -> dead", True),  # indeg's selector
    ("5, %x", "6 -> dead, -1 -> dead", True),
    ("%x, 3", "2 -> dead, 7 -> dead", False),  # 2 lies in [0, 3]
    ("%x, -4", "8 -> dead", False),  # x & -4 may be any multiple of 4
    ("%x, %y", "2 -> dead", False),  # no known mask
], ids=["selector", "mask_first", "case_in_range", "negative", "unknown"])
def test_chains_take_the_default_of_a_switch_no_masked_value_can_match(
        mask, cases, resolved):
    m = parse_module(MASKED_SWITCH.format(mask=mask, cases=cases))
    regions = _regions(m, "f", [8, 8], "f")
    # a switch nothing resolves ends the region, and the driver takes it
    assert regions["entry"] == ([(["entry", "live"], "<ret>")] if resolved
                                else [(["entry"], "<switch>")])
    _assert_tiers_agree(m, "f", [([x, y], DEFAULT_FUEL)
                                 for x in (-9, -1, 0, 1, 2, 3, 7, 8, 12)
                                 for y in (1, 2, 8)])


MASK_PROBE = """\
extern @print_int(int) -> void

func @g src "g" (%a: int) -> int {{
entry:
  ret %a
}}

func @f src "f" (%x: int) -> int {{
entry:
  %s = and {mask}
{later}{copy}  switch {scrutinee} [{cases}] default other
{arms}other:
  call @print_int(-1)
  ret %s
}}
"""
# what may follow the `and`: a write of another register keeps the mask,
# a write of the scrutinee (a call's result too) ends it
_LATER = ["  %u = add %x, 1\n", "  %s = add %s, 1\n", "  %s = %x\n",
          "  %s = call @g(%x)\n"]
_WORDS = st.one_of(st.integers(-8, 40), st.integers(INT_MIN, INT_MAX))


@settings(max_examples=200, deadline=None)
@given(_WORDS, st.booleans(), st.lists(st.sampled_from(_LATER), max_size=2),
       st.lists(_WORDS, max_size=4, unique=True),
       st.lists(_WORDS, min_size=1, max_size=6))
def test_switch_mask_bounds_the_scrutinee_and_its_br_keeps_the_result(
        c, first, later, cases, xs):
    def probe(copy):
        return parse_module(MASK_PROBE.format(
            mask=f"{c}, %x" if first else f"%x, {c}", later="".join(later),
            copy="  %t = %s\n" if copy else "",
            scrutinee="%t" if copy else "%s",
            cases=", ".join(f"{lit} -> k{i}" for i, lit in enumerate(cases)),
            arms="".join(f"k{i}:\n  call @print_int({i})\n  ret %s\n"
                         for i in range(len(cases)))))

    m, unresolved = probe(False), probe(True)  # a copy hides the mask
    mask = switch_mask(m.functions[1].blocks[0])
    rewritten = any(w.startswith("  %s =") for w in later)
    assert mask == (None if rewritten or c < 0 else c)
    if mask is not None:
        assert all(0 <= wrap64(x & mask) <= mask for x in xs)
    hot = _fused_twin(m)
    for x in xs:
        r, expected = run(m, "f", [x]), run(unresolved, "f", [x])
        assert r.observable() == expected.observable()
        assert r.steps == expected.steps - 1  # the copy's step
        assert _facets(run(hot, "f", [x])) == _facets(r)
        if mask is not None:
            assert 0 <= r.value <= mask
    resolved = mask is not None and not any(0 <= lit <= mask for lit in cases)
    assert sum(p.term[0] == _T_BR for p in _compiled(m)["f"].parts) == resolved
    assert not any(p.term[0] == _T_BR for p in _compiled(unresolved)["f"].parts)


CHAIN_INTO_CALL_AND_RET = """\
func @f src "f" (%n: int) -> int {
entry:
  %c = cmp le %n, 0
  cbr %c, base, rec
base:
  %z = 0
  br out
out:
  ret %z
rec:
  %n1 = sub %n, 1
  br descend
descend:
  %r = call @f(%n1)
  %s = add %r, 1
  br back
back:
  ret %s
}
"""


def test_chains_into_a_call_or_ret_keep_the_call_depth_limit():
    m = parse_module(CHAIN_INTO_CALL_AND_RET)
    hot = _assert_tiers_agree(m, "f", [([MAX_CALL_DEPTH - 1], 10**7),
                                       ([MAX_CALL_DEPTH], 10**7)])
    assert run(hot, "f", [MAX_CALL_DEPTH], fuel=10**7).reason == "call depth exceeded"
    assert run(hot, "f", [MAX_CALL_DEPTH - 1], fuel=10**7).value == MAX_CALL_DEPTH - 1
    regions = _regions(m, "f", [2], "f")
    # a call runs inside the region, which goes on after it to the ret
    assert regions["rec"] == [(["rec", "descend", "<resume>", "back"], "<ret>")]
    assert regions["entry"] == [
        (["entry", "base", "out"], "<ret>"),
        (["entry", "rec", "descend", "<resume>", "back"], "<ret>")]
    labels = _parts_by_label(hot, "f")
    # the fuel must cover the costliest path up to the call before the
    # region runs, and the path after the call once the call returns
    assert labels["entry"].need == labels["entry"].cost + max(
        labels["base"].cost + labels["out"].cost,
        labels["rec"].cost + labels["descend"].cost)
    root, _ = _region(labels["entry"])
    resumed = root.arms[1].arms[0].arms[0]
    assert resumed.part.trace is None and resumed.start is resumed
    assert resumed.need == resumed.part.cost + labels["back"].cost


# both arms of the loop's inner cbr write registers the other does not, and
# `done` divides by the argument
ALTERNATING_ARMS = """\
extern @print_int(int) -> void

func @f src "f" (%n: int) -> int {
entry:
  %i = 0
  %a = 0
  %b = 0
  br loop
loop:
  %c = cmp lt %i, %n
  cbr %c, body, done
body:
  %i = add %i, 1
  %o = and %i, 1
  %odd = cmp eq %o, 1
  cbr %odd, left, right
left:
  %a = add %a, %i
  br loop
right:
  %b = mul %b, 3
  %b = add %b, %i
  br loop
done:
  %q = sdiv %a, %n
  call @print_int(%b)
  %r = add %q, %b
  ret %r
}
"""


def test_a_region_loops_many_trips_inside_one_generated_function():
    m = parse_module(PRINT_LOOP)
    hot = _fused_twin(m)
    run(hot, "f", [2])  # generates the regions that run
    calls = _count_calls(hot)
    r = run(hot, "f", [1000])
    assert r.output == list(range(1000)) and r.steps == 5005
    assert sum(calls.values()) <= 3  # the entry's, the loop's, and the exit's
    assert _regions(m, "f", [2], "f")["loop"] == [
        (["loop", "body"], "<loop>"), (["loop", "done"], "<ret>")]
    _assert_tiers_agree(m, "f", [([30], fuel) for fuel in range(1, 160)])


def test_both_arms_of_an_unknown_cbr_store_what_they_write():
    m = parse_module(ALTERNATING_ARMS)
    regions = _regions(m, "f", [4], "f")
    assert regions["loop"] == [
        (["loop", "body", "left"], "<loop>"),
        (["loop", "body", "right"], "<loop>"),
        (["loop", "done"], "<ret>"),
    ]
    full = run(m, "f", [9])
    assert full.status == RETURNED
    _assert_tiers_agree(m, "f", [([n], fuel) for n in (0, 1, 2, 9)
                                 for fuel in range(1, full.steps + 2)])


def test_a_region_that_leaves_at_a_ret_stores_back_only_the_value():
    """The driver drops a frame once it has read its ret's value, so the
    registers a region carries round its loop stay in locals at a ret."""
    m = parse_module(ALTERNATING_ARMS)
    value = run(m, "f", [4]).value
    table = _compiled(m)
    region = interp._fuse_region(table, _parts_by_label(m, "f")["loop"])
    env = [4, *table["f"].locals_env]  # as the loop first starts
    before = list(env)
    fuel, term = region(env, [].append, DEFAULT_FUEL, 1, 1)
    assert term[0] == _T_RET and env[term[1]] == value
    changed = [slot for slot, old in enumerate(before) if env[slot] != old]
    assert changed in ([], [term[1]])


REREAD_CONDITION = """\
func @f src "f" (%x: int) -> int {
entry:
  %c = cmp lt %x, 0
  cbr %c, neg, pos
neg:
  %d = cmp eq %c, true
  cbr %d, one, two
pos:
  cbr %c, two, one
one:
  ret 1
two:
  ret 2
}
"""


def test_arms_that_branch_again_on_the_condition_match_the_tuple_tier():
    m = parse_module(REREAD_CONDITION)
    # each arm's second branch on %c leads to `one`
    hot = _assert_tiers_agree(m, "f", [([x], fuel) for x in (-3, 0, 4)
                                       for fuel in range(1, 6)])
    assert [run(hot, "f", [x]).value for x in (-3, 0, 4)] == [1, 1, 1]


# the loop's head divides by a register that reaches zero on its n+1-th trip
DIVIDING_HEAD = """\
func @f src "f" (%n: int) -> int {
entry:
  %i = %n
  %s = 0
  br loop
loop:
  %q = sdiv 100, %i
  %s = add %s, %q
  %i = sub %i, 1
  br loop
}
"""


def test_a_region_folds_a_never_written_bool_register():
    """`validate` rejects a register that nothing writes, but `run` starts
    it at 0 like any other: a region folds it, so the branch on it resolves
    and the loop never forks to `bad`, and the ret gives False."""
    x, i, b = (Local(name) for name in "xib")
    m = IrModule(functions=(IrFunction("_O1f", "f", (("x", "int"),), "bool", (
        BasicBlock("entry", (Assign("i", x),), Br("loop")),
        BasicBlock("loop", (BinOp("i", "sub", i, 1), Cmp("c", "gt", i, 0)),
                   Cbr("c", "body", "done")),
        BasicBlock("body", (), Cbr("b", "bad", "loop")),
        BasicBlock("bad", (), Ret(True)),
        BasicBlock("done", (), Ret(b)),
    )),))
    assert _regions(m, "f", [3], "_O1f")["loop"] == [
        (["loop", "body"], "<loop>"), (["loop", "done"], "<ret>")]
    hot = _assert_tiers_agree(m, "f", [([n], fuel) for n in (0, 3, 40)
                                       for fuel in (5, 60, DEFAULT_FUEL)])
    assert run(hot, "f", [40]).value is False
    assert _parts_by_label(hot, "_O1f")["loop"].fused


def test_a_dividing_head_loops_inside_one_generated_function():
    m = parse_module(DIVIDING_HEAD)
    assert _regions(m, "f", [3], "f")["loop"] == [(["loop"], "<loop>")]
    hot = _fused_twin(m)
    run(hot, "f", [40])  # generates the entry's region and the loop's
    loop = _parts_by_label(hot, "f")["loop"]
    calls = _count_calls(hot)
    # the entry's region runs 15 trips; the loop's traps on its 986th
    r = run(hot, "f", [1000])
    assert calls[loop] == 1 and sum(calls.values()) == 2
    # the trap on trip n + 1 ends the run after 3 + 4 * (n + 1) steps
    assert (r.status, r.reason, r.steps) == (TRAPPED, "sdiv by zero", 3 + 4 * 1001)
    _assert_tiers_agree(m, "f", [([n], fuel) for n in (1, 2, 5, 40)
                                 for fuel in (*range(1, 4 * n + 9), DEFAULT_FUEL)])
    r = run(hot, "f", [5])
    # five whole trips, then the trap charges its whole part
    assert (r.status, r.reason, r.steps) == (TRAPPED, "sdiv by zero", 3 + 6 * 4)


def test_each_part_is_generated_at_most_once(monkeypatch):
    made = Counter()
    fuse_region = interp._fuse_region

    def counted(table, head, entry=False):
        made[head, entry] += 1
        return fuse_region(table, head, entry)

    monkeypatch.setattr(interp, "_fuse_region", counted)
    only_ret = 'func @f src "f" () -> int {\nentry:\n  ret 7\n}\n'
    for text, args in ((CALL_THEN_PRINT, []), (COUNT_DOWN, [50]), (only_ret, [])):
        hot = _fused_twin(parse_module(text))
        for _ in range(2):
            run(hot, "f", args)
    assert set(made.values()) == {1}
    # a call's callee runs through its `enter`
    assert any(entry for _, entry in made)
    # an entry that only returns is a bare terminator
    assert any(head.fused is False for head, _ in made)


def test_a_region_revisits_the_nested_dispatcher():
    m, _ = transform_module(PipelineConfig(["nested"], seed=5),
                            parse_module(PRINT_LOOP))
    regions = _regions(m, "f", [3], "f")
    revisits = [labels for paths in regions.values() for labels, end in paths
                if labels.count("dispatch") > 1 and end == "<loop>"]
    assert revisits  # a trip of the loop passes the dispatcher twice
    full = run(m, "f", [4])
    _assert_tiers_agree(m, "f", [([4], fuel) for fuel in range(1, full.steps + 2)])


# a loop whose trips end in a recursive call
LOOP_THEN_RECURSE = """\
func @f src "f" (%n: int) -> int {
entry:
  %c = cmp le %n, 0
  cbr %c, base, rec
base:
  ret 0
rec:
  %j = 0
  br spin
spin:
  %j = add %j, 1
  %more = cmp lt %j, 3
  cbr %more, spin, call
call:
  %n1 = sub %n, 1
  %r = call @f(%n1)
  %s = add %r, %j
  ret %s
}
"""


def test_regions_keep_the_call_depth_limit():
    m = parse_module(LOOP_THEN_RECURSE)
    full = run(m, "f", [4])
    assert full.value == 12
    _assert_tiers_agree(m, "f", [([4], fuel) for fuel in range(1, full.steps + 2)])
    hot = _assert_tiers_agree(m, "f", [([MAX_CALL_DEPTH - 1], 10**7),
                                       ([MAX_CALL_DEPTH], 10**7)])
    assert run(hot, "f", [MAX_CALL_DEPTH], fuel=10**7).reason == "call depth exceeded"


def test_fuel_below_the_costliest_path_runs_the_heads_tuple_ops():
    m = parse_module(ALTERNATING_ARMS)
    hot = _fused_twin(m)
    run(hot, "f", [4])  # generates the regions that run
    entry = _parts_by_label(hot, "f")["entry"]
    calls = _count_calls(hot)
    for fuel in range(1, entry.need + 2):
        calls.clear()
        expected = _tuple_run(dataclasses.replace(m), "f", [4], fuel)
        assert _facets(run(hot, "f", [4], fuel)) == _facets(expected), fuel
        assert (calls[entry] > 0) == (fuel >= entry.need), fuel


def test_fused_tier_matches_tuple_tier_on_the_exec_long_programs(corpus):
    """The `nested,indeg,ident-default` outputs of the long-running corpus
    programs, on arguments of about 10^4 steps, whole and cut by fuel
    inside their loops. Their hot runs generate regions and build none of
    their decoys."""
    vectors = {"fib": [700], "ackermann": [2, 19], "is_prime": [2039197],
               "collatz": [63728127], "gcd": [23416728348467685, 14472334024676221],
               "xorshift": [88172645463325252, 1050],
               "rotl_mix": [1234567890123456789, 1170]}
    rng = random.Random(0)
    guards = built = 0
    for entry in corpus:
        if entry.name not in vectors:
            continue
        m, _ = transform_module(PipelineConfig(
            ["nested", "indeg", "ident-default"], seed=3), entry.module)
        args = vectors.pop(entry.name)
        full = _tuple_run(m, entry.entry, args, entry.fuel)
        assert full.status == RETURNED
        cuts = sorted(rng.randrange(1, full.steps) for _ in range(6))
        hot = _assert_tiers_agree(m, entry.entry, [(args, fuel) for fuel in
                                                   (*cuts, full.steps, DEFAULT_FUEL)])
        assert _generated(hot), entry.name
        decoys = [d for cfn in _compiled(hot).values() for d in cfn.decoys.values()]
        guards += len(decoys)
        built += sum(type(d) is not BasicBlock for d in decoys)
    assert not vectors
    assert guards >= 7 and built == 0


# ---------------------------------------------------------------------------
# Direct calls: a region runs a call to a function the module defines by
# calling the callee's generated `enter` on the Python stack, and goes on
# after it. Fuel, traps, output and the call depth must come out as in the
# tuple tier, also where the Python-depth bound sends calls back to
# explicit frames.

def test_ackermann_matches_the_tuple_tier_at_cuts_around_its_calls(corpus):
    """ackermann and its `nested,indeg,ident-default` outputs at pass seeds
    0-3, on vectors of 10^4-10^5 steps, whole and cut inside callees, right
    after a call returns and on a ret. ack(2, n) calls ack(2, n - 1) and
    then ack(1, that), and its frame ends a few steps after the second call
    returns: the windows below end at that call's start and its return."""
    entry = next(e for e in corpus if e.name == "ackermann")
    rng = random.Random(1)
    modules = [entry.module] + [
        transform_module(PipelineConfig(["nested", "indeg", "ident-default"],
                                        seed=seed), entry.module)[0]
        for seed in range(4)]
    for m in modules:
        frame = _tuple_run(m, "ack", [2, 30]).steps
        inner = _tuple_run(m, "ack", [2, 29]).value
        second = _tuple_run(m, "ack", [1, inner]).steps
        cuts = {*range(frame - 16, frame + 1),
                *range(frame - second - 16, frame - second + 8),
                *(rng.randrange(1, frame) for _ in range(8))}
        _assert_tiers_agree(m, "ack", [([2, 30], fuel) for fuel in sorted(cuts)])
        full = _tuple_run(m, "ackMain", [2, 86], 5 * 10**6)
        assert full.steps > 10**5 and full.value == 2 * 86 + 3
        _assert_tiers_agree(m, "ackMain", [([2, 50], 5 * 10**6),
                                           ([2, 86], 5 * 10**6),
                                           ([2, 86], full.steps - 1)])


TRAP_TWO_CALLS_DEEP = """\
extern @print_int(int) -> void

func @h src "h" (%x: int) -> int {
entry:
  call @print_int(%x)
  %a = add %x, 1
  %q = sdiv 100, %x
  %r = add %q, %a
  ret %r
}

func @g src "g" (%x: int) -> int {
entry:
  %y = sub %x, 1
  %r = call @h(%y)
  %s = add %r, 1
  ret %s
}

func @f src "f" (%x: int) -> int {
entry:
  call @print_int(%x)
  %r = call @g(%x)
  %s = mul %r, 2
  ret %s
}
"""


def test_a_trap_two_calls_deep_reports_the_fuel_after_its_own_part():
    m = parse_module(TRAP_TWO_CALLS_DEEP)
    hot = _assert_tiers_agree(m, "f", [([x], fuel) for x in (1, 3)
                                       for fuel in (*range(1, 16), DEFAULT_FUEL)])
    r = run(hot, "f", [1])
    # f's call part (2), g's (2) and h's whole part (5): no caller overwrites
    # the fuel that h's region gave the trap
    assert (r.status, r.reason, r.output, r.steps) == (
        TRAPPED, "sdiv by zero", [1, 0], 9)
    assert _compiled(hot)["f"].entry.fused


def test_fuel_that_runs_out_inside_a_directly_called_frame():
    m = parse_module(TRAP_TWO_CALLS_DEEP)
    hot = _fused_twin(m)
    run(hot, "f", [3])  # generates f's region and the callees' `enter`
    for fuel in range(1, 13):
        r = run(hot, "f", [3], fuel)
        expected = _tuple_run(dataclasses.replace(m), "f", [3], fuel)
        assert _facets(r) == _facets(expected), fuel
        if fuel < 12:
            assert (r.status, r.steps) == (FUEL_EXHAUSTED, fuel)
    # h prints 2 at step 5; its ops after that do not fit into 6 steps
    assert run(hot, "f", [3], 6).output == [3, 2]


def test_calls_past_the_python_depth_bound_take_explicit_frames(monkeypatch):
    """COUNT_DOWN at the deepest depth that returns, and one deeper: past
    NESTED_FRAMES the calls go back to `_drive`'s explicit frames, and the
    results match the tuple tier's."""
    started = []
    drive = interp._drive

    def counted(table, env, term, emit, fuel, depth, room, *rest):
        started.append((depth, room))
        return drive(table, env, term, emit, fuel, depth, room, *rest)

    # the generated code binds `_drive` when it is generated
    monkeypatch.setattr(interp, "_drive", counted)
    m = parse_module(COUNT_DOWN)
    hot = _assert_tiers_agree(m, "f", [([MAX_CALL_DEPTH - 1], 10**7),
                                       ([MAX_CALL_DEPTH], 10**7)])
    started.clear()
    assert run(hot, "f", [MAX_CALL_DEPTH - 1], 10**7).value == MAX_CALL_DEPTH - 1
    # the run's own driver, then one that a frame at the bound hands on to
    assert started[0] == (1, interp.NESTED_FRAMES)
    assert len(started) == 2 and started[1][1] < 1
    assert run(hot, "f", [MAX_CALL_DEPTH], 10**7).reason == "call depth exceeded"


# Python frames that `interp`'s docstring documents a hot run may need
HOT_RUN_FRAMES = interp.NESTED_FRAMES + 144


def _at_stack_depth(depth, fn):
    """Call `fn` from a Python stack `depth` frames deep."""
    frame, here = sys._getframe(), 0
    while frame is not None:
        frame, here = frame.f_back, here + 1
    if here < depth:
        return _at_stack_depth(depth, fn)
    return fn()


def test_a_hot_run_at_the_call_depth_limit_fits_the_documented_headroom():
    m = parse_module(COUNT_DOWN)
    hot = _fused_twin(m)
    depth = sys.getrecursionlimit() - HOT_RUN_FRAMES
    r = _at_stack_depth(depth, lambda: run(hot, "f", [MAX_CALL_DEPTH - 1], 10**7))
    assert (r.status, r.value) == (RETURNED, MAX_CALL_DEPTH - 1)
    r = _at_stack_depth(depth, lambda: run(hot, "f", [MAX_CALL_DEPTH], 10**7))
    assert r.reason == "call depth exceeded"


# ---------------------------------------------------------------------------
# Calls copy their argument values: in a valid module every argument has
# its parameter's type, so a register `validate` cannot type never reaches
# a call.

UNTYPED_TO_BOOL = """\
func @g src "g" (%p: bool) -> bool {
entry:
  ret %p
}

func @f src "f" () -> bool {
entry:
  %u = %v
  %v = %u
  %r = call @g(%u)
  ret %r
}
"""


def test_untyped_register_passed_to_a_bool_parameter_is_rejected():
    with pytest.raises(ValidationError) as err:
        parse_module(UNTYPED_TO_BOOL)
    assert [(d.code, d.message, d.block) for d in err.value.diagnostics] == [
        ("UntypedLocal", "%v has no inferable type", "entry"),
        ("UntypedLocal", "%u has no inferable type", "entry"),
        ("UntypedLocal", "%u has no inferable type", "entry"),
    ]


# ---------------------------------------------------------------------------
# A block marked `bogus` is compiled at its first entry, through a guard
# that costs no step and traces nothing. The mark is only a hint: marking
# any block must leave every result as it was, steps included.

def _marked(m, labels):
    """`m` with each block whose (function base name, label) is in `labels`
    marked bogus."""
    return dataclasses.replace(m, functions=tuple(
        dataclasses.replace(fn, blocks=tuple(
            dataclasses.replace(b, role="bogus")
            if (fn.base_name, b.label) in labels else b for b in fn.blocks))
        for fn in m.functions))


def _traced(m, entry, args, fuel):
    seen = []
    return _facets(run(m, entry, args, fuel, lambda *b: seen.append(b))), seen


def _assert_marks_change_nothing(m, labels, entry, runs):
    """Each (args, fuel) run of `m` with `labels` marked gives the result of
    `m`, cold and hot, on a fresh copy and on one that every earlier run
    has built decoys in, and a block tracer sees the same blocks; returns
    the marked copy that took every cold run."""
    marked = _marked(m, labels)
    warm, warm_hot = dataclasses.replace(marked), _fused_twin(marked)
    for args, fuel in runs:
        want = _facets(run(dataclasses.replace(m), entry, args, fuel))
        for copy in (dataclasses.replace(marked), warm, _fused_twin(marked),
                     warm_hot):
            assert _facets(run(copy, entry, args, fuel)) == want, (args, fuel)
        assert (_traced(dataclasses.replace(marked), entry, args, fuel)
                == _traced(m, entry, args, fuel)), (args, fuel)
    return warm


_LABELS = [*(f"b{i}" for i in range(5)), "dead", "entry", "yes", "no", "unused"]


@settings(max_examples=100, deadline=None)
@given(st.one_of(random_modules(divisions=True), random_programs()),
       st.sets(st.tuples(st.sampled_from(["f", "h"]), st.sampled_from(_LABELS))),
       st.integers(-8, 8), _BUDGETS)
def test_marking_blocks_bogus_changes_no_result_on_random_programs(m, labels, x,
                                                                  budgets):
    _assert_marks_change_nothing(m, labels, "f",
                                 [([x], fuel) for fuel in (*budgets, 300)])


DECOY_IN_RECURSION = """\
extern @print_int(int) -> void

func @f src "f" (%n: int) -> int {
entry:
  %c = cmp le %n, 0
  cbr %c, base, rec
base:
  ret 1
rec:
  %m = sub %n, 1
  %r = call @f(%m)
  br mix
mix:
  %k = mul %r, 1000003
  %h = call @h(%k, 77777)
  %u = xor %h, 424242
  call @print_int(%u)
  ret %u
}

func @h src "h" (%a: int, %b: int) -> int {
entry:
  %s = add %a, %b
  ret %s
}
"""


@pytest.mark.parametrize("labels", [
    {("f", "mix")},
    {("f", "entry"), ("h", "entry")},
    {("f", "entry"), ("f", "rec"), ("f", "mix"), ("h", "entry")},
], ids=["call_and_literals", "entry_blocks", "most_blocks"])
def test_a_decoy_that_runs_in_a_recursion_gives_the_unmarked_results(labels):
    """`mix` holds a call and the only uses of three literals, so its
    registers and literals take slots of their own; the deepest frame that
    reaches it builds it, and the older frames, which were made with fewer
    slots, reach it afterwards. Every fuel cut of the deepest run is
    checked."""
    m = parse_module(DECOY_IN_RECURSION)
    full = run(m, "f", [4])
    assert full.status == RETURNED and len(full.output) == 4
    runs = [([n], DEFAULT_FUEL) for n in range(5)]
    runs += [([4], fuel) for fuel in range(1, full.steps + 2)]
    warm = _assert_marks_change_nothing(m, labels, "f", runs)
    assert all(type(part) is interp._Part
               for part in _compiled(warm)["f"].decoys.values())


DECOY_THAT_TRAPS = """\
extern @print_int(int) -> void

func @f src "f" (%n: int) -> int {
entry:
  %i = %n
  br loop
loop:
  %c = cmp lt %i, 0
  cbr %c, done, odd
odd:
  %q = sdiv 31337, %i
  %i = sub %i, 1
  call @print_int(%q)
  br loop
done:
  ret %i
}
"""


def test_a_decoy_that_traps_is_traced_once_per_entry():
    m = parse_module(DECOY_THAT_TRAPS)
    full = run(m, "f", [3])
    assert full.reason == "sdiv by zero" and len(full.output) == 3
    runs = [([n], DEFAULT_FUEL) for n in (-1, 0, 3)]
    runs += [([3], fuel) for fuel in range(1, full.steps + 2)]
    _assert_marks_change_nothing(m, {("f", "odd")}, "f", runs)
    facets, seen = _traced(_marked(m, {("f", "odd")}), "f", [3], DEFAULT_FUEL)
    assert facets == _facets(full) and seen.count(("f", "odd")) == 4


DECOY_WRITES_A_LOOP_REGISTER = """\
func @f src "f" (%n: int) -> int {
entry:
  %i = 0
  %acc = 0
  br loop
loop:
  %acc = add %acc, %k
  %i = add %i, 1
  %c = cmp lt %i, %n
  cbr %c, loop, after
after:
  %d = cmp eq %acc, 0
  cbr %d, set, done
set:
  %k = 5
  %i = 0
  br loop
done:
  ret %acc
}
"""


def test_a_register_only_a_decoy_writes_is_not_folded_in_a_hot_loop():
    """`%k` is written only in `set`, which runs once the loop has run: a
    region generated before that must still read `%k`."""
    m = parse_module(DECOY_WRITES_A_LOOP_REGISTER)
    assert run(m, "f", [3]).value == 15
    _assert_marks_change_nothing(m, {("f", "set")}, "f",
                                 [([n], DEFAULT_FUEL) for n in (1, 3, 40)])
    hot = _fused_twin(_marked(m, {("f", "set")}))
    assert run(hot, "f", [40]).value == 200 and _generated(hot)


@pytest.mark.parametrize("cfg", [
    PipelineConfig(["nested", "indeg", "ident-default"], seed=3),
    PipelineConfig(["bcf"], seed=3, prob=1.0),
], ids=["nested_indeg_ident_default", "bcf_prob_1"])
def test_no_decoy_of_an_obfuscated_corpus_program_is_built(corpus, cfg):
    """The passes' decoys never run, so no manifest vector builds one."""
    guards = 0
    for entry in corpus:
        m, _ = transform_module(cfg, entry.module)
        for args in entry.inputs:
            assert run(m, entry.entry, args, entry.fuel).status == RETURNED
        decoys = [d for cfn in _compiled(m).values() for d in cfn.decoys.values()]
        assert all(type(d) is BasicBlock for d in decoys), entry.name
        guards += len(decoys)
    assert guards >= len(corpus)


def _parts_flow(cfn):
    """(constants, carried) as `flow` defines them, computed from the parts
    that `cfn` has built: a slot that no parameter, op or call result
    writes keeps its int or bool start value, and a slot is carried when
    some part reads it before writing it."""
    written, carried = set(range(len(cfn.params))), set()
    for part in cfn.parts:
        wrote = set()
        for op in part.ops:
            carried.update(slot for slot in _op_reads(op) if slot not in wrote)
            if op[0] != _PRINT:
                wrote.add(op[1])
        carried.update(slot for slot in _term_reads(part.term) if slot not in wrote)
        written |= wrote
        if part.term[0] == _T_CALL and part.term[3] is not None:
            written.add(part.term[3])
    return ({slot: value for slot, value in enumerate(cfn.init_env)
             if slot not in written and type(value) in (int, bool)}, carried)


def _assert_lazy_flow_is_the_built_flow(m):
    """Each function's `flow()`, read from the IR with its decoys unbuilt,
    equals the flow of its parts once every decoy is built, on the slots
    that exist before any decoy is built, and leaves the decoys unbuilt;
    with every decoy built, it equals that flow on every slot."""
    for fn in m.functions:
        lazy = _compiled(dataclasses.replace(m))[fn.mangled_name]
        constants, carried = lazy.flow()
        assert all(type(d) is BasicBlock for d in lazy.decoys.values())
        slots = len(lazy.init_env)
        built = _compiled(dataclasses.replace(m))[fn.mangled_name]
        for guard in list(built.decoys):
            built.decoy(guard)
        all_constants, all_carried = _parts_flow(built)
        assert built.flow() == (all_constants, all_carried)
        assert constants == {s: v for s, v in all_constants.items() if s < slots}
        assert carried == {s for s in all_carried if s < slots}


def test_lazy_flow_is_the_built_flow_on_corpus_outputs_under_every_pass(corpus):
    for entry in corpus:
        for name in PASS_APPLIERS:
            m, _ = transform_module(PipelineConfig([name], seed=5), entry.module)
            _assert_lazy_flow_is_the_built_flow(m)


@settings(max_examples=100, deadline=None)
@given(st.one_of(random_modules(divisions=True), random_programs()),
       st.sets(st.tuples(st.sampled_from(["f", "h"]), st.sampled_from(_LABELS))))
def test_lazy_flow_is_the_built_flow_on_random_programs_marked_bogus(m, labels):
    _assert_lazy_flow_is_the_built_flow(_marked(m, labels))


DECOY_READS_AND_WRITES = """\
extern @print_int(int) -> void

func @h src "h" (%a: int) -> int {
entry:
  ret %a
}

func @f src "f" (%x: int) -> int {
entry:
  %c = cmp lt %x, 0
  cbr %c, decoy, out
bogus decoy:
  %q = add %x, 5
  %k = call @h(%v)
  %u = add %q, 1
  %s = and %x, 1
  %r = call @h(%s)
  call @print_int(%m)
  switch %s [4 -> out] default last
bogus last:
  ret %n
out:
  %q = add %x, 6
  %v = add %q, 1
  %s = and %v, 7
  %m = add %s, 1
  %n = add %m, %k
  ret %n
}
"""


def test_lazy_flow_counts_what_each_decoy_reads_and_writes():
    """The real block `out` writes each register it reads but `%k`, which
    only the decoy's call writes. The decoy reads `%v` as a call argument,
    `%q` after a call split its block, `%m` as printed and `%n` at its
    ret, each before writing it; its masked switch can take no case, so it
    compiles to a br that reads no `%s`."""
    _assert_lazy_flow_is_the_built_flow(parse_module(DECOY_READS_AND_WRITES))
