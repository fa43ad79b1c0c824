import pytest
from hypothesis import given, settings

from iobf import parse_module, validate
from iobf.cli import PipelineConfig, run_pipeline
from iobf.ir import (
    Assign,
    BasicBlock,
    BinOp,
    Br,
    Call,
    Cbr,
    Cmp,
    ExternDecl,
    GlobalRef,
    IrFunction,
    IrModule,
    Local,
    Ret,
    Switch,
    operand_type,
)
from iobf.parser import ValidationError
from iobf.validate import Diagnostic, infer_local_types

from conftest import random_modules


def codes(m):
    return sorted({d.code for d in validate(m)})


def fn_of(blocks, params=(), ret="int"):
    return IrFunction("_O1fi", "f", tuple(params), ret, tuple(blocks))


def test_valid_module_is_clean(gcd_module):
    assert validate(gcd_module) == []


def test_missing_terminator():
    m = IrModule(functions=[fn_of([BasicBlock("entry", [Assign("x", 1)], None)])])
    assert "MissingTerminator" in codes(m)


def test_duplicate_label():
    m = IrModule(functions=[fn_of([
        BasicBlock("entry", [], Br("entry")),
        BasicBlock("entry", [], Ret(0)),
    ])])
    assert "DuplicateLabel" in codes(m)


def test_undefined_local_use():
    m = IrModule(functions=[fn_of([
        BasicBlock("entry", [Assign("x", Local("ghost"))], Ret(Local("x"))),
    ])])
    assert "UndefinedLocal" in codes(m)


def test_undefined_global():
    m = IrModule(functions=[fn_of([
        BasicBlock("entry", [Assign("x", GlobalRef("g"))], Ret(Local("x"))),
    ])])
    assert "UndefinedGlobal" in codes(m)


def test_type_mismatch_bool_in_arithmetic():
    m = IrModule(functions=[fn_of([
        BasicBlock("entry", [
            Assign("b", True),
            BinOp("x", "add", Local("b"), 1),
        ], Ret(Local("x"))),
    ])])
    assert "TypeMismatch" in codes(m)


def test_cbr_condition_must_be_bool():
    m = IrModule(functions=[fn_of([
        BasicBlock("entry", [Assign("x", 1)], Cbr("x", "a", "a")),
        BasicBlock("a", [], Ret(0)),
    ])])
    assert "TypeMismatch" in codes(m)


def test_static_division_by_zero():
    m = IrModule(functions=[fn_of([
        BasicBlock("entry", [BinOp("x", "sdiv", 1, 0)], Ret(Local("x"))),
    ])])
    assert "DivByZeroConst" in codes(m)


def test_call_arity_checked():
    callee = IrFunction("_O1gii", "g", [("a", "int"), ("b", "int")], "int",
                        [BasicBlock("entry", [], Ret(0))])
    caller = fn_of([
        BasicBlock("entry", [Call("x", "_O1gii", [1])], Ret(Local("x"))),
    ])
    m = IrModule(functions=[caller, callee])
    assert "CallArityMismatch" in codes(m)


def test_void_call_with_result_rejected():
    m = IrModule(
        functions=[fn_of([
            BasicBlock("entry", [Call("x", "print_int", [1])], Ret(Local("x"))),
        ])],
        externs=[ExternDecl("print_int", ["int"], "void")],
    )
    assert "TypeMismatch" in codes(m)


def test_void_call_result_has_no_type():
    """The mistake is reported once: a void result types no register, so
    reading it is an untyped read, not a second type mismatch."""
    m = IrModule(
        functions=[fn_of([
            BasicBlock("entry", [Call("x", "v", [])], Ret(Local("x"))),
        ])],
        externs=[ExternDecl("v", [], "void")],
    )
    assert "x" not in infer_local_types(m.functions[0], m)
    assert [d.code for d in validate(m)] == ["TypeMismatch", "UntypedLocal"]


def test_return_type_checked():
    m = IrModule(functions=[fn_of([BasicBlock("entry", [], Ret(None))])])
    assert "ReturnTypeMismatch" in codes(m)


@pytest.mark.parametrize("label", ["true", "false"])
def test_block_labelled_like_a_literal_is_rejected(label):
    # after a bare `ret` the printed label would read as its operand
    m = IrModule(functions=[fn_of([BasicBlock("entry", [], Ret(None)),
                                   BasicBlock(label, [], Ret(None))], ret="void")])
    assert [(d.code, d.block) for d in validate(m)] == [("ReservedLabel", label)]
    with pytest.raises(ValidationError) as err:
        parse_module(f'func @f src "f" () -> void {{ entry: br {label} {label}: ret }}')
    assert err.value.codes == ["ReservedLabel"]


def test_an_invalid_instruction_shared_by_two_blocks_is_reported_in_each():
    bad = BinOp("x", "add", Local("ghost"), 1)
    ok = BinOp("x", "add", Local("x"), 1)
    m = IrModule(functions=[fn_of([
        BasicBlock("entry", [ok, bad], Br("next")),
        BasicBlock("next", [ok, bad], Ret(Local("x"))),
    ], params=[("x", "int")])])
    assert validate(m) == [
        Diagnostic("UndefinedLocal", "%ghost is never assigned", "_O1fi", "entry"),
        Diagnostic("UndefinedLocal", "%ghost is never assigned", "_O1fi", "next"),
    ]


@pytest.mark.parametrize("m", [
    IrModule(functions=[fn_of([
        BasicBlock("entry", [Assign("x", 2**63)], Ret(Local("x"))),
    ])]),
    IrModule(functions=[fn_of([
        BasicBlock("entry", [BinOp("x", "add", -2**63 - 1, 1)], Ret(Local("x"))),
    ])]),
    *(IrModule(functions=[fn_of([
        BasicBlock("entry", [Assign("x", GlobalRef("g"))], Ret(Local("x"))),
    ])], globals=[("g", value)]) for value in (2**64, 1.5, True, "7")),
], ids=["const", "binop_operand", "global", "global_float", "global_bool",
        "global_str"])
def test_integers_outside_the_64_bit_range_are_rejected(m):
    assert codes(m) == ["IntOutOfRange"]


@pytest.mark.parametrize("lit", [True, 2**63, 1.5], ids=["bool", "too_big", "float"])
def test_switch_case_literals_outside_the_64_bit_ints_are_rejected(lit):
    # each would print a text that fails to re-parse (`True`, `1.5`) or
    # re-parses to another module (2**63 reads back as -2**63)
    m = IrModule(functions=[fn_of([
        BasicBlock("entry", [], Switch("x", ((lit, "out"), (7, "out")), "out")),
        BasicBlock("out", [], Ret(Local("x"))),
    ], params=[("x", "int")])])
    assert validate(m) == [Diagnostic(
        "IntOutOfRange", f"case literal {lit!r} is not a signed 64-bit integer",
        "_O1fi", "entry")]


def test_integers_at_the_64_bit_bounds_are_accepted():
    m = IrModule(functions=[fn_of([
        BasicBlock("entry", [
            Assign("x", 2**63 - 1),
            BinOp("y", "sub", Local("x"), -2**63),
            Assign("z", GlobalRef("g")),
        ], Ret(Local("y"))),
    ])], globals=[("g", -2**63)])
    assert validate(m) == []


def test_name_clash_between_kinds():
    m = IrModule(
        functions=[fn_of([BasicBlock("entry", [], Ret(0))])],
        globals=[("_O1fi", 3)],
    )
    assert "NameClash" in codes(m)


def test_duplicate_function():
    f1 = fn_of([BasicBlock("entry", [], Ret(0))])
    f2 = fn_of([BasicBlock("entry", [], Ret(1))])
    m = IrModule(functions=[f1, f2])
    assert "DuplicateFunction" in codes(m)


def test_switch_scrutinee_must_be_int():
    m = IrModule(functions=[fn_of([
        BasicBlock("entry", [Assign("b", True)],
                   Switch("b", [(0, "a")], "a")),
        BasicBlock("a", [], Ret(0)),
    ])])
    assert "TypeMismatch" in codes(m)


def test_duplicate_parameter_names():
    fn = IrFunction("_O1fii", "f", [("a", "int"), ("a", "bool")], "int",
                    [BasicBlock("entry", [], Ret(0))])
    assert "DuplicateParam" in codes(IrModule(functions=[fn]))


@pytest.mark.parametrize("m, want", [
    (IrModule(functions=[fn_of([BasicBlock("entry", [], Ret(0))])],
              externs=[ExternDecl("_O1fi", (), "int")]),
     ["NameClash: @_O1fi declared twice"]),
    (IrModule(functions=[fn_of([])]), ["EmptyFunction: function has no blocks in @_O1fi"]),
    (IrModule(functions=[fn_of([BasicBlock("entry", [Cmp("c", "eq", 1, True)], Ret(0))])]),
     ["TypeMismatch: cmp eq on int vs bool in @_O1fi block entry"]),
    (IrModule(functions=[fn_of([BasicBlock("entry", [], Ret(1))], ret="void")]),
     ["ReturnTypeMismatch: void function returns a value in @_O1fi block entry"]),
], ids=["extern_named_like_a_function", "no_blocks", "cmp_eq_int_bool", "void_returns_value"])
def test_diagnostic_messages(m, want):
    assert [str(d) for d in validate(m)] == want


@pytest.mark.parametrize("m, want", [
    (IrModule(functions=[fn_of([
        BasicBlock("entry", [BinOp("x", "pow", 1, 2)], Ret(Local("x")))])]),
     ["UnknownOp: unknown operation 'pow' in @_O1fi block entry"]),
    (IrModule(functions=[fn_of([
        BasicBlock("entry", [Cmp("c", "foo", 1, 1)], Ret(0))])]),
     ["UnknownOp: unknown comparison 'foo' in @_O1fi block entry"]),
    (IrModule(functions=[fn_of([
        BasicBlock("entry", [], Br("next")), BasicBlock("next", [], Ret(0), "decoy")])]),
     ["UnknownRole: unknown block role 'decoy' in @_O1fi block next"]),
    (IrModule(functions=[fn_of([BasicBlock("entry", [], Ret(0))], params=[("x", "float")])]),
     ["UnknownType: function takes unknown type 'float' in @_O1fi"]),
    (IrModule(functions=[fn_of([BasicBlock("entry", [], Ret(0))], ret="float")]),
     ["UnknownType: function returns unknown type 'float' in @_O1fi",
      "TypeMismatch: expected float, got int in @_O1fi block entry"]),
    (IrModule(externs=[ExternDecl("e", ("int", "str"), "float")]),
     ["UnknownType: extern @e takes unknown type 'str'",
      "UnknownType: extern @e returns unknown type 'float'"]),
], ids=["binop", "cmp", "role", "param_type", "return_type", "extern_types"])
def test_names_outside_the_ir_vocabulary_are_rejected(m, want):
    """Each would make `print_module` write text that does not re-parse,
    and an unknown op or role would make `run` or a pass raise."""
    assert [str(d) for d in validate(m)] == want


def test_validation_soundness_on_corpus(corpus):
    for entry in corpus:
        assert validate(entry.module) == [], entry.name


def _reference_local_types(fn, module):
    """The earlier inference, kept as the reference: whole-function rounds
    in text order until none adds a type; the first type found wins."""

    def operand_ty(op, types):
        if isinstance(op, Local):
            return types.get(op.name)
        if isinstance(op, GlobalRef):
            return "int" if module.global_value(op.name) is not None else None
        return operand_type(op)

    def returns(name):
        callee = module.function(name) or module.extern(name)
        return None if callee is None else callee.ret_type

    types = dict(fn.params)
    pending = True
    while pending:
        pending = False
        for b in fn.blocks:
            for ins in b.insts:
                if isinstance(ins, BinOp):
                    ty = "int"
                elif isinstance(ins, Cmp):
                    ty = "bool"
                elif isinstance(ins, Assign):
                    ty = operand_ty(ins.src, types)
                else:
                    ty = None if ins.dst is None else returns(ins.callee)
                if ty is not None and ins.dst not in types:
                    types[ins.dst] = ty
                    pending = True
    return types


def _assert_inference_matches_reference(m):
    for fn in m.functions:
        assert infer_local_types(fn, m) == _reference_local_types(fn, m), fn.mangled_name


def test_inference_matches_reference_on_corpus_and_outputs(corpus):
    for entry in corpus:
        _assert_inference_matches_reference(entry.module)
        text = entry.ir_path.read_text(encoding="utf-8")
        for seed in range(2):
            cfg = PipelineConfig(["nested", "indeg", "ident-default"], seed=seed)
            _assert_inference_matches_reference(run_pipeline(cfg, text).module)


@settings(max_examples=100, deadline=None)
@given(random_modules())
def test_inference_matches_reference_on_random_modules(m):
    _assert_inference_matches_reference(m)


def test_inference_resolves_out_of_order_copy_chain():
    # %a <- %b <- %c <- %d, written before %d gets its type; %x is typed by
    # its later constant before its copy's source is known; %u and %v only
    # copy each other and stay untyped
    m = IrModule(
        functions=[fn_of([
            BasicBlock("entry", [
                Assign("a", Local("b")),
                Assign("x", Local("b")),
                Assign("u", Local("v")),
                Assign("b", Local("c")),
                Assign("x", 1),
                Assign("c", Local("d")),
                Assign("v", Local("u")),
                Cmp("d", "eq", Local("p"), 0),
                Assign("g", GlobalRef("k")),
                Call("r", "ext", (Local("p"),)),
            ], Ret(0)),
        ], params=[("p", "int")])],
        externs=[ExternDecl("ext", ["int"], "bool")],
        globals=[("k", 3)],
    )
    want = {"p": "int", "a": "bool", "b": "bool", "c": "bool", "d": "bool",
            "x": "int", "g": "int", "r": "bool"}
    fn = m.functions[0]
    assert infer_local_types(fn, m) == want == _reference_local_types(fn, m)


@pytest.mark.parametrize("params, body, message", [
    # `and` reads %x as the int it was first assigned
    ("", "%x = 1 %x = true %y = and %x, %x ret %y", "%x is int, assigned bool"),
    ("", "%x = 1 %x = true ret %x", "%x is int, assigned bool"),
    ("", "%x = 1 %b = cmp eq 1, 1 %x = %b ret %x", "%x is int, assigned bool"),
    ("", "%b = cmp eq 1, 1 %b = add 1, 2 ret 0", "%b is bool, assigned int"),
    ("%p: bool", "%p = 1 ret 0", "%p is bool, assigned int"),
], ids=["and", "ret", "copy", "cmp_then_binop", "param"])
def test_register_assigned_two_types_is_rejected(params, body, message):
    text = f'func @f src "f" ({params}) -> int {{ entry: {body} }}'
    with pytest.raises(ValidationError) as err:
        parse_module(text)
    assert [(d.code, d.message, d.block) for d in err.value.diagnostics] == [
        ("TypeMismatch", message, "entry")]


def test_call_result_assigned_to_register_of_other_type():
    m = IrModule(
        functions=[fn_of([
            BasicBlock("entry", [Assign("x", 1), Call("x", "ext", ())],
                       Ret(Local("x"))),
        ])],
        externs=[ExternDecl("ext", [], "bool")],
    )
    assert [(d.code, d.message) for d in validate(m)] == [
        ("TypeMismatch", "%x is int, assigned bool")]



def _untyped(reads):
    """The diagnostics for reads of untyped registers, as (register, block)."""
    return [("UntypedLocal", f"%{reg} has no inferable type", block)
            for reg, block in reads]


# %u and %v only copy each other, so neither gets a type; each read of
# them is reported where it happens
@pytest.mark.parametrize("ret, read", [
    ("bool", "ret %u"),
    ("int", "%r = call @g(%u) ret %r"),
    ("int", "cbr %u, use, use"),
    ("int", "%r = add %u, 1 ret %r"),
], ids=["ret", "call_arg", "cbr_cond", "binop_operand"])
def test_read_of_untyped_register_is_rejected(ret, read):
    text = ('func @g src "g" (%p: bool) -> int { entry: ret 0 }\n'
            f'func @f src "f" () -> {ret} {{ entry: %u = %v %v = %u br use '
            f'use: {read} }}')
    with pytest.raises(ValidationError) as err:
        parse_module(text)
    assert [(d.code, d.message, d.block) for d in err.value.diagnostics] == _untyped(
        [("v", "entry"), ("u", "entry"), ("u", "use")])


def test_untyped_bool_result_passed_on_to_a_bool_parameter_is_rejected():
    # `h` returns an untyped register from a bool function, and `f` hands
    # the result to a bool parameter
    text = (
        'func @g src "g" (%p: bool) -> bool { entry: ret %p }\n'
        'func @h src "h" () -> bool { entry: %u = %v %v = %u ret %u }\n'
        'func @f src "f" () -> bool { entry: %t = call @h() %r = call @g(%t) ret %r }\n'
    )
    with pytest.raises(ValidationError) as err:
        parse_module(text)
    assert {d.function for d in err.value.diagnostics} == {"h"}
    assert [(d.code, d.message, d.block) for d in err.value.diagnostics] == _untyped(
        [("v", "entry"), ("u", "entry"), ("u", "entry")])
