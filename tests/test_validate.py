import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iobf import parse_module, validate
from iobf.cli import PASS_APPLIERS, PipelineConfig, run_pipeline
from iobf.ir import (
    BINOPS,
    CMP_RELS,
    INT_MAX,
    INT_MIN,
    RET_TYPES,
    ROLES,
    VALUE_TYPES,
    Assign,
    BasicBlock,
    BinOp,
    Br,
    Call,
    Cbr,
    Cmp,
    ExternDecl,
    GlobalRef,
    Instruction,
    IrFunction,
    IrModule,
    Local,
    Ret,
    Switch,
    Terminator,
    operand_type,
    targets,
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


def test_non_instruction_among_a_blocks_instructions_is_a_diagnostic():
    m = IrModule(functions=[fn_of([BasicBlock("entry", [Br("entry")], Ret(0))])])
    assert [str(d) for d in validate(m)] == [
        "UnknownInstruction: Br(label='entry') is not an instruction in @_O1fi block entry"]


def test_non_terminator_as_a_blocks_terminator_is_a_diagnostic():
    m = IrModule(functions=[fn_of([BasicBlock("entry", (), Assign("x", 0))])])
    assert [str(d) for d in validate(m)] == [
        "UnknownTerminator: Assign(dst='x', src=0) is not a terminator"
        " in @_O1fi block entry"]


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


@pytest.mark.parametrize("decl, body, message", [
    ("extern @print_int() -> void", "call @print_int()\n  ret 0",
     "extern @print_int() -> void"),
    ("extern @print_int(int) -> int", "%r = call @print_int(5)\n  ret %r",
     "extern @print_int(int) -> int"),
], ids=["no_parameter", "int_result"])
def test_print_int_declared_unlike_the_builtin_printer_is_rejected(decl, body, message):
    """`run` takes every call of an undefined `print_int` as its builtin
    printer, which takes one int and gives no result: without this check
    the first module raised IndexError in `run`, and the second returned
    0, as its call never wrote `%r`."""
    with pytest.raises(ValidationError) as err:
        parse_module(f'{decl}\nfunc @f src "f" () -> int {{\nentry:\n  {body}\n}}\n')
    assert [str(d) for d in err.value.diagnostics] == [
        f"PrintIntSignature: {message} is not the builtin printer's (int) -> void"]


def test_validation_soundness_on_corpus(corpus):
    for entry in corpus:
        assert validate(entry.module) == [], entry.name


def _first_extern(module, name):
    """The first extern named `name`, or None (the reference copies'
    lookup, as `IrModule` once had it)."""
    return next((e for e in module.externs if e.name == name), None)


def _first_global(module, name):
    """The value of the first global named `name`, or None."""
    return next((v for g, v in module.globals if g == name), None)


def _reference_local_types(fn, module):
    """The earlier inference, kept as the reference: whole-function rounds
    in text order until none adds a type; the first type found wins."""

    def operand_ty(op, types):
        if isinstance(op, Local):
            return types.get(op.name)
        if isinstance(op, GlobalRef):
            return "int" if _first_global(module, op.name) is not None else None
        return operand_type(op)

    def returns(name):
        callee = module.function(name) or _first_extern(module, name)
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


# ---------------------------------------------------------------------------
# `validate` against its reference copy: the checks as they read each
# function four times (kinds, inference, register names, operands), with
# the linear callee and global lookups of `IrModule`

_REF_BINOPS, _REF_CMP_RELS, _REF_ROLES, _REF_VALUE_TYPES, _REF_RET_TYPES = map(
    frozenset, (BINOPS, CMP_RELS, ROLES, VALUE_TYPES, RET_TYPES))


def reference_infer_local_types(fn, module):
    types = dict(fn.params)
    copies = []
    for b in fn.blocks:
        for ins in b.insts:
            if ins.dst is None or ins.dst in types:
                continue
            if isinstance(ins, BinOp):
                ty = "int"
            elif isinstance(ins, Cmp):
                ty = "bool"
            elif isinstance(ins, Assign):
                ty = _reference_operand_ty(ins.src, types, module)
                if ty is None:
                    copies.append(ins)
            else:
                sig = _reference_callee_signature(ins.callee, module)
                ty = sig[1] if sig and sig[1] != "void" else None
            if ty is not None:
                types[ins.dst] = ty
    pending = True
    while pending:
        pending = False
        for ins in copies:
            if ins.dst not in types:
                ty = _reference_operand_ty(ins.src, types, module)
                if ty is not None:
                    types[ins.dst] = ty
                    pending = True
    return types


def _reference_operand_ty(op, types, module):
    if isinstance(op, Local):
        return types.get(op.name)
    if isinstance(op, GlobalRef):
        return "int" if _first_global(module, op.name) is not None else None
    return operand_type(op)


def _reference_callee_signature(name, module):
    fn = module.function(name)
    if fn is not None:
        return [t for _, t in fn.params], fn.ret_type
    ext = _first_extern(module, name)
    if ext is not None:
        return list(ext.param_types), ext.ret_type
    return None


def reference_validate(m):
    diags = []
    seen = {}
    for fn in m.functions:
        if fn.mangled_name in seen:
            diags.append(Diagnostic("DuplicateFunction",
                                    f"function @{fn.mangled_name} defined twice"))
        seen[fn.mangled_name] = "func"
    for e in m.externs:
        if e.name in seen:
            diags.append(Diagnostic("NameClash", f"@{e.name} declared twice"))
        seen[e.name] = "extern"
        diags.extend(_reference_check_types(e.param_types, e.ret_type, f"extern @{e.name}"))
        if e.name == "print_int" and (tuple(e.param_types), e.ret_type) != (
                ("int",), "void"):
            diags.append(Diagnostic(
                "PrintIntSignature",
                f"extern @print_int({', '.join(map(str, e.param_types))}) -> "
                f"{e.ret_type} is not the builtin printer's (int) -> void"))
    for g, value in m.globals:
        if g in seen:
            diags.append(Diagnostic("NameClash", f"@{g} declared twice"))
        seen[g] = "global"
        if type(value) is not int or not INT_MIN <= value <= INT_MAX:
            diags.append(Diagnostic("IntOutOfRange",
                                    f"@{g} = {value!r} is not a signed 64-bit integer"))
    for fn in m.functions:
        diags.extend(_reference_check_function(fn, m))
    return diags


def _reference_check_types(param_types, ret_type, owner, function=None):
    diags = [Diagnostic("UnknownType", f"{owner} takes unknown type {ty!r}", function)
             for ty in param_types if ty not in _REF_VALUE_TYPES]
    if ret_type not in _REF_RET_TYPES:
        diags.append(Diagnostic("UnknownType",
                                f"{owner} returns unknown type {ret_type!r}", function))
    return diags


def _reference_check_function(fn, m):
    name = fn.mangled_name
    if not fn.blocks:
        return [Diagnostic("EmptyFunction", "function has no blocks", name)]
    diags = _reference_check_types([ty for _, ty in fn.params], fn.ret_type,
                                   "function", name)
    seen_params = set()
    for pname, _ in fn.params:
        if pname in seen_params:
            diags.append(Diagnostic("DuplicateParam",
                                    f"parameter %{pname} repeated", name))
        seen_params.add(pname)
    labels = set()
    for b in fn.blocks:
        if b.label in labels:
            diags.append(Diagnostic("DuplicateLabel",
                                    f"label {b.label} defined twice", name))
        if b.label in ("true", "false"):
            diags.append(Diagnostic("ReservedLabel",
                                    f"label {b.label} reads as a literal", name, b.label))
        if b.role not in _REF_ROLES:
            diags.append(Diagnostic("UnknownRole", f"unknown block role {b.role!r}",
                                    name, b.label))
        labels.add(b.label)
        for ins in b.insts:
            if not isinstance(ins, Instruction):
                diags.append(Diagnostic("UnknownInstruction",
                                        f"{ins!r} is not an instruction", name, b.label))
        if b.term is not None and not isinstance(b.term, Terminator):
            diags.append(Diagnostic("UnknownTerminator",
                                    f"{b.term!r} is not a terminator", name, b.label))
    if any(d.code in ("UnknownInstruction", "UnknownTerminator") for d in diags):
        return diags

    types = reference_infer_local_types(fn, m)
    declared = fn.local_names()

    def use(op, block, want=None):
        if isinstance(op, Local):
            if op.name not in declared:
                diags.append(Diagnostic("UndefinedLocal",
                                        f"%{op.name} is never assigned", name, block))
                return
            ty = types.get(op.name)
            if ty is None:
                diags.append(Diagnostic("UntypedLocal",
                                        f"%{op.name} has no inferable type", name, block))
                return
        elif isinstance(op, GlobalRef):
            if _first_global(m, op.name) is None:
                diags.append(Diagnostic("UndefinedGlobal",
                                        f"@{op.name} is not a global", name, block))
                return
            ty = "int"
        else:
            ty = operand_type(op)
            if ty == "int" and not INT_MIN <= op <= INT_MAX:
                diags.append(Diagnostic("IntOutOfRange",
                                        f"literal {op} is outside the signed 64-bit range",
                                        name, block))
        if want is not None and ty != want:
            diags.append(Diagnostic("TypeMismatch",
                                    f"expected {want}, got {ty}", name, block))
        return ty

    clean = set()
    for b in fn.blocks:
        for ins in b.insts:
            if id(ins) in clean:
                continue
            found = len(diags)
            ty = None
            if isinstance(ins, BinOp):
                ty = "int"
                if ins.op not in _REF_BINOPS:
                    diags.append(Diagnostic("UnknownOp", f"unknown operation {ins.op!r}",
                                            name, b.label))
                use(ins.a, b.label, "int")
                use(ins.b, b.label, "int")
                if ins.op in ("sdiv", "srem") and ins.b == 0 and not isinstance(ins.b, bool):
                    diags.append(Diagnostic("DivByZeroConst",
                                            f"{ins.op} by constant zero", name, b.label))
            elif isinstance(ins, Cmp):
                ty = "bool"
                if ins.rel not in _REF_CMP_RELS:
                    diags.append(Diagnostic("UnknownOp", f"unknown comparison {ins.rel!r}",
                                            name, b.label))
                if ins.rel in ("lt", "le", "gt", "ge"):
                    use(ins.a, b.label, "int")
                    use(ins.b, b.label, "int")
                else:
                    ta = use(ins.a, b.label)
                    tb = use(ins.b, b.label)
                    if ta is not None and tb is not None and ta != tb:
                        diags.append(Diagnostic("TypeMismatch",
                                                f"cmp {ins.rel} on {ta} vs {tb}",
                                                name, b.label))
            elif isinstance(ins, Assign):
                ty = use(ins.src, b.label)
            elif isinstance(ins, Call):
                sig = _reference_callee_signature(ins.callee, m)
                if sig is None:
                    diags.append(Diagnostic("UnknownCallee",
                                            f"call to undefined @{ins.callee}",
                                            name, b.label))
                else:
                    ptypes, rty = sig
                    if len(ptypes) != len(ins.args):
                        diags.append(Diagnostic(
                            "CallArityMismatch",
                            f"@{ins.callee} takes {len(ptypes)} args, got {len(ins.args)}",
                            name, b.label))
                    else:
                        for arg, want in zip(ins.args, ptypes):
                            use(arg, b.label, want)
                    if ins.dst is not None and rty == "void":
                        diags.append(Diagnostic("TypeMismatch",
                                                f"void call to @{ins.callee} has a result",
                                                name, b.label))
                    elif ins.dst is not None:
                        ty = rty
            if ty is not None and types.get(ins.dst, ty) != ty:
                diags.append(Diagnostic("TypeMismatch",
                                        f"%{ins.dst} is {types[ins.dst]}, assigned {ty}",
                                        name, b.label))
            if len(diags) == found:
                clean.add(id(ins))

        t = b.term
        if t is None:
            diags.append(Diagnostic("MissingTerminator",
                                    "block has no terminator", name, b.label))
            continue
        if isinstance(t, Cbr):
            use(Local(t.cond), b.label, "bool")
        elif isinstance(t, Switch):
            use(Local(t.scrutinee), b.label, "int")
            lits = set()
            for lit, _ in t.cases:
                if type(lit) is not int or not INT_MIN <= lit <= INT_MAX:
                    diags.append(Diagnostic(
                        "IntOutOfRange",
                        f"case literal {lit!r} is not a signed 64-bit integer",
                        name, b.label))
                if lit in lits:
                    diags.append(Diagnostic("DuplicateCase",
                                            f"case literal {lit} repeated", name, b.label))
                lits.add(lit)
        elif isinstance(t, Ret):
            if fn.ret_type == "void":
                if t.value is not None:
                    diags.append(Diagnostic("ReturnTypeMismatch",
                                            "void function returns a value", name, b.label))
            else:
                if t.value is None:
                    diags.append(Diagnostic("ReturnTypeMismatch",
                                            f"{fn.ret_type} function returns nothing",
                                            name, b.label))
                else:
                    use(t.value, b.label, fn.ret_type)
        for lab in targets(t):
            if lab not in labels:
                diags.append(Diagnostic("UndefinedLabel",
                                        f"no block named {lab}", name, b.label))
    return diags


def _assert_validate_matches_reference(m):
    """Equal diagnostics, in order, and equal inferred types wherever every
    instruction is one (the reference infers only then)."""
    got = [(d.code, d.message, d.function, d.block) for d in validate(m)]
    want = [(d.code, d.message, d.function, d.block) for d in reference_validate(m)]
    assert got == want
    for fn in m.functions:
        if all(isinstance(ins, Instruction) for b in fn.blocks for ins in b.insts):
            assert infer_local_types(fn, m) == reference_infer_local_types(fn, m)


@pytest.mark.parametrize("name", sorted(PASS_APPLIERS))
def test_validate_matches_reference_on_pass_outputs(corpus, name):
    for seed in range(3):
        for entry in corpus:
            out, _ = PASS_APPLIERS[name](entry.module, PipelineConfig([name], seed))
            _assert_validate_matches_reference(out)


@settings(max_examples=100, deadline=None)
@given(random_modules())
def test_validate_matches_reference_on_random_modules(m):
    _assert_validate_matches_reference(m)


_MUTATIONS = ("drop", "bool_literal", "big_literal", "missing_label",
              "duplicate_label", "duplicate_param", "terminator_among_insts",
              "unknown_op", "unknown_role", "unknown_type", "call_arity",
              "void_result", "div_by_zero", "undefined_global", "untyped_copies",
              "share")


@st.composite
def broken_modules(draw):
    """A `random_modules()` module, which also declares `print_int`, after
    one to four mutations, each of which can break it. `share`, and in
    half the modules a last step for an instruction a mutation built, put
    an instruction object at a second place, so that one node is checked
    twice in a function, as the parser's shared statements are."""
    fn = draw(random_modules()).functions[0]
    params, ret_type = list(fn.params), fn.ret_type
    labels = [b.label for b in fn.blocks]
    roles = [b.role for b in fn.blocks]
    insts = [list(b.insts) for b in fn.blocks]
    terms = [b.term for b in fn.blocks]
    made = []  # instruction objects a mutation built

    def place(ins, block=None):
        i = draw(st.integers(0, len(insts) - 1)) if block is None else block
        insts[i].insert(draw(st.integers(0, len(insts[i]))), ins)
        if isinstance(ins, Instruction):
            made.append(ins)

    def pick(test):
        """(block, index) of an instruction that passes `test`, or None."""
        spots = [(i, j) for i, block in enumerate(insts)
                 for j, ins in enumerate(block) if test(ins)]
        return draw(st.sampled_from(spots)) if spots else None

    def literal_fields(ins):
        return [f for f in ("a", "b", "src") if type(getattr(ins, f, None)) is int]

    for kind in draw(st.lists(st.sampled_from(_MUTATIONS), min_size=1, max_size=4)):
        if kind == "drop" and (spot := pick(lambda ins: True)):
            del insts[spot[0]][spot[1]]
        elif kind in ("bool_literal", "big_literal") and (spot := pick(literal_fields)):
            i, j = spot
            field = draw(st.sampled_from(literal_fields(insts[i][j])))
            value = draw(st.booleans() if kind == "bool_literal"
                         else st.sampled_from([2**63, -2**63 - 1, 2**64]))
            insts[i][j] = dataclasses.replace(insts[i][j], **{field: value})
            made.append(insts[i][j])
        elif kind == "missing_label":
            i = draw(st.integers(0, len(terms) - 1))
            t = terms[i]
            terms[i] = (Cbr(t.cond, t.then_label, "nowhere") if isinstance(t, Cbr)
                        else Br("nowhere"))
        elif kind == "duplicate_label" and len(labels) > 1:
            i = draw(st.integers(1, len(labels) - 1))
            labels[i] = labels[draw(st.integers(0, i - 1))]
        elif kind == "duplicate_param":
            params.append(("x", draw(st.sampled_from(["int", "bool"]))))
        elif kind == "terminator_among_insts":
            place(draw(st.sampled_from([Br(labels[0]), Ret(None)])))
        elif kind == "unknown_op" and (spot := pick(
                lambda ins: isinstance(ins, (BinOp, Cmp)))):
            i, j = spot
            ins = insts[i][j]
            insts[i][j] = (dataclasses.replace(ins, op="pow") if isinstance(ins, BinOp)
                           else dataclasses.replace(ins, rel="approx"))
            made.append(insts[i][j])
        elif kind == "unknown_role":
            roles[draw(st.integers(0, len(roles) - 1))] = "ghost"
        elif kind == "unknown_type":
            if draw(st.booleans()):
                params[0] = ("x", "float")
            else:
                ret_type = "float"
        elif kind == "call_arity":
            place(Call(draw(st.sampled_from([None, "y"])), draw(st.sampled_from(
                ["print_int", fn.mangled_name])), draw(st.sampled_from(
                    [(), (Local("x"), 1)]))))
        elif kind == "void_result":
            place(Call("y", "print_int", (Local("x"),)))
        elif kind == "div_by_zero":
            place(BinOp(draw(st.sampled_from(["x", "y"])),
                        draw(st.sampled_from(["sdiv", "srem"])), Local("x"), 0))
        elif kind == "undefined_global":
            place(BinOp("y", "add", GlobalRef("nowhere"), 1))
        elif kind == "untyped_copies":
            place(Assign("u", Local("v")))
            place(Assign("v", Local("u")))
            place(BinOp("y", "add", Local("u"), 1))
        elif kind == "share" and (spot := pick(lambda ins: True)):
            place(insts[spot[0]][spot[1]])
    if made and draw(st.booleans()):  # a node built above, at a second place
        place(draw(st.sampled_from(made)))
    blocks = tuple(BasicBlock(label, tuple(block), term, role)
                   for label, block, term, role in zip(labels, insts, terms, roles))
    return IrModule(functions=(dataclasses.replace(
        fn, params=tuple(params), ret_type=ret_type, blocks=blocks),),
        externs=(ExternDecl("print_int", ("int",), "void"),))


@settings(max_examples=200, deadline=None)
@given(broken_modules())
def test_validate_matches_reference_on_broken_modules(m):
    _assert_validate_matches_reference(m)
