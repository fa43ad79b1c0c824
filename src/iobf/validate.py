"""Semantic checks over parsed or constructed modules.

`validate` returns a list of diagnostics; an empty list means the module
satisfies every structural and type invariant the interpreter relies on
(no undefined labels or registers, no label `true` or `false`, which
text reads as a literal, every read register has one inferable type,
legal call targets, statically detectable division by zero, integer
literals, switch case literals and globals in the signed 64-bit range,
and only the ops, comparisons, block roles and types that the text
grammar names).
"""

from __future__ import annotations

from dataclasses import dataclass

from .ir import (
    BINOPS,
    CMP_RELS,
    INT_MAX,
    INT_MIN,
    Assign,
    BinOp,
    Call,
    Cbr,
    Cmp,
    GlobalRef,
    IrFunction,
    IrModule,
    Local,
    Operand,
    RET_TYPES,
    ROLES,
    Ret,
    Switch,
    VALUE_TYPES,
    operand_type,
    targets,
)

_BINOPS, _CMP_RELS, _ROLES, _VALUE_TYPES, _RET_TYPES = map(
    frozenset, (BINOPS, CMP_RELS, ROLES, VALUE_TYPES, RET_TYPES))


@dataclass
class Diagnostic:
    code: str
    message: str
    function: str | None = None
    block: str | None = None

    def __str__(self) -> str:
        where = ""
        if self.function:
            where = f" in @{self.function}"
            if self.block:
                where += f" block {self.block}"
        return f"{self.code}: {self.message}{where}"


def infer_local_types(fn: IrFunction, module: IrModule) -> dict[str, str]:
    """Register name -> type, from parameter declarations and assignments.

    The first assignment in text order that has a type gives it. Copies
    whose source is still untyped then run to a fixpoint, in text order,
    so copy chains (`%a = %b`) resolve regardless of textual order.
    Registers whose type cannot be determined are omitted; `validate`
    reports each read of one as `UntypedLocal`.
    """
    types: dict[str, str] = dict(fn.params)
    copies = []  # copies whose source had no type when they were reached
    for b in fn.blocks:
        for ins in b.insts:
            if ins.dst is None or ins.dst in types:
                continue
            if isinstance(ins, BinOp):
                ty = "int"
            elif isinstance(ins, Cmp):
                ty = "bool"
            elif isinstance(ins, Assign):
                ty = _operand_ty(ins.src, types, module)
                if ty is None:
                    copies.append(ins)
            else:
                sig = _callee_signature(ins.callee, module)
                ty = sig[1] if sig and sig[1] != "void" else None
            if ty is not None:
                types[ins.dst] = ty
    pending = True
    while pending:
        pending = False
        for ins in copies:
            if ins.dst not in types:
                ty = _operand_ty(ins.src, types, module)
                if ty is not None:
                    types[ins.dst] = ty
                    pending = True
    return types


def _operand_ty(op: Operand, types: dict[str, str], module: IrModule) -> str | None:
    if isinstance(op, Local):
        return types.get(op.name)
    if isinstance(op, GlobalRef):
        return "int" if module.global_value(op.name) is not None else None
    return operand_type(op)


def _callee_signature(name: str, module: IrModule):
    fn = module.function(name)
    if fn is not None:
        return [t for _, t in fn.params], fn.ret_type
    ext = module.extern(name)
    if ext is not None:
        return list(ext.param_types), ext.ret_type
    return None


def validate(m: IrModule) -> list[Diagnostic]:
    diags: list[Diagnostic] = []

    seen: dict[str, str] = {}
    for fn in m.functions:
        if fn.mangled_name in seen:
            diags.append(Diagnostic("DuplicateFunction",
                                    f"function @{fn.mangled_name} defined twice"))
        seen[fn.mangled_name] = "func"
    for e in m.externs:
        if e.name in seen:
            diags.append(Diagnostic("NameClash", f"@{e.name} declared twice"))
        seen[e.name] = "extern"
        diags.extend(_check_types(e.param_types, e.ret_type, f"extern @{e.name}"))
    for g, value in m.globals:
        if g in seen:
            diags.append(Diagnostic("NameClash", f"@{g} declared twice"))
        seen[g] = "global"
        if type(value) is not int or not INT_MIN <= value <= INT_MAX:
            diags.append(Diagnostic("IntOutOfRange",
                                    f"@{g} = {value!r} is not a signed 64-bit integer"))

    for fn in m.functions:
        diags.extend(_check_function(fn, m))
    return diags


def _check_types(param_types, ret_type: str, owner: str, function=None) -> list[Diagnostic]:
    """An `UnknownType` for each parameter or return type outside the IR's."""
    diags = [Diagnostic("UnknownType", f"{owner} takes unknown type {ty!r}", function)
             for ty in param_types if ty not in _VALUE_TYPES]
    if ret_type not in _RET_TYPES:
        diags.append(Diagnostic("UnknownType",
                                f"{owner} returns unknown type {ret_type!r}", function))
    return diags


def _check_function(fn: IrFunction, m: IrModule) -> list[Diagnostic]:
    name = fn.mangled_name
    if not fn.blocks:
        return [Diagnostic("EmptyFunction", "function has no blocks", name)]
    diags = _check_types([ty for _, ty in fn.params], fn.ret_type, "function", name)

    seen_params: set[str] = set()
    for pname, _ in fn.params:
        if pname in seen_params:
            diags.append(Diagnostic("DuplicateParam",
                                    f"parameter %{pname} repeated", name))
        seen_params.add(pname)

    labels: set[str] = set()
    for b in fn.blocks:
        if b.label in labels:
            diags.append(Diagnostic("DuplicateLabel",
                                    f"label {b.label} defined twice", name))
        if b.label in ("true", "false"):  # after a bare `ret` it reads as its operand
            diags.append(Diagnostic("ReservedLabel",
                                    f"label {b.label} reads as a literal", name, b.label))
        if b.role not in _ROLES:
            diags.append(Diagnostic("UnknownRole", f"unknown block role {b.role!r}",
                                    name, b.label))
        labels.add(b.label)

    types = infer_local_types(fn, m)
    declared = fn.local_names()

    def use(op: Operand, block: str, want: str | None = None):
        if isinstance(op, Local):
            if op.name not in declared:
                diags.append(Diagnostic("UndefinedLocal",
                                        f"%{op.name} is never assigned",
                                        name, block))
                return
            ty = types.get(op.name)
            if ty is None:
                diags.append(Diagnostic("UntypedLocal",
                                        f"%{op.name} has no inferable type",
                                        name, block))
                return
        elif isinstance(op, GlobalRef):
            if m.global_value(op.name) is None:
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

    clean: set[int] = set()  # ids that passed: checks read only it and function-wide facts
    for b in fn.blocks:
        for ins in b.insts:
            if id(ins) in clean:
                continue
            found = len(diags)
            ty = None  # the type the instruction assigns to its destination
            if isinstance(ins, BinOp):
                ty = "int"
                if ins.op not in _BINOPS:
                    diags.append(Diagnostic("UnknownOp", f"unknown operation {ins.op!r}",
                                            name, b.label))
                use(ins.a, b.label, "int")
                use(ins.b, b.label, "int")
                if ins.op in ("sdiv", "srem") and ins.b == 0 and not isinstance(ins.b, bool):
                    diags.append(Diagnostic("DivByZeroConst",
                                            f"{ins.op} by constant zero",
                                            name, b.label))
            elif isinstance(ins, Cmp):
                ty = "bool"
                if ins.rel not in _CMP_RELS:
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
                sig = _callee_signature(ins.callee, m)
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
            # the register's type is its first typed assignment's
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
                                            f"case literal {lit} repeated",
                                            name, b.label))
                lits.add(lit)
        elif isinstance(t, Ret):
            if fn.ret_type == "void":
                if t.value is not None:
                    diags.append(Diagnostic("ReturnTypeMismatch",
                                            "void function returns a value",
                                            name, b.label))
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
