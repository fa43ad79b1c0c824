"""Semantic checks over parsed or constructed modules.

`validate` returns a list of diagnostics; an empty list means the module
satisfies every structural and type invariant the interpreter relies on
(no undefined labels or registers, no label `true` or `false`, which
text reads as a literal, every read register has one inferable type,
legal call targets, statically detectable division by zero, integer
literals, switch case literals and globals in the signed 64-bit range,
only the ops, comparisons, block roles and types that the text grammar
names, only instructions among a block's instructions and a terminator
as its terminator, and an `extern @print_int` only as the interpreter's
builtin printer takes it, `(int) -> void`).

A function is read twice: for its labels, roles and node kinds, and its
registers' types (`_read_blocks`), then for its instructions, each
distinct one once unless it fails, and terminators. The common valid
operands and edges pass there without a call of `use`, the one place
that reports an operand.
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
    Br,
    Cbr,
    Cmp,
    GlobalRef,
    Instruction,
    IrFunction,
    IrModule,
    Local,
    Operand,
    RET_TYPES,
    ROLES,
    Ret,
    Switch,
    Terminator,
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
    return _read_blocks(fn, *_lookups(module), [])[2]


def _lookups(m: IrModule):
    """Callee name -> (parameter types, return type), and global name ->
    value, as a scan in module order finds them: the first of a name
    wins, and a function over an extern."""
    signatures = {e.name: (e.param_types, e.ret_type) for e in reversed(m.externs)}
    signatures.update((f.mangled_name, (tuple(t for _, t in f.params), f.ret_type))
                      for f in reversed(m.functions))
    return signatures, dict(reversed(m.globals))


def _read_blocks(fn: IrFunction, signatures, global_values, diags: list[Diagnostic]):
    """The first of `_check_function`'s two passes over a function: adds
    each label, role and kind diagnostic to `diags`, and returns the
    labels, the registers that are parameters or assigned, and the types
    `infer_local_types` describes."""
    name = fn.mangled_name
    types: dict[str, str] = dict(fn.params)
    declared, labels = set(types), set()
    copies = []  # copies whose source had no type when they were reached
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
        for ins in b.insts:
            if not isinstance(ins, Instruction):
                diags.append(Diagnostic("UnknownInstruction",
                                        f"{ins!r} is not an instruction", name, b.label))
                continue
            if (dst := ins.dst) is None or dst in types:  # typed ones are declared
                continue
            declared.add(dst)
            if isinstance(ins, BinOp):
                types[dst] = "int"
            elif isinstance(ins, Cmp):
                types[dst] = "bool"
            elif isinstance(ins, Assign):
                if (ty := _operand_ty(ins.src, types, global_values)) is None:
                    copies.append(ins)
                else:
                    types[dst] = ty
            elif (sig := signatures.get(ins.callee)) and sig[1] != "void":
                types[dst] = sig[1]
        if b.term is not None and not isinstance(b.term, Terminator):
            diags.append(Diagnostic("UnknownTerminator",
                                    f"{b.term!r} is not a terminator", name, b.label))
    pending = True
    while pending:
        pending = False
        for ins in copies:
            if ins.dst not in types:
                ty = _operand_ty(ins.src, types, global_values)
                if ty is not None:
                    types[ins.dst] = ty
                    pending = True
    return labels, declared, types


def _operand_ty(op: Operand, types: dict[str, str], global_values) -> str | None:
    if isinstance(op, Local):
        return types.get(op.name)
    if isinstance(op, GlobalRef):
        return "int" if global_values.get(op.name) is not None else None
    return operand_type(op)


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
        # the interpreter runs every call of an undefined `print_int` as its
        # builtin printer
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

    lookups = _lookups(m)
    for fn in m.functions:
        diags.extend(_check_function(fn, *lookups))
    return diags


def _check_types(param_types, ret_type: str, owner: str, function=None) -> list[Diagnostic]:
    """An `UnknownType` for each parameter or return type outside the IR's."""
    diags = [Diagnostic("UnknownType", f"{owner} takes unknown type {ty!r}", function)
             for ty in param_types if ty not in _VALUE_TYPES]
    if ret_type not in _RET_TYPES:
        diags.append(Diagnostic("UnknownType",
                                f"{owner} returns unknown type {ret_type!r}", function))
    return diags


def _check_function(fn: IrFunction, signatures, global_values) -> list[Diagnostic]:
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

    labels, declared, types = _read_blocks(fn, signatures, global_values, diags)
    if any(d.code in ("UnknownInstruction", "UnknownTerminator") for d in diags):
        return diags  # the checks below read instruction and terminator fields

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
            if global_values.get(op.name) is None:
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
                op = ins.a  # an int register or literal needs no `use`
                if (types.get(op.name) != "int" if type(op) is Local
                        else type(op) is not int or not INT_MIN <= op <= INT_MAX):
                    use(op, b.label, "int")
                op = ins.b  # unrolled: a loop would build a pair per instruction
                if (types.get(op.name) != "int" if type(op) is Local
                        else type(op) is not int or not INT_MIN <= op <= INT_MAX):
                    use(op, b.label, "int")
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
            else:  # a Call
                sig = signatures.get(ins.callee)
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
        if type(t) is Br and t.label in labels:
            continue
        if t is None:
            diags.append(Diagnostic("MissingTerminator",
                                    "block has no terminator", name, b.label))
            continue
        if isinstance(t, Cbr):
            if types.get(t.cond) != "bool":
                use(Local(t.cond), b.label, "bool")
        elif isinstance(t, Switch):
            if types.get(t.scrutinee) != "int":
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
            elif t.value is None:
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
