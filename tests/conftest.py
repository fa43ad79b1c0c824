import dataclasses

import pytest
from hypothesis import strategies as st

from iobf import load_corpus, load_dictionary, parse_module, run
from iobf.bogus import OpaquePredicate
from iobf.ir import (
    BasicBlock,
    BinOp,
    Br,
    Cbr,
    Cmp,
    Const,
    IrFunction,
    IrModule,
    Local,
    NameAllocator,
    Ret,
    Switch,
)

GCD_TEXT = """\
extern @print_int(int) -> void

func @_O3gcdii src "gcd" (%a: int, %b: int) -> int {
entry:
  %t = cmp ne %b, 0
  cbr %t, loop, done
loop:
  %r = srem %a, %b
  %a = %b
  %b = %r
  %t = cmp ne %b, 0
  cbr %t, loop, done
done:
  call @print_int(%a)
  ret %a
}
"""

# A -> B1 -> C straight line
FIG3A_TEXT = """\
extern @print_int(int) -> void

func @_O4flowi src "flow" (%x: int) -> int {
entry:
  %t = add %x, 1
  br middle
middle:
  %t = mul %t, 2
  br final
final:
  call @print_int(%t)
  ret %t
}
"""

# The same function after a guards-and-clone insertion around B1 (middle):
# the twin is marked bogus and jumps back to the real block.
FIG3B_TEXT = """\
extern @print_int(int) -> void

func @_O4flowi src "flow" (%x: int) -> int {
entry:
  %t = add %x, 1
  %xx = mul %x, %x
  %x1 = add %x, 1
  %x2 = mul %x1, %x1
  %pr = mul %xx, %x2
  %md = srem %pr, 4
  %p = cmp eq %md, 0
  cbr %p, middle, twin
bogus twin:
  %t = mul %t, 3
  br middle
middle:
  %t = mul %t, 2
  br final
final:
  call @print_int(%t)
  ret %t
}
"""


@pytest.fixture(scope="session")
def corpus():
    entries = load_corpus()
    bad = {e.name: e.problems for e in entries if e.problems}
    assert not bad, f"bundled corpus failed to load: {bad}"
    return entries


@pytest.fixture
def gcd_module():
    return parse_module(GCD_TEXT)


@pytest.fixture
def fig3a_module():
    return parse_module(FIG3A_TEXT)


@pytest.fixture
def fig3b_module():
    return parse_module(FIG3B_TEXT)


def single_function_module(template, fn):
    """Swap the sole function of a module for a transformed version."""
    return dataclasses.replace(template, functions=(fn,))


def block_of(fn, label):
    """The first block of `fn` labelled `label`."""
    for b in fn.blocks:
        if b.label == label:
            return b
    raise KeyError(label)


def dispatcher_of(fn):
    """A flattened function's dispatcher: the first block with the
    dispatcher role whose terminator is a switch."""
    return next(b for b in fn.blocks
                if b.role == "dispatcher" and isinstance(b.term, Switch))


def real_inner_case(fn, block):
    """The (literal, target) of a nested inner switch whose target is the
    one case that is not a decoy."""
    [case] = [(lit, lab) for lit, lab in block.term.cases
              if block_of(fn, lab).role != "bogus"]
    return case


def mutation_diff(before, after):
    """What a clone mutation changed, found by diffing the instructions:
    the (index, old, new) opcode swaps and the (index, old, new) changes
    of any other field."""
    swaps, bumps = [], []
    for i, (x, y) in enumerate(zip(before, after, strict=True)):
        for f in dataclasses.fields(x):
            old, new = getattr(x, f.name), getattr(y, f.name)
            if old != new:
                (swaps if f.name == "op" else bumps).append((i, old, new))
    return swaps, bumps


def substitution_scheme(mapping):
    """The substitution scheme that gave `mapping`'s new names: homoglyphs
    are not ASCII, and only the dictionary scheme keeps to bundled words."""
    names = set(mapping.values())
    if not all(name.isascii() for name in names):
        return "illegal"
    return "directory" if names <= set(load_dictionary()) else "random"


def predicate_module(family, truth):
    """A module whose function `p(x, y)` returns the result of the
    instructions an opaque predicate emits over its two parameters."""
    insts, result = OpaquePredicate(family, truth).instructions(
        NameAllocator({"x", "y"}), (Local("x"), Local("y")))
    fn = IrFunction("_O1pii", "p", (("x", "int"), ("y", "int")), "bool",
                    (BasicBlock("entry", insts, Ret(Local(result))),))
    return IrModule(functions=(fn,))


def predicate_value(m, x, y=0):
    """What `predicate_module`'s `p(x, y)` returns in the interpreter."""
    return run(m, "p", [x, y]).value


def assert_equivalent(orig, obf, entry, inputs, fuel=200_000):
    for args in inputs:
        before = run(orig, entry, args, fuel)
        after = run(obf, entry, args, fuel)
        assert before.observable() == after.observable(), (
            f"{entry}({args}): {before.observable()} != {after.observable()}")


# ---------------------------------------------------------------------------
# Random well-formed single-function modules (shared hypothesis strategy)

_DSTS = ("x", "y", "z")


@st.composite
def operands(draw):
    if draw(st.booleans()):
        return Local(draw(st.sampled_from(_DSTS)))
    return draw(st.integers(-100, 100))


@st.composite
def random_modules(draw):
    n = draw(st.integers(1, 5))
    labels = [f"b{i}" for i in range(n)]
    blocks = []
    for i, label in enumerate(labels):
        insts = []
        if i == 0:
            insts.append(Const("y", draw(st.integers(-5, 5))))
            insts.append(Const("z", draw(st.integers(-5, 5))))
        for _ in range(draw(st.integers(0, 3))):
            insts.append(BinOp(
                draw(st.sampled_from(_DSTS)),
                draw(st.sampled_from(("add", "sub", "mul", "and", "or", "xor"))),
                draw(operands()),
                draw(operands()),
            ))
        kind = draw(st.sampled_from(("br", "cbr", "ret")))
        if kind == "br":
            term = Br(draw(st.sampled_from(labels)))
        elif kind == "cbr":
            insts.append(Cmp("c", "lt", Local("x"), draw(st.integers(-5, 5))))
            term = Cbr("c", draw(st.sampled_from(labels)),
                       draw(st.sampled_from(labels)))
        else:
            term = Ret(Local("x"))
        blocks.append(BasicBlock(label, tuple(insts), term))
    fn = IrFunction("_O1fi", "f", (("x", "int"),), "int", tuple(blocks))
    return IrModule(functions=(fn,))
