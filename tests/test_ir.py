import dataclasses
import inspect
import random
import weakref
from dataclasses import FrozenInstanceError
from types import SimpleNamespace

import pytest

from iobf.ir import (Assign, BasicBlock, BinOp, Br, Call, Cbr, Cmp,
                     ExternDecl, GlobalRef, IrFunction, IrModule, Local,
                     NameAllocator, Ret, Switch, print_module, retarget, targets)

from reference_algorithms import RestartingNameAllocator

SWITCH = Switch("x", ((1, "a"), (2, "b"), (3, "a")), "c")


@pytest.mark.parametrize("term, want", [
    (Br("a"), ("a",)),
    (Cbr("p", "a", "b"), ("a", "b")),
    (Cbr("p", "a", "a"), ("a", "a")),
    (SWITCH, ("a", "b", "a", "c")),
    (Switch("x", (), "d"), ("d",)),
    (Ret(), ()),
    (Ret(Local("v")), ()),
], ids=["br", "cbr", "cbr_same_arms", "switch", "switch_no_cases",
        "ret", "ret_value"])
def test_targets_in_printed_order(term, want):
    assert targets(term) == want


@pytest.mark.parametrize("term, want", [
    (Br("a"), Br("z")),
    (Cbr("p", "a", "b"), Cbr("p", "z", "b")),
    (Cbr("p", "b", "a"), Cbr("p", "b", "z")),
    (Cbr("p", "a", "a"), Cbr("p", "z", "z")),
    (SWITCH, Switch("x", ((1, "z"), (2, "b"), (3, "z")), "c")),
    (Switch("x", ((1, "b"),), "a"), Switch("x", ((1, "b"),), "z")),
], ids=["br", "cbr_then", "cbr_else", "cbr_same_arms", "switch_cases",
        "switch_default"])
def test_retarget_redirects_every_mapped_edge(term, want):
    assert retarget(term, {"a": "z"}) == want


def test_retarget_maps_all_labels_at_once():
    # a swap, not a chain: each edge is looked up once in the original
    swapped = retarget(SWITCH, {"a": "b", "b": "a", "c": "a"})
    assert swapped == Switch("x", ((1, "b"), (2, "a"), (3, "b")), "a")


@pytest.mark.parametrize("term", [
    Br("a"), Cbr("p", "a", "b"), SWITCH, Ret(), Ret(Local("v")),
], ids=["br", "cbr", "switch", "ret", "ret_value"])
def test_retarget_without_mapped_label_returns_term_itself(term):
    assert retarget(term, {"q": "z", "x": "z", "p": "z"}) is term
    assert retarget(term, {}) is term


@pytest.mark.parametrize("seed", range(20))
def test_name_allocator_matches_restarting_probe(seed):
    """Remembering the last suffix per base hands out the same names as
    probing from 1 each time, also when one base's suffixed names take
    another's ("t1" + "1" and "t" + "11")."""
    rng = random.Random(seed)
    bases = ["t", "t1", "x", "x_go", "a"]
    taken = {rng.choice(bases) + rng.choice(["", "1", "2", "3", "11", "12"])
             for _ in range(rng.randrange(12))}
    fast, slow = NameAllocator(taken), RestartingNameAllocator(taken)
    for _ in range(60):
        base = rng.choice(bases)
        assert fast.fresh(base) == slow.fresh(base)


# ---------------------------------------------------------------------------
# The node contract: frozen records with slots, built by position or keyword

_BLOCK = BasicBlock("entry", (Assign("x", 1),), Ret(Local("x")), "bogus")
_FN = IrFunction("_O1fi", "f", (("x", "int"),), "int", (_BLOCK,))
_EXTERN = ExternDecl("print_int", ("int",), "void")
NODES = [
    Local("a"), GlobalRef("g"), BinOp("x", "sdiv", Local("a"), -1),
    Cmp("c", "lt", 1, GlobalRef("g")), Assign("x", True),
    Call(None, "print_int", (Local("x"),)), Br("a"), Cbr("c", "a", "b"),
    SWITCH, Ret(Local("v")), _BLOCK, _EXTERN, _FN,
    IrModule((_FN,), (("g", 1),), (_EXTERN,)),
]
NODE_IDS = [type(n).__name__ for n in NODES]


def test_node_samples_cover_every_node_class():
    assert set(NODE_IDS) == {
        "Local", "GlobalRef", "BinOp", "Cmp", "Assign", "Call", "Br", "Cbr",
        "Switch", "Ret", "BasicBlock", "ExternDecl", "IrFunction", "IrModule"}


@pytest.mark.parametrize("node", NODES, ids=NODE_IDS)
def test_node_has_slots_and_rejects_assignment_and_deletion(node):
    assert not hasattr(node, "__dict__")
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        with pytest.raises(FrozenInstanceError):
            setattr(node, f.name, value)
        with pytest.raises(FrozenInstanceError):
            delattr(node, f.name)
        assert getattr(node, f.name) is value
    with pytest.raises(FrozenInstanceError):
        node.extra = 1


@pytest.mark.parametrize("node", NODES, ids=NODE_IDS)
def test_node_signature_lists_fields_in_declared_order(node):
    """Keyword construction and Hypothesis' `st.builds` read the
    signature: its parameters are the fields, with their defaults and
    annotations."""
    cls = type(node)
    params = inspect.signature(cls).parameters.values()
    empty = inspect.Parameter.empty
    assert [(p.name, p.default, p.annotation, p.kind) for p in params] == [
        (f.name, empty if f.default is dataclasses.MISSING else f.default,
         f.type, inspect.Parameter.POSITIONAL_OR_KEYWORD)
        for f in dataclasses.fields(cls)]


@pytest.mark.parametrize("node", NODES, ids=NODE_IDS)
def test_equal_fields_give_equal_nodes(node):
    cls, names = type(node), [f.name for f in dataclasses.fields(node)]
    by_position = cls(*(getattr(node, n) for n in names))
    by_keyword = cls(**{n: getattr(node, n) for n in names})
    for twin in (by_position, by_keyword, dataclasses.replace(node)):
        assert twin is not node
        assert twin == node and hash(twin) == hash(node)
        assert repr(twin) == repr(node)


def test_node_defaults_repr_and_replace():
    assert Ret() == Ret(None) and Ret().value is None
    assert BasicBlock("l") == BasicBlock("l", (), None, "real")
    assert IrModule() == IrModule((), (), ())
    assert Local("a") != GlobalRef("a")
    assert hash(Local("a")) == hash(Local("a"))
    assert repr(BinOp("x", "add", Local("a"), 3)) == (
        "BinOp(dst='x', op='add', a=Local(name='a'), b=3)")
    assert repr(BasicBlock("l")) == (
        "BasicBlock(label='l', insts=(), term=None, role='real')")
    assert dataclasses.replace(_BLOCK, role="real", term=Br("l")) == BasicBlock(
        "entry", (Assign("x", 1),), Br("l"))
    with pytest.raises(TypeError):
        dataclasses.replace(Local("a"), label="b")
    with pytest.raises(TypeError):
        BinOp("x", "add", Local("a"))


def test_module_is_weakly_referenceable():
    """The interpreter's compile cache holds each module through a weak
    reference and drops its entry when the module dies."""
    m = IrModule()
    ref = weakref.ref(m)
    assert ref() is m
    del m
    assert ref() is None


@pytest.mark.parametrize("block, message", [
    (BasicBlock("entry", (SimpleNamespace(dst=None),), Ret(0)),
     "not an instruction: namespace(dst=None)"),
    (BasicBlock("entry", (), Assign("x", 0)), "not a terminator: Assign(dst='x', src=0)"),
], ids=["instruction", "terminator"])
def test_print_module_rejects_a_node_of_the_wrong_kind(block, message):
    m = IrModule(functions=(IrFunction("_O1f", "f", (), "int", (block,)),))
    with pytest.raises(TypeError) as err:
        print_module(m)
    assert str(err.value) == message
