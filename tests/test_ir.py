import random

import pytest

from iobf.ir import (Br, Cbr, Local, NameAllocator, Ret, Switch, retarget,
                     targets)

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
