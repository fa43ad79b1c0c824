import pytest

from iobf.ir import Br, Cbr, Local, Ret, Switch, retarget, targets

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
