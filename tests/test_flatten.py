import pytest

from iobf import build_cfg, flatten, nested_switch, parse_module, print_module, run, validate
from iobf.flatten import PassParameterError
from iobf.ir import BinOp, Br, Cbr, Local, Ret, Switch

from conftest import (GCD_TEXT, assert_equivalent, block_of, dispatcher_of,
                      real_inner_case, single_function_module)


def test_skip_too_few_blocks():
    m = parse_module(
        'func @f src "f" (%x: int) -> int {\nentry:\n  br out\nout:\n  ret %x\n}')
    out, skipped = flatten(m.functions[0], seed=1)
    assert skipped == "too few blocks"
    assert out is m.functions[0]


def test_dispatcher_shape(gcd_module):
    fn = gcd_module.functions[0]
    flat, skipped = flatten(fn, seed=5)
    assert skipped is None
    dispatcher = dispatcher_of(flat)
    assert dispatcher is flat.blocks[1]
    # one case per original non-entry block
    original_labels = {b.label for b in fn.blocks[1:]}
    case_targets = {lab for _, lab in dispatcher.term.cases}
    assert case_targets == original_labels
    assert len(dispatcher.term.cases) == len(original_labels)


def test_case_literals_are_31_bit_and_distinct(gcd_module):
    flat, _ = flatten(gcd_module.functions[0], seed=9)
    lits = [lit for lit, _ in dispatcher_of(flat).term.cases]
    assert len(set(lits)) == len(lits)
    assert all(0 < lit < 2 ** 31 for lit in lits)


def test_blocks_return_to_dispatcher(gcd_module):
    flat, _ = flatten(gcd_module.functions[0], seed=5)
    dispatch = dispatcher_of(flat).label
    labels = {b.label: b for b in flat.blocks}
    for block in flat.blocks[1:]:
        if block.role == "dispatcher":
            continue
        term = block.term
        if isinstance(term, Ret):
            continue
        if isinstance(term, Br):
            assert term.label == dispatch
        else:
            assert isinstance(term, Cbr)
            for arm in (term.then_label, term.else_label):
                hop = labels[arm]
                assert isinstance(hop.term, Br) and hop.term.label == dispatch


def test_flatten_preserves_semantics(gcd_module):
    flat, _ = flatten(gcd_module.functions[0], seed=11)
    obf = single_function_module(gcd_module, flat)
    assert validate(obf) == []
    assert_equivalent(gcd_module, obf, "gcd", [[48, 36], [17, 5], [1071, 462]])


def test_flatten_deterministic(gcd_module):
    a, ra = flatten(gcd_module.functions[0], seed=1234)
    b, rb = flatten(gcd_module.functions[0], seed=1234)
    assert a == b
    assert ra == rb
    c, _ = flatten(gcd_module.functions[0], seed=1235)
    assert c != a


def test_branch_back_to_entry_is_dispatchable():
    m = parse_module(
        'func @f src "f" (%n: int) -> int {\n'
        "entry:\n"
        "  %n = sub %n, 1\n"
        "  %c = cmp gt %n, 0\n"
        "  cbr %c, entry, mid\n"
        "mid:\n  %n = add %n, 100\n  br out\n"
        "out:\n  ret %n\n}\n")
    # entry is its own predecessor; flatten must split it first
    flat, skipped = flatten(m.functions[0], seed=3)
    assert skipped is None
    obf = single_function_module(m, flat)
    assert validate(obf) == []
    assert_equivalent(m, obf, "f", [[1], [5], [10]])


def test_original_switch_terminator_flattens():
    m = parse_module(
        'func @f src "f" (%x: int) -> int {\n'
        "entry:\n  %r = and %x, 3\n  switch %r [0 -> a, 1 -> b, 2 -> a] default c\n"
        "a:\n  ret 10\n"
        "b:\n  ret 20\n"
        "c:\n  ret 30\n}\n")
    flat, _ = flatten(m.functions[0], seed=8)
    obf = single_function_module(m, flat)
    assert validate(obf) == []
    assert_equivalent(m, obf, "f", [[0], [1], [2], [3], [6]])


def test_kth_smallest_flattens_to_single_level(corpus):
    entry = next(e for e in corpus if e.name == "kth_smallest")
    fn = entry.module.functions[0]
    flat, _ = flatten(fn, seed=1)
    dispatcher = dispatcher_of(flat)
    # one dispatcher case per original non-entry block: the old hierarchy
    # now hangs off a single level
    assert len(dispatcher.term.cases) == len(fn.blocks) - 1
    targets = {lab for _, lab in dispatcher.term.cases}
    assert targets == {b.label for b in fn.blocks[1:]}


# ---------------------------------------------------------------------------
# nested switch

def _nested_gcd(seed=21, bogus_count=None):
    m = parse_module(GCD_TEXT)
    fn, _ = nested_switch(m.functions[0], seed, bogus_count)
    return m, single_function_module(m, fn)


def _inner_switches(fn):
    """Each outer case's (literal, block holding its inner switch)."""
    return [(lit, block_of(fn, lab)) for lit, lab in dispatcher_of(fn).term.cases]


def test_nested_rejects_bad_bogus_count(gcd_module):
    with pytest.raises(PassParameterError):
        nested_switch(gcd_module.functions[0], 1, bogus_count=0)


def _decoy_targets(fn, block):
    return [lab for _, lab in block.term.cases if block_of(fn, lab).role == "bogus"]


def test_nested_default_decoy_count_is_case_count():
    _, obf = _nested_gcd()
    fn = obf.functions[0]
    inner = _inner_switches(fn)
    for _, block in inner:
        assert len(_decoy_targets(fn, block)) == len(inner)
    assert sum(b.role == "bogus" for b in fn.blocks) == len(inner) ** 2


def test_nested_bogus_count_one():
    _, obf = _nested_gcd(bogus_count=1)
    fn = obf.functions[0]
    for _, block in _inner_switches(fn):
        assert len(_decoy_targets(fn, block)) == 1


def test_nested_every_case_has_inner_switch_and_one_clean_case():
    _, obf = _nested_gcd()
    fn = obf.functions[0]
    outer = dispatcher_of(fn).term.scrutinee
    for _, block in _inner_switches(fn):
        assert isinstance(block.term, Switch)
        clean = []
        for _, target in block.term.cases:
            b = block_of(fn, target)
            junk = any(isinstance(i, BinOp) and i.dst == outer for i in b.insts)
            if not junk:
                clean.append(target)
        assert clean == [real_inner_case(fn, block)[1]]


def test_nested_inner_case_math():
    _, obf = _nested_gcd()
    fn = obf.functions[0]
    outer = dispatcher_of(fn).term.scrutinee
    for key, block in _inner_switches(fn):
        mul, add, mask = block.insts
        assert (mul.op, mul.a, add.op, add.a, mask.op, mask.a) == (
            "mul", Local(outer), "add", Local(mul.dst), "and", Local(add.dst))
        assert block.term.scrutinee == mask.dst
        a, b, m = mul.b, add.b, mask.b + 1
        assert a % 2 == 1
        assert m & (m - 1) == 0  # power of two
        assert real_inner_case(fn, block)[0] == (a * key + b) & (m - 1)


def test_nested_semantics_and_decoys_never_execute():
    orig, obf = _nested_gcd()
    fn = obf.functions[0]
    assert validate(obf) == []
    decoys = {b.label for b in fn.blocks if b.role == "bogus"}
    executed = set()
    for args in ([48, 36], [270, 192], [17, 5]):
        before = run(orig, "gcd", args)
        after = run(obf, "gcd", args,
                    block_tracer=lambda fn, label: executed.add(label))
        assert before.observable() == after.observable()
    assert executed & decoys == set()
    # the run goes through the inner switches' real targets
    real = {real_inner_case(fn, block)[1] for _, block in _inner_switches(fn)}
    assert executed & real


def test_nested_monotone_complexity(gcd_module):
    fn = gcd_module.functions[0]
    p1, _ = flatten(fn, seed=77)
    p3, _ = nested_switch(fn, seed=77)
    n0, n1, n3 = len(fn.blocks), len(p1.blocks), len(p3.blocks)
    assert n3 > n1 > n0
    e0 = len(build_cfg(fn).edges)
    e1 = len(build_cfg(p1).edges)
    e3 = len(build_cfg(p3).edges)
    assert e3 > e1 > e0


def test_nested_decoy_blocks_marked_bogus():
    _, obf = _nested_gcd()
    fn = obf.functions[0]
    outer = dispatcher_of(fn).term.scrutinee
    for _, block in _inner_switches(fn):
        for _, target in block.term.cases:
            b = block_of(fn, target)
            # a decoy is the target that writes the routing register
            junk = any(isinstance(i, BinOp) and i.dst == outer for i in b.insts)
            assert (b.role == "bogus") == junk


def test_nested_skip_passthrough():
    m = parse_module('func @tiny src "tiny" () -> int { entry: ret 1 }')
    fn, skipped = nested_switch(m.functions[0], seed=4)
    assert skipped == "too few blocks"
    assert fn is m.functions[0]


def test_nested_roundtrips_through_text():
    _, obf = _nested_gcd()
    assert parse_module(print_module(obf)) == obf


def test_nested_deterministic():
    _, obf_a = _nested_gcd(seed=99)
    _, obf_b = _nested_gcd(seed=99)
    assert print_module(obf_a) == print_module(obf_b)


def test_flatten_preserves_block_visit_multiset(gcd_module):
    from collections import Counter

    fn = gcd_module.functions[0]
    flat, _ = flatten(fn, seed=13)
    obf = single_function_module(gcd_module, flat)
    original_labels = {b.label for b in fn.blocks}
    for args in ([48, 36], [1071, 462]):
        before, after = [], []
        run(gcd_module, "gcd", args,
            block_tracer=lambda f, label: before.append(label))
        run(obf, "gcd", args,
            block_tracer=lambda f, label: after.append(label))
        assert Counter(before) == Counter(
            label for label in after if label in original_labels)


def test_nested_preserves_content_visit_multiset(gcd_module):
    from collections import Counter

    fn = gcd_module.functions[0]
    nested, _ = nested_switch(fn, seed=13)
    obf = single_function_module(gcd_module, nested)
    entry_label = fn.blocks[0].label
    origin_of = {real_inner_case(nested, block)[1]: block.label
                 for _, block in _inner_switches(nested)}
    for args in ([48, 36], [270, 192]):
        before, after = [], []
        run(gcd_module, "gcd", args,
            block_tracer=lambda f, label: before.append(label))
        run(obf, "gcd", args,
            block_tracer=lambda f, label: after.append(label))
        content_visits = [origin_of[l] for l in after if l in origin_of]
        content_visits += [l for l in after if l == entry_label]
        assert Counter(before) == Counter(content_visits)


def test_nested_handles_entry_back_edge():
    m = parse_module(
        'func @f src "f" (%n: int) -> int {\n'
        "entry:\n"
        "  %n = sub %n, 1\n"
        "  %c = cmp gt %n, 0\n"
        "  cbr %c, entry, mid\n"
        "mid:\n  %n = add %n, 100\n  br out\n"
        "out:\n  ret %n\n}\n")
    fn, skipped = nested_switch(m.functions[0], seed=6)
    assert skipped is None
    obf = single_function_module(m, fn)
    assert validate(obf) == []
    assert_equivalent(m, obf, "f", [[1], [4], [9]])


@pytest.mark.parametrize("transform", [flatten, nested_switch])
def test_cbr_with_equal_arms_gets_one_key_store(transform):
    m = parse_module(
        'func @f src "f" (%x: int) -> int {\n'
        "entry:\n  %c = cmp lt %x, 5\n  cbr %c, both, both\n"
        "both:\n  %x = add %x, 1\n  br out\n"
        "out:\n  ret %x\n}\n")
    fn, skipped = transform(m.functions[0], seed=4)
    assert skipped is None
    term = fn.blocks[0].term
    assert isinstance(term, Cbr) and term.then_label == term.else_label
    key_stores = [b.label for b in fn.blocks if b.label.startswith("entry_go")]
    assert key_stores == [term.then_label]
    obf = single_function_module(m, fn)
    assert validate(obf) == []
    assert_equivalent(m, obf, "f", [[0], [5], [9]])
