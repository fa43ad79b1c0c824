import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iobf import (
    bogus_control_flow,
    build_cfg,
    in_degree_gap,
    indegree_obfuscate,
    make_opaque_predicate,
    nested_switch,
    parse_module,
    print_module,
    run,
    validate,
)
from iobf import bogus
from iobf.bogus import MASK16, fresh_literal, mutate_instructions
from iobf.cli import PASS_APPLIERS, PipelineConfig
from iobf.ir import (BINOPS, CMP_RELS, INT_MAX, INT_MIN, Assign, BinOp, Br,
                     Call, Cbr, Cmp, GlobalRef, Local, operand_type, wrap64)

from conftest import (assert_equivalent, block_of, mutation_diff,
                      predicate_module, predicate_value, single_function_module)


# ---------------------------------------------------------------------------
# Opaque predicates

def test_square_mod4_sample_value():
    m = predicate_module("square_mod4", True)
    # x = 3: (9 * 16) mod 4 == 0
    assert predicate_value(m, 3) is True


def test_square_mod4_exhaustive_16_bit():
    m = predicate_module("square_mod4", True)
    for x in range(1 << 16):
        assert predicate_value(m, x - (1 << 15))


def test_square_mod4_random_64_bit():
    m = predicate_module("square_mod4", True)
    rng = random.Random(0)
    for _ in range(2000):
        assert predicate_value(m, rng.randrange(-(1 << 63), 1 << 63))


def test_seven_square_exhaustive_masked_domain():
    """All 2^32 (x, y) pairs, checked as value-set disjointness: the
    predicate fails only if some 7*y*y - 1 equals some x*x over the masked
    16-bit inputs, so comparing the two 65536-element value sets covers
    the full cross product."""
    squares = {x * x for x in range(1 << 16)}
    sevens = {7 * y * y - 1 for y in range(1 << 16)}
    assert squares.isdisjoint(sevens)
    m = predicate_module("seven_square", True)
    rng = random.Random(1)
    for _ in range(2000):
        x = rng.randrange(-(1 << 63), 1 << 63)
        y = rng.randrange(-(1 << 63), 1 << 63)
        assert predicate_value(m, x, y)


def test_negated_predicate_is_always_false():
    m = predicate_module("square_mod4", False)
    for x in range(-500, 500):
        assert predicate_value(m, x) is False


def test_make_opaque_predicate_seed_choice():
    families = {make_opaque_predicate(seed).family for seed in range(30)}
    assert families == {"square_mod4", "seven_square"}


@pytest.mark.parametrize("family", ["square_mod4", "seven_square"])
@pytest.mark.parametrize("truth", [True, False])
def test_emitted_instructions_match_evaluate(family, truth):
    """The emitted instructions validate, and the interpreter evaluates
    them to the predicate's truth value on random 64-bit inputs."""
    m = predicate_module(family, truth)
    assert validate(m) == []
    rng = random.Random(7)
    for _ in range(200):
        x = rng.randrange(-(1 << 63), 1 << 63)
        y = rng.randrange(-(1 << 63), 1 << 63)
        assert predicate_value(m, x, y) is truth


def test_mask16_is_16_bits():
    assert MASK16 == (1 << 16) - 1


# ---------------------------------------------------------------------------
# clone mutation

def test_mutation_swaps_one_opcode_and_bumps_one_constant():
    insts = [
        BinOp("a", "add", Local("x"), 7),
        Assign("b", 3),
    ]
    mutated = mutate_instructions(insts, random.Random(2))
    assert insts[0].op == "add"  # original untouched
    swaps, bumps = mutation_diff(insts, mutated)
    assert swaps == [(0, "add", mutated[0].op)] and mutated[0].op != "add"
    [(_, old, new)] = bumps
    assert new == old + 1


def test_mutation_never_creates_zero_divisor():
    insts = [BinOp("a", "sdiv", Local("x"), -1)]
    for seed in range(40):
        mutated = mutate_instructions(insts, random.Random(seed))
        assert not (mutated[0].op in ("sdiv", "srem") and mutated[0].b == 0)


def test_mutation_of_unmutable_block_is_identity():
    insts = (Assign("a", True),)
    mutated = mutate_instructions(insts, random.Random(3))
    assert mutation_diff(insts, mutated) == ([], [])


def reference_mutate_instructions(insts, rng) -> tuple:
    """`mutate_instructions` as first written: `replace` for both
    mutations and `operand_type` to find the literals."""
    out = list(insts)
    binop_at = [i for i, ins in enumerate(out) if isinstance(ins, BinOp)]
    if binop_at:
        i = rng.choice(binop_at)
        choices = [op for op in bogus._SWAP_OPS if op != out[i].op]
        out[i] = replace(out[i], op=rng.choice(choices))
    spots = reference_literal_spots(out)
    if spots:
        i, attr = rng.choice(spots)
        out[i] = replace(out[i], **{attr: wrap64(getattr(out[i], attr) + 1)})
    return tuple(out)


def reference_literal_spots(insts) -> list[tuple[int, str]]:
    spots = []
    for i, ins in enumerate(insts):
        if isinstance(ins, BinOp):
            if operand_type(ins.a) == "int":
                spots.append((i, "a"))
            if operand_type(ins.b) == "int" and not (
                ins.op in ("sdiv", "srem") and wrap64(ins.b + 1) == 0
            ):
                spots.append((i, "b"))
        elif isinstance(ins, Cmp):
            if operand_type(ins.a) == "int":
                spots.append((i, "a"))
            if operand_type(ins.b) == "int":
                spots.append((i, "b"))
        elif isinstance(ins, Assign) and operand_type(ins.src) == "int":
            spots.append((i, "src"))
    return spots


def assert_mutates_like_reference(bodies, seed):
    """Both mutations, from equal RNGs, give equal bodies (by `repr`, so a
    bool literal never passes for 1) and leave equal RNG states."""
    rng, ref_rng = random.Random(seed), random.Random(seed)
    for insts in bodies:
        got = mutate_instructions(insts, rng)
        want = reference_mutate_instructions(insts, ref_rng)
        assert type(got) is tuple and repr(got) == repr(want), insts
        assert bogus._literal_spots(insts) == reference_literal_spots(insts)
        assert rng.getstate() == ref_rng.getstate(), insts


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", sorted(PASS_APPLIERS))
def test_clone_mutation_matches_reference_on_pass_outputs(name, seed, corpus):
    for entry in corpus:
        out, _ = PASS_APPLIERS[name](entry.module, PipelineConfig([name], seed))
        bodies = [b.insts for m in (entry.module, out)
                  for fn in m.functions for b in fn.blocks]
        assert_mutates_like_reference(bodies, seed)


_LITERALS = st.one_of(st.booleans(), st.integers(-3, 3),
                      st.sampled_from([INT_MIN, INT_MAX, -1, 1 << 64, -(1 << 64) - 1]))
_OPERANDS = st.one_of(_LITERALS, st.sampled_from([Local("x"), GlobalRef("g")]))
_INSTS = st.one_of(
    st.builds(BinOp, st.just("x"), st.sampled_from(BINOPS), _OPERANDS, _OPERANDS),
    # a bump would make these divisors 0
    st.builds(BinOp, st.just("q"), st.sampled_from(("sdiv", "srem")), _OPERANDS,
              st.sampled_from([-1, (1 << 64) - 1])),
    st.builds(Cmp, st.just("c"), st.sampled_from(CMP_RELS), _OPERANDS, _OPERANDS),
    st.builds(Assign, st.just("y"), _OPERANDS),
    st.builds(Call, st.sampled_from([None, "r"]), st.just("f"),
              st.lists(_OPERANDS, max_size=2).map(tuple)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_INSTS, max_size=6).map(tuple), min_size=1, max_size=4),
       st.integers(0, 1 << 32))
def test_clone_mutation_matches_reference_on_random_blocks(bodies, seed):
    assert_mutates_like_reference(bodies, seed)


# ---------------------------------------------------------------------------
# bogus control flow

def test_bcf_builds_guarded_twins(fig3a_module):
    fn, _ = bogus_control_flow(fig3a_module.functions[0], seed=5, prob=1.0)
    # each twin jumps back to the real block it was cloned from
    twins = [b for b in fn.blocks if b.role == "bogus"]
    assert all(isinstance(b.term, Br) for b in twins)
    assert {b.term.label for b in twins} == {"middle", "final"}
    cfg = build_cfg(fn)
    twin = next(b.label for b in twins if b.term.label == "middle")
    # guard edge + twin edge land on the real block
    assert cfg.indeg["middle"] == 2
    assert cfg.indeg[twin] == 1
    assert in_degree_gap(cfg) == (2, 1)


def test_bcf_no_selection_returns_input(fig3a_module):
    fn, skipped = bogus_control_flow(fig3a_module.functions[0], seed=5,
                                     prob=1e-12)
    assert fn is fig3a_module.functions[0]
    assert skipped == "no block selected"


def test_bcf_preserves_semantics(fig3a_module):
    fn, _ = bogus_control_flow(fig3a_module.functions[0], seed=5, prob=1.0)
    obf = single_function_module(fig3a_module, fn)
    assert validate(obf) == []
    bogus = {b.label for b in fn.blocks if b.role == "bogus"}
    assert bogus
    executed = set()
    for args in ([0], [5], [-3]):
        before = run(fig3a_module, "flow", args)
        after = run(obf, "flow", args,
                    block_tracer=lambda f, label: executed.add(label))
        assert before.observable() == after.observable()
    assert executed & bogus == set()


def test_bcf_guards_every_edge_into_a_self_loop():
    m = parse_module(
        'func @f src "f" (%n: int) -> int {\n'
        "entry:\n  %i = 0\n  br loop\n"
        "loop:\n  %i = add %i, 1\n  %c = cmp lt %i, %n\n  cbr %c, loop, out\n"
        "out:\n  ret %i\n}\n")
    fn, _ = bogus_control_flow(m.functions[0], seed=3, prob=1.0)
    twins = [b for b in fn.blocks if b.role == "bogus"]
    assert [b.term.label for b in twins] == ["loop", "out"]
    guard_of, twin_of = {}, {}
    for origin, twin in ((b.term.label, b.label) for b in twins):
        guard = next(b for b in fn.blocks if isinstance(b.term, Cbr)
                     and b.term.else_label == twin)
        # the guard's then-arm and the twin's branch reach the block itself
        assert guard.term.then_label == origin
        assert block_of(fn, twin).term == Br(origin)
        guard_of[origin], twin_of[origin] = guard.label, twin
    # every other edge, the loop's own back edge included, enters the guard
    assert block_of(fn, "entry").term == Br(guard_of["loop"])
    loop_term = block_of(fn, "loop").term
    assert (loop_term.then_label, loop_term.else_label) == (
        guard_of["loop"], guard_of["out"])
    into_loop = sorted(e.src for e in build_cfg(fn).edges if e.dst == "loop")
    assert into_loop == sorted([guard_of["loop"], twin_of["loop"]])
    labels = [b.label for b in fn.blocks]
    assert labels == ["entry", guard_of["loop"], "loop", twin_of["loop"],
                      guard_of["out"], "out", twin_of["out"]]
    obf = single_function_module(m, fn)
    assert validate(obf) == []
    assert_equivalent(m, obf, "f", [[0], [1], [7]])


def test_bcf_every_bogus_block_has_one_record(fig3a_module):
    """Each twin clones one selected block, which only its guard's
    then-arm and the twin's own branch reach."""
    fn, _ = bogus_control_flow(fig3a_module.functions[0], seed=6, prob=1.0)
    twins = [b for b in fn.blocks if b.role == "bogus"]
    origins = [b.term.label for b in twins]
    assert sorted(origins) == ["final", "middle"]
    edges = build_cfg(fn).edges
    for twin in twins:
        [guard] = [e.src for e in edges if e.dst == twin.label]
        term = block_of(fn, guard).term
        assert (term.then_label, term.else_label) == (twin.term.label, twin.label)
        assert sorted(e.src for e in edges if e.dst == twin.term.label) == (
            sorted([guard, twin.label]))


def test_bcf_bogus_blocks_never_execute_across_corpus(corpus):
    for entry in corpus:
        functions = []
        bogus = set()
        for fn in entry.module.functions:
            new_fn, _ = bogus_control_flow(fn, seed=77, prob=0.6)
            functions.append(new_fn)
            bogus.update(b.label for b in new_fn.blocks if b.role == "bogus")
        obf = type(entry.module)(
            functions=functions,
            globals=list(entry.module.globals),
            externs=list(entry.module.externs),
        )
        assert validate(obf) == [], entry.name
        executed = set()
        for args in entry.inputs:
            before = run(entry.module, entry.entry, args, entry.fuel)
            after = run(obf, entry.entry, args, entry.fuel,
                        block_tracer=lambda f, label: executed.add(label))
            assert before.observable() == after.observable(), (entry.name, args)
        assert executed & bogus == set(), entry.name


def test_bcf_deterministic(fig3a_module):
    a, _ = bogus_control_flow(fig3a_module.functions[0], seed=9, prob=0.7)
    b, _ = bogus_control_flow(fig3a_module.functions[0], seed=9, prob=0.7)
    assert a == b


# ---------------------------------------------------------------------------
# in-degree obfuscation

def test_indeg_adds_edge_from_origin_block(fig3b_module):
    fn, skipped = indegree_obfuscate(fig3b_module.functions[0], seed=4)
    assert skipped is None
    cfg = build_cfg(fn)
    # the real block the twin was cloned from now points at the twin
    assert any(e.src == "middle" and e.dst == "twin" for e in cfg.edges)
    max_real, min_bogus = in_degree_gap(cfg)
    assert min_bogus > max_real


def test_indeg_injects_when_no_bogus(fig3a_module):
    fn, _ = indegree_obfuscate(fig3a_module.functions[0], seed=12)
    assert not any(b.role == "bogus" for b in fig3a_module.functions[0].blocks)
    assert sum(b.role == "bogus" for b in fn.blocks) == 1
    cfg = build_cfg(fn)
    max_real, min_bogus = in_degree_gap(cfg)
    assert min_bogus is not None and min_bogus > max_real
    obf = single_function_module(fig3a_module, fn)
    assert validate(obf) == []
    assert_equivalent(fig3a_module, obf, "flow", [[0], [7], [-2]])


def test_indeg_skips_single_block_function():
    m = parse_module('func @one src "one" () -> int { entry: ret 4 }')
    fn, skipped = indegree_obfuscate(m.functions[0], seed=1)
    assert skipped == "no non-entry real block to clone"
    assert fn is m.functions[0]


def test_indeg_returns_input_when_bogus_already_dominates(fig3b_module):
    once, _ = indegree_obfuscate(fig3b_module.functions[0], seed=4)
    twice, skipped = indegree_obfuscate(once, seed=5)
    assert skipped == "bogus in-degree already dominates"
    assert twice is once


def test_indeg_margin_raises_floor(fig3b_module):
    for margin in (1, 3):
        fn, _ = indegree_obfuscate(fig3b_module.functions[0], seed=4,
                                   margin=margin)
        max_real, min_bogus = in_degree_gap(build_cfg(fn))
        assert min_bogus >= max_real + margin


def test_indeg_after_bcf_dominates(gcd_module):
    base, _ = bogus_control_flow(gcd_module.functions[0], seed=2, prob=1.0)
    fn, _ = indegree_obfuscate(base, seed=3)
    cfg = build_cfg(fn)
    max_real, min_bogus = in_degree_gap(cfg)
    assert min_bogus > max_real
    obf = single_function_module(gcd_module, fn)
    assert validate(obf) == []
    assert_equivalent(gcd_module, obf, "gcd", [[48, 36], [270, 192]])


def test_indeg_after_nested_covers_every_decoy(gcd_module):
    nested, _ = nested_switch(gcd_module.functions[0], seed=5)
    fn, _ = indegree_obfuscate(nested, seed=6)
    cfg = build_cfg(fn)
    max_real, min_bogus = in_degree_gap(cfg)
    assert min_bogus > max_real
    obf = single_function_module(gcd_module, fn)
    assert validate(obf) == []
    executed = set()
    bogus = {b.label for b in fn.blocks if b.role == "bogus"}
    for args in ([48, 36], [17, 5]):
        before = run(gcd_module, "gcd", args)
        after = run(obf, "gcd", args,
                    block_tracer=lambda f, label: executed.add(label))
        assert before.observable() == after.observable()
    assert executed & bogus == set()


def test_indeg_rewrites_conditional_branch_when_no_plain_branch_exists():
    # every real block ends in cbr or ret, so the donated edges must come
    # from turning a conditional into an opaque switch
    text = (
        'func @f src "f" (%x: int) -> int {\n'
        "entry:\n"
        "  %p = cmp ge %x, %x\n"
        "  cbr %p, real, twin\n"
        "bogus twin:\n"
        "  br real\n"
        "real:\n"
        "  %c = cmp gt %x, 0\n"
        "  cbr %c, pos, neg\n"
        "pos:\n  ret 1\n"
        "neg:\n  ret 0\n}\n")
    m = parse_module(text)
    fn, _ = indegree_obfuscate(m.functions[0], seed=2)
    cfg = build_cfg(fn)
    max_real, min_bogus = in_degree_gap(cfg)
    assert min_bogus > max_real
    switches = [b for b in fn.blocks
                if b.role == "real" and b.term.__class__.__name__ == "Switch"]
    assert switches
    obf = single_function_module(m, fn)
    assert validate(obf) == []
    assert_equivalent(m, obf, "f", [[5], [0], [-9]])


# the bogus block is marked in the source, so `indeg` injects no guarded
# clone, and no real block ends in `br` or `cbr`
MASKED_SWITCH_ONLY = """\
func @f src "f" (%x: int) -> int {
entry:
  %v = mul %x, 3
  %s = and %v, 7
  switch %s [0 -> a, 5 -> b] default c
a:
  ret 1
b:
  ret 2
c:
  ret %s
bogus twin:
  ret 4
}
"""


@pytest.mark.parametrize("margin", [1, 3])
def test_indeg_extends_a_real_masked_switch_when_no_block_donates(
        monkeypatch, margin):
    floors = []

    def recorded(rng, used, low=1):
        floors.append(low)
        return fresh_literal(rng, used, low)

    monkeypatch.setattr(bogus, "fresh_literal", recorded)
    m = parse_module(MASKED_SWITCH_ONLY)
    fn, skipped = indegree_obfuscate(m.functions[0], seed=3, margin=margin)
    assert skipped is None
    assert floors == [8] * (margin + 1)  # drawn above the mask 7
    before, after = m.functions[0].blocks[0].term, fn.blocks[0].term
    added = after.cases[len(before.cases):]
    assert after.cases[:len(before.cases)] == before.cases
    assert len(added) == margin + 1  # c has in-degree 1, twin had none
    assert all(lit > 7 and label == "twin" for lit, label in added)
    assert [b.label for b in fn.blocks] == [b.label for b in m.functions[0].blocks]
    max_real, min_bogus = in_degree_gap(build_cfg(fn))
    assert min_bogus >= max_real + margin
    obf = single_function_module(m, fn)
    assert validate(obf) == []
    executed = set()
    for x in (-(2**63), -5, 0, 1, 2, 7, 2**40):
        before_run = run(m, "f", [x])
        after_run = run(obf, "f", [x],
                        block_tracer=lambda f, label: executed.add(label))
        assert before_run.observable() == after_run.observable()
    assert "twin" not in executed


def test_indeg_skips_when_no_block_can_donate():
    # a marked bogus block, and only `ret` blocks to link it from
    m = parse_module('func @f src "f" (%x: int) -> int {\n'
                     "entry:\n  ret 0\nbogus twin:\n  ret 1\n}\n")
    fn, skipped = indegree_obfuscate(m.functions[0], seed=1)
    assert skipped == "no real block can donate a never-taken edge"
    assert fn is m.functions[0]


def test_indeg_bogus_blocks_never_execute_across_corpus(corpus):
    for entry in corpus:
        functions = []
        for fn in entry.module.functions:
            new_fn, _ = indegree_obfuscate(fn, seed=31)
            functions.append(new_fn)
        obf = type(entry.module)(
            functions=functions,
            globals=list(entry.module.globals),
            externs=list(entry.module.externs),
        )
        assert validate(obf) == [], entry.name
        bogus = {b.label for fn in obf.functions for b in fn.blocks
                 if b.role == "bogus"}
        executed = set()
        for args in entry.inputs:
            before = run(entry.module, entry.entry, args, entry.fuel)
            after = run(obf, entry.entry, args, entry.fuel,
                        block_tracer=lambda f, label: executed.add(label))
            assert before.observable() == after.observable(), (entry.name, args)
        assert executed & bogus == set(), entry.name


def test_indeg_deterministic_and_reparses(fig3b_module):
    a, ra = indegree_obfuscate(fig3b_module.functions[0], seed=8)
    b, rb = indegree_obfuscate(fig3b_module.functions[0], seed=8)
    assert a == b and ra == rb
    m = single_function_module(fig3b_module, a)
    assert parse_module(print_module(m)) == m
