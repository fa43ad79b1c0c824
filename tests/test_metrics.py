import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iobf import (
    rename_dictionary,
    canonical_block_hash,
    flatten,
    load_dictionary,
    overhead,
    parse_module,
    print_module,
    rename_homoglyph,
    rename_random,
    similarity,
)
from iobf.bogus import mutate_instructions
from iobf.cli import PASS_APPLIERS, PipelineConfig, transform_module
from iobf.metrics import (
    SimilarityReport,
    _all_blocks,
    _multiset_similarity,
    aggregate_rows,
    canonical_block_text,
    terminator_shape,
)
from iobf.ir import (
    Assign, BasicBlock, BinOp, Br, IrFunction, IrModule, Local, Ret)

from conftest import GCD_TEXT, mutation_diff, random_programs, single_function_module

# sha256 of the canonical text "ret", the documented form of a block that
# holds nothing but a bare return
RET_ONLY_DIGEST = "85e4aea19de2d285c91b909a8dcd3d895ad511f5c888998471db1734c996c1ee"


def test_golden_hash_for_ret_only_block():
    block = BasicBlock("anything", [], Ret(None))
    assert canonical_block_text(block) == "ret"
    assert canonical_block_hash(block) == RET_ONLY_DIGEST


def test_hash_is_label_and_name_independent():
    a = BasicBlock("one", [BinOp("x", "add", Local("p"), 1)], Ret(Local("x")))
    b = BasicBlock("two", [BinOp("v", "add", Local("q"), 1)], Ret(Local("v")))
    assert canonical_block_hash(a) == canonical_block_hash(b)


def test_hash_distinguishes_mutated_clone():
    block = BasicBlock("b", [BinOp("x", "add", Local("p"), 7)], Ret(Local("x")))
    mutated = mutate_instructions(block.insts, random.Random(1))
    swaps, bumps = mutation_diff(block.insts, mutated)
    assert len(swaps) == len(bumps) == 1
    clone = BasicBlock("b2", mutated, Ret(Local("x")))
    assert canonical_block_hash(block) != canonical_block_hash(clone)


def test_constant_buckets():
    zero = BasicBlock("b", [Assign("x", 0)], Ret(Local("x")))
    one = BasicBlock("b", [Assign("x", 1)], Ret(Local("x")))
    two = BasicBlock("b", [Assign("x", 2)], Ret(Local("x")))
    nine = BasicBlock("b", [Assign("x", 9)], Ret(Local("x")))
    assert canonical_block_hash(zero) != canonical_block_hash(one)
    assert canonical_block_hash(one) != canonical_block_hash(two)
    assert canonical_block_hash(two) == canonical_block_hash(nine)


def test_terminator_shapes():
    m = parse_module(
        'func @f src "f" (%x: int) -> int {\n'
        "entry:\n  switch %x [1 -> a, 2 -> b] default a\n"
        "a:\n  ret 0\n"
        "b:\n  br a\n}\n")
    shapes = [terminator_shape(b) for b in m.functions[0].blocks]
    assert shapes == [("switch", 2), ("ret", 0), ("br", 0)]


def test_similarity_reflexive(gcd_module):
    sim = similarity(gcd_module, gcd_module)
    assert (sim.bb_sim, sim.ji_sim, sim.fn_sim, sim.prog_sim) == (
        100.0, 100.0, 100.0, 1.0)


def test_similarity_rename_invariant(gcd_module):
    for renamed in (
        rename_random(gcd_module, 5)[0],
        rename_homoglyph(gcd_module)[0],
    ):
        sim = similarity(gcd_module, renamed)
        assert sim.bb_sim == 100.0
        assert sim.ji_sim == 100.0
        assert sim.fn_sim == 100.0


def test_added_blocks_lower_bb_sim():
    m = parse_module(
        'func @f src "f" (%x: int) -> int {\n'
        "entry:\n  br mid\n"
        "mid:\n  %y = add %x, 1\n  br out\n"
        "out:\n  ret %y\n}\n")
    flat, _ = flatten(m.functions[0], seed=2)
    obf = single_function_module(m, flat)
    sim = similarity(m, obf)
    assert sim.bb_sim < 100.0
    assert 0 <= sim.prog_sim <= 1


def test_prog_sim_weights():
    m = parse_module(GCD_TEXT)
    flat, _ = flatten(m.functions[0], seed=3)
    obf = single_function_module(m, flat)
    sim = similarity(m, obf)
    want = 0.5 * sim.bb_sim / 100 + 0.3 * sim.ji_sim / 100 + 0.2 * sim.fn_sim / 100
    assert sim.prog_sim == pytest.approx(want)


def test_overhead_identical_modules(gcd_module):
    report = overhead(gcd_module, gcd_module, "gcd", [[48, 36]], reps=0)
    assert report.space_ratio == 1.0
    assert report.time_ratio is None
    timed = overhead(gcd_module, gcd_module, "gcd", [[48, 36]], reps=5)
    assert timed.time_ratio is not None and timed.time_ratio > 0


def test_substitution_space_ratio_exactly_one(gcd_module):
    renamed, _ = rename_random(gcd_module, 4)
    assert overhead(gcd_module, renamed, "gcd", [], 0).space_ratio == 1.0
    with_dict, _ = rename_dictionary(gcd_module, load_dictionary(), 4)
    assert overhead(gcd_module, with_dict, "gcd", [], 0).space_ratio == 1.0


def test_heavier_pipeline_scores_below_flattening_per_file(corpus):
    from iobf.cli import PipelineConfig, transform_module

    strictly_lower = 0
    for entry in corpus:
        flat, _ = transform_module(
            PipelineConfig(passes=["flatten"], seed=3), entry.module)
        heavy, _ = transform_module(
            PipelineConfig(passes=["nested", "indeg"], seed=3), entry.module)
        if (similarity(entry.module, heavy).prog_sim
                < similarity(entry.module, flat).prog_sim):
            strictly_lower += 1
    assert strictly_lower >= 0.9 * len(corpus)


def test_aggregate_rows_skip_missing_time():
    rows = [
        {"file": "a", "pass": "p", "seed": 1, "bb_sim": 50.0, "ji_sim": 60.0,
         "fn_sim": 100.0, "prog_sim": 0.63, "space_ratio": 1.5,
         "time_ratio": None},
    ]
    aggs = {a["indicator"] for a in aggregate_rows(rows)}
    assert "time_ratio" not in aggs
    assert "bb_sim" in aggs


def test_space_ratio_of_module_without_instructions():
    m = parse_module("global @g = 1\n")
    assert overhead(m, m, "f", []).space_ratio == 1.0


def reference_similarity(orig, obf):
    """`similarity` without its size/shape filter: the sha256 of every
    block's canonical text on both sides."""
    bb = _multiset_similarity(
        [canonical_block_hash(b) for b in _all_blocks(orig)],
        [canonical_block_hash(b) for b in _all_blocks(obf)])
    ji = _multiset_similarity(
        [terminator_shape(b) for b in _all_blocks(orig)],
        [terminator_shape(b) for b in _all_blocks(obf)])
    fn = _multiset_similarity(
        [(f.base_name, len(f.params)) for f in orig.functions],
        [(f.base_name, len(f.params)) for f in obf.functions])
    return SimilarityReport(
        bb, ji, fn, 0.5 * bb / 100 + 0.3 * ji / 100 + 0.2 * fn / 100)


@pytest.mark.parametrize("pass_name", list(PASS_APPLIERS))
def test_similarity_matches_the_reference_on_every_single_pass_output(
        corpus, pass_name):
    for entry in corpus:
        for seed in range(3):
            out, _ = transform_module(PipelineConfig([pass_name], seed), entry.module)
            assert similarity(entry.module, out) == reference_similarity(
                entry.module, out), (entry.name, seed)


@pytest.mark.parametrize("seed", range(4))
def test_similarity_matches_the_reference_on_the_default_pipeline(corpus, seed):
    cfg = PipelineConfig(["nested", "indeg", "ident-default"], seed)
    for entry in corpus:
        out, _ = transform_module(cfg, entry.module)
        reparsed = parse_module(print_module(out))
        assert similarity(entry.module, reparsed) == reference_similarity(
            entry.module, reparsed), entry.name


# `bogus_count` is drawn small for the reason given in test_pass_properties
@settings(max_examples=200, deadline=None)
@given(random_programs(),
       st.lists(st.sampled_from(list(PASS_APPLIERS)), min_size=1, max_size=3),
       st.integers(0, 1 << 16), st.sampled_from((0.3, 1.0)), st.integers(1, 3))
def test_similarity_matches_the_reference_on_random_pipelines(
        m, passes, seed, prob, bogus_count):
    cfg = PipelineConfig(passes, seed, prob=prob, bogus_count=bogus_count)
    out, _ = transform_module(cfg, m)
    assert similarity(m, out) == reference_similarity(m, out)


def _blocks_module(*blocks):
    return IrModule((IrFunction("f", "f", (("x", "int"),), "int", blocks),))


def _add_br(label, k):
    return BasicBlock(label, (BinOp("y", "add", Local("x"), k),), Br(label))


def test_similarity_of_modules_without_functions():
    m = parse_module("global @g = 1\n")
    assert similarity(m, m) == reference_similarity(m, m) == SimilarityReport(
        100.0, 100.0, 100.0, 1.0)


@pytest.mark.parametrize("orig_copies, obf_copies, other, bb", [
    (3, 1, 3, 100.0 * 1 / 4),
    (1, 3, 0, 100.0 * 1 / 3),
], ids=["more_in_original", "more_in_obfuscated"])
def test_a_repeated_block_text_matches_at_most_as_often_as_the_rarer_side(
        orig_copies, obf_copies, other, bb):
    # the `add %x, 1` blocks share one text; the `add %x, 0` blocks have
    # their size and shape but another text
    orig = _blocks_module(*[_add_br(f"o{i}", 1) for i in range(orig_copies)])
    obf = _blocks_module(*[_add_br(f"b{i}", 1) for i in range(obf_copies)],
                         *[_add_br(f"c{i}", 0) for i in range(other)])
    sim = similarity(orig, obf)
    assert sim == reference_similarity(orig, obf)
    assert sim.bb_sim == bb


def test_blocks_of_equal_size_and_shape_but_different_text_do_not_match():
    orig = _blocks_module(
        BasicBlock("a", (BinOp("y", "add", Local("x"), 2),), Ret(Local("y"))))
    obf = _blocks_module(
        BasicBlock("a", (BinOp("y", "mul", Local("x"), 2),), Ret(Local("y"))))
    a, b = orig.functions[0].blocks[0], obf.functions[0].blocks[0]
    assert (len(a.insts), terminator_shape(a)) == (len(b.insts), terminator_shape(b))
    assert canonical_block_text(a) != canonical_block_text(b)
    sim = similarity(orig, obf)
    assert sim == reference_similarity(orig, obf)
    assert (sim.bb_sim, sim.ji_sim) == (0.0, 100.0)


def test_blocks_without_a_terminator_match_by_their_instructions_alone():
    # `terminator_shape` calls a missing terminator ("ret", 0), so each
    # obfuscated block below has the size and shape of an original one
    orig = _blocks_module(BasicBlock("a", (Assign("x", 0),), None),
                          BasicBlock("b", (), Ret(None)))
    obf = _blocks_module(BasicBlock("c", (Assign("y", 0),), None),
                         BasicBlock("d", (Assign("z", 0),), Ret(None)),
                         BasicBlock("e", (), None))
    assert {terminator_shape(b) for b in _all_blocks(obf)} == {("ret", 0)}
    assert canonical_block_text(obf.functions[0].blocks[2]) == ""
    sim = similarity(orig, obf)
    assert sim == reference_similarity(orig, obf)
    assert sim.bb_sim == 100.0 / 3
