import random

import pytest

from iobf import (
    rename_dictionary,
    canonical_block_hash,
    flatten,
    load_dictionary,
    overhead,
    parse_module,
    rename_homoglyph,
    rename_random,
    similarity,
)
from iobf.bogus import mutate_instructions
from iobf.metrics import (
    aggregate_rows,
    canonical_block_text,
    terminator_shape,
)
from iobf.ir import Assign, BasicBlock, BinOp, Local, Ret

from conftest import GCD_TEXT, mutation_diff, single_function_module

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
