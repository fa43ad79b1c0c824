from collections import defaultdict
from dataclasses import replace

import pytest

from iobf import build_cfg, in_degree_gap, parse_module
from iobf.cli import PipelineConfig, transform_module
from iobf.ir import Cbr, targets



def test_straight_line_shape(fig3a_module):
    cfg = build_cfg(fig3a_module.functions[0])
    assert len(cfg.roles) == 3
    assert [(e.src, e.dst) for e in cfg.edges] == [
        ("entry", "middle"), ("middle", "final")]
    assert cfg.indeg["middle"] == 1
    assert cfg.indeg["entry"] == 0


def test_single_block_no_edges():
    m = parse_module('func @f src "f" () -> int { entry: ret 0 }')
    cfg = build_cfg(m.functions[0])
    assert cfg.edges == []


def test_parallel_switch_edges_count_separately():
    m = parse_module(
        'func @f src "f" (%x: int) -> int {\n'
        "entry:\n  switch %x [1 -> out, 2 -> out] default out\n"
        "out:\n  ret 0\n}\n")
    cfg = build_cfg(m.functions[0])
    assert cfg.indeg["out"] == 3
    kinds = [e.kind for e in cfg.edges]
    assert kinds == ["switch_case", "switch_case", "switch_default"]
    assert [e.case_value for e in cfg.edges] == [1, 2, None]


def test_degree_sums_match_edge_count(corpus):
    for entry in corpus:
        for fn in entry.module.functions:
            cfg = build_cfg(fn)
            assert sum(cfg.indeg.values()) == len(cfg.edges)


def test_in_degree_gap_fig3b(fig3b_module):
    cfg = build_cfg(fig3b_module.functions[0])
    assert in_degree_gap(cfg) == (2, 1)


def test_in_degree_gap_without_bogus(fig3a_module):
    cfg = build_cfg(fig3a_module.functions[0])
    max_real, min_bogus = in_degree_gap(cfg)
    assert max_real == 1
    assert min_bogus is None


def test_adding_edge_to_bogus_raises_minimum(fig3b_module):
    fn = fig3b_module.functions[0]
    before = in_degree_gap(build_cfg(fn))
    # mirror the in-degree pass: a second edge into the twin
    fn = replace(fn, blocks=tuple(
        replace(b, term=Cbr("p", "final", "twin")) if b.label == "middle" else b
        for b in fn.blocks))
    after = in_degree_gap(build_cfg(fn))
    assert after[1] == before[1] + 1


def test_cbr_edge_kinds(gcd_module):
    cfg = build_cfg(gcd_module.functions[0])
    entry_edges = [e for e in cfg.edges if e.src == "entry"]
    assert [e.kind for e in entry_edges] == ["cbr_then", "cbr_else"]


@pytest.mark.parametrize("passes, prob", [
    ([], 0.3), (["nested", "indeg"], 0.3), (["bcf"], 1.0),
], ids=["input", "nested_indeg", "bcf"])
def test_cfg_edges_are_terminator_targets(corpus, passes, prob):
    for entry in corpus:
        module, _ = transform_module(PipelineConfig(passes, seed=5, prob=prob),
                                     entry.module)
        for fn in module.functions:
            dsts = defaultdict(list)
            for e in build_cfg(fn).edges:
                dsts[e.src].append(e.dst)
            for b in fn.blocks:
                assert tuple(dsts[b.label]) == targets(b.term), (
                    entry.name, fn.mangled_name, b.label)
