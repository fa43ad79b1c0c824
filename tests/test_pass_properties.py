"""Property tests: every pass, and every short pipeline of passes,
preserves observable behaviour on random well-formed modules, not just
the curated corpus.

Random modules exercise shapes the corpus avoids: self-loops, branches
whose arms coincide, unreachable blocks, back edges into the entry. The
original run gets a modest fuel budget and non-returning programs are
skipped; the obfuscated run gets a much larger budget, which is sound
because a returning execution is identical under any larger budget.
"""

import dataclasses

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from iobf import (
    bogus_control_flow,
    flatten,
    indegree_obfuscate,
    nested_switch,
    parse_module,
    print_module,
    run,
    validate,
)
from iobf.cli import PASS_APPLIERS, PipelineConfig, transform_module
from iobf.interp import RETURNED
from iobf.rename import add_overloads, rename_homoglyph, rename_random

from conftest import random_modules, random_programs

ARGS = [-7, 0, 3, 64]
ORIG_FUEL = 3_000
OBF_FUEL = 250_000


def _returned_runs(m):
    results = []
    for x in ARGS:
        r = run(m, "f", [x], ORIG_FUEL)
        assume(r.status == RETURNED)
        results.append(r.observable())
    return results


def _check(m, transformed, expected):
    assert validate(transformed) == []
    for x, want in zip(ARGS, expected):
        got = run(transformed, "f", [x], OBF_FUEL)
        assert got.observable() == want


def _swap(m, fn):
    return dataclasses.replace(m, functions=[fn])


@settings(max_examples=80, deadline=None)
@given(random_modules())
def test_flatten_preserves_random_programs(m):
    expected = _returned_runs(m)
    fn, _ = flatten(m.functions[0], seed=5)
    _check(m, _swap(m, fn), expected)


@settings(max_examples=50, deadline=None)
@given(random_modules())
def test_nested_preserves_random_programs(m):
    expected = _returned_runs(m)
    fn, _ = nested_switch(m.functions[0], seed=5, bogus_count=2)
    _check(m, _swap(m, fn), expected)


@settings(max_examples=50, deadline=None)
@given(random_modules())
def test_bcf_preserves_random_programs(m):
    expected = _returned_runs(m)
    fn, _ = bogus_control_flow(m.functions[0], seed=5, prob=1.0)
    _check(m, _swap(m, fn), expected)


@settings(max_examples=50, deadline=None)
@given(random_modules())
def test_indeg_preserves_random_programs(m):
    expected = _returned_runs(m)
    fn, _ = indegree_obfuscate(m.functions[0], seed=5)
    _check(m, _swap(m, fn), expected)


@settings(max_examples=40, deadline=None)
@given(random_modules())
def test_identifier_passes_preserve_random_programs(m):
    expected = _returned_runs(m)
    renamed, _ = rename_random(m, seed=5)
    _check(m, renamed, expected)
    greek, _ = rename_homoglyph(m)
    _check(m, greek, expected)
    overloaded, _ = add_overloads(m, seed=5)
    _check(m, overloaded, expected)


# `bogus_count` is drawn: its default, the outer case count, squares a
# function's block count at each `nested`, so three of them turn 4 blocks
# into about 10^5
@settings(max_examples=150, deadline=None)
@given(random_programs(),
       st.lists(st.sampled_from(list(PASS_APPLIERS)), min_size=1, max_size=3),
       st.integers(0, 1 << 16), st.sampled_from((0.3, 1.0)), st.integers(1, 3))
def test_pipelines_preserve_random_programs(m, passes, seed, prob, bogus_count):
    assert validate(m) == []
    expected = _returned_runs(m)
    cfg = PipelineConfig(passes, seed, prob=prob, bogus_count=bogus_count)
    out, _ = transform_module(cfg, m)
    assert parse_module(print_module(out)) == out
    _check(m, out, expected)


# no parameter and no global: `bcf` and `indeg` feed their opaque
# predicates from literals (`%opq_x = 5`), which must print and re-parse
# as the instruction the pass built
NO_PREDICATE_SOURCES = """\
func @f src "f" () -> int {
entry:
  %x = 3
  br mid
mid:
  %y = add %x, 4
  br out
out:
  ret %y
}
"""


@pytest.mark.parametrize("passes", [["bcf"], ["nested", "indeg"]], ids=",".join)
def test_literal_predicate_sources_round_trip(passes):
    m = parse_module(NO_PREDICATE_SOURCES)
    for seed in range(4):
        out, _ = transform_module(PipelineConfig(passes, seed, prob=1.0), m)
        assert parse_module(print_module(out)) == out, seed
        assert run(out, "f", []).observable() == (RETURNED, 7, None, ())
