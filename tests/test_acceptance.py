"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line. Tolerances are pinned in the assertions; nothing is deferred to
later calibration. Expected wall time for the whole module is well under
two minutes on commodity hardware."""

import gc
import statistics
import time

import pytest

from iobf import (
    build_cfg,
    in_degree_gap,
    instruction_count,
    load_dictionary,
    nested_switch,
    rename_dictionary,
    rename_homoglyph,
    rename_random,
    run,
    similarity,
    timed_run,
    validate,
)
from iobf.cli import PipelineConfig, fork_seed, main, transform_module
from iobf.corpus import default_corpus_dir
from iobf.ir import BinOp, Switch
from iobf.rename import collect_custom_identifiers

from conftest import (block_of, dispatcher_of, predicate_module,
                      predicate_value, real_inner_case)

SEEDS = [101, 202, 303, 404, 505]

PIPELINES = {
    "flatten": ["flatten"],
    "nested": ["nested"],
    "bcf": ["bcf"],
    "indeg": ["indeg"],
    "ident-random": ["ident-random"],
    "ident-dict": ["ident-dict"],
    "ident-illegal": ["ident-illegal"],
    "ident-overload": ["ident-overload"],
    "ident-default": ["ident-default"],
    "combined": ["nested", "indeg", "ident-default"],
}


def _announce(number, description):
    def wrap(check):
        try:
            check()
        except BaseException:
            print(f"FAIL criterion {number}: {description}")
            raise
        print(f"PASS criterion {number}: {description}")
    return wrap


def _cfg(passes, seed):
    return PipelineConfig(passes=passes, seed=seed)


@pytest.fixture(scope="module")
def original_results(corpus):
    cache = {}
    for entry in corpus:
        cache[entry.name] = [
            run(entry.module, entry.entry, args, entry.fuel).observable()
            for args in entry.inputs
        ]
    return cache


def test_criterion_1_semantics_oracle(corpus, original_results):
    @_announce(1, "semantics oracle over all entries, inputs, seeds, pipelines")
    def check():
        start = time.perf_counter()
        assert len(corpus) >= 20
        for entry in corpus:
            assert len(entry.inputs) >= 3
            for label, passes in PIPELINES.items():
                for seed in SEEDS:
                    obf, _ = transform_module(_cfg(passes, seed), entry.module)
                    for args, want in zip(entry.inputs,
                                          original_results[entry.name]):
                        got = run(obf, entry.entry, args, entry.fuel)
                        assert got.observable() == want, (
                            entry.name, label, seed, args)
        elapsed = time.perf_counter() - start
        assert elapsed < 120, f"oracle sweep took {elapsed:.1f}s"


def test_criterion_2_in_degree_dominance(corpus):
    @_announce(2, "min bogus in-degree exceeds max real in-degree after indeg")
    def check():
        for entry in corpus:
            for seed in SEEDS:
                obf, _ = transform_module(_cfg(["indeg"], seed), entry.module)
                for fn in obf.functions:
                    orig_fn = entry.module.function(fn.mangled_name)
                    if orig_fn is not None and len(orig_fn.blocks) < 2:
                        continue  # pass skips single-block functions
                    max_real, min_bogus = in_degree_gap(build_cfg(fn))
                    assert min_bogus is not None, (entry.name, fn.mangled_name)
                    assert min_bogus > max_real, (
                        entry.name, fn.mangled_name, seed)


def test_criterion_3_nested_switch_shape(corpus, original_results):
    @_announce(3, "one inner switch and exactly one junk-free case per "
                  "outer case; traces avoid decoys")
    def check():
        for entry in corpus:
            for seed in SEEDS[:2]:
                functions = []
                nested = []
                for fn in entry.module.functions:
                    new_fn, skipped = nested_switch(
                        fn, fork_seed(seed, "nested", fn.mangled_name))
                    functions.append(new_fn)
                    if skipped is None:
                        nested.append(new_fn)
                obf = type(entry.module)(
                    functions=functions,
                    globals=list(entry.module.globals),
                    externs=list(entry.module.externs),
                )
                assert validate(obf) == []

                entry_mangled = {
                    f.mangled_name for f in entry.module.functions
                    if f.base_name == entry.entry
                }
                decoys = set()
                entry_real_inner = set()
                for fn in nested:
                    dispatcher = dispatcher_of(fn)
                    outer = dispatcher.term.scrutinee
                    real_inner = set()
                    for _, case_label in dispatcher.term.cases:
                        block = block_of(fn, case_label)
                        assert isinstance(block.term, Switch), (
                            entry.name, case_label)
                        clean = []
                        for _, target in block.term.cases:
                            b = block_of(fn, target)
                            junky = any(
                                isinstance(i, BinOp) and i.dst == outer
                                for i in b.insts)
                            if not junky:
                                clean.append(target)
                        assert clean == [real_inner_case(fn, block)[1]], (
                            entry.name, case_label)
                        real_inner.update(clean)
                    decoys.update(b.label for b in fn.blocks
                                  if b.role == "bogus")
                    if fn.mangled_name in entry_mangled:
                        entry_real_inner |= real_inner

                executed = set()
                for args, want in zip(entry.inputs,
                                      original_results[entry.name]):
                    got = run(obf, entry.entry, args, entry.fuel,
                              block_tracer=lambda f, lab: executed.add(lab))
                    assert got.observable() == want
                assert executed & decoys == set(), entry.name
                if entry_real_inner:
                    # a nested entry function must route through its clean
                    # inner cases
                    assert executed & entry_real_inner, entry.name


def test_criterion_4_opaque_predicate_soundness():
    @_announce(4, "exhaustive masked 16-bit evaluation matches the declared "
                  "truth constant for every family and polarity")
    def check():
        start = time.perf_counter()
        for truth in (True, False):
            m = predicate_module("square_mod4", truth)
            for x in range(1 << 16):
                assert predicate_value(m, x - (1 << 15)) is truth

        # seven_square over all 2^32 masked pairs, as value-set
        # disjointness: a counterexample needs some 7*y*y - 1 to equal
        # some x*x, so disjoint value sets prove every pair
        squares = {x * x for x in range(1 << 16)}
        sevens = {7 * y * y - 1 for y in range(1 << 16)}
        assert squares.isdisjoint(sevens)
        for truth in (True, False):
            m = predicate_module("seven_square", truth)
            probe = [0, 1, 2, 3, 255, 4096, 65535, -1, -65536, 1 << 62]
            for x in probe:
                for y in probe:
                    assert predicate_value(m, x, y) is truth
        elapsed = time.perf_counter() - start
        assert elapsed < 60, f"predicate sweep took {elapsed:.1f}s"


def test_criterion_5_overhead_directional(corpus):
    @_announce(5, "space ratios directional and exact; per-pass time ratio "
                  "median within [0.8, 1.5]")
    def check():
        seed = SEEDS[0]
        # substitution passes keep the instruction count identical
        for entry in corpus:
            n = instruction_count(entry.module)
            for renamed in (
                rename_random(entry.module, seed)[0],
                rename_dictionary(entry.module, load_dictionary(), seed)[0],
                rename_homoglyph(entry.module)[0],
            ):
                assert instruction_count(renamed) == n, entry.name

        # nested+indeg always costs strictly more space than flattening
        for entry in corpus:
            base = instruction_count(entry.module)
            flat = instruction_count(
                transform_module(_cfg(["flatten"], seed), entry.module)[0])
            heavy = instruction_count(
                transform_module(_cfg(["nested", "indeg"], seed),
                                 entry.module)[0])
            assert heavy / base > flat / base, entry.name

        # advisory wall-clock ratio, corpus median per pass; warm both
        # modules first so analysis cost and allocator churn stay out of
        # the timed repetitions
        reps = 9
        medians = {}
        for label, passes in PIPELINES.items():
            if label == "combined":
                continue
            ratios = []
            for entry in corpus:
                obf, _ = transform_module(_cfg(passes, seed), entry.module)
                for args in entry.inputs:
                    run(entry.module, entry.entry, args, entry.fuel)
                    run(obf, entry.entry, args, entry.fuel)
                gc.collect()
                t_orig = sum(
                    timed_run(entry.module, entry.entry, args, reps, entry.fuel)
                    for args in entry.inputs)
                t_obf = sum(
                    timed_run(obf, entry.entry, args, reps, entry.fuel)
                    for args in entry.inputs)
                ratios.append(t_obf / t_orig)
            medians[label] = statistics.median(ratios)
        for label, median in medians.items():
            assert 0.8 <= median <= 1.5, (label, medians)


def test_criterion_6_similarity_directional(corpus):
    @_announce(6, "nested+indeg scores lower than flattening on bb/ji and "
                  "at most 0.75x on prog; fn similarity unchanged")
    def check():
        seed = SEEDS[0]
        flat_rows = []
        heavy_rows = []
        for entry in corpus:
            flat, _ = transform_module(_cfg(["flatten"], seed), entry.module)
            heavy, _ = transform_module(_cfg(["nested", "indeg"], seed),
                                        entry.module)
            flat_rows.append(similarity(entry.module, flat))
            heavy_rows.append(similarity(entry.module, heavy))

        mean = lambda rows, attr: statistics.fmean(
            getattr(r, attr) for r in rows)
        assert mean(heavy_rows, "bb_sim") < mean(flat_rows, "bb_sim")
        assert mean(heavy_rows, "ji_sim") < mean(flat_rows, "ji_sim")
        assert (mean(heavy_rows, "prog_sim")
                <= 0.75 * mean(flat_rows, "prog_sim"))
        for f_row, h_row in zip(flat_rows, heavy_rows):
            assert f_row.fn_sim == h_row.fn_sim


def test_criterion_7_replacement_rate(corpus):
    @_announce(7, "identifier passes rename every collected symbol, "
                  "injectively, with no dangling references")
    def check():
        seed = SEEDS[0]
        for entry in corpus:
            names = collect_custom_identifiers(entry.module)
            for renamed, mapping in (
                rename_random(entry.module, seed),
                rename_dictionary(entry.module, load_dictionary(), seed),
                rename_homoglyph(entry.module),
            ):
                assert set(mapping) == set(names), entry.name
                assert all(new != old for old, new in mapping.items())
                values = list(mapping.values())
                assert len(set(values)) == len(values), entry.name
                assert validate(renamed) == [], entry.name
            # the default composition substitutes everything too
            combined, _ = transform_module(_cfg(["ident-default"], seed),
                                           entry.module)
            assert validate(combined) == []
            surviving = {f.mangled_name for f in combined.functions}
            assert surviving.isdisjoint(names), entry.name


def test_criterion_8_batch_determinism(tmp_path):
    @_announce(8, "identical batch runs produce byte-identical IR and reports")
    def check():
        outputs = []
        for tag in ("first", "second"):
            report_path = tmp_path / f"{tag}.json"
            out_dir = tmp_path / tag
            code = main([
                "--batch", str(default_corpus_dir()),
                "--passes", "nested,indeg,ident-default",
                "--seed", "20220101",
                "--report", str(report_path),
                "--out-dir", str(out_dir),
            ])
            assert code == 0
            outputs.append((report_path.read_bytes(), out_dir))
        (report_a, dir_a), (report_b, dir_b) = outputs
        assert report_a == report_b
        files_a = sorted(dir_a.glob("*.ir"))
        assert len(files_a) >= 20
        for path in files_a:
            assert path.read_bytes() == (dir_b / path.name).read_bytes()
