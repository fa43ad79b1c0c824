import hashlib
import json
import shutil
from dataclasses import MISSING, FrozenInstanceError, fields, replace

import pytest

import iobf.cli
from iobf import (build_cfg, in_degree_gap, instruction_count, parse_module,
                  print_module, run, validate)
from iobf.cli import (
    EXIT_OK,
    EXIT_ORACLE,
    EXIT_PARAMETER,
    EXIT_PARSE,
    PASS_APPLIERS,
    PipelineConfig,
    _build_arg_parser,
    batch,
    fork_seed,
    main,
    run_pipeline,
)
from iobf.corpus import default_corpus_dir, load_corpus
from iobf.flatten import PassParameterError
from iobf.ir import ROLES, Ret
from iobf.metrics import render_table
from iobf.rename import collect_custom_identifiers, load_dictionary

from conftest import GCD_TEXT, assert_equivalent, substitution_scheme

ALL_PASS_NAMES = [
    "flatten", "nested", "bcf", "indeg",
    "ident-random", "ident-dict", "ident-illegal", "ident-overload",
    "ident-default",
]


def cfg_of(passes, seed=7, **kw):
    return PipelineConfig(passes=passes, seed=seed, **kw)


def test_pass_registry_is_complete():
    assert sorted(PASS_APPLIERS) == sorted(ALL_PASS_NAMES)


def test_fork_seed_stable_and_distinct():
    a = fork_seed(1, "flatten", "f")
    assert a == fork_seed(1, "flatten", "f")
    assert a != fork_seed(1, "flatten", "g")
    assert a != fork_seed(2, "flatten", "f")


def test_unknown_pass_rejected_before_work():
    with pytest.raises(PassParameterError):
        run_pipeline(cfg_of(["mystery"]), GCD_TEXT)


@pytest.mark.parametrize("bad", [
    {"prob": 0.0}, {"prob": 1.5}, {"bogus_count": 0},
    {"indeg_margin": 0}, {"decoys_per_fn": 0},
])
def test_bad_parameters_rejected(bad):
    with pytest.raises(PassParameterError):
        run_pipeline(cfg_of(["flatten"], **bad), GCD_TEXT)


def test_single_pass_pipeline_preserves_semantics():
    result = run_pipeline(cfg_of(["flatten"]), GCD_TEXT)
    out = parse_module(result.text)
    assert validate(out) == []
    for args in ([48, 36], [270, 192]):
        assert (run(result.original, "gcd", args).observable()
                == run(out, "gcd", args).observable())


def test_full_pipeline_composition():
    result = run_pipeline(
        cfg_of(["nested", "indeg", "ident-default"]), GCD_TEXT)
    out = parse_module(result.text)
    assert validate(out) == []
    for args in ([48, 36], [17, 5]):
        assert (run(result.original, "gcd", args).observable()
                == run(out, "gcd", args).observable())
    names = [r["pass"] for r in result.reports]
    assert names == ["nested", "indeg", "ident-default"]


def test_pipeline_deterministic():
    a = run_pipeline(cfg_of(["nested", "indeg", "ident-default"], seed=42),
                     GCD_TEXT)
    b = run_pipeline(cfg_of(["nested", "indeg", "ident-default"], seed=42),
                     GCD_TEXT)
    assert a.text == b.text
    assert a.reports == b.reports


# sha256 over every corpus program's name and printed output, in corpus order
PINNED_OUTPUT_DIGESTS = [
    ("nested,indeg,ident-default", 0,
     "920413103b5cfa3b44a9821250664361fa37be0f45e1b5e6519c2dcbceaf2dfa"),
    ("nested,indeg,ident-default", 1,
     "d2cc8149f616f811ce73bb84c8abe25bb8b4b598f88fb39d424670a6143b456c"),
    ("nested,indeg,ident-default", 2,
     "85d1b79f48cbfc3e2b6a15296bc83f2a365c978a680553dab475f1a9c8007dc0"),
    ("nested,indeg,ident-default", 3,
     "fc72cc4c84a6abb464cebb664cc1e1fc468eaf77eabdc8adfd86d686849f1b2f"),
    ("bcf,indeg,flatten", 7,
     "76030e19244ebba3fe52d196a5790d39440a32574aa7736aa0fda8ac37291bdf"),
]


@pytest.mark.parametrize("passes, seed, digest", PINNED_OUTPUT_DIGESTS)
def test_corpus_outputs_match_pinned_digests(passes, seed, digest, corpus):
    """The printed outputs of the 26 corpus programs are byte for byte
    those pinned here, so a change meant to be pure speed cannot move a
    random draw or the order of draws. A change to what the passes or the
    printer emit must re-pin these digests and say why: ROADMAP item 1
    (the release form) is expected to."""
    assert len(corpus) == 26
    h = hashlib.sha256()
    for entry in corpus:
        text = entry.ir_path.read_text(encoding="utf-8")
        out = run_pipeline(cfg_of(passes.split(","), seed=seed), text).text
        h.update(f"{entry.name}\n{out}".encode())
    assert h.hexdigest() == digest


def test_function_filter_limits_control_flow_passes(corpus):
    lcm = next(e for e in corpus if e.name == "lcm")
    text = lcm.ir_path.read_text(encoding="utf-8")
    result = run_pipeline(cfg_of(["flatten"], funcs=["gcdHelper"]), text)
    out = parse_module(result.text)
    wrapper_before = next(f for f in result.original.functions
                          if f.base_name == "lcm")
    wrapper_after = next(f for f in out.functions if f.base_name == "lcm")
    target_before = next(f for f in result.original.functions
                         if f.base_name == "gcdHelper")
    target_after = next(f for f in out.functions
                        if f.base_name == "gcdHelper")
    assert wrapper_after == wrapper_before
    assert len(target_after.blocks) > len(target_before.blocks)
    for args in ([4, 6], [21, 6]):
        assert (run(result.original, "lcm", args).observable()
                == run(out, "lcm", args).observable())


def test_identifier_passes_ignore_function_filter():
    result = run_pipeline(cfg_of(["ident-random"], funcs=["nosuch"]), GCD_TEXT)
    out = parse_module(result.text)
    assert out.functions[0].mangled_name != "_O3gcdii"


@pytest.mark.parametrize("order", [
    ["bcf", "flatten"],
    ["flatten", "bcf"],
    ["indeg", "nested"],
    ["nested", "bcf", "indeg"],
    ["ident-overload", "flatten", "indeg"],
    ["ident-illegal", "nested", "ident-random"],
])
def test_any_pass_ordering_is_safe(order):
    result = run_pipeline(cfg_of(order, seed=31), GCD_TEXT)
    out = parse_module(result.text)
    assert validate(out) == []
    for args in ([48, 36], [270, 192]):
        assert (run(result.original, "gcd", args).observable()
                == run(out, "gcd", args).observable())


CONTROL_FLOW_RECORD = ["pass", "function", "seed", "skipped", "blocks",
                       "insts", "edges"]
IDENTIFIER_RECORD = ["pass", "seed", "renamed", "added"]


@pytest.mark.parametrize("name", ALL_PASS_NAMES)
def test_every_pass_report_is_json_serializable(name):
    """Every control-flow pass gives one record shape and every identifier
    pass the other; a record's "after" counts recount the output."""
    result = run_pipeline(cfg_of([name], seed=17), GCD_TEXT)
    json.dumps(result.reports)
    [record] = result.reports
    if name.startswith("ident-"):
        assert list(record) == IDENTIFIER_RECORD
        assert record["added"] == [f.mangled_name for f in result.module.functions[
            len(result.original.functions):]]
        return
    assert list(record) == CONTROL_FLOW_RECORD
    fn = result.module.function(record["function"])
    for role in ROLES:
        blocks = [b for b in fn.blocks if b.role == role]
        assert record["blocks"]["after"][role] == len(blocks)
        assert record["insts"]["after"][role] == sum(len(b.insts) + 1
                                                     for b in blocks)
    assert sum(record["insts"]["after"].values()) == instruction_count(
        result.module)
    assert record["edges"]["after"] == len(build_cfg(fn).edges)


# ---------------------------------------------------------------------------
# batch mode

def test_batch_over_bundled_corpus(tmp_path):
    report, code = batch(default_corpus_dir(), cfg_of(["flatten"], seed=3))
    assert code == EXIT_OK
    assert report["oracle"]["failures"] == []
    assert len(report["rows"]) >= 20
    indicators = {a["indicator"] for a in report["aggregates"]}
    assert {"bb_sim", "ji_sim", "fn_sim", "prog_sim", "space_ratio"} <= indicators


@pytest.mark.parametrize("name", ALL_PASS_NAMES)
def test_pass_leaves_its_input_intact(name, corpus):
    cfg = cfg_of([name], seed=11)
    for entry in corpus:
        module = parse_module(entry.ir_path.read_text(encoding="utf-8"))
        text = print_module(module)
        PASS_APPLIERS[name](module, cfg)
        assert print_module(module) == text, entry.name
        # `module` is first run (and compiled) after the pass, so an edit
        # to it would change what it computes
        for args in entry.inputs:
            after = run(module, entry.entry, args, entry.fuel)
            before = run(entry.module, entry.entry, args, entry.fuel)
            assert after.observable() == before.observable(), entry.name


@pytest.mark.parametrize("name, mode", [
    ("ident-random", "random"),
    ("ident-dict", "directory"),
    ("ident-illegal", "illegal"),
])
def test_substitution_report_shape(name, mode, corpus):
    """One record that adds no function, and whose `renamed` maps every
    defined symbol, in module order, to its name in the output, a name of
    the pass's scheme."""
    for entry in corpus:
        out, reports = PASS_APPLIERS[name](entry.module, cfg_of([name], seed=11))
        [report] = reports
        assert list(report) == IDENTIFIER_RECORD
        assert report["pass"] == name
        assert report["added"] == []
        renamed = report["renamed"]
        assert substitution_scheme(renamed) == mode
        assert list(renamed) == collect_custom_identifiers(entry.module)
        assert list(renamed.values()) == [f.mangled_name for f in out.functions]


@pytest.mark.parametrize("name", ALL_PASS_NAMES)
def test_pass_output_is_frozen(name, corpus):
    """Every node of a pass's output is frozen and its sequences are
    tuples, so no later pass or cached compile can see it change."""
    cfg = cfg_of([name], seed=11)
    for entry in corpus:
        out, _ = PASS_APPLIERS[name](entry.module, cfg)
        sequences = [out.functions, out.globals, out.externs]
        sequences += [e.param_types for e in out.externs]
        for fn in out.functions:
            sequences += [fn.params, fn.blocks]
            sequences += [b.insts for b in fn.blocks]
        assert all(type(s) is tuple for s in sequences), entry.name
        block = out.functions[0].blocks[0]
        with pytest.raises(FrozenInstanceError):
            block.term = Ret()


def test_batch_empty_directory(tmp_path):
    report, code = batch(tmp_path, cfg_of(["flatten"]))
    assert code == EXIT_OK
    assert report["rows"] == []


def test_batch_missing_directory_is_an_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        batch(tmp_path / "nope", cfg_of(["flatten"]))


def test_batch_reports_unloadable_entries(tmp_path):
    (tmp_path / "x.ir").write_text("not ir", encoding="utf-8")
    (tmp_path / "x.json").write_text(json.dumps({
        "ir": "x.ir", "entry": "f", "inputs": [[]], "expected": [[]],
    }), encoding="utf-8")
    report, code = batch(tmp_path, cfg_of(["flatten"]))
    assert code == EXIT_PARSE
    assert report["load_failures"]


def test_batch_detects_broken_pass(monkeypatch, tmp_path):
    def poisoned(block):
        if isinstance(block.term, Ret) and block.term.value is not None:
            return replace(block, term=Ret(12345))
        return block

    def evil(module, cfg):
        functions = [replace(fn, blocks=[poisoned(b) for b in fn.blocks])
                     for fn in module.functions]
        return replace(module, functions=functions), [{"pass": "evil"}]

    monkeypatch.setitem(PASS_APPLIERS, "evil", evil)
    report, code = batch(default_corpus_dir(), cfg_of(["evil"]))
    assert code == EXIT_ORACLE
    assert report["oracle"]["failures"]


def test_batch_isolates_per_file_failures(monkeypatch, tmp_path):
    calls = {"n": 0}

    def flaky(module, cfg):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("first file exploded")
        return module, []

    monkeypatch.setitem(PASS_APPLIERS, "flaky", flaky)
    report, code = batch(default_corpus_dir(), cfg_of(["flaky"]))
    errors = [r for r in report["rows"] if "error" in r]
    assert len(errors) == 1
    assert code == EXIT_ORACLE
    assert calls["n"] >= 2  # later files still processed


def _one_entry_corpus(tmp_path):
    for suffix in ("ir", "json"):
        shutil.copy(default_corpus_dir() / f"gcd.{suffix}", tmp_path)
    return tmp_path


def test_batch_single_entry_report(tmp_path):
    report, code = batch(_one_entry_corpus(tmp_path), cfg_of(["flatten"], seed=3))
    assert code == EXIT_OK
    assert len(report["rows"]) == 1
    row = report["rows"][0]
    assert {"file", "pass", "seed", "bb_sim", "ji_sim", "fn_sim", "prog_sim",
            "time_ratio", "space_ratio"} <= set(row)
    assert report["aggregates"]
    for agg in report["aggregates"]:
        assert agg["mean"] == agg["min"] == agg["max"]
        assert agg["stddev"] == 0.0


def test_batch_error_row_shown_in_table(monkeypatch, tmp_path):
    def broken(module, cfg):
        raise RuntimeError("boom")

    monkeypatch.setitem(PASS_APPLIERS, "bad", broken)
    report, code = batch(_one_entry_corpus(tmp_path), cfg_of(["bad"], seed=1))
    assert code == EXIT_ORACLE
    assert "error" in report["rows"][0]
    assert report["aggregates"] == []
    assert "boom" in render_table(report)


# ---------------------------------------------------------------------------
# command-line entry point

def test_main_obfuscates_file(tmp_path, capsys):
    src = tmp_path / "in.ir"
    src.write_text(GCD_TEXT, encoding="utf-8")
    out = tmp_path / "out.ir"
    report_path = tmp_path / "report.json"
    code = main([str(src), "--passes", "flatten,ident-illegal", "--seed", "5",
                 "-o", str(out), "--report", str(report_path)])
    assert code == EXIT_OK
    obf = parse_module(out.read_text(encoding="utf-8"))
    assert validate(obf) == []
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["passes"] == ["flatten", "ident-illegal"]
    assert report["space_ratio"] > 1.0
    assert len(report["pass_reports"]) == 2


def test_main_emits_dot_with_grey_bogus(tmp_path):
    src = tmp_path / "in.ir"
    src.write_text(GCD_TEXT, encoding="utf-8")
    dots = tmp_path / "dots"
    code = main([str(src), "--passes", "indeg", "--seed", "2",
                 "-o", str(tmp_path / "out.ir"), "--emit-dot", str(dots)])
    assert code == EXIT_OK
    files = list(dots.glob("*.dot"))
    assert files
    text = files[0].read_text(encoding="utf-8")
    assert "digraph" in text
    assert "fillcolor=grey" in text


def test_main_parse_failure_exit_code(tmp_path):
    src = tmp_path / "bad.ir"
    src.write_text("func oops", encoding="utf-8")
    assert main([str(src), "--passes", "flatten"]) == EXIT_PARSE


@pytest.mark.parametrize("literal", ["²", "7" * 5000],
                         ids=["digit_like", "too_long"])
def test_main_bad_literal_exit_code(tmp_path, capsys, literal):
    src = tmp_path / "bad.ir"
    src.write_text(f"global @g = {literal}\n", encoding="utf-8")
    assert main([str(src), "--passes", "flatten"]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith("error: Syntax: ")


@pytest.mark.parametrize("bad, want", [
    ("input", EXIT_PARSE),
    ("dict", EXIT_PARAMETER),
    ("bad.ir", EXIT_PARSE),
    ("bad.json", EXIT_PARSE),
])
def test_main_non_utf8_file(tmp_path, capsys, bad, want):
    """A file that is not UTF-8 gets a documented exit code; in a corpus
    it is a problem of its own entry and the other entries still run."""
    not_utf8 = b"\xff\xfe not UTF-8\n"
    corpus = _one_entry_corpus(tmp_path)
    gcd = str(corpus / "gcd.ir")
    if bad == "input":
        (tmp_path / "in.ir").write_bytes(not_utf8)
        argv = [str(tmp_path / "in.ir"), "--passes", "flatten"]
    elif bad == "dict":
        (tmp_path / "words.txt").write_bytes(not_utf8)
        argv = [gcd, "--passes", "ident-dict", "--dict",
                str(tmp_path / "words.txt")]
    else:
        manifest = json.loads((corpus / "gcd.json").read_text(encoding="utf-8"))
        (corpus / "bad.json").write_text(
            json.dumps({**manifest, "ir": "bad.ir"}), encoding="utf-8")
        (corpus / bad).write_bytes(not_utf8)
        argv = ["--batch", str(corpus), "--passes", "flatten",
                "--out-dir", str(tmp_path / "obf")]
    assert main(argv) == want
    captured = capsys.readouterr()
    if bad.startswith("bad."):
        problem = "ir" if bad == "bad.ir" else "manifest"
        assert f"error: bad seed=0: {problem} unreadable: " in captured.out
        assert [p.name for p in (tmp_path / "obf").glob("*.ir")] == ["gcd.ir"]
    else:
        assert captured.err.startswith("error: ")


@pytest.mark.parametrize("bad", ["missing", "not_utf8"])
def test_main_batch_bad_dict_is_one_parameter_error(tmp_path, capsys, bad):
    """An unusable --dict stops a batch before its first module, with one
    error line and the exit code of single-file mode."""
    words = tmp_path / "words.txt"
    if bad == "not_utf8":
        words.write_bytes(b"\xff\xfe not UTF-8\n")
    corpus = _one_entry_corpus(tmp_path)
    assert main(["--batch", str(corpus), "--passes", "ident-dict",
                 "--dict", str(words), "--out-dir",
                 str(tmp_path / "obf")]) == EXIT_PARAMETER
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "obf").exists()


@pytest.mark.parametrize("dict_path", [None, "words"])
def test_dictionary_read_once_per_call(monkeypatch, tmp_path, dict_path):
    import iobf.cli
    import iobf.rename

    reads = []

    def counting(path=None):
        reads.append(path)
        return load_dictionary(path)

    monkeypatch.setattr(iobf.cli, "load_dictionary", counting)
    monkeypatch.setattr(iobf.rename, "load_dictionary", counting)
    if dict_path is not None:
        dict_path = str(tmp_path / "words.txt")
        shutil.copy(default_corpus_dir().parent / "dictionary.txt", dict_path)
    # a --dict file is read once per call, the bundled list at most once
    want = [[dict_path]] if dict_path else [[], [None]]
    passes = ["ident-dict", "ident-default"]
    for seed in (2, 3):
        report, code = batch(default_corpus_dir(),
                             cfg_of(passes, seed=seed, dict_path=dict_path))
        assert code == EXIT_OK
        assert reads in want
        reads.clear()
        run_pipeline(cfg_of(passes, seed=seed, dict_path=dict_path), GCD_TEXT)
        assert reads in want
        reads.clear()


@pytest.mark.parametrize("reps, want", [
    (-1, EXIT_PARAMETER), (1, EXIT_PARAMETER), (2, EXIT_PARAMETER),
    (3, EXIT_OK),
])
def test_main_batch_time_reps(tmp_path, capsys, reps, want):
    corpus = _one_entry_corpus(tmp_path)
    code = main(["--batch", str(corpus), "--passes", "flatten",
                 "--time-reps", str(reps)])
    assert code == want
    captured = capsys.readouterr()
    if want == EXIT_PARAMETER:
        assert captured.out == ""
        assert captured.err == "error: --time-reps must be 0 or at least 3\n"


@pytest.mark.parametrize("reps, want", [
    (-5, EXIT_PARAMETER), (1, EXIT_PARAMETER), (2, EXIT_PARAMETER),
    (0, EXIT_OK), (3, EXIT_OK),
])
def test_main_single_file_time_reps(tmp_path, capsys, reps, want):
    """Single-file mode rejects the `--time-reps` values batch mode does."""
    code = main([str(_one_entry_corpus(tmp_path) / "gcd.ir"), "--passes",
                 "flatten", "-o", str(tmp_path / "out.ir"), "--time-reps", str(reps)])
    assert code == want
    if want == EXIT_PARAMETER:
        assert capsys.readouterr().err == "error: --time-reps must be 0 or at least 3\n"
        assert not (tmp_path / "out.ir").exists()


@pytest.mark.parametrize("batch_mode", [False, True], ids=["single_file", "batch"])
def test_main_non_utf8_dict_names_the_file(tmp_path, capsys, batch_mode):
    words = tmp_path / "words.txt"
    words.write_bytes(b"\xff\xfe not UTF-8\n")
    corpus = _one_entry_corpus(tmp_path)
    source = ["--batch", str(corpus)] if batch_mode else [str(corpus / "gcd.ir")]
    assert main([*source, "--passes", "ident-dict", "--dict", str(words)]) == EXIT_PARAMETER
    err = capsys.readouterr().err
    assert err.startswith(f"error: {words} is not UTF-8: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("word", ["foo bar", "1abc", "a-b", "²x"])
@pytest.mark.parametrize("batch_mode", [False, True], ids=["single_file", "batch"])
def test_main_dict_word_that_is_no_identifier(tmp_path, capsys, word, batch_mode):
    """A --dict word that would not parse as an identifier stops either
    mode before its first module, naming the word and its line."""
    words = tmp_path / "words.txt"
    words.write_text(f"# names\nzeta\n{word}  # odd\n", encoding="utf-8")
    corpus = _one_entry_corpus(tmp_path)
    out = tmp_path / "obf"
    source = (["--batch", str(corpus), "--out-dir", str(out)] if batch_mode
              else [str(corpus / "gcd.ir"), "-o", str(out)])
    assert main([*source, "--passes", "ident-dict", "--dict", str(words)]) == EXIT_PARAMETER
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {words} line 3: {word!r} is not an identifier\n"
    assert not out.exists()


def test_main_dict_words_that_parse_are_used(tmp_path):
    """`²` may follow the first character of an identifier."""
    words = tmp_path / "words.txt"
    words.write_text("x²\n", encoding="utf-8")
    out = tmp_path / "out.ir"
    assert main([str(_one_entry_corpus(tmp_path) / "gcd.ir"), "--passes",
                 "ident-dict", "--dict", str(words), "-o", str(out)]) == EXIT_OK
    text = out.read_text(encoding="utf-8")
    assert "func @x² " in text
    assert print_module(parse_module(text)) == text


def test_main_report_on_module_without_functions(tmp_path):
    src = tmp_path / "empty.ir"
    src.write_text("global @g = 1\n", encoding="utf-8")
    out, rep = tmp_path / "out.ir", tmp_path / "r.json"
    code = main([str(src), "--passes", "flatten", "-o", str(out),
                 "--report", str(rep)])
    assert code == EXIT_OK
    assert out.read_text(encoding="utf-8") == "global @g = 1\n"
    assert json.loads(rep.read_text(encoding="utf-8"))["space_ratio"] == 1.0


def test_main_parameter_failure_exit_code(tmp_path):
    src = tmp_path / "in.ir"
    src.write_text(GCD_TEXT, encoding="utf-8")
    assert main([str(src), "--passes", "nope"]) == EXIT_PARAMETER


# after `nested` every real block of ALL_RETURN ends in ret or an inner
# switch, and in BR_ONCE `indeg`'s guard for the first decoy takes the only
# `br`: the other never-taken edges must be dead cases of an inner switch
ALL_RETURN = """\
func @_O1fi src "f" (%x: int) -> int {
entry:
  ret 0
a:
  ret 1
b:
  ret 2
}
"""

BR_ONCE = """\
func @_O1fi src "f" (%x: int) -> int {
entry:
  br a
a:
  ret 1
b:
  ret 2
}
"""


@pytest.mark.parametrize("text", [ALL_RETURN, BR_ONCE],
                         ids=["all_return", "br_once"])
def test_main_indeg_after_nested_needs_no_donor(tmp_path, capsys, text):
    src = tmp_path / "in.ir"
    src.write_text(text, encoding="utf-8")
    assert main([str(src), "--passes", "nested,indeg"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    for seed in range(4):
        result = run_pipeline(cfg_of(["nested", "indeg"], seed=seed), text)
        if seed == 0:  # the CLI's default seed
            assert parse_module(captured.out) == result.module
        max_real, min_bogus = in_degree_gap(build_cfg(result.module.functions[0]))
        assert min_bogus > max_real, seed
        assert_equivalent(result.original, result.module, "f",
                          [[-7], [0], [1], [2**40]])


@pytest.mark.parametrize("args", [
    ["--passes", "ident-overload,ident-overload,ident-overload"],
    ["--passes", "ident-overload", "--decoys", "40"],
], ids=["three_rounds", "forty_decoys"])
def test_main_overloads_never_run_out_of_arities(tmp_path, args):
    """Past the random draws, a decoy takes the smallest free arity."""
    gcd = next(e for e in load_corpus() if e.name == "gcd")
    out = tmp_path / "out.ir"
    assert main([str(gcd.ir_path), *args, "-o", str(out)]) == EXIT_OK
    obf = parse_module(out.read_text(encoding="utf-8"))
    assert_equivalent(gcd.module, obf, gcd.entry, gcd.inputs, gcd.fuel)


@pytest.mark.parametrize("passes, funcs, want", [
    ("flatten", " gcdHelper", [("flatten", "_O9gcdHelperii")]),
    ("flatten", "gcdHelper, lcm",
     [("flatten", "_O9gcdHelperii"), ("flatten", "_O3lcmii")]),
    ("flatten, nested", "gcdHelper ",
     [("flatten", "_O9gcdHelperii"), ("nested", "_O9gcdHelperii")]),
])
def test_main_strips_blanks_around_listed_names(tmp_path, passes, funcs, want):
    """A blank next to a comma neither drops a function nor names an
    unknown pass."""
    report_path = tmp_path / "r.json"
    code = main([str(default_corpus_dir() / "lcm.ir"), "--passes", passes,
                 "--funcs", funcs, "-o", str(tmp_path / "out.ir"),
                 "--report", str(report_path)])
    assert code == EXIT_OK
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["passes"] == [p.strip() for p in passes.split(",")]
    assert [(r["pass"], r["function"])
            for r in report["pass_reports"]] == want


def test_main_missing_input_is_parameter_error(capsys):
    assert main(["--passes", "flatten"]) == EXIT_PARAMETER


def test_main_batch_writes_outputs_and_report(tmp_path, capsys):
    out_dir = tmp_path / "obf"
    report_path = tmp_path / "batch.json"
    code = main(["--batch", str(default_corpus_dir()),
                 "--passes", "ident-random", "--seed", "1",
                 "--out-dir", str(out_dir), "--report", str(report_path)])
    assert code == EXIT_OK
    written = list(out_dir.glob("*.ir"))
    assert len(written) >= 20
    for path in written:
        assert validate(parse_module(path.read_text(encoding="utf-8"))) == []
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["oracle"]["failures"] == []
    table = capsys.readouterr().out
    assert "indicator" in table


def test_main_batch_deterministic_reports(tmp_path):
    args_template = ["--batch", str(default_corpus_dir()),
                     "--passes", "nested,indeg,ident-default", "--seed", "9"]
    paths = []
    for tag in ("a", "b"):
        report_path = tmp_path / f"{tag}.json"
        out_dir = tmp_path / tag
        code = main(args_template + ["--report", str(report_path),
                                     "--out-dir", str(out_dir)])
        assert code == EXIT_OK
        paths.append((report_path, out_dir))
    (ra, da), (rb, db) = paths
    assert ra.read_bytes() == rb.read_bytes()
    for f in sorted(da.glob("*.ir")):
        assert f.read_bytes() == (db / f.name).read_bytes()


def test_main_batch_reports_bad_run_parameters(tmp_path, capsys):
    corpus = _one_entry_corpus(tmp_path)
    manifest = json.loads((corpus / "gcd.json").read_text(encoding="utf-8"))
    for name, override in (("bad_entry", {"entry": "nope"}),
                           ("bad_fuel", {"fuel": 0})):
        (corpus / f"{name}.json").write_text(
            json.dumps({**manifest, **override}), encoding="utf-8")
    out_dir = tmp_path / "obf"
    code = main(["--batch", str(corpus), "--passes", "flatten",
                 "--out-dir", str(out_dir)])
    assert code == EXIT_PARSE
    out = capsys.readouterr().out
    assert "error: bad_entry " in out
    assert "error: bad_fuel " in out
    assert [p.name for p in out_dir.glob("*.ir")] == ["gcd.ir"]


@pytest.mark.parametrize("option, mode", [
    ("-o", "with"), ("--emit-dot", "with"), ("--out-dir", "without")])
def test_main_rejects_an_output_option_its_mode_does_not_write(
        tmp_path, capsys, option, mode):
    corpus = _one_entry_corpus(tmp_path)
    source = ["--batch", str(corpus)] if mode == "with" else [str(corpus / "gcd.ir")]
    out = tmp_path / "out"
    assert main([*source, "--passes", "flatten", option, str(out)]) == EXIT_PARAMETER
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {option} is not used {mode} --batch\n"
    assert not out.exists()


def test_main_rejects_an_input_file_with_batch(tmp_path, capsys):
    corpus = _one_entry_corpus(tmp_path)
    out_dir, report_path = tmp_path / "obf", tmp_path / "r.json"
    code = main([str(corpus / "gcd.ir"), "--batch", str(corpus), "--passes", "flatten",
                 "--out-dir", str(out_dir), "--report", str(report_path)])
    assert code == EXIT_PARAMETER
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: an input file is not used with --batch\n"
    assert not out_dir.exists() and not report_path.exists()


# passes that between them read every knob of PipelineConfig
DEFAULTS_PASSES = ["nested", "bcf", "indeg", "ident-default"]


@pytest.mark.parametrize("field", [
    f for f in fields(PipelineConfig) if f.default not in (MISSING, None)],
    ids=lambda f: f.name)
def test_an_option_spelled_at_its_config_default_changes_nothing(capsys, field):
    """The CLI leaves a left-out option to PipelineConfig's default, so
    spelling the option at that default prints the same bytes as leaving
    it out and as the API."""
    option = next(a.option_strings[-1] for a in _build_arg_parser()._actions
                  if a.dest == field.name)
    gcd = default_corpus_dir() / "gcd.ir"
    args = [str(gcd), "--passes", ",".join(DEFAULTS_PASSES)]
    outs = []
    for extra in ([], [option, str(field.default)]):
        assert main([*args, *extra]) == EXIT_OK
        outs.append(capsys.readouterr().out)
    want = run_pipeline(PipelineConfig(DEFAULTS_PASSES),
                        gcd.read_text(encoding="utf-8")).text
    assert outs == [want, want]


def test_main_blank_pass_list_is_a_parameter_error(capsys):
    code = main([str(default_corpus_dir() / "gcd.ir"), "--passes", " , "])
    assert code == EXIT_PARAMETER
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no passes given\n"


def test_main_input_file_that_does_not_exist(tmp_path, capsys):
    missing = tmp_path / "nope.ir"
    assert main([str(missing), "--passes", "flatten"]) == EXIT_PARAMETER
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 2] No such file or directory: '{missing}'\n"


def test_main_batch_reports_a_raising_pass(monkeypatch, tmp_path, capsys):
    def broken(module, cfg):
        raise RuntimeError("boom")

    monkeypatch.setitem(PASS_APPLIERS, "bad", broken)
    code = main(["--batch", str(_one_entry_corpus(tmp_path)), "--passes", "bad"])
    assert code == EXIT_ORACLE
    captured = capsys.readouterr()
    assert captured.err == "oracle failure: gcd: RuntimeError: boom\n"
    assert "boom" in captured.out


def test_main_batch_out_dir_that_is_a_file_fails_before_the_batch(
        monkeypatch, tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("", encoding="utf-8")
    ran = []
    monkeypatch.setattr(iobf.cli, "transform_module",
                        lambda *args: ran.append(args))
    code = main(["--batch", str(default_corpus_dir()),
                 "--passes", "nested,nested,indeg", "--out-dir", str(afile)])
    assert code == EXIT_PARAMETER and ran == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 17] File exists: '{afile}'\n"


@pytest.mark.parametrize("option, name", [("--emit-dot", "dots"),
                                          ("--report", "r.json")])
def test_main_unusable_destination_writes_no_file(option, name, tmp_path, capsys):
    """Every destination is checked before `-o` is written."""
    afile = tmp_path / "afile"
    afile.write_text("", encoding="utf-8")
    code = main([str(default_corpus_dir() / "gcd.ir"), "--passes", "flatten",
                 "-o", str(tmp_path / "out.ir"), option, str(afile / name)])
    assert code == EXIT_PARAMETER
    assert capsys.readouterr().err.startswith("error: [Errno 20] Not a directory: ")
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]
