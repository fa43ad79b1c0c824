import json

import pytest

from iobf import load_corpus, run
from iobf.corpus import DEFAULT_FUEL
from iobf.interp import RETURNED

from reference_algorithms import REFERENCES, wrap64


def test_bundled_corpus_size_and_contents(corpus):
    assert len(corpus) >= 20
    names = {e.name for e in corpus}
    assert "kth_smallest" in names
    kth = next(e for e in corpus if e.name == "kth_smallest")
    assert kth.entry == "kthSmallest"
    assert any(f.base_name == "kthSmallest" for f in kth.module.functions)


def test_every_entry_has_three_input_vectors(corpus):
    for entry in corpus:
        assert len(entry.inputs) >= 3, entry.name
        assert len(entry.expected) == len(entry.inputs)


def test_pinned_outputs_match_interpreter(corpus):
    for entry in corpus:
        for args, want in zip(entry.inputs, entry.expected):
            result = run(entry.module, entry.entry, args, entry.fuel)
            assert result.status == RETURNED, (entry.name, args)
            assert result.output == want, (entry.name, args)


def test_entries_agree_with_python_references(corpus):
    """The independent oracle: every corpus program must compute the same
    values as a reference written directly in Python."""
    for entry in corpus:
        ref = REFERENCES[entry.entry]
        for args, pinned in zip(entry.inputs, entry.expected):
            ref_out, ref_ret = ref(*args)
            ref_out = [wrap64(v) for v in ref_out]
            assert pinned == ref_out, (entry.name, args)
            result = run(entry.module, entry.entry, args, entry.fuel)
            assert result.output == ref_out, (entry.name, args)
            assert result.value == wrap64(ref_ret), (entry.name, args)


def test_entries_fit_default_fuel_budget(corpus):
    for entry in corpus:
        for args in entry.inputs:
            result = run(entry.module, entry.entry, args, DEFAULT_FUEL)
            assert result.status == RETURNED
            # leave generous headroom for obfuscated reruns
            assert result.steps * 10 < DEFAULT_FUEL, (entry.name, args)


def test_empty_directory(tmp_path):
    assert load_corpus(tmp_path) == []


def test_a_file_is_not_a_corpus_directory(tmp_path):
    path = tmp_path / "gcd.ir"
    path.write_text("", encoding="utf-8")
    with pytest.raises(NotADirectoryError) as info:
        load_corpus(path)
    assert str(info.value) == f"corpus {path} is not a directory"
    with pytest.raises(FileNotFoundError) as info:
        load_corpus(tmp_path / "nope")
    assert str(info.value) == f"corpus directory {tmp_path / 'nope'} does not exist"


def test_malformed_manifest_reported(tmp_path):
    (tmp_path / "bad.json").write_text("{not json", encoding="utf-8")
    entries = load_corpus(tmp_path)
    assert len(entries) == 1
    assert entries[0].problems


def test_missing_fields_reported(tmp_path):
    (tmp_path / "bad.json").write_text(json.dumps({"ir": "x.ir"}),
                                       encoding="utf-8")
    entries = load_corpus(tmp_path)
    assert any("entry" in p for p in entries[0].problems)


def test_output_drift_reported(tmp_path):
    (tmp_path / "p.ir").write_text(
        "extern @print_int(int) -> void\n"
        'func @f src "f" () -> int { entry: call @print_int(1) ret 1 }\n',
        encoding="utf-8")
    (tmp_path / "p.json").write_text(json.dumps({
        "ir": "p.ir", "entry": "f", "inputs": [[]], "expected": [[2]],
    }), encoding="utf-8")
    entries = load_corpus(tmp_path)
    assert any("pinned" in p for p in entries[0].problems)


def test_fuel_exhaustion_reported(tmp_path):
    (tmp_path / "spin.ir").write_text(
        'func @f src "f" () -> int { entry: br entry }\n', encoding="utf-8")
    (tmp_path / "spin.json").write_text(json.dumps({
        "ir": "spin.ir", "entry": "f", "inputs": [[]], "expected": [[]],
        "fuel": 50,
    }), encoding="utf-8")
    entries = load_corpus(tmp_path)
    assert any("fuel_exhausted" in p for p in entries[0].problems)


def test_unparsable_ir_reported(tmp_path):
    (tmp_path / "x.ir").write_text("not ir at all", encoding="utf-8")
    (tmp_path / "x.json").write_text(json.dumps({
        "ir": "x.ir", "entry": "f", "inputs": [[]], "expected": [[]],
    }), encoding="utf-8")
    entries = load_corpus(tmp_path)
    assert any("invalid" in p for p in entries[0].problems)


def test_bad_manifest_values_reported(tmp_path):
    """Bad entry names, arities, fuel values and value shapes become
    problems of their own entry; the other entries still load."""
    (tmp_path / "p.ir").write_text(
        'func @f src "f" (%x: int) -> int { entry: ret %x }\n',
        encoding="utf-8")
    good = {"ir": "p.ir", "entry": "f", "inputs": [[1]], "expected": [[]]}
    bad = {
        "a_name": {"entry": "nope"},
        "b_arity": {"inputs": [[1, 2]]},
        "c_fuel_zero": {"fuel": 0},
        "d_fuel_text": {"fuel": "lots"},
        "e_nested_arg": {"inputs": [[[1]]]},
        "f_inputs_scalar": {"inputs": 5},
        "g_ir_number": {"ir": 5},
    }
    (tmp_path / "z_good.json").write_text(json.dumps(good), encoding="utf-8")
    for name, override in bad.items():
        (tmp_path / f"{name}.json").write_text(
            json.dumps({**good, **override}), encoding="utf-8")
    entries = {e.name: e for e in load_corpus(tmp_path)}
    assert entries["z_good"].problems == []
    assert any("no function named 'nope'" in p
               for p in entries["a_name"].problems)
    assert any("taking 2 args" in p for p in entries["b_arity"].problems)
    for name in ("c_fuel_zero", "d_fuel_text"):
        assert any("fuel must be a positive integer" in p
                   for p in entries[name].problems), name
    for name in ("e_nested_arg", "f_inputs_scalar"):
        assert any("lists of integer lists" in p
                   for p in entries[name].problems), name
    assert any("must be strings" in p for p in entries["g_ir_number"].problems)


def test_manifest_that_is_not_an_object(tmp_path):
    (tmp_path / "p.json").write_text("[1, 2]", encoding="utf-8")
    assert load_corpus(tmp_path)[0].problems == ["manifest is not a JSON object"]


def test_inputs_and_expected_of_different_lengths(tmp_path):
    (tmp_path / "p.ir").write_text(
        'func @f src "f" (%x: int) -> int { entry: ret %x }\n', encoding="utf-8")
    (tmp_path / "p.json").write_text(json.dumps({
        "ir": "p.ir", "entry": "f", "inputs": [[1], [2]], "expected": [[]],
    }), encoding="utf-8")
    assert load_corpus(tmp_path)[0].problems == ["inputs and expected differ in length"]
