import re

import pytest

from iobf import (
    add_overloads,
    collect_custom_identifiers,
    instruction_count,
    load_dictionary,
    obfuscate_identifiers_default,
    parse_module,
    print_module,
    rename_dictionary,
    rename_homoglyph,
    rename_random,
    run,
    validate,
)
from iobf.ir import Call
from iobf.rename import DictionaryExhausted, homoglyph_name

TWO_FN_TEXT = """\
extern @print_int(int) -> void

func @_O9gcdHelperii src "gcdHelper" (%a: int, %b: int) -> int {
entry:
  br loop
loop:
  %c = cmp ne %b, 0
  cbr %c, body, done
body:
  %r = srem %a, %b
  %a = %b
  %b = %r
  br loop
done:
  ret %a
}

func @_O3lcmii src "lcm" (%a: int, %b: int) -> int {
entry:
  %g = call @_O9gcdHelperii(%a, %b)
  %q = sdiv %a, %g
  %l = mul %q, %b
  call @print_int(%l)
  ret %l
}
"""

LCM_INPUTS = [[4, 6], [21, 6], [7, 13]]


@pytest.fixture
def two_fn_module():
    return parse_module(TWO_FN_TEXT)


def test_collect_excludes_externs(two_fn_module):
    assert collect_custom_identifiers(two_fn_module) == [
        "_O9gcdHelperii", "_O3lcmii"]


def test_collect_empty_module():
    from iobf.ir import IrModule
    assert collect_custom_identifiers(IrModule()) == []


def _check_behaviour(orig, renamed):
    assert validate(renamed) == []
    for args in LCM_INPUTS:
        assert (run(orig, "lcm", args).observable()
                == run(renamed, "lcm", args).observable())


def test_rename_random_shape_and_behaviour(two_fn_module):
    renamed, mapping = rename_random(two_fn_module, seed=11)
    assert len(mapping) == 2
    for new in mapping.values():
        assert re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]{10}", new)
    assert len(set(mapping.values())) == 2
    # call sites rewritten: no call still names the old helper
    callees = {
        ins.callee
        for fn in renamed.functions
        for b in fn.blocks
        for ins in b.insts
        if isinstance(ins, Call)
    }
    assert "_O9gcdHelperii" not in callees
    assert mapping["_O9gcdHelperii"] in callees
    _check_behaviour(two_fn_module, renamed)


def test_rename_random_deterministic(two_fn_module):
    a, ma = rename_random(two_fn_module, seed=3)
    b, mb = rename_random(two_fn_module, seed=3)
    assert print_module(a) == print_module(b)
    assert ma == mb


def test_rename_random_preserves_base_names(two_fn_module):
    renamed, _ = rename_random(two_fn_module, seed=4)
    assert {f.base_name for f in renamed.functions} == {"gcdHelper", "lcm"}


def test_rename_dictionary_single():
    m = parse_module('func @f src "f" () -> int { entry: ret 0 }')
    renamed, mapping = rename_dictionary(m, ["alpha"], seed=1)
    assert mapping == {"f": "alpha"}
    assert renamed.functions[0].mangled_name == "alpha"


def test_rename_dictionary_exhausted(two_fn_module):
    with pytest.raises(DictionaryExhausted,
                       match="^2 identifiers to rename, dictionary has 1 entries$"):
        rename_dictionary(two_fn_module, ["only_one"], seed=1)
    # enough words, but the extern's name is taken
    with pytest.raises(DictionaryExhausted,
                       match="^ran out of usable dictionary entries at '_O3lcmii'$"):
        rename_dictionary(two_fn_module, ["print_int", "x"], seed=1)


def test_rename_dictionary_uses_bundle(two_fn_module):
    words = load_dictionary()
    assert len(words) >= 200
    renamed, mapping = rename_dictionary(two_fn_module, words, seed=8)
    assert set(mapping.values()) <= set(words)
    _check_behaviour(two_fn_module, renamed)


def test_homoglyph_table_on_count():
    assert homoglyph_name("count") == "cουητ"


def test_homoglyph_unmappable_gets_suffix():
    m = parse_module('func @qqq src "q" () -> int { entry: ret 0 }')
    renamed, mapping = rename_homoglyph(m)
    assert mapping["qqq"] == "qqqω"


def test_homoglyph_behaviour_and_roundtrip(two_fn_module):
    renamed, mapping = rename_homoglyph(two_fn_module)
    assert len(mapping) == 2
    assert all(new != old for old, new in mapping.items())
    _check_behaviour(two_fn_module, renamed)
    assert parse_module(print_module(renamed)) == renamed


def test_homoglyph_collision_breaks_with_suffix():
    text = (
        'func @sρin src "a" () -> int { entry: ret 0 }\n'
        'func @spin src "b" () -> int { entry: ret 1 }\n'
    )
    m = parse_module(text)
    _, mapping = rename_homoglyph(m)
    values = list(mapping.values())
    assert len(set(values)) == 2  # spin maps onto sρin's homoglyph form


def test_substitutions_keep_instruction_count(two_fn_module):
    n = instruction_count(two_fn_module)
    for renamed in (
        rename_random(two_fn_module, 1)[0],
        rename_dictionary(two_fn_module, load_dictionary(), 1)[0],
        rename_homoglyph(two_fn_module)[0],
    ):
        assert instruction_count(renamed) == n


def test_add_overloads_counts(two_fn_module):
    out, report = add_overloads(two_fn_module, seed=5, decoys_per_fn=2)
    assert len(out.functions) == 6
    assert len(report["added"]) == 4
    by_base = {}
    for fn in out.functions:
        by_base.setdefault(fn.base_name, []).append(fn)
    assert len(by_base["gcdHelper"]) == 3
    assert len(by_base["lcm"]) == 3
    names = [fn.mangled_name for fn in out.functions]
    assert len(set(names)) == len(names)


def test_add_overloads_arities_stay_unique(two_fn_module):
    out, _ = add_overloads(two_fn_module, seed=5, decoys_per_fn=3)
    for base in ("gcdHelper", "lcm"):
        arities = [len(f.params) for f in out.functions if f.base_name == base]
        assert len(set(arities)) == len(arities)


def test_add_overloads_preserves_behaviour(two_fn_module):
    out, report = add_overloads(two_fn_module, seed=7)
    assert validate(out) == []
    _check_behaviour(two_fn_module, out)
    # decoys are never called: no call site names an added function
    added = set(report["added"])
    callees = {
        ins.callee
        for fn in out.functions
        for b in fn.blocks
        for ins in b.insts
        if isinstance(ins, Call)
    }
    assert callees & added == set()


def test_add_overloads_increases_instruction_count(two_fn_module):
    out, _ = add_overloads(two_fn_module, seed=9)
    assert instruction_count(out) > instruction_count(two_fn_module)


# registers named like the decoys' fabricated parameters: an int
# parameter `p0` and a bool local `p1`
P_REGISTERS_TEXT = """\
func @_O3inci src "inc" (%p0: int) -> int {
entry:
  %p1 = cmp gt %p0, 0
  %y = add %p0, 1
  ret %y
}
"""


@pytest.mark.parametrize("apply", [add_overloads, obfuscate_identifiers_default],
                         ids=["overload", "default"])
def test_decoy_parameters_never_reuse_a_register(apply):
    m = parse_module(P_REGISTERS_TEXT)
    for seed in range(50):
        out, _ = apply(m, seed)
        assert validate(out) == [], seed
        assert parse_module(print_module(out)) == out, seed
        assert run(out, "inc", [4]).value == 5


def test_default_composition_modes_cover_all():
    modes = set()
    m = parse_module(TWO_FN_TEXT)
    for seed in range(24):
        _, report = obfuscate_identifiers_default(m, seed)
        modes.add(report["mode"])
    assert modes == {"random", "directory", "illegal"}


def test_default_composition_reuses_substituted_names(two_fn_module):
    for seed in range(24):
        out, report = obfuscate_identifiers_default(two_fn_module, seed)
        new_names = set(report["rename_map"]["entries"].values())
        decoy_bases = {
            fn.base_name for fn in out.functions
            if fn.mangled_name in set(report["overloads"]["added"])
        }
        assert decoy_bases <= new_names
        assert validate(out) == []
        if report["mode"] == "illegal":
            break
    else:
        pytest.fail("no seed selected the homoglyph mode")


def test_default_composition_behaviour(two_fn_module):
    for seed in (0, 1, 2):
        out, _ = obfuscate_identifiers_default(two_fn_module, seed)
        _check_behaviour(two_fn_module, out)


def test_rename_maps_injective_across_corpus(corpus):
    for entry in corpus:
        for rename in (
            lambda m: rename_random(m, 13)[1],
            lambda m: rename_dictionary(m, load_dictionary(), 13)[1],
            lambda m: rename_homoglyph(m)[1],
        ):
            mapping = rename(entry.module)
            values = list(mapping.values())
            assert len(set(values)) == len(values), entry.name
