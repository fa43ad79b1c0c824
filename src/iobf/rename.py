"""Identifier obfuscation: three substitution schemes plus overloading.

All four operate on defined function symbols only; externs stay untouched
so third-party linkage is never broken. Substitution rewrites a symbol
globally (definition, every call site, and the recorded source-name
entry); overloading adds never-called functions that share a base name
but carry fabricated parameter lists, giving distinct mangled symbols.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field, replace
from pathlib import Path

from .bogus import mutate_instructions
from .ir import (
    BasicBlock,
    Call,
    Const,
    IrFunction,
    IrModule,
    NameAllocator,
    mangle,
)
from .parser import is_identifier

# Normative Latin -> Greek lookalike table (lowercase only; everything
# else passes through unchanged).
HOMOGLYPHS = {
    "a": "α",  # α
    "o": "ο",  # ο
    "p": "ρ",  # ρ
    "v": "ν",  # ν
    "x": "χ",  # χ
    "y": "γ",  # γ
    "k": "κ",  # κ
    "n": "η",  # η
    "t": "τ",  # τ
    "u": "υ",  # υ
}

# Appended when a name has no mappable letter (the rename must still
# change it) or to break a collision.
GREEK_SUFFIX = "ω"  # ω

RANDOM_NAME_LENGTH = 11

_FIRST = string.ascii_letters + "_"
_REST = string.ascii_letters + string.digits + "_"


class DictionaryExhausted(RuntimeError):
    """The replacement dictionary has fewer usable entries than needed."""


@dataclass
class RenameMap:
    entries: dict[str, str] = field(default_factory=dict)
    mode: str = "random"

    def to_dict(self) -> dict:
        return {"mode": self.mode, "entries": dict(self.entries)}


def collect_custom_identifiers(m: IrModule) -> list[str]:
    """Defined (non-extern) function symbols, in module order."""
    return [f.mangled_name for f in m.functions]


def apply_rename(m: IrModule, mapping: dict[str, str]) -> IrModule:
    """Rewrite function symbols and call sites consistently; a block that
    calls no renamed function is shared with `m`."""
    def rewrite(b):
        insts = tuple(replace(ins, callee=mapping[ins.callee])
                      if isinstance(ins, Call) and ins.callee in mapping else ins
                      for ins in b.insts)
        return b if insts == b.insts else replace(b, insts=insts)

    return replace(m, functions=tuple(
        replace(fn, mangled_name=mapping.get(fn.mangled_name, fn.mangled_name),
                blocks=tuple(map(rewrite, fn.blocks)))
        for fn in m.functions))


def load_dictionary(path: str | Path | None = None) -> list[str]:
    """Identifier list, one per line; `#` starts a comment. A word that is
    not an IR identifier raises ValueError naming it and its line."""
    if path is None:
        path = Path(__file__).parent / "data" / "dictionary.txt"
    entries = []
    for n, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        word = line.split("#", 1)[0].strip()
        if word and not is_identifier(word):
            raise ValueError(f"{path} line {n}: {word!r} is not an identifier")
        if word:
            entries.append(word)
    return entries


def _random_identifier(rng: random.Random) -> str:
    head = rng.choice(_FIRST)
    tail = "".join(rng.choice(_REST) for _ in range(RANDOM_NAME_LENGTH - 1))
    return head + tail


def rename_random(m: IrModule, seed: int) -> tuple[IrModule, RenameMap]:
    """Replace every collected symbol with a fresh 11-character identifier
    (letter or underscore first, then letters/digits/underscores)."""
    rng = random.Random(seed)
    taken = m.all_names()
    mapping: dict[str, str] = {}
    for old in collect_custom_identifiers(m):
        new = _random_identifier(rng)
        while new in taken:
            new = _random_identifier(rng)
        taken.add(new)
        mapping[old] = new
    return apply_rename(m, mapping), RenameMap(mapping, "random")


def rename_dictionary(m: IrModule, dictionary: list[str],
                      seed: int) -> tuple[IrModule, RenameMap]:
    """Replace symbols by sampling the dictionary without replacement."""
    names = collect_custom_identifiers(m)
    if len(dictionary) < len(names):
        raise DictionaryExhausted(
            f"{len(names)} identifiers to rename, dictionary has "
            f"{len(dictionary)} entries")
    rng = random.Random(seed)
    pool = list(dictionary)
    rng.shuffle(pool)
    taken = m.all_names()
    mapping: dict[str, str] = {}
    used: set[str] = set()
    for old in names:
        while pool:
            cand = pool.pop()
            if cand not in taken and cand not in used:
                mapping[old] = cand
                used.add(cand)
                break
        else:
            raise DictionaryExhausted(
                f"ran out of usable dictionary entries at {old!r}")
    return apply_rename(m, mapping), RenameMap(mapping, "directory")


def homoglyph_name(name: str) -> str:
    return "".join(HOMOGLYPHS.get(ch, ch) for ch in name)


def rename_homoglyph(m: IrModule) -> tuple[IrModule, RenameMap]:
    """Swap Latin letters for Greek lookalikes in every symbol.

    Names with nothing to map get one Greek character appended so the
    rename always changes the symbol; collisions grow further suffixes.
    """
    taken = m.all_names()
    mapping: dict[str, str] = {}
    used: set[str] = set()
    for old in collect_custom_identifiers(m):
        new = homoglyph_name(old)
        if new == old:
            new += GREEK_SUFFIX
        while new in used or (new in taken and new != old):
            new += GREEK_SUFFIX
        mapping[old] = new
        used.add(new)
    return apply_rename(m, mapping), RenameMap(mapping, "illegal")


def add_overloads(m: IrModule, seed: int, decoys_per_fn: int = 2,
                  base_names: dict[str, str] | None = None
                  ) -> tuple[IrModule, dict]:
    """Add never-called overloads of every defined function.

    Each decoy shares the original's base name (or the supplied
    replacement, when composing with a substitution pass) with a randomly
    generated parameter list. A candidate signature is legal when its
    mangled form is new and its arity differs from every same-base
    function, which keeps base-plus-arity entry lookup unambiguous.
    Decoy bodies are per-block mutated clones of the original.
    """
    if decoys_per_fn < 1:
        raise ValueError("decoys_per_fn must be at least 1")
    rng = random.Random(seed)
    functions = list(m.functions)
    existing = m.all_names()
    arities: dict[str, set[int]] = {}
    for fn in m.functions:
        arities.setdefault(fn.base_name, set()).add(len(fn.params))

    added: list[str] = []
    for original in m.functions:
        base = original.base_name
        if base_names is not None:
            base = base_names.get(original.mangled_name, base)
        arities.setdefault(base, set())
        registers = original.local_names()
        for _ in range(decoys_per_fn):
            for attempt in range(256):
                arity = rng.randrange(0, 5 + attempt // 16)
                types = [rng.choice(("int", "bool")) for _ in range(arity)]
                name = mangle(base, types)
                if name not in existing and arity not in arities[base]:
                    break
            else:
                raise RuntimeError("could not fabricate a legal overload")
            decoy = _decoy_function(original, name, base, types, registers, rng)
            functions.append(decoy)
            existing.add(name)
            arities[base].add(arity)
            added.append(name)
    return replace(m, functions=tuple(functions)), {
        "pass": "ident-overload",
        "seed": seed,
        "decoys_per_fn": decoys_per_fn,
        "added": added,
    }


def _decoy_function(original: IrFunction, mangled: str, base: str,
                    param_types: list[str], registers: set[str],
                    rng: random.Random) -> IrFunction:
    # fresh names: a fabricated parameter must not retype one of the
    # original's `registers` that the cloned body uses
    names = NameAllocator(registers)
    params = tuple((names.fresh(f"p{i}"), t) for i, t in enumerate(param_types))
    bodies = [mutate_instructions(b.insts, rng)[0] for b in original.blocks]
    # the cloned body may read the original parameters; bind them all
    bodies[0] = tuple(Const(n, False if t == "bool" else 0)
                      for n, t in original.params) + bodies[0]
    return IrFunction(mangled, base, params, original.ret_type, tuple(
        BasicBlock(b.label, body, b.term)
        for b, body in zip(original.blocks, bodies)))


def obfuscate_identifiers_default(m: IrModule, seed: int,
                                  dictionary: list[str] | None = None,
                                  decoys_per_fn: int = 2
                                  ) -> tuple[IrModule, dict]:
    """Default composition: one substitution scheme chosen at random, then
    overloads whose base names reuse the freshly substituted symbols."""
    rng = random.Random(seed)
    mode = rng.choice(["random", "directory", "illegal"])
    if mode == "random":
        renamed, rmap = rename_random(m, seed ^ 0x9E3779B9)
    elif mode == "directory":
        words = dictionary if dictionary is not None else load_dictionary()
        renamed, rmap = rename_dictionary(m, words, seed ^ 0x9E3779B9)
    else:
        renamed, rmap = rename_homoglyph(m)
    reuse = {new: new for new in rmap.entries.values()}
    out, overload_report = add_overloads(renamed, seed ^ 0x51ED2701,
                                         decoys_per_fn, base_names=reuse)
    return out, {
        "pass": "ident-default",
        "seed": seed,
        "mode": mode,
        "rename_map": rmap.to_dict(),
        "overloads": overload_report,
    }
