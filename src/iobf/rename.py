"""Identifier obfuscation: three substitution schemes plus overloading.

All four operate on defined function symbols only; externs stay untouched
so third-party linkage is never broken. The substitution schemes differ
only in the names they propose: one loop, `_substitute`, gives each
symbol its first proposed name that is still free, and rewrites it
globally (definition and every call site). Overloading adds
never-called functions that share a base name but carry fabricated
parameter lists, giving distinct mangled symbols. Every pass returns the
new module and its old -> new symbol mapping.
"""

from __future__ import annotations

import random
import string
from dataclasses import replace
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


def _substitute(m: IrModule, candidates) -> tuple[IrModule, dict[str, str]]:
    """Give each defined symbol the first of `candidates(old)` that names
    no function, extern or global and no earlier choice; returns the
    renamed module and the old -> new mapping."""
    taken = m.all_names()
    mapping: dict[str, str] = {}
    for old in collect_custom_identifiers(m):
        new = next(c for c in candidates(old) if c not in taken)
        taken.add(new)
        mapping[old] = new
    return apply_rename(m, mapping), mapping


def rename_random(m: IrModule, seed: int) -> tuple[IrModule, dict[str, str]]:
    """Replace every collected symbol with a fresh 11-character identifier
    (letter or underscore first, then letters/digits/underscores)."""
    rng = random.Random(seed)
    return _substitute(m, lambda old: iter(lambda: _random_identifier(rng), None))


def rename_dictionary(m: IrModule, dictionary: list[str],
                      seed: int) -> tuple[IrModule, dict[str, str]]:
    """Replace symbols by sampling the dictionary without replacement."""
    count = len(collect_custom_identifiers(m))
    if len(dictionary) < count:
        raise DictionaryExhausted(f"{count} identifiers to rename, dictionary "
                                  f"has {len(dictionary)} entries")
    pool = list(dictionary)
    random.Random(seed).shuffle(pool)

    def draw(old):
        while pool:
            yield pool.pop()
        raise DictionaryExhausted(
            f"ran out of usable dictionary entries at {old!r}")

    return _substitute(m, draw)


def homoglyph_name(name: str) -> str:
    return "".join(HOMOGLYPHS.get(ch, ch) for ch in name)


def rename_homoglyph(m: IrModule) -> tuple[IrModule, dict[str, str]]:
    """Swap Latin letters for Greek lookalikes in every symbol.

    Names with nothing to map get one Greek character appended so the
    rename always changes the symbol; collisions grow further suffixes.
    """
    def lookalikes(old):
        new = homoglyph_name(old)
        if new == old:
            new += GREEK_SUFFIX
        while True:
            yield new
            new += GREEK_SUFFIX

    return _substitute(m, lookalikes)


def add_overloads(m: IrModule, seed: int, decoys_per_fn: int = 2,
                  base_names: dict[str, str] | None = None
                  ) -> tuple[IrModule, dict[str, str]]:
    """Add never-called overloads of every defined function, after the
    module's own; returns the new module and the empty rename mapping.

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
    return replace(m, functions=tuple(functions)), {}


def _decoy_function(original: IrFunction, mangled: str, base: str,
                    param_types: list[str], registers: set[str],
                    rng: random.Random) -> IrFunction:
    # fresh names: a fabricated parameter must not retype one of the
    # original's `registers` that the cloned body uses
    names = NameAllocator(registers)
    params = tuple((names.fresh(f"p{i}"), t) for i, t in enumerate(param_types))
    bodies = [mutate_instructions(b.insts, rng) for b in original.blocks]
    # the cloned body may read the original parameters; bind them all
    bodies[0] = tuple(Const(n, False if t == "bool" else 0)
                      for n, t in original.params) + bodies[0]
    return IrFunction(mangled, base, params, original.ret_type, tuple(
        BasicBlock(b.label, body, b.term)
        for b, body in zip(original.blocks, bodies)))


def obfuscate_identifiers_default(m: IrModule, seed: int,
                                  dictionary: list[str] | None = None,
                                  decoys_per_fn: int = 2
                                  ) -> tuple[IrModule, dict[str, str]]:
    """Default composition: one substitution scheme chosen at random, then
    overloads whose base names reuse the freshly substituted symbols.
    Returns the new module and the substitution's mapping."""
    rng = random.Random(seed)
    mode = rng.choice(["random", "directory", "illegal"])
    if mode == "random":
        renamed, mapping = rename_random(m, seed ^ 0x9E3779B9)
    elif mode == "directory":
        words = dictionary if dictionary is not None else load_dictionary()
        renamed, mapping = rename_dictionary(m, words, seed ^ 0x9E3779B9)
    else:
        renamed, mapping = rename_homoglyph(m)
    reuse = {new: new for new in mapping.values()}
    out, _ = add_overloads(renamed, seed ^ 0x51ED2701, decoys_per_fn,
                           base_names=reuse)
    return out, mapping
