"""Control-flow flattening and its nested-switch strengthening.

Flattening hoists every non-entry block into a switch dispatcher driven
by a routing register, so the original hierarchy collapses into one
level. The nested variant then hides the flattening fingerprint: each
dispatched block becomes a second-level switch whose scrutinee is an
affine function of the routing register; exactly one inner case holds the
real content, the rest are junk-prefixed mutated clones of sibling
blocks that can never be selected.
"""

from __future__ import annotations

import random
from dataclasses import replace

from .bogus import fresh_literal, mutate_instructions
from .ir import (
    BasicBlock,
    BinOp,
    Br,
    Const,
    IrFunction,
    Local,
    NameAllocator,
    Ret,
    Switch,
    retarget,
    targets,
)


class PassParameterError(ValueError):
    """A pass was invoked with an out-of-range parameter."""


_JUNK_FAMILIES = ("add", "xor", "mul", "and", "or")


def _sample_junk(var: str, rng: random.Random) -> tuple[BinOp, ...]:
    """1-4 arithmetic/boolean ops on the routing register for a decoy
    block. Decoys never run, so the register is untouched in any real
    execution."""
    ops = []
    for _ in range(rng.randrange(1, 5)):
        op = rng.choice(_JUNK_FAMILIES)
        const = rng.randrange(1, 1 << 31)
        if op == "mul":
            const |= 1
        ops.append(BinOp(var, op, Local(var), const))
    return tuple(ops)


def flatten(fn: IrFunction, seed: int) -> tuple[IrFunction, str | None]:
    """Rewrite a function so all non-entry blocks hang off one dispatcher,
    the second block of the result.

    Returns the new function and None, or, for a function with fewer
    than two non-entry blocks, `fn` itself and the reason it was skipped.
    Unconditional branches become a case key store plus a jump to the
    dispatcher; conditional branches and switches reach each distinct
    target through one tiny key-store block; returns are untouched.
    """
    if len(fn.blocks) - 1 < 2:
        return fn, "too few blocks"

    rng = random.Random(seed)
    labels_alloc = NameAllocator(fn.labels())
    locals_alloc = NameAllocator(fn.local_names())

    # A branch back to the entry cannot be dispatched (the entry is not a
    # case), so the entry body moves to its own block and every back edge
    # retargets the moved body.
    entry, *originals = fn.blocks
    if any(entry.label in targets(b.term) for b in fn.blocks):
        body_label = labels_alloc.fresh(f"{entry.label}_body")
        back = {entry.label: body_label}
        originals = [replace(b, term=retarget(b.term, back))
                     for b in [replace(entry, label=body_label), *originals]]
        entry = BasicBlock(entry.label, (), Br(body_label))

    outer = locals_alloc.fresh("disp_key")
    dispatch_label = labels_alloc.fresh("dispatch")
    end_label = labels_alloc.fresh("dispatch_end")

    used_lits: set[int] = set()
    # unconditional init: keeps the routing register a defined name even
    # when every original terminator is a return, and blends in with the
    # case keys
    entry = replace(entry, insts=(Const(outer, fresh_literal(rng, used_lits)),
                                  *entry.insts))
    case_of = {b.label: fresh_literal(rng, used_lits) for b in originals}

    sel_blocks: list[BasicBlock] = []

    def key_store_block(src_label: str, target_label: str) -> str:
        label = labels_alloc.fresh(f"{src_label}_go")
        sel_blocks.append(BasicBlock(
            label,
            (Const(outer, case_of[target_label]),),
            Br(dispatch_label),
        ))
        return label

    def routed(block: BasicBlock) -> BasicBlock:
        t = block.term
        if isinstance(t, Br):
            return replace(block,
                           insts=(*block.insts, Const(outer, case_of[t.label])),
                           term=Br(dispatch_label))
        if isinstance(t, Ret):
            return block
        return replace(block, term=retarget(t, {
            lab: key_store_block(block.label, lab)
            for lab in dict.fromkeys(targets(t))}))

    entry, *routed_originals = [routed(b) for b in [entry, *originals]]
    dispatcher = BasicBlock(
        dispatch_label,
        (),
        Switch(outer, tuple((case_of[b.label], b.label) for b in originals),
               end_label),
        role="dispatcher",
    )
    end_block = BasicBlock(end_label, (), Br(dispatch_label), role="dispatcher")
    return replace(fn, blocks=(entry, dispatcher, end_block, *routed_originals,
                               *sel_blocks)), None


def nested_switch(fn: IrFunction, seed: int,
                  bogus_count: int | None = None) -> tuple[IrFunction, str | None]:
    """Flatten, then wrap every dispatched block in a second-level switch.

    The inner scrutinee is `(a*key + b) & (m-1)` with `a` odd and `m` a
    power of two, computed from the live routing key, so exactly the one
    genuine inner case can ever be selected. The other `bogus_count` cases
    (default: the outer case count) hold junk-prefixed mutated clones of
    randomly chosen sibling blocks and jump straight back to the
    dispatcher. Returns what `flatten` returns when it skips.
    """
    if bogus_count is not None and bogus_count < 1:
        raise PassParameterError("bogus_count must be at least 1")

    f, skipped = flatten(fn, seed)
    if skipped:
        return f, skipped

    rng = random.Random(seed ^ 0x5DEECE66D)
    labels_alloc = NameAllocator(f.labels())
    locals_alloc = NameAllocator(f.local_names())

    dispatcher = f.blocks[1]
    outer, dispatch = dispatcher.term.scrutinee, dispatcher.label
    case_of = {lab: lit for lit, lab in dispatcher.term.cases}
    case_labels = list(case_of)
    decoys_per_case = bogus_count if bogus_count is not None else len(case_labels)
    m = 1 << decoys_per_case.bit_length()  # least power of two above it

    inner = locals_alloc.fresh("disp_sub")
    mix_mul = locals_alloc.fresh("disp_m0")
    mix_add = locals_alloc.fresh("disp_m1")

    # each case's body, which decoys clone
    bodies = {b.label: b.insts for b in f.blocks if b.label in case_of}

    # one forward pass meets the cases in `case_of` order, as the RNG expects
    blocks: list[BasicBlock] = []
    for block in f.blocks:
        lab = block.label
        if lab not in case_of:
            blocks.append(block)
            continue
        key = case_of[lab]
        a = rng.randrange(0, 1 << 14) * 2 + 1
        b_off = rng.randrange(0, 1 << 15)
        real_lit = (a * key + b_off) & (m - 1)

        used = {real_lit}
        real_block = BasicBlock(labels_alloc.fresh(f"{lab}_main"),
                                block.insts, block.term)

        cases = [(real_lit, real_block.label)]
        decoys: list[BasicBlock] = []
        for _ in range(decoys_per_case):
            junk = _sample_junk(outer, rng)
            body = mutate_instructions(bodies[rng.choice(case_labels)], rng)
            decoys.append(BasicBlock(
                labels_alloc.fresh(f"{lab}_alt"),
                junk + body,
                Br(dispatch),
                role="bogus",
            ))
            cases.append((fresh_literal(rng, used), decoys[-1].label))

        rng.shuffle(cases)
        mixing = (
            BinOp(mix_mul, "mul", Local(outer), a),
            BinOp(mix_add, "add", Local(mix_mul), b_off),
            BinOp(inner, "and", Local(mix_add), m - 1),
        )
        blocks += [replace(block, insts=mixing,
                           term=Switch(inner, tuple(cases), decoys[0].label)),
                   real_block, *decoys]

    return replace(f, blocks=tuple(blocks)), None
