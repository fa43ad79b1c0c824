"""Bogus control flow and in-degree obfuscation.

Bogus blocks are mutated clones of native blocks reachable only through
always-true opaque predicates, so they never execute but survive casual
inspection. The in-degree pass then adds never-taken edges until every
bogus block has strictly more predecessors than any non-entry real block,
defeating the "bogus blocks have fewer xrefs" heuristic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .cfg import Cfg, in_degree_gap, in_degrees
from .ir import (
    Assign,
    BasicBlock,
    BinOp,
    Br,
    CMP_RELS,
    Cbr,
    Cmp,
    GlobalRef,
    IrFunction,
    Local,
    NameAllocator,
    Operand,
    Switch,
    retarget,
    switch_mask,
    wrap64,
)

# Opcode swaps for clone mutation stay inside this set: all are total
# (no trap on any operand), so a mutation can never introduce a
# statically detectable division by zero. `_SWAPS` holds each op's
# candidates in `_SWAP_OPS` order; any other op may become all six.
_SWAP_OPS = ("add", "sub", "mul", "and", "or", "xor")
_SWAPS = {op: tuple(o for o in _SWAP_OPS if o != op) for op in _SWAP_OPS}

MASK16 = 0xFFFF


# ---------------------------------------------------------------------------
# Opaque predicates

# Each family's instructions as (register, op, a, b) rows, in order. `op`
# is a binary op, a comparison, or "copy" (`register = a`). An operand is
# "x" or "y" for the predicate's two sources, an earlier row's register, or
# a literal. The last row's register holds the predicate.
_PREDICATE_ROWS = {
    "square_mod4": (
        ("opq_x", "copy", "x", None),
        ("opq_t1", "mul", "opq_x", "opq_x"),
        ("opq_t2", "add", "opq_x", 1),
        ("opq_t3", "mul", "opq_t2", "opq_t2"),
        ("opq_t4", "mul", "opq_t1", "opq_t3"),
        ("opq_t5", "srem", "opq_t4", 4),
        ("opq_p", "eq", "opq_t5", 0),
    ),
    "seven_square": (
        ("opq_x", "and", "x", MASK16),
        ("opq_y", "and", "y", MASK16),
        ("opq_t1", "mul", "opq_y", "opq_y"),
        ("opq_t2", "mul", "opq_t1", 7),
        ("opq_t3", "sub", "opq_t2", 1),
        ("opq_t4", "mul", "opq_x", "opq_x"),
        ("opq_p", "ne", "opq_t3", "opq_t4"),
    ),
}
PREDICATE_FAMILIES = tuple(_PREDICATE_ROWS)


@dataclass
class OpaquePredicate:
    """Instruction template whose boolean result is a known constant.

    square_mod4: (x*x*(x+1)*(x+1)) mod 4 == 0. x(x+1) is even, so its
    square is divisible by 4; wrapping preserves residues mod 4 because
    4 divides 2^64, so this holds over the full 64-bit domain.

    seven_square: with x, y masked to 16 bits, 7*y*y - 1 != x*x. Squares
    are 0,1,2,4 mod 7 while 7*y*y - 1 is 6 mod 7; masking keeps every
    intermediate below 2^48, so wrapping never fires and the exact
    argument applies.
    """

    family: str
    truth: bool

    def instructions(self, locals_alloc: NameAllocator,
                     sources: tuple[Operand, Operand]):
        """Emit the instruction sequence; returns (instructions, result)."""
        values: dict = {"x": sources[0], "y": sources[1]}
        ins: list = []
        for reg, op, a, b in _PREDICATE_ROWS[self.family]:
            p = locals_alloc.fresh(reg)
            a, b = values.get(a, a), values.get(b, b)
            if op == "copy":
                ins.append(Assign(p, a))
            elif op in CMP_RELS:
                ins.append(Cmp(p, op, a, b))
            else:
                ins.append(BinOp(p, op, a, b))
            values[reg] = Local(p)
        if not self.truth:
            q = locals_alloc.fresh("opq_n")
            ins.append(Cmp(q, "eq", Local(p), False))
            p = q
        return tuple(ins), p


def make_opaque_predicate(seed: int, truth: bool = True) -> OpaquePredicate:
    rng = random.Random(seed)
    return OpaquePredicate(rng.choice(PREDICATE_FAMILIES), truth)


def predicate_sources(fn: IrFunction, global_names, rng) -> tuple[Operand, Operand]:
    """Two value sources for a predicate: int params, else globals, else
    literals drawn from the RNG (constant inputs keep the identity valid)."""
    pool: list[Operand] = [Local(n) for n, t in fn.params if t == "int"]
    pool.extend(GlobalRef(g) for g in global_names)
    if not pool:
        pool = [rng.randrange(3, 1 << 16)]
    return rng.choice(pool), rng.choice(pool)


# ---------------------------------------------------------------------------
# Clone mutation (shared with nested-switch decoys and overload bodies)

def mutate_instructions(insts, rng) -> tuple:
    """A new block body with one binop opcode swapped and one integer
    literal bumped by one; `insts` is left as it was. Instructions are
    frozen, so the mutated ones are rebuilt and the rest are shared."""
    out = list(insts)

    binop_at = [i for i, ins in enumerate(out) if type(ins) is BinOp]
    if binop_at:
        i = rng.choice(binop_at)
        ins = out[i]
        out[i] = BinOp(ins.dst, rng.choice(_SWAPS.get(ins.op, _SWAP_OPS)),
                       ins.a, ins.b)

    spots = _literal_spots(out)
    if spots:
        i, attr = rng.choice(spots)
        ins, new = out[i], wrap64(getattr(out[i], attr) + 1)
        if attr == "src":
            out[i] = Assign(ins.dst, new)
        else:
            a, b = (new, ins.b) if attr == "a" else (ins.a, new)
            out[i] = (BinOp(ins.dst, ins.op, a, b) if type(ins) is BinOp
                      else Cmp(ins.dst, ins.rel, a, b))
    return tuple(out)


def _literal_spots(insts) -> list[tuple[int, str]]:
    # `type(x) is int` leaves bool literals out: they are not bumped
    spots = []
    for i, ins in enumerate(insts):
        kind = type(ins)
        if kind is BinOp or kind is Cmp:
            if type(ins.a) is int:
                spots.append((i, "a"))
            # never turn a constant divisor into zero
            if type(ins.b) is int and not (
                kind is BinOp and ins.op in ("sdiv", "srem")
                and wrap64(ins.b + 1) == 0
            ):
                spots.append((i, "b"))
        elif kind is Assign and type(ins.src) is int:
            spots.append((i, "src"))
    return spots


def fresh_literal(rng, used: set[int], low: int = 1) -> int:
    """A random 31-bit case literal >= `low` not in `used`, which it joins;
    sequential case keys are a known deobfuscation fingerprint."""
    while True:
        lit = rng.randrange(low, 1 << 31)
        if lit not in used:
            used.add(lit)
            return lit


# ---------------------------------------------------------------------------
# Guarded clone insertion

def _opaque_guard(f: IrFunction, rng, global_names, locals_alloc,
                  then_label: str, never_label: str) -> tuple[tuple, Cbr]:
    """The instructions of an always-true predicate over sources from `f`,
    and the `cbr` on it that never takes `never_label`."""
    pred = make_opaque_predicate(rng.randrange(1 << 32), truth=True)
    insts, result = pred.instructions(
        locals_alloc, predicate_sources(f, global_names, rng))
    return insts, Cbr(result, then_label, never_label)


def _insert_guarded_clones(f: IrFunction, labels, rng, global_names,
                           labels_alloc, locals_alloc) -> IrFunction:
    """Put an always-true guard in front of each block named in `labels`
    (in block order) whose false arm reaches a mutated clone; the clone
    branches back to the real block, and every other edge into the block
    enters its guard."""
    # (guard, clone) labels first: an edge may reach a guard built later
    names = {label: (labels_alloc.fresh(f"{label}_pre"),
                     labels_alloc.fresh(f"{label}_twin")) for label in labels}
    guard_of = {label: guard for label, (guard, _) in names.items()}
    blocks: list[BasicBlock] = []
    for orig in f.blocks:
        if (term := retarget(orig.term, guard_of)) is not orig.term:
            orig = replace(orig, term=term)
        if orig.label not in names:
            blocks.append(orig)
            continue
        label = orig.label
        guard_label, clone_label = names[label]
        guard = BasicBlock(guard_label, *_opaque_guard(
            f, rng, global_names, locals_alloc, label, clone_label))
        blocks += [guard, orig,
                   BasicBlock(clone_label, mutate_instructions(orig.insts, rng),
                              Br(label), role="bogus")]
    return replace(f, blocks=tuple(blocks))


# ---------------------------------------------------------------------------
# Passes

def bogus_control_flow(fn: IrFunction, seed: int, prob: float,
                       global_names=()) -> tuple[IrFunction, str | None]:
    """Guard each selected non-entry real block with an opaque predicate
    branching to either the block or its mutated clone. Returns the new
    function and None, or `fn` itself and why nothing changed."""
    rng = random.Random(seed)
    selected = [
        b.label for b in fn.blocks[1:]
        if b.role == "real" and rng.random() < prob
    ]
    if not selected:
        return fn, "no block selected"
    return _insert_guarded_clones(
        fn, selected, rng, global_names, NameAllocator(fn.labels()),
        NameAllocator(fn.local_names())), None


def indegree_obfuscate(fn: IrFunction, seed: int, margin: int = 1,
                       global_names=()) -> tuple[IrFunction, str | None]:
    """Add never-taken edges until every bogus block has in-degree at least
    `margin` above the highest non-entry real block.

    The pass counts in-degrees once (`cfg.in_degrees`, which builds no
    `Edge`) and plans every edge from that count, visiting the needy bogus
    blocks in block order. When the first needy block needs one edge, a
    real block ending in `br L` (the clone's origin first) may give it: the
    block gains an always-true conditional whose false arm targets the
    bogus block. Every other edge is a dead case of one masked switch
    (`ir.switch_mask`) whose mask `c` is below 2^30, which leaves room for
    31-bit literals above `c`: no such literal ever matches. The pass
    builds its switch at most once per run, with `sel = x & 1`, from a
    real block ending in
      * `br L`: no live case, default L;
      * `cbr`: live cases 0 and 1 reach a new block holding the
        conditional, the default feeds the bogus block.
    When no real block ending in `br` or `cbr` is left, the dead cases go
    to the first real block that already ends in a masked switch, such as
    an inner switch of `nested`. No edge changes a real block's in-degree
    but the `cbr` donor's new block, which gets 2; when that raises the
    target, a second round of dead cases follows the first.

    A function with no bogus block first receives one guarded clone (the
    same construction bogus_control_flow uses) on a random real block.
    Returns the new function and None, or `fn` itself and why nothing
    changed.
    """
    rng = random.Random(seed)
    labels_alloc = NameAllocator(fn.labels())
    locals_alloc = NameAllocator(fn.local_names())

    f = fn
    if not any(b.role == "bogus" for b in f.blocks):
        candidates = [b.label for b in f.blocks[1:] if b.role == "real"]
        if not candidates:
            return fn, "no non-entry real block to clone"
        f = _insert_guarded_clones(
            f, [rng.choice(candidates)], rng, global_names, labels_alloc,
            locals_alloc)

    indeg = in_degrees(f)
    roles = {b.label: b.role for b in f.blocks}
    target = raised = in_degree_gap(Cfg(f.entry, roles, indeg=indeg))[0] + margin
    blocks = list(f.blocks)
    guarded = host = None  # the `br` block given a guard; the switch's index
    dead: list = []  # the switch's new cases
    for _ in range(2):
        for b in f.blocks:
            need = target - indeg[b.label]
            if b.role != "bogus" or need <= 0:
                continue
            indeg[b.label] = target
            # Once a switch is chosen, extending it is free (dead case
            # literals only); creating guards for every needy block would
            # pile executed predicate code onto real paths instead.
            if host is None:
                # the first unguarded real block ending in `br`, else in
                # `cbr`; the clone's origin first, since the clone's jump
                # back makes it the most natural block to link forward
                origin = b.term.label if isinstance(b.term, Br) else None
                donor = min(((isinstance(s.term, Cbr), s.label != origin, i)
                             for i, s in enumerate(f.blocks)
                             if s.role == "real" and s.label != guarded
                             and isinstance(s.term, (Br, Cbr))), default=None)
                if donor is None:
                    host = next((i for i, s in enumerate(blocks)
                                 if s.role == "real"
                                 and (c := switch_mask(s)) is not None
                                 and c < 1 << 30), None)
                    if host is None:
                        # only a function whose bogus blocks were marked in
                        # its source can lack both a donor and a masked switch
                        return fn, "no real block can donate a never-taken edge"
                else:
                    i = donor[2]
                    src = f.blocks[i]
                    if isinstance(src.term, Br) and need == 1 and guarded is None:
                        guarded = src.label
                        insts, term = _opaque_guard(
                            f, rng, global_names, locals_alloc, src.term.label,
                            b.label)
                        blocks[i] = replace(src, insts=src.insts + insts, term=term)
                        continue
                    host = i
                    if isinstance(src.term, Br):
                        cases, default = (), src.term.label
                    else:
                        arm = labels_alloc.fresh(f"{src.label}_arm")
                        blocks.insert(i + 1, BasicBlock(arm, (), src.term))
                        cases, default = ((0, arm), (1, arm)), b.label
                        need -= 1  # the default reaches `b`
                        # the arm is the one real block whose in-degree
                        # (2) an edge changes
                        raised = max(target, 2 + margin)
                    x_src, _ = predicate_sources(f, global_names, rng)
                    sel = BinOp(locals_alloc.fresh("opq_sel"), "and", x_src, 1)
                    blocks[i] = replace(src, insts=src.insts + (sel,),
                                        term=Switch(sel.dst, cases, default))
                used = {lit for lit, _ in blocks[host].term.cases}
                low = switch_mask(blocks[host]) + 1
            dead.extend((fresh_literal(rng, used, low), b.label)
                        for _ in range(need))
        target = raised
    if guarded is None and host is None:
        return fn, "bogus in-degree already dominates"
    if dead:
        s = blocks[host]
        blocks[host] = replace(s, term=replace(
            s.term, cases=s.term.cases + tuple(dead)))
    return replace(f, blocks=tuple(blocks)), None
