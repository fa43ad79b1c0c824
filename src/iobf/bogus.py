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

from .cfg import build_cfg, in_degree_gap
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
# statically detectable division by zero.
_SWAP_OPS = ("add", "sub", "mul", "and", "or", "xor")

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
        choices = [op for op in _SWAP_OPS if op != ins.op]
        out[i] = BinOp(ins.dst, rng.choice(choices), ins.a, ins.b)

    spots = _literal_spots(out)
    if spots:
        i, attr = rng.choice(spots)
        out[i] = replace(out[i], **{attr: wrap64(getattr(out[i], attr) + 1)})
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
        orig = replace(orig, term=retarget(orig.term, guard_of))
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

    When the first needy block needs one edge, a real block ending in
    `br L` (the clone's origin first) may give it: the block gains an
    always-true conditional whose false arm targets the bogus block.
    Every other edge is a dead case of one masked switch (`ir.switch_mask`)
    whose mask `c` is below 2^30, which leaves room for 31-bit literals
    above `c`: no such literal ever matches. The pass builds its switch at
    most once per run, with `sel = x & 1`, from a real block ending in
      * `br L`: no live case, default L;
      * `cbr`: live cases 0 and 1 reach a new block holding the
        conditional, the default feeds the bogus block.
    When no real block ending in `br` or `cbr` is left, the dead cases go
    to the first real block that already ends in a masked switch, such as
    an inner switch of `nested`.

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

    state = _EdgeState(f, rng, global_names, labels_alloc, locals_alloc)
    # only a `cbr` donor adds a real block (its arm, in-degree 2), and
    # after it every edge extends a switch, so a second round is the last
    while True:
        f = replace(f, blocks=tuple(state.blocks))
        cfg = build_cfg(f)
        max_real, _ = in_degree_gap(cfg)
        target = max_real + margin
        deficits = [
            (b, target - cfg.indeg[b.label])
            for b in f.blocks
            if b.role == "bogus" and cfg.indeg[b.label] < target
        ]
        if not deficits:
            break
        for bogus, need in deficits:
            # only a function whose bogus blocks were marked in its source
            # can lack both a donor and a masked switch
            if not state.add_edges(bogus, need):
                return fn, "no real block can donate a never-taken edge"
    # an injected clone always needs edges, so none added means no change
    if not state.edges_added:
        return fn, "bogus in-degree already dominates"
    return f, None


class _EdgeState:
    """Bookkeeping for never-taken edge insertion within one function: the
    current blocks, where each rewrite replaces a block."""

    def __init__(self, f: IrFunction, rng, global_names, labels_alloc,
                 locals_alloc):
        self.f = f
        self.blocks = list(f.blocks)
        self.rng = rng
        self.global_names = global_names
        self.labels_alloc = labels_alloc
        self.locals_alloc = locals_alloc
        self.guarded: str | None = None  # the `br` block given a guard
        self.switch: int | None = None  # its index; no block moves after
        self.edges_added = 0

    def _rewrite(self, src: BasicBlock, insts: tuple, term) -> int:
        """Swap `src` for a copy with `insts` appended and `term`; its index."""
        i = self.blocks.index(src)
        self.blocks[i] = replace(src, insts=src.insts + insts, term=term)
        return i

    def add_edges(self, bogus: BasicBlock, need: int) -> bool:
        """Give `bogus` `need` more never-taken edges; False if no block can."""
        first = not self.edges_added
        self.edges_added += need
        # Once a switch is chosen, extending it is free (dead case literals
        # only); creating guards for every needy block would pile executed
        # predicate code onto real paths instead.
        if self.switch is None:
            src = self._pick_source(bogus)
            if src is None:
                self.switch = next((i for i, b in enumerate(self.blocks)
                                    if b.role == "real"
                                    and (c := switch_mask(b)) is not None
                                    and c < 1 << 30), None)
                if self.switch is None:
                    return False
            elif isinstance(src.term, Br) and need == 1 and first:
                self.guarded = src.label
                self._rewrite(src, *_opaque_guard(
                    self.f, self.rng, self.global_names, self.locals_alloc,
                    src.term.label, bogus.label))
                return True
            else:
                self.switch = self._build_switch(src, bogus.label)
                if isinstance(src.term, Cbr):
                    need -= 1  # the default reaches `bogus`
        self._extend_switch(bogus.label, need)
        return True

    def _pick_source(self, bogus: BasicBlock) -> BasicBlock | None:
        # the first unguarded real block ending in `br`, else in `cbr`; the
        # clone's origin first, since the clone's jump back makes it the
        # most natural block to link forward, mirroring a mutual pair
        origin = bogus.term.label if isinstance(bogus.term, Br) else None
        return min((b for b in self.blocks
                    if b.role == "real" and b.label != self.guarded
                    and isinstance(b.term, (Br, Cbr))),
                   key=lambda b: (isinstance(b.term, Cbr), b.label != origin),
                   default=None)

    def _build_switch(self, src: BasicBlock, bogus_label: str) -> int:
        """Rewrite `src` to end in a masked switch on `sel = x & 1` with no
        dead case yet; its index."""
        if isinstance(src.term, Br):
            cases, default = (), src.term.label
        else:
            arm_label = self.labels_alloc.fresh(f"{src.label}_arm")
            self.blocks.insert(self.blocks.index(src) + 1,
                               BasicBlock(arm_label, (), src.term))
            cases, default = ((0, arm_label), (1, arm_label)), bogus_label
        x_src, _ = predicate_sources(self.f, self.global_names, self.rng)
        sel = BinOp(self.locals_alloc.fresh("opq_sel"), "and", x_src, 1)
        return self._rewrite(src, (sel,), Switch(sel.dst, cases, default))

    def _extend_switch(self, bogus_label: str, need: int):
        """Add `need` cases reaching `bogus_label` to the switch, each with a
        fresh literal above its mask."""
        src = self.blocks[self.switch]
        used = {lit for lit, _ in src.term.cases}
        low = switch_mask(src) + 1
        extra = tuple((fresh_literal(self.rng, used, low), bogus_label)
                      for _ in range(need))
        self.blocks[self.switch] = replace(src, term=replace(
            src.term, cases=src.term.cases + extra))
