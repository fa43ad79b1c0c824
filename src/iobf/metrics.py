"""Similarity and overhead measurement between module versions.

The similarity indicators are a documented stand-in for a binary-diffing
tool: blocks are matched by canonical text (names replaced by
first-occurrence indices, constants bucketed; `canonical_block_hash` is
its digest), jumps by terminator shape, functions by source base name and
arity. Absolute values therefore are not comparable with any external
matcher; orderings and gaps are what the acceptance properties consume.
Equal texts mean equal instruction counts and terminator shapes, so
`similarity` canonicalizes only obfuscated blocks whose pair can match.
"""

from __future__ import annotations

import hashlib
import statistics
from collections import Counter
from dataclasses import dataclass

from .interp import DEFAULT_FUEL, timed_run
from .ir import (
    Assign,
    BasicBlock,
    BinOp,
    Br,
    Call,
    Cbr,
    Cmp,
    GlobalRef,
    IrModule,
    Local,
    Ret,
    Switch,
    instruction_count,
)


@dataclass
class SimilarityReport:
    bb_sim: float   # percent
    ji_sim: float   # percent
    fn_sim: float   # percent
    prog_sim: float  # fraction in [0, 1]


@dataclass
class OverheadReport:
    time_ratio: float | None
    space_ratio: float


def canonical_block_text(b: BasicBlock) -> str:
    """Label-independent canonical form of a block.

    Register and global names become `r<i>`/`g<i>` by first occurrence,
    call targets become `call/<arity>`, constants collapse to the buckets
     0, 1 and other. Two alpha-renamed copies of a block canonicalize
    identically.
    """
    index: dict[tuple[str, str], int] = {}

    def nm(kind: str, name: str) -> str:
        key = (kind, name)
        if key not in index:
            index[key] = len(index)
        return f"{kind}{index[key]}"

    def opnd(op) -> str:
        if isinstance(op, Local):
            return nm("r", op.name)
        if isinstance(op, GlobalRef):
            return nm("g", op.name)
        if isinstance(op, bool):
            return "c1" if op else "c0"
        if op == 0:
            return "c0"
        if op == 1:
            return "c1"
        return "c*"

    lines: list[str] = []
    for ins in b.insts:
        if isinstance(ins, BinOp):
            lines.append(
                f"{nm('r', ins.dst)} = {ins.op} {opnd(ins.a)}, {opnd(ins.b)}")
        elif isinstance(ins, Cmp):
            lines.append(
                f"{nm('r', ins.dst)} = cmp {ins.rel} {opnd(ins.a)}, {opnd(ins.b)}")
        elif isinstance(ins, Assign):
            lines.append(f"{nm('r', ins.dst)} = {opnd(ins.src)}")
        elif isinstance(ins, Call):
            call = f"call/{len(ins.args)} " + ", ".join(opnd(a) for a in ins.args)
            if ins.dst is not None:
                call = f"{nm('r', ins.dst)} = {call}"
            lines.append(call.rstrip())
    t = b.term
    if isinstance(t, Br):
        lines.append("br")
    elif isinstance(t, Cbr):
        lines.append(f"cbr {nm('r', t.cond)}")
    elif isinstance(t, Switch):
        lines.append(f"switch {nm('r', t.scrutinee)} cases={len(t.cases)}")
    elif isinstance(t, Ret):
        lines.append("ret" if t.value is None else f"ret {opnd(t.value)}")
    return "\n".join(lines)


def canonical_block_hash(b: BasicBlock) -> str:
    return hashlib.sha256(canonical_block_text(b).encode("utf-8")).hexdigest()


def terminator_shape(b: BasicBlock) -> tuple[str, int]:
    """Jump shape: terminator kind plus switch case count."""
    t = b.term
    if isinstance(t, Br):
        return ("br", 0)
    if isinstance(t, Cbr):
        return ("cbr", 0)
    if isinstance(t, Switch):
        return ("switch", len(t.cases))
    return ("ret", 0)


def _all_blocks(m: IrModule) -> list[BasicBlock]:
    return [b for fn in m.functions for b in fn.blocks]


def _multiset_similarity(a: list, b: list) -> float:
    if not a and not b:
        return 100.0
    ca, cb = Counter(a), Counter(b)
    matched = sum(min(n, cb[k]) for k, n in ca.items())
    return 100.0 * matched / max(len(a), len(b))


def similarity(orig: IrModule, obf: IrModule) -> SimilarityReport:
    """Four-indicator similarity between an original and its obfuscation.

    bb/ji compare multisets of canonical block texts and jump shapes
    against the larger module's count; fn matches (base name, arity)
    pairs. prog is the weighted blend 0.5*bb + 0.3*ji + 0.2*fn, scaled to
    [0, 1] — the weights are an artifact convention, declared here.

    An obfuscated block whose (instruction count, terminator shape) the
    original lacks is not canonicalized and counts as None, which matches
    nothing: a text has one line per instruction, a terminator line never
    reads as an instruction line and a block without a terminator adds
    none, so equal texts have equal counts and shapes.
    """
    orig_blocks, obf_blocks = _all_blocks(orig), _all_blocks(obf)
    orig_shapes = [terminator_shape(b) for b in orig_blocks]
    obf_shapes = [terminator_shape(b) for b in obf_blocks]
    keys = {(len(b.insts), s) for b, s in zip(orig_blocks, orig_shapes)}
    bb = _multiset_similarity(
        [canonical_block_text(b) for b in orig_blocks],
        [canonical_block_text(b) if (len(b.insts), s) in keys else None
         for b, s in zip(obf_blocks, obf_shapes)],
    )
    ji = _multiset_similarity(orig_shapes, obf_shapes)
    fn = _multiset_similarity(
        [(f.base_name, len(f.params)) for f in orig.functions],
        [(f.base_name, len(f.params)) for f in obf.functions],
    )
    prog = 0.5 * bb / 100 + 0.3 * ji / 100 + 0.2 * fn / 100
    return SimilarityReport(bb, ji, fn, prog)


def space_ratio(orig: IrModule, obf: IrModule) -> float:
    """Instructions plus terminators of `obf` over those of `orig`; 1.0 when
    `orig` has none, since no pass adds any to a module without functions."""
    before = instruction_count(orig)
    return instruction_count(obf) / before if before else 1.0


def overhead(orig: IrModule, obf: IrModule, entry: str,
             inputs: list[list[int]], reps: int = 0,
             fuel: int = DEFAULT_FUEL) -> OverheadReport:
    """Space ratio is exact (`space_ratio`); time ratio is the advisory
    quotient of summed median wall times and is only measured when
    reps > 0."""
    time_ratio = None
    if reps > 0:
        t_orig = sum(timed_run(orig, entry, args, reps, fuel) for args in inputs)
        t_obf = sum(timed_run(obf, entry, args, reps, fuel) for args in inputs)
        time_ratio = t_obf / t_orig
    return OverheadReport(time_ratio, space_ratio(orig, obf))


INDICATORS = ("bb_sim", "ji_sim", "fn_sim", "prog_sim",
              "space_ratio", "time_ratio")


def aggregate_rows(rows: list[dict]) -> list[dict]:
    out = []
    for key in INDICATORS:
        values = [r[key] for r in rows
                  if "error" not in r and r.get(key) is not None]
        if not values:
            continue
        out.append({
            "indicator": key,
            "mean": statistics.fmean(values),
            "min": min(values),
            "max": max(values),
            "stddev": statistics.pstdev(values),
        })
    return out


def render_table(report: dict) -> str:
    """Aligned-text rendering of the aggregate block of a corpus report."""
    lines = [f"{'indicator':<12} {'mean':>10} {'min':>10} {'max':>10} {'stddev':>10}"]
    for agg in report["aggregates"]:
        lines.append(
            f"{agg['indicator']:<12} {agg['mean']:>10.2f} {agg['min']:>10.2f} "
            f"{agg['max']:>10.2f} {agg['stddev']:>10.2f}")
    errors = [r for r in report["rows"] if "error" in r]
    for r in errors:
        lines.append(f"error: {r['file']} seed={r['seed']}: {r['error']}")
    return "\n".join(lines)
