"""Per-function control-flow graphs, in-degree statistics and DOT export.

Edges mirror terminators exactly; parallel edges (two switch cases
reaching one target) are counted separately, matching what a
disassembler's cross-reference count would show.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ir import Br, Cbr, IrFunction, Switch, _escape, targets


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    kind: str  # br | cbr_then | cbr_else | switch_case | switch_default
    case_value: int | None = None


@dataclass
class Cfg:
    entry: str
    roles: dict[str, str]
    edges: list[Edge] = field(default_factory=list)
    indeg: dict[str, int] = field(default_factory=dict)


def build_cfg(fn: IrFunction) -> Cfg:
    cfg = Cfg(fn.entry, {b.label: b.role for b in fn.blocks}, indeg=in_degrees(fn))
    for b in fn.blocks:
        t = b.term
        if isinstance(t, Br):
            cfg.edges.append(Edge(b.label, t.label, "br"))
        elif isinstance(t, Cbr):
            cfg.edges.append(Edge(b.label, t.then_label, "cbr_then"))
            cfg.edges.append(Edge(b.label, t.else_label, "cbr_else"))
        elif isinstance(t, Switch):
            cfg.edges.extend(Edge(b.label, lab, "switch_case", lit)
                             for lit, lab in t.cases)
            cfg.edges.append(Edge(b.label, t.default, "switch_default"))
    return cfg


def in_degrees(fn: IrFunction) -> dict[str, int]:
    """Each block's in-degree: one per edge `ir.targets` lists into it."""
    indeg = {b.label: 0 for b in fn.blocks}
    for b in fn.blocks:
        for lab in targets(b.term):
            indeg[lab] += 1
    return indeg


def in_degree_gap(cfg: Cfg) -> tuple[int, int | None]:
    """(max in-degree over non-entry real blocks, min over bogus blocks),
    read from `cfg.entry`, `cfg.roles` and `cfg.indeg` only.

    The entry block is excluded from the real maximum: its in-degree is
    structural, not evidence an analyst can use. With no bogus blocks the
    second component is None.
    """
    real = [
        cfg.indeg[n]
        for n, role in cfg.roles.items()
        if role == "real" and n != cfg.entry
    ]
    bogus = [cfg.indeg[n] for n, role in cfg.roles.items() if role == "bogus"]
    max_real = max(real) if real else 0
    min_bogus = min(bogus) if bogus else None
    return max_real, min_bogus


def export_dot(fn: IrFunction) -> str:
    """Graphviz digraph of a function's CFG.

    One node per block, one edge per `build_cfg` edge (parallel edges
    repeated). Blocks with the bogus role are filled grey; switch edges are
    labelled with their case literal or `default`.
    """
    lines = [f'digraph "{_escape(fn.mangled_name)}" {{', "  node [shape=box];"]
    for b in fn.blocks:
        attr = ' [style=filled, fillcolor=grey]' if b.role == "bogus" else ""
        lines.append(f'  "{b.label}"{attr};')
    for e in build_cfg(fn).edges:
        if e.kind == "switch_case":
            attr = f' [label="{e.case_value}"]'
        elif e.kind == "switch_default":
            attr = ' [label="default"]'
        else:
            attr = ""
        lines.append(f'  "{e.src}" -> "{e.dst}"{attr};')
    lines.append("}")
    return "\n".join(lines) + "\n"
