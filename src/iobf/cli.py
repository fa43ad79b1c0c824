"""Pipeline driver: parse, apply passes in order, print and report.

Exit codes: 0 success, 2 parse/validation failure (also an input file
that is not UTF-8), 3 bad parameter (also a `--dict` file that is
unreadable, not UTF-8 or holds a word that is not an identifier, a
`--time-reps` of 1, 2 or below 0, a missing input file without `--batch`,
what the mode does not read: an input file, `-o` or `--emit-dot`
with `--batch`, `--out-dir` without it, and a `--funcs` name that is the
base name of no function of the input, or of any loaded corpus module,
before anything is written), 4 semantics-oracle failure in batch mode.
"""

from __future__ import annotations

import argparse
import errno
import functools
import hashlib
import json
import os
import re
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from .bogus import bogus_control_flow, indegree_obfuscate
from .cfg import export_dot
from .corpus import load_corpus
from .flatten import PassParameterError, flatten, nested_switch
from .interp import run
from .ir import ROLES, IrFunction, IrModule, print_module, targets
from .metrics import (aggregate_rows, overhead, render_table, similarity,
                      space_ratio)
from .parser import IrError, parse_module
from .rename import (
    DictionaryExhausted,
    add_overloads,
    load_dictionary,
    obfuscate_identifiers_default,
    rename_dictionary,
    rename_homoglyph,
    rename_random,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PARAMETER = 3
EXIT_ORACLE = 4


@dataclass
class PipelineConfig:
    passes: list[str]
    seed: int = 0
    funcs: list[str] | None = None
    bogus_count: int | None = None
    indeg_margin: int = 1
    prob: float = 0.3
    dict_path: str | None = None
    decoys_per_fn: int = 2


@dataclass
class PipelineResult:
    original: IrModule
    module: IrModule
    text: str
    reports: list[dict] = field(default_factory=list)


def fork_seed(seed: int, *parts: str) -> int:
    """Stable per-(pass, function) seed derivation from the master seed."""
    material = f"{seed}|" + "|".join(parts)
    return int.from_bytes(hashlib.sha256(material.encode()).digest()[:8], "big")


def _census(fn: IrFunction) -> dict:
    """Blocks and instructions (terminators included) by role, and edges."""
    blocks, insts, edges = dict.fromkeys(ROLES, 0), dict.fromkeys(ROLES, 0), 0
    for b in fn.blocks:
        blocks[b.role] += 1
        insts[b.role] += len(b.insts) + 1
        edges += len(targets(b.term))
    return {"blocks": blocks, "insts": insts, "edges": edges}


def _per_function(name: str, transform):
    """An applier that runs `transform(fn, seed, cfg, global_names)` on
    each function `cfg.funcs` selects, with a seed forked per function,
    and records what each run changed."""
    def apply(module: IrModule, cfg: PipelineConfig):
        global_names = [g for g, _ in module.globals]
        functions, records = list(module.functions), []
        for i, fn in enumerate(functions):
            if not cfg.funcs or fn.base_name in cfg.funcs:
                seed = fork_seed(cfg.seed, name, fn.mangled_name)
                functions[i], skipped = transform(fn, seed, cfg, global_names)
                before = _census(fn)
                after = before if skipped else _census(functions[i])
                records.append({
                    "pass": name, "function": fn.mangled_name, "seed": seed,
                    "skipped": skipped,
                    **{k: {"before": before[k], "after": after[k]} for k in before}})
        return replace(module, functions=tuple(functions)), records
    return apply


def _module_wide(name: str, transform):
    """An applier that runs `transform(module, seed, cfg)`, which returns
    the new module and its old -> new symbol mapping, and records the
    mapping and the functions added after the module's own."""
    def apply(module: IrModule, cfg: PipelineConfig):
        seed = fork_seed(cfg.seed, name)
        out, mapping = transform(module, seed, cfg)
        added = [f.mangled_name for f in out.functions[len(module.functions):]]
        return out, [{"pass": name, "seed": seed, "renamed": mapping,
                      "added": added}]
    return apply


@functools.lru_cache(maxsize=1)
def _dictionary(path: str | None) -> list[str]:
    """The words of `path`, or of the bundled list for None; the bundled
    list is read once, a `--dict` file once per `validate_config` call."""
    return load_dictionary(path)


# The lambdas look each pass up by name when they run, so a wrapper put in
# this module's namespace (as bench/tracing.py does) sees every call.
PASS_APPLIERS = {
    "flatten": _per_function("flatten", lambda fn, s, cfg, g: flatten(fn, s)),
    "nested": _per_function(
        "nested", lambda fn, s, cfg, g: nested_switch(fn, s, cfg.bogus_count)),
    "bcf": _per_function(
        "bcf", lambda fn, s, cfg, g: bogus_control_flow(fn, s, cfg.prob, g)),
    "indeg": _per_function("indeg", lambda fn, s, cfg, g: indegree_obfuscate(
        fn, s, cfg.indeg_margin, g)),
    "ident-random": _module_wide(
        "ident-random", lambda m, s, cfg: rename_random(m, s)),
    "ident-dict": _module_wide("ident-dict", lambda m, s, cfg: rename_dictionary(
        m, _dictionary(cfg.dict_path), s)),
    "ident-illegal": _module_wide(
        "ident-illegal", lambda m, s, cfg: rename_homoglyph(m)),
    "ident-overload": _module_wide(
        "ident-overload", lambda m, s, cfg: add_overloads(m, s, cfg.decoys_per_fn)),
    "ident-default": _module_wide(
        "ident-default", lambda m, s, cfg: obfuscate_identifiers_default(
            m, s, _dictionary(cfg.dict_path), cfg.decoys_per_fn)),
}


def validate_config(cfg: PipelineConfig):
    """Reject bad parameters before any work happens."""
    for name in cfg.passes:
        if name not in PASS_APPLIERS:
            raise PassParameterError(f"unknown pass {name!r} "
                                     f"(known: {', '.join(PASS_APPLIERS)})")
    if not cfg.passes:
        raise PassParameterError("no passes given")
    if cfg.bogus_count is not None and cfg.bogus_count < 1:
        raise PassParameterError("--bogus-count must be at least 1")
    if not (0.0 < cfg.prob <= 1.0):
        raise PassParameterError("--prob must be in (0, 1]")
    if cfg.indeg_margin < 1:
        raise PassParameterError("--indeg-margin must be at least 1")
    if cfg.decoys_per_fn < 1:
        raise PassParameterError("--decoys must be at least 1")
    if cfg.dict_path:  # reread, and fail here before the first module
        _dictionary.cache_clear()
        try:
            _dictionary(cfg.dict_path)
        except UnicodeDecodeError as exc:
            raise PassParameterError(f"{cfg.dict_path} is not UTF-8: {exc}") from None
        except ValueError as exc:  # a word that is not an identifier
            raise PassParameterError(str(exc)) from None


def _check_time_reps(time_reps: int):
    """Reject a `--time-reps` that is neither 0 (no timing) nor at least 3."""
    if time_reps < 3 and time_reps != 0:
        raise PassParameterError("--time-reps must be 0 or at least 3")


def _check_funcs(cfg: PipelineConfig, modules):
    """Reject `cfg.funcs` names that are the base name of no function in
    `modules`, so that a misspelt name cannot leave code unobfuscated."""
    present = {fn.base_name for m in modules for fn in m.functions}
    if missing := [name for name in cfg.funcs or () if name not in present]:
        raise PassParameterError(f"--funcs names no function: {', '.join(missing)}")


def transform_module(cfg: PipelineConfig,
                     module: IrModule) -> tuple[IrModule, list[dict]]:
    """Apply each configured pass in order to an already-parsed module.

    Identifier passes always act module-wide (a partial rename would leave
    dangling call targets); the function filter applies to the
    control-flow passes only. Returns the result and the pass records.
    """
    reports: list[dict] = []
    for name in cfg.passes:
        module, step_reports = PASS_APPLIERS[name](module, cfg)
        reports.extend(step_reports)
    return module, reports


def run_pipeline(cfg: PipelineConfig, text: str) -> PipelineResult:
    """Parse, transform with each configured pass in order, and reprint."""
    validate_config(cfg)
    original = parse_module(text)
    module, reports = transform_module(cfg, original)
    return PipelineResult(original, module, print_module(module), reports)


def oracle_mismatches(orig: IrModule, obf: IrModule, entry: str,
                      inputs, fuel: int) -> list[str]:
    """Compare observable behaviour before/after on every input vector."""
    problems = []
    for args in inputs:
        before = run(orig, entry, args, fuel)
        after = run(obf, entry, args, fuel)
        if before.observable() != after.observable():
            problems.append(
                f"{entry}({args}): {before.observable()} != {after.observable()}")
    return problems


def batch(corpus_dir: str | Path, cfg: PipelineConfig,
          time_reps: int = 0, out_dir: str | Path | None = None) -> tuple[dict, int]:
    """Per-file pipeline + oracle + metrics over a corpus directory. With
    `out_dir`, which is made before the first module, each output is
    written there as <name>.ir. A `cfg.funcs` name that no loaded module
    defines is refused before either."""
    validate_config(cfg)
    _check_time_reps(time_reps)
    entries = load_corpus(corpus_dir)
    _check_funcs(cfg, [e.module for e in entries if not e.problems])
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    rows: list[dict] = []
    oracle_failures: list[str] = []
    load_failures: list[str] = []
    checked = 0
    for entry in entries:
        row = {"file": entry.name, "pass": "+".join(cfg.passes),
               "seed": cfg.seed}
        if entry.problems:
            row["error"] = "; ".join(entry.problems)
            load_failures.append(f"{entry.name}: failed to load")
            rows.append(row)
            continue
        try:
            obf, _ = transform_module(cfg, entry.module)
            problems = oracle_mismatches(entry.module, obf, entry.entry,
                                         entry.inputs, entry.fuel)
            checked += len(entry.inputs)
            if problems:
                oracle_failures.extend(f"{entry.name}: {p}" for p in problems)
                row["error"] = "; ".join(problems)
            else:
                sim = similarity(entry.module, obf)
                over = overhead(entry.module, obf, entry.entry, entry.inputs,
                                time_reps, entry.fuel)
                row.update(asdict(sim))
                row.update(asdict(over))
                if out_dir is not None:
                    (Path(out_dir) / f"{entry.name}.ir").write_text(
                        print_module(obf), encoding="utf-8")
        except Exception as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
            oracle_failures.append(f"{entry.name}: {row['error']}")
        rows.append(row)
    report = {
        "passes": cfg.passes,
        "seed": cfg.seed,
        "rows": rows,
        "aggregates": aggregate_rows(rows),
        "oracle": {"inputs_checked": checked, "failures": oracle_failures},
        "load_failures": load_failures,
    }
    if oracle_failures:
        code = EXIT_ORACLE
    elif load_failures:
        code = EXIT_PARSE
    else:
        code = EXIT_OK
    return report, code


def _emit_dots(module: IrModule, dot_dir: Path, stem: str):
    for i, fn in enumerate(module.functions):
        safe = re.sub(r"[^0-9A-Za-z_.-]", "_", fn.base_name) or "fn"
        (dot_dir / f"{stem}.{i:02d}.{safe}.dot").write_text(
            export_dot(fn), encoding="utf-8")


def _build_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="iobf",
        description="Obfuscate textual IR with control-flow and identifier passes",
    )
    p.add_argument("input", nargs="?", help="IR file (omit with --batch)")
    p.add_argument("--passes", required=True, type=_names,
                   help="comma-separated list: " + ",".join(PASS_APPLIERS))
    p.add_argument("--seed", type=int)
    p.add_argument("--funcs", type=_names,
                   help="only transform these source base names (comma-separated); "
                        "identifier passes always apply module-wide")
    p.add_argument("--bogus-count", type=int,
                   help="decoy inner cases per outer case (nested pass)")
    p.add_argument("--indeg-margin", type=int,
                   help="bogus in-degree must exceed the real maximum by this much")
    p.add_argument("--prob", type=float,
                   help="per-block selection probability for bcf")
    p.add_argument("--dict", dest="dict_path",
                   help="identifier dictionary file (one name per line)")
    p.add_argument("--decoys", dest="decoys_per_fn", type=int, metavar="DECOYS",
                   help="overloads added per function (ident-overload/default)")
    p.add_argument("-o", "--output", help="single file: write obfuscated IR here (default stdout)")
    p.add_argument("--report", help="write a JSON report here")
    p.add_argument("--emit-dot", metavar="DIR",
                   help="single file: write one DOT file per function of the result")
    p.add_argument("--batch", metavar="DIR",
                   help="run over a corpus directory with manifests")
    p.add_argument("--out-dir", help="batch: write obfuscated IR files here")
    p.add_argument("--time-reps", type=int, default=0,
                   help="batch: timing repetitions for the overhead report, "
                        "0 or at least 3 (0 keeps reports deterministic)")
    return p


def _names(option: str) -> list[str]:
    """The comma-separated names of an option, without blanks around them."""
    return [s.strip() for s in option.split(",") if s.strip()]


def _check_file_destination(path: str):
    """Raise the error that writing a file at `path` would raise where its
    directory is missing or not a directory, or the path is a directory,
    so that a bad destination fails before any output is written."""
    target = Path(path)
    for bad, code, where in ((not target.parent.exists(), errno.ENOENT, target.parent),
                             (not target.parent.is_dir(), errno.ENOTDIR, target.parent),
                             (target.is_dir(), errno.EISDIR, target)):
        if bad:
            raise OSError(code, os.strerror(code), str(where))


def _write_json(path: str, report: dict):
    Path(path).write_text(json.dumps(report, indent=2, ensure_ascii=False) + "\n",
                          encoding="utf-8")


def main(argv=None) -> int:
    args = _build_arg_parser().parse_args(argv)
    # an option left out keeps its PipelineConfig default
    cfg = PipelineConfig(**{f.name: v for f in fields(PipelineConfig)
                            if (v := getattr(args, f.name)) is not None})
    try:
        # each mode rejects what only the other mode reads
        unread = ((("an input file", args.input), ("-o", args.output),
                   ("--emit-dot", args.emit_dot)) if args.batch
                  else (("--out-dir", args.out_dir),))
        for option, value in unread:
            if value is not None:
                raise PassParameterError(f"{option} is not used "
                                         f"{'with' if args.batch else 'without'} --batch")
        # a destination that cannot be written fails before any output,
        # and before any module in batch mode
        if args.report:
            _check_file_destination(args.report)
        if args.batch:
            report, code = batch(args.batch, cfg, args.time_reps, args.out_dir)
            if args.report:
                _write_json(args.report, report)
            print(render_table(report))
            for failure in report["oracle"]["failures"]:
                print(f"oracle failure: {failure}", file=sys.stderr)
            return code

        if not args.input:
            raise PassParameterError("an input file is required unless --batch is used")
        _check_time_reps(args.time_reps)
        if args.output:
            _check_file_destination(args.output)
        try:
            text = Path(args.input).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            print(f"error: {args.input} is not UTF-8: {exc}", file=sys.stderr)
            return EXIT_PARSE
        result = run_pipeline(cfg, text)
        _check_funcs(cfg, [result.original])
        if args.emit_dot:
            Path(args.emit_dot).mkdir(parents=True, exist_ok=True)
        if args.output:
            Path(args.output).write_text(result.text, encoding="utf-8")
        else:
            sys.stdout.write(result.text)
        if args.emit_dot:
            _emit_dots(result.module, Path(args.emit_dot), Path(args.input).stem)
        if args.report:
            _write_json(args.report, {
                "input": args.input,
                "passes": cfg.passes,
                "seed": cfg.seed,
                "pass_reports": result.reports,
                "similarity": asdict(similarity(result.original, result.module)),
                "space_ratio": space_ratio(result.original, result.module),
            })
        return EXIT_OK
    except (PassParameterError, DictionaryExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except IrError as exc:
        for diag in exc.diagnostics:
            print(f"error: {diag}", file=sys.stderr)
        return EXIT_PARSE
    except (OSError, UnicodeDecodeError) as exc:  # e.g. an unusable --dict
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER


if __name__ == "__main__":
    sys.exit(main())
