"""Bundled test programs with fixed-value inputs and pinned outputs.

Each entry pairs an IR file with a JSON manifest:

    {"ir": "gcd.ir", "entry": "gcd", "inputs": [[48, 36], ...],
     "expected": [[12], ...], "fuel": 200000}

`inputs` holds at least three argument vectors; `expected` holds, per
vector, the integers the unobfuscated run prints. Expected values were
generated once from the reference interpreter and are pinned; loading
re-runs every vector so drift surfaces immediately.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .interp import RETURNED, EntryError, run
from .ir import IrModule
from .parser import IrError, parse_module

DEFAULT_FUEL = 200_000


@dataclass
class CorpusEntry:
    name: str
    ir_path: Path
    entry: str
    inputs: list[list[int]]
    expected: list[list[int]]
    fuel: int = DEFAULT_FUEL
    module: IrModule | None = None
    problems: list[str] = field(default_factory=list)


def default_corpus_dir() -> Path:
    return Path(__file__).parent / "data" / "corpus"


def load_corpus(directory: str | Path | None = None) -> list[CorpusEntry]:
    """Load every manifest in a directory, sorted by file name.

    Defects (an unreadable or non-UTF-8 manifest or IR file, malformed
    manifest values, unparsable IR, unknown entry name or arity, output
    drift, fuel exhaustion) are collected per entry in `problems` rather
    than raised, so one bad file never hides the rest.
    """
    directory = Path(directory) if directory is not None else default_corpus_dir()
    if not directory.is_dir():
        if directory.exists():
            raise NotADirectoryError(f"corpus {directory} is not a directory")
        raise FileNotFoundError(f"corpus directory {directory} does not exist")
    entries: list[CorpusEntry] = []
    for manifest_path in sorted(directory.glob("*.json")):
        entries.append(_load_entry(directory, manifest_path))
    return entries


def _load_entry(directory: Path, manifest_path: Path) -> CorpusEntry:
    name = manifest_path.stem
    entry = CorpusEntry(name, directory / f"{name}.ir", "", [], [])
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        entry.problems.append(f"manifest unreadable: {exc}")
        return entry

    if not isinstance(manifest, dict):
        entry.problems.append("manifest is not a JSON object")
        return entry
    for key in ("ir", "entry", "inputs", "expected"):
        if key not in manifest:
            entry.problems.append(f"manifest missing {key!r}")
    if entry.problems:
        return entry

    if not (isinstance(manifest["ir"], str)
            and isinstance(manifest["entry"], str)):
        entry.problems.append("'ir' and 'entry' must be strings")
    if not (_int_vectors(manifest["inputs"])
            and _int_vectors(manifest["expected"])):
        entry.problems.append(
            "'inputs' and 'expected' must be lists of integer lists")
    fuel = manifest.get("fuel", DEFAULT_FUEL)
    if type(fuel) is not int or fuel <= 0:
        entry.problems.append(f"fuel must be a positive integer, got {fuel!r}")
    if entry.problems:
        return entry

    entry.ir_path = directory / manifest["ir"]
    entry.entry = manifest["entry"]
    entry.inputs = manifest["inputs"]
    entry.expected = manifest["expected"]
    entry.fuel = fuel
    if len(entry.inputs) != len(entry.expected):
        entry.problems.append("inputs and expected differ in length")
        return entry

    try:
        entry.module = parse_module(entry.ir_path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        entry.problems.append(f"ir unreadable: {exc}")
        return entry
    except IrError as exc:
        entry.problems.append(f"ir invalid: {exc}")
        return entry

    for args, want in zip(entry.inputs, entry.expected):
        try:
            result = run(entry.module, entry.entry, args, entry.fuel)
        except EntryError as exc:
            entry.problems.append(f"run({args}) rejected: {exc}")
            continue
        if result.status != RETURNED:
            entry.problems.append(
                f"run({args}) did not return: {result.status} {result.reason or ''}")
        elif result.output != want:
            entry.problems.append(
                f"run({args}) printed {result.output}, pinned {want}")
    return entry


def _int_vectors(value) -> bool:
    """A JSON list of lists of integers (booleans excluded)."""
    return isinstance(value, list) and all(
        isinstance(v, list) and all(type(x) is int for x in v) for v in value)
