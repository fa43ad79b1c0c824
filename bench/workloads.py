"""Seeded inputs for the benchmark workloads.

Each workload is a list of `Item`s: one module text, the pass
configuration to run on it, and the input vectors to check the result
on. The benchmark cycles through the list; nothing here is timed except
by the caller.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

from iobf import cli, corpus, interp, ir, parser

DEFAULT_PIPELINE = ["nested", "indeg", "ident-default"]

# corpus-default: pass seeds per program in one cycle.
CORPUS_PASS_SEEDS = 4

# large-nested: the scaled corpus is built once with a fixed seed, so the
# module set (and with it the size of the timed work) does not depend on
# the workload seed; the workload seed picks the seed of the timed
# `nested` pass. `nested` grows a function about quadratically in its
# block count: once-nested modules with 50-100 blocks give 2*10^4-5*10^4
# instructions plus terminators after the second pass (collatz,
# binary_search and is_prime; kth_smallest and the sorts exceed 10^5).
SCALE_SEED = 3
SCALE_MIN_BLOCKS = 50
SCALE_MAX_BLOCKS = 100

# exec-long: per input vector, the original program gets at most this many
# steps of work by its step model, and both runs get FUEL. The programs are
# obfuscated with fixed pass seeds, so the workload seed varies only the
# arguments (the inputs this workload is about) and the obfuscated code,
# whose size and pass time depend strongly on the pass seed, stays put.
EXEC_OBF_SEED = 3
STEP_BUDGET = 100_000
FUEL = 50 * STEP_BUDGET
EXEC_PASS_SEEDS = 4
EXEC_VECTORS = 8


@dataclass
class Item:
    """One module through the batch cycle, with the vectors to check."""

    name: str
    text: str
    original: ir.IrModule
    entry: str
    vectors: list[list[int]]
    expected: list[list[int]]  # printed output per vector
    values: list[int] | None   # return value per vector, where known
    fuel: int
    config: cli.PipelineConfig


def derive_seed(seed: int, *parts) -> int:
    material = "|".join([str(seed), *map(str, parts)])
    return int.from_bytes(hashlib.sha256(material.encode()).digest()[:8], "big")


def _load(corpus_dir) -> dict[str, corpus.CorpusEntry]:
    entries = corpus.load_corpus(corpus_dir)
    broken = [f"{e.name}: {'; '.join(e.problems)}" for e in entries if e.problems]
    if broken:
        raise RuntimeError("corpus failed to load: " + " | ".join(broken))
    return {e.name: e for e in entries}


def corpus_default(corpus_dir, seed: int, references) -> list[Item]:
    """The 26 bundled programs under the README pipeline, several pass
    seeds, manifest vectors checked against their pinned outputs."""
    entries = _load(corpus_dir)
    items = []
    for k in range(CORPUS_PASS_SEEDS):
        for e in entries.values():
            # a pass seed per program: `ident-default` draws its renaming
            # scheme from it, so the mix of schemes stays near a third each
            pass_seed = derive_seed(seed, "corpus-default", e.name, k)
            items.append(Item(
                e.name, e.ir_path.read_text(encoding="utf-8"), e.module,
                e.entry, e.inputs, e.expected, None, e.fuel,
                cli.PipelineConfig(DEFAULT_PIPELINE, seed=pass_seed)))
    return items


def large_nested(corpus_dir, seed: int, references) -> list[Item]:
    """Corpus programs passed once through `nested`, selected by size; the
    timed part runs `nested` a second time on their printed text."""
    entries = _load(corpus_dir)
    items = []
    for e in entries.values():
        once = cli.run_pipeline(cli.PipelineConfig(["nested"], seed=SCALE_SEED),
                                ir.print_module(e.module))
        blocks = sum(len(fn.blocks) for fn in once.module.functions)
        if not SCALE_MIN_BLOCKS <= blocks <= SCALE_MAX_BLOCKS:
            continue
        original = parser.parse_module(once.text)
        for args in e.inputs:  # warm-up: compile the scaled module
            interp.run(original, e.entry, args, e.fuel)
        items.append(Item(
            e.name, once.text, original, e.entry, e.inputs, e.expected, None,
            e.fuel,
            cli.PipelineConfig(["nested"], seed=derive_seed(seed, "large-nested", e.name))))
    return items


# ---------------------------------------------------------------------------
# exec-long argument generators. Each maps a target step count of the
# original program to arguments through a step model read off the IR, so
# arguments follow from the fuel budget and never from a trial run.

def _fib(rng, steps):
    return [max(1, steps // 7)]


def _ackermann(rng, steps):
    # ack(2, n) takes about 13.5 n^2 steps; recursion depth is 2n + 3.
    return [2, max(1, math.isqrt(int(steps / 13.5)))]


def _is_prime(rng, steps):
    # a prime n takes about 3.5 sqrt(n) steps
    root = max(3, int(steps / 3.5))
    return [_next_prime(rng.randrange(root * root, (root + 1) * (root + 1)))]


def _collatz(rng, steps):
    # about 7 steps per trajectory step; trajectories below 2^50 stay short
    return [rng.randrange(1 << 30, 1 << 50)]


def _gcd(rng, steps):
    # consecutive Fibonacci numbers are Euclid's worst case
    k = rng.randrange(40, 89)
    a, b = 1, 1
    for _ in range(k):
        a, b = b, a + b
    scale = rng.randrange(1, 4)
    return [b * scale, a * scale]


def _xorshift(rng, steps):
    # four rounds (31 steps) per trip; rounds must be a multiple of 4
    return [rng.randrange(1, 1 << 62), 4 * max(1, steps // 31)]


def _rotl_mix(rng, steps):
    # four rounds (27 steps) per trip; rounds must be a multiple of 4
    return [rng.randrange(1, 1 << 62), 4 * max(1, steps // 27)]


def _next_prime(n: int) -> int:
    n |= 1
    while not _is_prime_py(n):
        n += 2
    return n


def _is_prime_py(n: int) -> bool:
    if n < 2 or n % 2 == 0:
        return n == 2
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


EXEC_GENERATORS = {
    "ackermann": _ackermann,
    "collatz": _collatz,
    "fib": _fib,
    "gcd": _gcd,
    "is_prime": _is_prime,
    "rotl_mix": _rotl_mix,
    "xorshift": _xorshift,
}


def exec_long(corpus_dir, seed: int, references) -> list[Item]:
    """Programs whose step count grows with their arguments, on seeded
    long-running vectors checked against the Python references."""
    entries = _load(corpus_dir)
    items = []
    for name, gen in EXEC_GENERATORS.items():
        e = entries[name]
        for k in range(EXEC_PASS_SEEDS):
            rng = random.Random(derive_seed(seed, "exec-long", name, k))
            # stratified log-uniform targets in [STEP_BUDGET/10, STEP_BUDGET],
            # shortest first so the module's compile lands on a short run
            vectors = [
                gen(rng, int(STEP_BUDGET * 10 ** (-(i + rng.random()) / EXEC_VECTORS)))
                for i in reversed(range(EXEC_VECTORS))
            ]
            checked = [references[e.entry](*v) for v in vectors]
            items.append(Item(
                name, e.ir_path.read_text(encoding="utf-8"), e.module, e.entry,
                vectors, [out for out, _ in checked], [val for _, val in checked],
                FUEL,
                cli.PipelineConfig(DEFAULT_PIPELINE,
                                   seed=derive_seed(EXEC_OBF_SEED, "exec-long-pass", name, k))))
    return items


# large-nested runs by hand only: it is too unsteady for BENCHMARK.json
# (see bench/spec.json).
WORKLOADS = {
    "corpus-default": corpus_default,
    "large-nested": large_nested,
    "exec-long": exec_long,
}
