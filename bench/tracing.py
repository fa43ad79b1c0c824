"""Spans around iobf's public functions, recorded from outside the package.

`Tracer.install()` replaces each traced function wherever an iobf module
holds a reference to it (so `cli`'s imported names and `parser`'s call to
`validate` are caught too) and `uninstall()` puts the originals back.
Spans stay in memory as (name, start, end, parent) and are written out
once at the end; a layer's self time is its spans' durations minus the
parts their child spans cover.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import weakref
from collections import Counter, defaultdict

from iobf import cli, ir


def _fn_insts(fn: ir.IrFunction) -> int:
    return sum(len(b.insts) + (b.term is not None) for b in fn.blocks)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.compile_s = 0.0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._seen_modules: dict[int, weakref.ref] = {}

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _caller(self) -> str:
        """Name of the span that called the function whose count hook runs
        (the hook's own `trace.count` span is innermost)."""
        parent = self.spans[self._stack[-1]][3]
        return self.spans[parent][0] if parent >= 0 else ""

    def _wrap(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if on_result is not None:
                # counting is tracing overhead: keep it out of the parent's
                # self time
                count = self.open("trace.count")
                try:
                    on_result(args, result)
                finally:
                    self.close(count)
            return result

        return traced

    # -- count hooks (run after the span closes) ---------------------------

    def _parsed(self, args, result):
        self.counts["parser.bytes"] += len(args[0].encode("utf-8"))

    def _validated(self, args, result):
        self.counts["validate.diagnostics"] += len(result)

    def _printed(self, args, result):
        self.counts["ir.bytes_out"] += len(result.encode("utf-8"))

    def _flattened(self, args, result):
        self.counts["flatten.calls"] += 1
        if not self._caller().startswith("flatten."):
            self.counts["flatten.insts_out"] += _fn_insts(result[0])

    def _bogus(self, args, result):
        self.counts["bogus.insts_out"] += _fn_insts(result[0])

    def _renamed(self, args, result):
        self.counts["rename.insts_out"] += ir.instruction_count(result[0])

    # -- installation ------------------------------------------------------

    def install(self):
        hooks = {
            "parser.parse_module": self._parsed,
            "validate.validate": self._validated,
            "ir.print_module": self._printed,
            "cli.run_pipeline": None,
            "flatten.nested_switch": self._flattened,
            "flatten.flatten": self._flattened,
            "bogus.indegree_obfuscate": self._bogus,
            "bogus.bogus_control_flow": self._bogus,
            "rename.obfuscate_identifiers_default": self._renamed,
            "interp.run": None,
            "metrics.similarity": None,
            "metrics.overhead": None,
            "corpus.load_corpus": None,
        }
        for name, hook in hooks.items():
            # by module path: the package re-exports some functions under
            # their module's name (`iobf.validate` is the function)
            module_name, attr_name = name.split(".")
            fn = getattr(importlib.import_module(f"iobf.{module_name}"), attr_name)
            wrapper = (self._wrap_run(fn) if name == "interp.run"
                       else self._wrap(name, fn, hook))
            for module in [m for k, m in sys.modules.items()
                           if k == "iobf" or k.startswith("iobf.")]:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patched.append((module, attr, fn))
                        setattr(module, attr, wrapper)
        # the pass appliers' own time outside their per-function pass calls
        for pass_name, applier in list(cli.PASS_APPLIERS.items()):
            self._patched.append((cli.PASS_APPLIERS, pass_name, applier))
            cli.PASS_APPLIERS[pass_name] = self._wrap("cli.pass_applier", applier)

    def uninstall(self):
        for target, attr, original in reversed(self._patched):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._patched.clear()

    def _wrap_run(self, run):
        """interp.run, plus compile time: the first call on a module minus a
        repeat of the same call, since the compile cache is keyed by module."""

        def traced(module, *args, **kwargs):
            key = id(module)
            seen = self._seen_modules.get(key)
            first = seen is None or seen() is not module
            index = self.open("interp.run")
            try:
                result = run(module, *args, **kwargs)
            finally:
                self.close(index)
            self.counts["interp.steps"] += result.steps
            if first:
                self._seen_modules[key] = weakref.ref(module)
                probe = self.open("interp.compile_probe")
                try:
                    run(module, *args, **kwargs)
                finally:
                    self.close(probe)
                span, repeat = self.spans[index], self.spans[probe]
                self.compile_s += max(0.0, (span[2] - span[1]) - (repeat[2] - repeat[1]))
            return result

        return traced

    # -- analysis ----------------------------------------------------------

    def self_times(self, since: int = 0) -> dict[str, float]:
        """Self seconds per span name over spans[since:]."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans[since:]:
            if parent >= since:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans[since:], since):
            out[name] += (end - start) - child[i]
        return dict(out)

    def write(self, path, counts):
        """Spans, and the layer counts of each cycle so that runs at the
        same seed can be compared."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans, "counts_per_cycle": counts}, f)
