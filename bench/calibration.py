"""Calibration kernel: fixed pure-Python work that never touches iobf.

The shared 2-core x86-64 machine this benchmark was built on changes
speed by up to 2x for stretches of 10-30 s (load from its other users),
which swamps any change worth measuring. The benchmark therefore times
this kernel between its timed intervals and reports every time in
reference seconds: wall seconds x (REFERENCE_S / the kernel's wall time
measured around them). On a machine where the kernel takes REFERENCE_S,
reference seconds are wall seconds. This takes out most, not all, of the
swing: the kernel slows a little more than iobf does.

The kernel mixes what iobf spends its time on (small objects in dicts
and lists, `copy.deepcopy` of a nested structure, a character-by-
character scan), and no change to iobf can change it.
"""

from __future__ import annotations

import bisect
import copy
import statistics
import time

REFERENCE_S = 0.003


class _Node:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


class _Block:
    def __init__(self, i):
        self.label = f"b{i}"
        self.insts = [("add", f"x{j}", j, i) for j in range(6)]
        self.term = ("br", f"b{i + 1}")


_TREE = [_Block(i) for i in range(30)]
_TEXT = "\n".join(f"  %x{i} = add %y{i}, {i}" for i in range(150))


def _dicts() -> int:
    table: dict[str, int] = {}
    nodes = []
    for i in range(1500):
        key = f"r{i % 257}"
        table[key] = table.get(key, 0) + i
        nodes.append(_Node(i, key))
    return sum(n.a for n in nodes if n.b in table)


def _scan() -> int:
    tokens = []
    i, n = 0, len(_TEXT)
    while i < n:
        c = _TEXT[i]
        if c.isspace():
            i += 1
        elif c.isalnum() or c in "%_":
            j = i
            while j < n and (_TEXT[j].isalnum() or _TEXT[j] in "%_"):
                j += 1
            tokens.append(_TEXT[i:j])
            i = j
        else:
            tokens.append(c)
            i += 1
    return len(tokens)


def time_kernel() -> float:
    """Wall seconds for one pass of the kernel."""
    start = time.perf_counter()
    _dicts()
    copy.deepcopy(_TREE)
    _scan()
    return time.perf_counter() - start


class Clock:
    """Times the kernel every so often and converts wall intervals to
    reference seconds using the kernel timings around each interval.

    `tick()` belongs between timed intervals, never inside one.
    """

    def __init__(self, every: float = 0.25):
        self.every = every
        self.at: list[float] = []  # when each kernel timing ended
        self.kernel_s: list[float] = []

    def tick(self, force: bool = False):
        if force or not self.at or time.perf_counter() - self.at[-1] >= self.every:
            self.kernel_s.append(time_kernel())
            self.at.append(time.perf_counter())

    def reference(self, start: float, end: float) -> float:
        """Reference seconds for the wall interval [start, end]: two kernel
        timings on each side of it and any inside it."""
        first = max(0, bisect.bisect_right(self.at, start) - 2)
        last = bisect.bisect_left(self.at, end) + 2
        return (end - start) * REFERENCE_S / statistics.median(self.kernel_s[first:last])

    def factor(self) -> float:
        """One scale factor for everything measured so far."""
        return REFERENCE_S / statistics.median(self.kernel_s)
