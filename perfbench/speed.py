"""The host's speed, measured alongside the workload.

The benchmark runs on shared virtual machines whose speed drifts by up to
2x, in stretches from a second to several minutes, as other tenants come
and go; a slow stretch can cover a whole run. So every timing is scaled by
the host's speed at the time it was taken: a fixed pure-Python probe, of
the kinds of work the checker does but never touching it, runs between
commands every `PROBE_EVERY` seconds, and each timed stretch is
multiplied by `REF_PROBE_S` over the median of the `WINDOW` probes just
before it and the `WINDOW` just after. A timing then
reads as seconds on a host where the probe takes `REF_PROBE_S`, a
constant, so a change to the checker moves it in full while the host's
drift cancels out. Probes are never inside a timed stretch.

The probe mixes five kinds of work because no single one tracks every
workload: over minutes of back-to-back passes, the log of a pass's time
against the log of its probes' median has a slope of 0.94 (`corpus`),
1.01 (`replay`) and 0.99 (`arith`) for the mix, against 0.78 to 1.08 for
its parts alone.
"""

from __future__ import annotations

import gc
import statistics
import sys
from time import perf_counter

PROBE_EVERY = 0.03    # seconds between probes, at least
REF_PROBE_S = 0.002   # the probe's time at reference speed (a fast host)
WINDOW = 3            # probes on each side of a timed stretch


def _tree(depth: int, i: int):
    if depth == 0:
        return i % 11
    return (i % 3, _tree(depth - 1, 2 * i), _tree(depth - 1, 2 * i + 1))


_SMALL = _tree(8, 1)
_BIG = _tree(12, 1)
_ENV = {0: "zero", 5: "five"}
_TEXT = " ".join(f"(f x{i} (g y{i % 7}))" for i in range(200))


def _walk(t, depth: int):
    """Substitution-like: rebuilds the paths to the leaves `_ENV` maps."""
    if depth == 0:
        return _ENV.get(t, t)
    head, left, right = t
    a = _walk(left, depth - 1)
    b = _walk(right, depth - 1)
    if a is left and b is right:
        return t
    return (head, a, b)


class _Node:
    __slots__ = ("tag", "left", "right")

    def __init__(self, tag, left, right):
        self.tag, self.left, self.right = tag, left, right


def _build(depth: int, i: int) -> _Node:
    if depth == 0:
        return _Node(i, None, None)
    return _Node(i % 3, _build(depth - 1, 2 * i),
                 _build(depth - 1, 2 * i + 1))


def _sum(n: _Node) -> int:
    return n.tag if n.left is None else _sum(n.left) + _sum(n.right)


def _read(text: str):
    """Parser-like: s-expressions into nested tuples of interned names."""
    stack: list[list] = [[]]
    for tok in text.replace("(", " ( ").replace(")", " ) ").split():
        if tok == "(":
            stack.append([])
        elif tok == ")":
            done = tuple(stack.pop())
            stack[-1].append(done)
        else:
            stack[-1].append(sys.intern(tok))
    return stack[0]


def probe() -> float:
    """Seconds one fixed stretch of interpreter work takes now: dictionary
    updates, small and large tree rebuilds, object allocation and
    recursion, tokenizing. The collector is off meanwhile: the probe's
    objects are acyclic and all freed when it ends, so it neither pauses
    inside the probe nor shifts where the workload's collections fall."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        d: dict[int, int] = {}
        for i in range(3000):
            d[i & 1023] = d.get(i & 1023, 0) + i
        for _ in range(4):
            _walk(_SMALL, 8)
        _walk(_BIG, 12)
        _sum(_build(9, 1))
        _read(_TEXT)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Probe times in the order taken. A timed stretch notes `mark()` when
    it ends, before the next `tick()`; once later probes are in, `scale`
    gives the factor that takes its seconds to reference speed."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def tick(self, force: bool = False) -> None:
        if force or perf_counter() - self._last >= PROBE_EVERY:
            self.samples.append(probe())
            self._last = perf_counter()

    def settle(self) -> None:
        """Probe `WINDOW` times now, so the stretches just before have
        their windows full."""
        for _ in range(WINDOW):
            self.tick(force=True)

    def mark(self) -> int:
        return len(self.samples)

    def scale(self, mark: int) -> float:
        window = self.samples[max(0, mark - WINDOW):mark + WINDOW]
        return REF_PROBE_S / statistics.median(window)
