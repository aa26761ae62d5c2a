"""The benchmark's workloads and the answers their verdicts are checked
against.

Every workload is a closed loop in one thread: the next command goes to
the checker only after the previous one has its verdict, because a
checking session is sequential and later commands use names that earlier
ones declared.

- `corpus`: the bundled corpus in its three shipped configurations, each
  through one cumulative Checker, each script parsed once per pass. The
  traffic the package exists for, and the only workload that runs every
  layer. Verdicts are checked against the manifests.
- `replay`: a kernel-only `lttw.replay` of the three sessions' logs, one
  record at a time. Signature, kernel and syntax run with no parser,
  elaborator or printer, so a kernel change shows its undiluted share here
  and a change to those three layers must read flat. Each rebuilt
  signature must have the recorded signature's constant, entry and rule
  counts.
- `arith`: a seeded script of `Reduce` and `Check` commands on `plus`,
  `mult` and `minus` of literal numerals, after `arith.lf`. Time goes to
  reduction, rule firing and fuel, conversion on long spines, unification
  through reduction (holes), the rejection path and printing of large
  normal forms. Normal forms and truth values come from Python integers.

The deep family (numerals of depth 100 to 3000) runs once per run outside
the timed loop; its outcome classes are reported, not timed.

Calls into `lttw` go through module attributes at call time (`lttw.parser.
parse_script`, not a name imported here), so the tracer's wrappers see
them.
"""

from __future__ import annotations

import gc
import math
import random
import time
from pathlib import Path

import lttw
import lttw.corpus
import lttw.parser
from lttw import LttwError

CORPUS_CONFIGS = (
    ("manifest.txt", "predicative", "prop"),
    ("manifest.txt", "predicative", "type"),
    ("manifest_impredicative.txt", "impredicative", "prop"),
)


class _CollectorClock:
    """Seconds the cyclic garbage collector has paused the program so far."""

    def __init__(self):
        self.paused = 0.0
        self._start = 0.0
        gc.callbacks.append(self._on_collect)

    def _on_collect(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.paused += time.perf_counter() - self._start


COLLECTOR = _CollectorClock()


def clock() -> tuple[float, float]:
    """A start for `since`: the wall clock and the collector's pauses."""
    return time.perf_counter(), COLLECTOR.paused


def since(start: tuple[float, float]) -> tuple[float, float]:
    """(seconds less the collector's pauses, the pauses) since `start`."""
    wall = time.perf_counter() - start[0]
    paused = COLLECTOR.paused - start[1]
    return wall - paused, paused


class Tally:
    """Per-command times, the other timed work of a pass (parsing) and the
    collector's pauses in either, pass by pass, and verdict counts.

    A collection runs inside whichever command crosses an allocation
    threshold, and costs in proportion to everything alive, so its pauses
    are the cost of the whole pass: they count in the pass's time, not in
    the command's. Each timed stretch keeps its speedometer mark; after
    it, outside it, the speedometer may probe the host."""

    def __init__(self, speed):
        self.speed = speed
        self.passes: list[list[tuple[float, int]]] = []
        self.other: list[list[tuple[float, int]]] = []
        self.collector: list[list[tuple[float, int]]] = []
        self.attempted = 0
        self.failed = 0

    def begin_pass(self) -> None:
        self.passes.append([])
        self.other.append([])
        self.collector.append([])
        self.speed.tick(force=True)

    def end_pass(self) -> None:
        self.speed.settle()

    def _stretch(self, into: list, took: tuple[float, float]) -> None:
        mark = self.speed.mark()
        into.append((took[0], mark))
        self.collector[-1].append((took[1], mark))
        self.speed.tick()

    def time(self, took: tuple[float, float]) -> None:
        """Timed work of the pass besides commands, as `since` gave it."""
        self._stretch(self.other[-1], took)

    def record(self, took: tuple[float, float], ok: bool) -> None:
        """A command's verdict and its time, as `since` gave it."""
        self.attempted += 1
        if not ok:
            self.failed += 1
        self._stretch(self.passes[-1], took)

    def miss(self, count: int = 1) -> None:
        """Commands that never got a verdict, or a check that failed after
        them, count as failed operations."""
        self.attempted += count
        self.failed += count

    def _scaled(self, stretches) -> list[float]:
        return [seconds * self.speed.scale(mark) for seconds, mark in stretches]

    def pass_seconds(self, scaled: bool = True) -> list[float]:
        """Each pass's timed seconds, collector included, at reference
        speed unless not `scaled`."""
        each = self._scaled if scaled else (lambda x: [s for s, _ in x])
        return [sum(each(cmds)) + sum(each(other)) + sum(each(gc_))
                for cmds, other, gc_
                in zip(self.passes, self.other, self.collector)]

    def collector_seconds(self) -> list[float]:
        """Each pass's collector pauses, at reference speed."""
        return [sum(self._scaled(pauses)) for pauses in self.collector]

    def command_seconds(self) -> list[float]:
        """Every command's seconds in every pass, at reference speed."""
        return [t for cmds in self.passes for t in self._scaled(cmds)]


def _error_is(e: BaseException, name: str) -> bool:
    """Manifest semantics: the error class or one of its bases has `name`."""
    return any(c.__name__ == name for c in type(e).__mro__)


def _run_one(checker, cmd):
    """(time as `since` gives it, error or None) for one command."""
    start = clock()
    try:
        checker.run_command(cmd)
    except Exception as e:  # the caller judges whether it was the verdict
        return since(start), e
    return since(start), None


# ------------------------------------------------------------------ corpus

def read_manifest(path: Path) -> list[tuple[Path, str, str]]:
    """(script path, expected outcome, script text) per manifest line."""
    entries = []
    for line in path.read_text(encoding="utf-8").splitlines():
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        script = path.parent / fields[0]
        entries.append((script, fields[1], script.read_text(encoding="utf-8")))
    return entries


class Corpus:
    name = "corpus"
    reusable_setup = False

    def __init__(self, seed: int, tiny: bool = False):
        self.sessions = [
            (read_manifest(lttw.corpus.CORPUS_DIR / manifest), mode, prop_at)
            for manifest, mode, prop_at in CORPUS_CONFIGS]

    def setup(self):
        return [lttw.load_standard(mode=mode, prop_placement=prop_at)
                for _, mode, prop_at in self.sessions]

    def run_pass(self, checkers, tally: Tally) -> None:
        for (entries, _, _), checker in zip(self.sessions, checkers):
            for path, expected, text in entries:
                start = clock()
                commands = lttw.parser.parse_script(text, file=str(path))
                tally.time(since(start))
                if expected == "accept":
                    for i, cmd in enumerate(commands):
                        took, err = _run_one(checker, cmd)
                        tally.record(took, err is None)
                        if err is not None:
                            tally.miss(len(commands) - i - 1)
                            break
                else:
                    # a rejected script must fail on its first command
                    took, err = _run_one(checker, commands[0])
                    tally.record(took, isinstance(err, LttwError)
                                 and _error_is(err, expected.split(":")[1]))


# ------------------------------------------------------------------ replay

class Replay:
    name = "replay"
    reusable_setup = True  # the recorded logs are immutable

    def __init__(self, seed: int, tiny: bool = False):
        self.configs = [(lttw.corpus.CORPUS_DIR / manifest, mode, prop_at)
                        for manifest, mode, prop_at in CORPUS_CONFIGS]

    def setup(self):
        """Record each session's log and the counts its rebuild must have."""
        sessions = []
        for manifest, mode, prop_at in self.configs:
            checker, _ = lttw.check_corpus(manifest, mode=mode,
                                           prop_placement=prop_at)
            sessions.append((list(checker.log), _shape(checker.sig)))
        return sessions

    def run_pass(self, sessions, tally: Tally) -> None:
        for log, shape in sessions:
            sig = lttw.Signature()
            for record in log:
                start = clock()
                try:
                    lttw.replay([record], sig)
                    ok = True
                except Exception:
                    ok = False
                tally.record(since(start), ok)
            if _shape(sig) != shape:
                tally.miss()


def _shape(sig) -> tuple[int, int, int]:
    return sig.constant_count(), sig.rule_count(), len(sig.entries)


# ------------------------------------------------------------------- arith

OPS = {"plus": lambda a, b: a + b,
       "mult": lambda a, b: a * b,
       "minus": lambda a, b: max(a - b, 0)}
SHAPES = ("reduce", "explicit", "holes", "false")


def numeral(n: int) -> str:
    """`succ (succ ... zero)` at top level (built without recursion)."""
    if n == 0:
        return "zero"
    return "succ (" * (n - 1) + "succ zero" + ")" * (n - 1)


def atom(n: int) -> str:
    """A numeral in argument position, parenthesised as the printer does."""
    return "zero" if n == 0 else f"({numeral(n)})"


def _operands(op: str, size: int, split: float, swap: bool
              ) -> tuple[int, int]:
    if op == "plus":
        a = round(split * size)
        return a, size - a
    if op == "mult":
        # balanced factors: the cost of a product depends on its split
        # (`mult n 1` for large n takes seconds to check), and the split
        # of a few large products would otherwise decide the figures
        a = math.isqrt(size)
        b = size // a
    else:  # minus; truncates to zero when swapped
        a, b = size, round(split * size)
    return (b, a) if swap else (a, b)


_GOLDEN = (math.sqrt(5) - 1) / 2


def arith_script(seed: int, per_cell: int, max_size: int
                 ) -> tuple[str, list[tuple[str, str, int, str]]]:
    """A script and, per command, (shape, expression, value, expected
    output) with value computed on Python integers.

    Every (operation, shape) pair gets `per_cell` commands. Their sizes are
    stratified over a log scale from 2 to `max_size`, both ends included;
    the i-th size goes with an operand split spread over [0, 1] by the
    golden ratio, and every other one swaps its operands (or, in a false
    equation, is off by one upwards). The seed draws each size and split
    within its stratum, except for the smallest command and the two
    largest, and the order of the commands. So every seed covers
    small and large numerals alike, and the cost profile of a script, its
    slowest commands included, hardly depends on the seed: the cost of a
    command depends steeply on its size and split.
    """
    rng = random.Random(seed)
    items = []
    for op in OPS:
        for shape in SHAPES:
            for i in range(per_cell):
                fixed = i == 0 or i >= per_cell - 2
                jitter = 0.5 if fixed else rng.random()
                u = (i - 0.5 + jitter) / (per_cell - 1)
                size = round(2 * (max_size / 2) ** u)
                jitter = 0.5 if fixed else rng.random()
                split = (i * _GOLDEN) % 1 + (jitter - 0.5) / per_cell
                swap = i % 2 == 1
                a, b = _operands(op, size, min(max(split, 0.0), 1.0), swap)
                items.append((op, shape, a, b, swap))
    rng.shuffle(items)
    lines, expect = [], []
    for op, shape, a, b, up in items:
        expr = f"{op} {atom(a)} {atom(b)}"
        value = OPS[op](a, b)
        if shape == "reduce":
            text = f"Reduce {expr}"
            out = f"{text} = {numeral(value)}"
        elif shape == "false":
            value = value + 1 if up or value == 0 else value - 1
            text = f"Check EqI ? ? : Prf (Eq hatNat ({expr}) {atom(value)})"
            out = ""
        else:
            kind = f"Prf (Eq hatNat ({expr}) {atom(value)})"
            out = f"Check EqI hatNat ({expr}) : {kind}"
            text = out if shape == "explicit" else f"Check EqI ? ? : {kind}"
        lines.append(f"> {text};")
        expect.append((shape, expr, value, out))
    return "\n".join(lines) + "\n", expect


def arith_verdict_ok(expect, err, output) -> bool:
    shape, expr, value, out = expect
    if shape == "false":
        return isinstance(err, LttwError)
    if err is not None:
        return False
    if shape == "holes":
        # the solution of the second hole is some reduct of the expression
        kind = out[out.index(" : "):]
        return (output is not None and output.startswith("Check EqI hatNat ")
                and output.endswith(kind))
    return output == out


def load_arith():
    checker = lttw.load_standard()
    checker.run_path(lttw.corpus.CORPUS_DIR / "arith.lf")
    return checker


class Arith:
    name = "arith"
    reusable_setup = False

    def __init__(self, seed: int, tiny: bool = False):
        per_cell, max_size = (2, 20) if tiny else ARITH_SIZE
        self.script, self.expect = arith_script(seed, per_cell, max_size)

    def setup(self):
        return load_arith()

    def run_pass(self, checker, tally: Tally) -> None:
        start = clock()
        commands = lttw.parser.parse_script(self.script, file="<arith>")
        tally.time(since(start))
        if len(commands) != len(self.expect):
            tally.miss(len(self.expect))
            return
        for cmd, expect in zip(commands, self.expect):
            before = len(checker.output)
            took, err = _run_one(checker, cmd)
            output = (checker.output[-1] if len(checker.output) > before
                      else None)
            tally.record(took, arith_verdict_ok(expect, err, output))


# (commands per operation and shape, largest numeral or result)
ARITH_SIZE = (12, 120)

WORKLOADS = {w.name: w for w in (Corpus, Replay, Arith)}


# ------------------------------------------------------------- deep family

DEEP_DEPTHS = (100, 300, 1000, 3000)


def deep_family() -> list[tuple[str, str, float]]:
    """(member, outcome class, seconds) for `Reduce plus n n` and a `Check`
    of a depth-n numeral. "accept" means the correct verdict and output;
    "wrong" an accepted command with the wrong output; anything else is
    the class of the exception raised."""
    checker = load_arith()
    members = []
    for n in DEEP_DEPTHS:
        members.append((f"reduce_plus_{n}", f"Reduce plus {atom(n)} {atom(n)}",
                        f"Reduce plus {atom(n)} {atom(n)} = {numeral(2 * n)}"))
        members.append((f"check_numeral_{n}", f"Check {numeral(n)} : Nat",
                        f"Check {numeral(n)} : Nat"))
    results = []
    for name, text, out in members:
        before = len(checker.output)
        start = time.perf_counter()
        try:
            checker.run_text(f"> {text};", file=f"<{name}>")
            outcome = ("accept" if len(checker.output) > before
                       and checker.output[-1] == out else "wrong")
        except Exception as e:  # the outcome class is the measurement
            outcome = type(e).__name__
        results.append((name, outcome, time.perf_counter() - start))
    return results
