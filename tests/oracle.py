"""The differential oracle for the checker: a reference elaborator and a
harness that runs both on the same commands.

The checker translates what comes before a command's first hole, and
leaves every kind equality without holes to the kernel's check of the
record. The reference, `InPlaceElaborator`, does neither: it elaborates
every command in full, and decides each such equality where it arises, on
a copy of what is left of the command's budget, before the kernel checks
the record. `Pair` runs each command on a checker of each kind, and
requires the same verdict and, for an accepted command, the same output
lines, log records and fuel (McKeeman, "Differential testing for
software", 1998).

tests/test_decided_once.py and tests/test_translation.py use it, and so
does tools/fuzz_scripts.py, for its `verdicts` property. `corpus_sweep`
runs the standard signature and the corpus of one configuration through a
`Pair` once per test session, for the tests of both modules to read.
"""

from __future__ import annotations

import functools
from collections import Counter
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import NamedTuple

from lttw.checker import Checker, read_text
from lttw.corpus import MANIFEST, MANIFEST_IMPREDICATIVE, parse_manifest
from lttw.elaborator import Elaborator
from lttw.errors import Diagnostic, FuelExhausted, KindMismatch, LttwError
from lttw.kernel import Fuel, equal_kinds
from lttw.parser import parse_script
from lttw.stdlib import (
    CORE_FILES, DERIVED_FILE, IMPREDICATIVE_FILE, STDLIB_DIR,
)
from lttw.syntax import contains_meta


class InPlaceElaborator(Elaborator):
    """Translates nothing, and decides each equality without holes where
    it arises, instead of leaving it to the kernel. It decides on a copy of
    what is left of the command's budget, so that it runs out where
    deciding in place would, and an accepted command spends what the
    checker's does."""

    def _translates(self, s):
        return False

    def _require_kinds_equal(self, ctx, actual, expected, blame):
        actual = self.state.zonk(actual)
        expected = self.state.zonk(expected)
        if contains_meta(actual) or contains_meta(expected):
            self.unify_kinds(ctx, actual, expected, blame)
            return
        fuel = Fuel(self.fuel.limit)
        fuel.left = self.fuel.left
        if not equal_kinds(self.sig, ctx, actual, expected, fuel):
            raise KindMismatch(
                "kind does not match what this position requires",
                span=blame.span, diagnostic=Diagnostic(
                    "check", expected=expected, actual=actual))


class _Kept(Checker):
    """A checker keeping each command's elaborator as `el`: the
    checker's own, or for the reference an `InPlaceElaborator`."""

    def __init__(self, prop_placement: str, reference: bool):
        super().__init__(prop_placement)
        self.reference = reference

    def _elaborator(self):
        self.el = (InPlaceElaborator(self.sig, Fuel(self.fuel))
                   if self.reference else super()._elaborator())
        return self.el


class Disagreement(AssertionError):
    """The checker and the reference differ on a command."""


class _RolledBack(Exception):
    """Ends a `Pair.rolled_back` block, so that `all_or_nothing` undoes
    it."""


def _outcome(ck: _Kept, cmd):
    """The LttwError that rejects `cmd` on `ck`, or the output lines, log
    records and fuel of its acceptance."""
    output, log = len(ck.output), len(ck.log)
    try:
        ck.run_command(cmd)
    except LttwError as e:
        return e
    return (ck.output[output:], [repr(r) for r in ck.log[log:]],
            ck.el.fuel.limit - ck.el.fuel.left)


class Pair:
    """The checker and the reference in one configuration, holding the
    standard signature and fed the same commands. It counts in `paths` the
    commands that made no hole on the checker ("translated") and the others
    ("elaborated"), in `rejections` the checker's rejections, and lists in
    `fuel_to_accept` the commands the checker accepts and the reference
    runs out of fuel on, deciding in place."""

    def __init__(self, mode: str = "predicative", prop_at: str = "prop"):
        self.checker = _Kept(prop_at, reference=False)
        self.reference = _Kept(prop_at, reference=True)
        self.checkers = (self.checker, self.reference)
        self.paths = Counter()
        self.rejections = 0
        self.fuel_to_accept = []
        files = [STDLIB_DIR / name for name in CORE_FILES + (DERIVED_FILE,)]
        if mode == "impredicative":
            files.append(STDLIB_DIR / IMPREDICATIVE_FILE)
        for path in files:
            self.run_file(path)

    def run(self, cmd) -> str:
        """Run `cmd` on both and compare: "accept", or the name of the
        error class that rejected it on the checker. A difference raises
        Disagreement."""
        mine = _outcome(self.checker, cmd)
        theirs = _outcome(self.reference, cmd)
        self.paths["elaborated" if self.checker.el.state.info
                   else "translated"] += 1
        rejected = isinstance(mine, LttwError)
        if not rejected and isinstance(theirs, FuelExhausted):
            self.fuel_to_accept.append(cmd)
        elif (not isinstance(theirs, LttwError) if rejected
              else mine != theirs):
            raise Disagreement(f"{cmd.span}: {mine!r} from the checker, "
                               f"{theirs!r} from the reference")
        if rejected:
            self.rejections += 1
            return type(mine).__name__
        return "accept"

    def run_accepted(self, text: str, file: str = "<script>") -> None:
        for cmd in parse_script(text, file=file):
            assert self.run(cmd) == "accept", cmd.span

    def run_file(self, path: Path) -> None:
        self.run_accepted(read_text(path), str(path))

    @contextmanager
    def rolled_back(self):
        """Run the block, then leave both checkers as they were before it;
        the counts keep what it added."""
        with suppress(_RolledBack), self.checker.all_or_nothing(), \
                self.reference.all_or_nothing():
            yield
            raise _RolledBack


def corpus_commands(mode: str):
    """(command, whether its script expects it to be accepted) in the
    manifest order of `mode`; a script expected to be rejected contributes
    its first command only, as the benchmark runs it."""
    manifest = MANIFEST_IMPREDICATIVE if mode == "impredicative" else MANIFEST
    for entry in parse_manifest(manifest):
        commands = parse_script(read_text(entry.path), file=str(entry.path))
        if entry.outcome != "accept":
            yield commands[0], False
            continue
        for cmd in commands:
            yield cmd, True


class Sweep(NamedTuple):
    """What a `Pair` counted over the standard signature and the corpus."""
    stdlib: Counter
    corpus: Counter
    fuel_to_accept: tuple


@functools.lru_cache(maxsize=None)
def corpus_sweep(mode: str, prop_at: str) -> Sweep:
    """Run the standard signature and the corpus of `mode` through a
    `Pair`, requiring each command's expected verdict; a disagreement
    raises, and is not cached."""
    pair = Pair(mode, prop_at)
    stdlib = Counter(pair.paths)
    pair.paths.clear()
    for cmd, accepted in corpus_commands(mode):
        assert (pair.run(cmd) == "accept") == accepted, cmd.span
    return Sweep(stdlib, Counter(pair.paths), tuple(pair.fuel_to_accept))
