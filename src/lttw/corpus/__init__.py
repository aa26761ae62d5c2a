"""Running the bundled proof-script corpus against a manifest.

A manifest lists scripts in load order, one `file outcome` line each. The
outcome is the one the script must produce: "accept", or
"reject:<ErrorName>" naming an error class (subclasses match). Scripts run
through one cumulative checker so later scripts can use names declared by
earlier ones; a script expected to be rejected must fail on its first
command, which keeps the shared signature clean for whatever follows. To
run a subset, write a manifest that lists it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from ..checker import Checker, read_text
from ..errors import LttwError, ScriptSyntaxError
from ..kernel import DEFAULT_FUEL
from ..parser import parse_script
from ..stdlib import load_standard

CORPUS_DIR = Path(__file__).parent
MANIFEST = CORPUS_DIR / "manifest.txt"
MANIFEST_IMPREDICATIVE = CORPUS_DIR / "manifest_impredicative.txt"

ACCEPT = "accept"
REJECT_PREFIX = "reject:"


class CorpusError(LttwError):
    pass


class MismatchedOutcome(CorpusError):
    pass


def matches_error_name(exc: BaseException, name: str) -> bool:
    """True when exc's class, or any ancestor, is called name, so
    reject:KindMismatch matches DomainMismatch too. Manifests spell
    ScriptSyntaxError as SyntaxError, the builtin's name."""
    if name == "SyntaxError":
        return isinstance(exc, ScriptSyntaxError)
    return any(c.__name__ == name for c in type(exc).__mro__)


@dataclass
class CorpusEntry:
    path: Path
    outcome: str  # "accept" or "reject:<ErrorName>"

    @property
    def name(self) -> str:
        return self.path.name


@dataclass
class CorpusResult:
    entry: CorpusEntry
    outcome: str  # what actually happened, manifest syntax
    seconds: float
    commands: int
    error: Optional[Exception] = None

    @property
    def ok(self) -> bool:
        expected = self.entry.outcome
        if expected == ACCEPT:
            return self.outcome == ACCEPT
        if not expected.startswith(REJECT_PREFIX):
            return False
        return (self.error is not None
                and matches_error_name(self.error,
                                       expected[len(REJECT_PREFIX):]))

    def line(self) -> str:
        mark = "ok" if self.ok else "MISMATCH"
        return (f"{self.entry.name:<28} expected {self.entry.outcome:<24} "
                f"got {self.outcome:<24} {self.commands:>3} cmds "
                f"{self.seconds * 1000:7.1f} ms  {mark}")


def parse_manifest(path: Union[str, Path]) -> list[CorpusEntry]:
    path = Path(path)
    base = path.parent
    entries = []
    for lineno, raw in enumerate(read_text(path).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise CorpusError(
                f"{path}:{lineno}: manifest lines are "
                f"'file outcome', got {raw!r}")
        name, outcome = fields
        if outcome != ACCEPT and not outcome.startswith(REJECT_PREFIX):
            raise CorpusError(
                f"{path}:{lineno}: outcome must be 'accept' or "
                f"'reject:<ErrorName>', got {outcome!r}")
        entries.append(CorpusEntry(base / name, outcome))
    return entries


def _run_one(checker: Checker, entry: CorpusEntry) -> CorpusResult:
    text = read_text(entry.path)
    commands = 0
    start = time.perf_counter()
    try:
        parsed = parse_script(text, file=str(entry.path))
        commands = len(parsed)
        for cmd in parsed:
            checker.run_command(cmd)
    except LttwError as e:
        return CorpusResult(entry, f"{REJECT_PREFIX}{type(e).__name__}",
                            time.perf_counter() - start, commands, e)
    return CorpusResult(entry, ACCEPT, time.perf_counter() - start,
                        commands)


def check_corpus(manifest_path: Union[str, Path] = MANIFEST,
                 mode: str = "predicative",
                 prop_placement: str = "prop",
                 fuel: int = DEFAULT_FUEL,
                 strict: bool = True) -> tuple[Checker, list[CorpusResult]]:
    """Load the standard signature, then run every manifest entry.

    Returns the cumulative checker (its log allows a kernel-only replay)
    and one result per entry run. With strict=True the first deviation
    from the manifest raises MismatchedOutcome instead.
    """
    entries = parse_manifest(manifest_path)
    checker = load_standard(mode=mode, prop_placement=prop_placement,
                            fuel=fuel)
    results = []
    for entry in entries:
        result = _run_one(checker, entry)
        results.append(result)
        if strict and not result.ok:
            detail = f": {result.error}" if result.error is not None else ""
            raise MismatchedOutcome(
                f"{entry.name}: expected {entry.outcome}, "
                f"got {result.outcome}{detail}")
    return checker, results
