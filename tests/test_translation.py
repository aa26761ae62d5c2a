"""Explicit commands are translated, not elaborated.

A declaration, definition, rule or query with no hole and no lambda
without an annotation is translated: names are resolved and the kernel's
check is its only inference. Its rejection is the kernel's, and it stands:
the command is not run again. These tests run a translating checker and
one that elaborates every command side by side, and require the same
verdict for every command, and the same output, log records and fuel for
every accepted one.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import pytest

import lttw.checker
from lttw.checker import Checker
from lttw.corpus import MANIFEST, MANIFEST_IMPREDICATIVE, parse_manifest
from lttw.elaborator import Translator
from lttw.errors import DomainMismatch, FuelExhausted, LttwError
from lttw.kernel import Fuel
from lttw.parser import parse_script
from lttw.printer import render
from lttw.signature import commit
from lttw.stdlib import (
    CORE_FILES, DERIVED_FILE, IMPREDICATIVE_FILE, STDLIB_DIR, load_standard,
)
from lttw.syntax import App, Const, ElKind

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.workloads import ARITH_SIZE, arith_script  # noqa: E402


class Translating(Checker):
    """The checker, keeping each command's budget to read its fuel."""

    def _elaborator(self):
        el = super()._elaborator()
        self.budget = el.fuel
        return el


class Elaborating(Translating):
    """The reference: every command is elaborated."""

    def _explicit(self, cmd):
        return False


def _outcome(ck: Checker, cmd):
    """What `cmd` did: "reject", or its output, log records and fuel."""
    output, log = len(ck.output), len(ck.log)
    try:
        ck.run_command(cmd)
    except LttwError:
        return "reject"
    return (ck.output[output:], [repr(r) for r in ck.log[log:]],
            ck.budget.limit - ck.budget.left)


class Pair:
    """A translating and an elaborating checker, fed the same commands;
    `paths` counts the commands by the path they took."""

    def __init__(self, prop_placement: str = "prop"):
        self.translating = Translating(prop_placement)
        self.elaborating = Elaborating(prop_placement)
        self.paths = Counter()

    def run(self, cmd) -> bool:
        """Run `cmd` on both, compare, and return whether it was
        accepted."""
        translated = _outcome(self.translating, cmd)
        assert translated == _outcome(self.elaborating, cmd), cmd.span
        explicit = self.translating._explicit(cmd)
        self.paths["translated" if explicit else "elaborated"] += 1
        return translated != "reject"

    def run_file(self, path: Path) -> None:
        for cmd in parse_script(path.read_text(encoding="utf-8"),
                                file=str(path)):
            assert self.run(cmd), cmd.span


# the commands translated in the stdlib, and in the corpus the commands
# translated and elaborated: a definition with an unannotated lambda
CONFIGS = (
    (MANIFEST, "predicative", "prop", 77, (166, 3)),
    (MANIFEST, "predicative", "type", 77, (166, 3)),
    (MANIFEST_IMPREDICATIVE, "impredicative", "prop", 81, (168, 3)),
)


@pytest.mark.parametrize("manifest, mode, prop_at, stdlib, corpus", CONFIGS,
                         ids=["prop-at-prop", "prop-at-type",
                              "impredicative"])
def test_the_stdlib_and_the_corpus_are_checked_as_by_elaboration(
        manifest, mode, prop_at, stdlib, corpus):
    pair = Pair(prop_at)
    files = [STDLIB_DIR / name for name in CORE_FILES + (DERIVED_FILE,)]
    if mode == "impredicative":
        files.append(STDLIB_DIR / IMPREDICATIVE_FILE)
    for path in files:
        pair.run_file(path)
    # every stdlib command is translated
    assert pair.paths == {"translated": stdlib}
    pair.paths.clear()
    for entry in parse_manifest(manifest):
        commands = parse_script(entry.path.read_text(encoding="utf-8"),
                                file=str(entry.path))
        # as the benchmark runs it: a script to be rejected is run up to
        # its first command, which must fail
        if entry.outcome != "accept":
            assert not pair.run(commands[0])
            continue
        for cmd in commands:
            assert pair.run(cmd), cmd.span
    translated, elaborated = corpus
    assert pair.paths == {"translated": translated, "elaborated": elaborated}


def test_the_arith_script_translates_only_its_explicit_shape():
    # tests/test_decided_once.py checks the arith script against a
    # reference that elaborates every command; the `explicit` shape's
    # Checks and every Reduce are translated, and the false equations and
    # the other shapes have holes
    ck = Checker()
    commands = parse_script(arith_script(1, *ARITH_SIZE)[0], file="<arith>")
    assert sum(map(ck._explicit, commands)) == 72
    assert len(commands) == 144


def test_an_explicit_command_the_kernel_rejects_keeps_the_kernels_error():
    # the kernel blames the application's domain, and the checker places
    # it at the argument
    ck = load_standard()
    with pytest.raises(DomainMismatch) as info:
        ck.run_text("> [bad = succ bot : Nat];\n")
    assert (info.value.span.line, info.value.span.col) == (1, 15)
    shown = "rule: app-domain\nsubject: bot\nexpected: Nat\nactual: Prop"
    assert render(info.value.diagnostic) == shown
    # the kernel alone, on the record, says the same
    nat = ElKind(Const("Nat"))
    record = ("define", "bad", App(Const("succ"), Const("bot")), nat)
    with pytest.raises(DomainMismatch) as info:
        commit(ck.sig, record, Fuel())
    assert render(info.value.diagnostic) == shown
    assert "bad" not in ck.sig.entries


# the kernel's check of `f p2` spends three steps before it fails: `one`
# and `two` unfold, and `one` again
BUDGET_PRELUDE = """
> [one = succ zero];
> [two = succ one];
> [P : Nat -> Prop];
> [f : Prf (P one) -> Nat];
> [p2 : Prf (P two)];
"""


@pytest.mark.parametrize("fuel", [2, 3, 5])
def test_a_rejected_explicit_command_is_checked_once_on_its_budget(fuel):
    # the kernel's check runs once: a budget that fits it once gives its
    # rejection, and one step less runs out
    ck = load_standard()
    ck.run_text(BUDGET_PRELUDE + f"> SetOption fuel {fuel};\n")
    with pytest.raises(FuelExhausted if fuel < 3 else DomainMismatch) as info:
        ck.run_text("> [bad = f p2 : Nat];\n")
    if fuel >= 3:
        assert (info.value.span.line, info.value.span.col) == (1, 12)
        assert render(info.value.diagnostic) == (
            "rule: app-domain\nsubject: p2\nexpected: Prf (P one)\n"
            "actual: Prf (P two)")


def test_only_an_explicit_command_reaches_the_translator(monkeypatch):
    made = []

    class Recorded(Translator):
        def __init__(self, sig, fuel):
            made.append(fuel)
            super().__init__(sig, fuel)

    ck = load_standard()
    ck.run_text("> [idn [A : Type] [x : El A] = x];\n")
    monkeypatch.setattr(lttw.checker, "Translator", Recorded)
    ck.run_text("> Check EqI hatNat zero : Prf (Eq hatNat zero ?);\n"
                "> [g = [x] x : Nat -> Nat];\n"
                "> [h = EqI hatNat ? : Prf (Eq hatNat zero zero)];\n"
                "> TypeOf idn ? zero;\n"
                "> Reduce idn ? zero;\n"
                "> Check [x] x : Nat -> Nat;\n")
    assert made == []
    assert len(ck.output) == 4
    ck.run_text("> Check zero : Nat;\n> TypeOf zero;\n"
                "> Reduce succ zero;\n> Check zero;\n")
    assert len(made) == 4
    assert ck.output[-4:] == ["Check zero : Nat", "TypeOf zero : Nat",
                              "Reduce succ zero = succ zero",
                              "Check zero : Nat"]
