"""Explicit commands are translated, not elaborated.

A declaration, definition, rule or `Check t : K` with no hole and no
lambda without an annotation is translated: names are resolved and the
kernel's check at the commit is its only inference. If the translation
or the check raises, the command runs again through the elaborator on
its whole budget. These tests run a translating checker and one that
elaborates every command side by side, and require the same rejections,
output, log records and fuel for every command.
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
from lttw.errors import DomainMismatch, KindMismatch, LttwError
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
    output, log = len(ck.output), len(ck.log)
    try:
        ck.run_command(cmd)
        error = None
    except LttwError as e:
        error = (type(e), e.message, e.span, repr(e.diagnostic))
    return (error, ck.output[output:], [repr(r) for r in ck.log[log:]],
            ck.budget.limit - ck.budget.left)


class Pair:
    """A translating and an elaborating checker, fed the same commands;
    `paths` counts the commands by the path they took."""

    def __init__(self, prop_placement: str = "prop"):
        self.translating = Translating(prop_placement)
        self.elaborating = Elaborating(prop_placement)
        self.paths = Counter()

    def run(self, cmd) -> bool:
        """Run `cmd` on both, compare, and return whether it was accepted.
        An explicit command that is rejected was translated first and then
        elaborated."""
        translated = _outcome(self.translating, cmd)
        assert translated == _outcome(self.elaborating, cmd), cmd.span
        accepted = translated[0] is None
        if not self.translating._explicit(cmd):
            self.paths["elaborated"] += 1
        else:
            self.paths["translated" if accepted else "fell back"] += 1
        return accepted

    def run_file(self, path: Path) -> None:
        for cmd in parse_script(path.read_text(encoding="utf-8"),
                                file=str(path)):
            assert self.run(cmd), cmd.span


CONFIGS = (
    (MANIFEST, "predicative", "prop", 77, (140, 2, 27)),
    (MANIFEST, "predicative", "type", 77, (140, 2, 27)),
    (MANIFEST_IMPREDICATIVE, "impredicative", "prop", 81, (142, 1, 28)),
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
    translated, fell_back, elaborated = corpus
    assert pair.paths == {"translated": translated, "fell back": fell_back,
                          "elaborated": elaborated}


def test_the_arith_script_translates_only_its_explicit_shape():
    # tests/test_decided_once.py checks the arith script against a
    # reference that elaborates every command; the false equations have
    # holes
    ck = Checker()
    commands = parse_script(arith_script(1, *ARITH_SIZE)[0], file="<arith>")
    assert sum(map(ck._explicit, commands)) == 36
    assert len(commands) == 144


def test_an_explicit_command_the_kernel_rejects_keeps_the_elaborators_error():
    ck = load_standard()
    with pytest.raises(KindMismatch) as info:
        ck.run_text("> [bad = succ bot : Nat];\n")
    assert (info.value.span.line, info.value.span.col) == (1, 15)
    assert render(info.value.diagnostic) == \
        "rule: check\nexpected: Nat\nactual: Prop"
    # the kernel alone blames the application's domain
    nat = ElKind(Const("Nat"))
    record = ("define", "bad", App(Const("succ"), Const("bot")), nat)
    with pytest.raises(DomainMismatch) as info:
        commit(ck.sig, record, Fuel())
    assert info.value.diagnostic.rule == "app-domain"
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


@pytest.mark.parametrize("fuel", [3, 5])
def test_a_failed_translation_leaves_the_elaborator_the_whole_budget(fuel):
    # the budget fits the failed check once, but not twice: the elaborator
    # decides its false obligation only on a restored budget
    ck = load_standard()
    ck.run_text(BUDGET_PRELUDE + f"> SetOption fuel {fuel};\n")
    with pytest.raises(KindMismatch) as info:
        ck.run_text("> [bad = f p2 : Nat];\n")
    assert (info.value.span.line, info.value.span.col) == (1, 12)
    assert render(info.value.diagnostic) == \
        "rule: check\nexpected: Prf (P one)\nactual: Prf (P two)"


def test_only_an_explicit_command_reaches_the_translator(monkeypatch):
    made = []

    class Recorded(Translator):
        def __init__(self, sig, fuel):
            made.append(fuel)
            super().__init__(sig, fuel)

    ck = load_standard()
    monkeypatch.setattr(lttw.checker, "Translator", Recorded)
    ck.run_text("> Check EqI hatNat zero : Prf (Eq hatNat zero ?);\n"
                "> [g = [x] x : Nat -> Nat];\n"
                "> [h = EqI hatNat ? : Prf (Eq hatNat zero zero)];\n"
                "> TypeOf zero;\n"
                "> Reduce succ zero;\n"
                "> Check zero;\n")
    assert made == []
    assert len(ck.output) == 4
    ck.run_text("> Check zero : Nat;\n")
    assert len(made) == 1
    assert ck.output[-1] == "Check zero : Nat"
