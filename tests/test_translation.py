"""What comes before a command's first hole is translated, not elaborated.

A subterm with no hole and no lambda without an annotation, reached before
the command has made a hole, is built by name resolution alone, and the
kernel's check is its only inference. A command without a hole is
translated in full, and its rejection is the kernel's. These tests run the
checker and a reference whose elaborator translates nothing side by side,
and require the same verdict for every command, and the same output, log
records and fuel for every accepted one.
"""

from __future__ import annotations

import contextlib
import sys
from collections import Counter
from pathlib import Path

import pytest

from lttw.checker import Checker
from lttw.corpus import (
    CORPUS_DIR, MANIFEST, MANIFEST_IMPREDICATIVE, parse_manifest,
)
from lttw.elaborator import Elaborator
from lttw.errors import DomainMismatch, FuelExhausted, LttwError
from lttw.kernel import Fuel
from lttw.parser import parse_script
from lttw.printer import print_term, render
from lttw.signature import commit
from lttw.stdlib import (
    CORE_FILES, DERIVED_FILE, IMPREDICATIVE_FILE, STDLIB_DIR, load_standard,
)
from lttw.syntax import App, Const, ElKind

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.workloads import ARITH_SIZE, arith_script  # noqa: E402


class Translating(Checker):
    """The checker, keeping each command's elaborator and budget."""

    def _elaborator(self):
        return self._keep(super()._elaborator())

    def _keep(self, el):
        self.el, self.budget = el, el.fuel
        return el


class TranslatesNothing(Elaborator):
    def _translates(self, s):
        return False


class Elaborating(Translating):
    """The reference: every command is elaborated in full."""

    def _elaborator(self):
        return self._keep(TranslatesNothing(self.sig, Fuel(self.fuel)))


def _made_no_hole(ck: Translating) -> bool:
    """Whether the last command `ck` ran made no hole: then every subterm
    of it that was checked against a kind was translated."""
    return not ck.el.state.info


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
    """The checker and the reference, fed the same commands; `paths`
    counts the commands that made no hole ("translated") and the others
    ("elaborated")."""

    def __init__(self, prop_placement: str = "prop"):
        self.translating = Translating(prop_placement)
        self.elaborating = Elaborating(prop_placement)
        self.paths = Counter()

    def run(self, cmd) -> bool:
        """Run `cmd` on both, compare, and return whether it was
        accepted."""
        translated = _outcome(self.translating, cmd)
        assert translated == _outcome(self.elaborating, cmd), cmd.span
        self.paths["translated" if _made_no_hole(self.translating)
                   else "elaborated"] += 1
        return translated != "reject"

    def run_file(self, path: Path) -> None:
        for cmd in parse_script(path.read_text(encoding="utf-8"),
                                file=str(path)):
            assert self.run(cmd), cmd.span


# the commands that made no hole in the stdlib, and in the corpus the
# commands that made none and those that made one
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
    # no stdlib command makes a hole
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
    # reference that decides in place; the `explicit` shape's Checks and
    # every Reduce make no hole, and the false equations and the other
    # shapes have holes
    ck = Translating()
    for name in CORE_FILES + (DERIVED_FILE,):
        ck.run_path(STDLIB_DIR / name)
    ck.run_path(CORPUS_DIR / "arith.lf")
    commands = parse_script(arith_script(1, *ARITH_SIZE)[0], file="<arith>")
    made_none = 0
    for cmd in commands:
        with contextlib.suppress(LttwError):
            ck.run_command(cmd)
        made_none += _made_no_hole(ck)
    assert made_none == 72
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


def test_nothing_after_the_first_hole_is_translated(monkeypatch):
    translated, open_ = [], []
    term = Elaborator._term

    def recorded(self, ctx, s):
        open_.append(s)
        try:
            t = term(self, ctx, s)
        finally:
            open_.pop()
        if not open_:
            translated.append(print_term(t))
        return t

    ck = load_standard()
    ck.run_text("> [idn [A : Type] [x : El A] = x];\n")
    monkeypatch.setattr(Elaborator, "_term", recorded)
    # (command, what it translates): the kind is elaborated before the
    # term, a head and a query's spine are elaborated to find their kinds,
    # and an unannotated lambda makes no hole
    probes = [
        ("Check EqI hatNat zero : Prf (Eq hatNat zero ?)",
         ["hatNat", "zero"]),
        ("TypeOf idn ? (succ zero)", []),
        ("Reduce idn Nat (succ zero)", ["Nat", "succ zero"]),
        ("[g = [x] succ x : Nat -> Nat]", ["Nat", "Nat", "succ x"]),
        ("[h = EqI hatNat ? : Prf (Eq hatNat zero zero)]",
         ["Eq hatNat zero zero", "hatNat"]),
        ("Check zero : Nat", ["Nat", "zero"]),
    ]
    for command, expected in probes:
        translated.clear()
        ck.run_text(f"> {command};\n")
        assert translated == expected, command
    assert ck.output == [
        "Check EqI hatNat zero : Prf (Eq hatNat zero zero)",
        "TypeOf idn Nat (succ zero) : Nat",
        "Reduce idn Nat (succ zero) = succ zero", "Check zero : Nat"]


# the kernel's checks before the first hole come in the kernel's order
BOUNDARY_PRELUDE = "> [h : Nat -> (A : Type) El A -> Nat];\n"


@pytest.mark.parametrize("second", ["?", "Nat"], ids=["hole", "explicit"])
def test_a_fault_before_the_first_hole_is_the_kernels(second):
    # the lambda, ahead of the hole, is translated, and the kernel rejects
    # it as the lambda of the explicit command
    ck = load_standard()
    with pytest.raises(DomainMismatch) as info:
        ck.run_text(BOUNDARY_PRELUDE
                    + f"> Check h ([x : Nat] x) {second} zero : Nat;\n")
    assert (info.value.span.line, info.value.span.col) == (2, 12)
    assert render(info.value.diagnostic) == (
        "rule: app-domain\nsubject: [x : Nat] x\nexpected: Nat\n"
        "actual: Nat -> Nat")


def test_a_deep_last_argument_after_the_first_hole_costs_no_stack():
    n = 10**4
    numeral = "succ (" * (n - 1) + "succ zero" + ")" * (n - 1)
    ck = load_standard()
    ck.run_text("> [k : (A : Type) El A -> El A -> Nat];\n"
                f"> Check k ? zero ({numeral}) : Nat;\n")
    assert ck.output[-1].startswith("Check k Nat zero (succ (succ ")
