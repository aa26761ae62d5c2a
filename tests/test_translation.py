"""What comes before a command's first hole is translated, not elaborated.

A subterm with no hole and no lambda without an annotation, reached before
the command has made a hole, is built by name resolution alone, and the
kernel's check is its only inference. A command without a hole is
translated in full, and its rejection is the kernel's. These tests probe
the boundary: what is translated, where a rejection is placed and what it
spends, and how many commands of the stdlib and the corpus are
translated in full. tests/test_decided_once.py compares the checker with a
reference that translates nothing (`oracle.Pair`) over the stdlib, the
corpus and the arith scripts, and the probes here are run through it too.
"""

from __future__ import annotations

import pytest

from lttw.elaborator import Elaborator
from lttw.errors import DomainMismatch, FuelExhausted
from lttw.kernel import Fuel
from lttw.parser import parse_script
from lttw.printer import print_term, render
from lttw.signature import commit
from lttw.stdlib import load_standard
from lttw.syntax import App, Const, ElKind
from oracle import Pair, corpus_sweep


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

    pair = Pair()
    pair.run_accepted("> [idn [A : Type] [x : El A] = x];\n")
    pair.paths.clear()
    monkeypatch.setattr(Elaborator, "_term", recorded)
    # (command, what the checker translates): the kind is elaborated
    # before the term, a head, a query's spine and a term written as a kind
    # are elaborated to find their kinds, and an unannotated lambda makes
    # no hole; the reference translates nothing
    probes = [
        ("Check EqI hatNat zero : Prf (Eq hatNat zero ?)",
         ["hatNat", "zero"]),
        ("TypeOf idn ? (succ zero)", []),
        ("Reduce idn Nat (succ zero)", ["Nat", "succ zero"]),
        ("[g = [x] succ x : Nat -> Nat]", ["succ x"]),
        ("[h = EqI hatNat ? : Prf (Eq hatNat zero zero)]",
         ["Eq hatNat zero zero", "hatNat"]),
        ("Check zero : Nat", ["zero"]),
    ]
    for command, expected in probes:
        translated.clear()
        (cmd,) = parse_script(f"> {command};\n")
        assert pair.run(cmd) == "accept"
        assert translated == expected, command
    # the three with a `?` are the ones that made a hole
    assert pair.paths == {"translated": 3, "elaborated": 3}
    assert pair.checker.output == [
        "Check EqI hatNat zero : Prf (Eq hatNat zero zero)",
        "TypeOf idn Nat (succ zero) : Nat",
        "Reduce idn Nat (succ zero) = succ zero", "Check zero : Nat"]


# (mode, where `prop` is declared, the commands of the stdlib, and of the
# corpus the commands that made no hole and those that made one)
CONFIGS = (
    ("predicative", "prop", 77, 166, 3),
    ("predicative", "type", 77, 166, 3),
    ("impredicative", "prop", 81, 168, 3),
)


@pytest.mark.parametrize("mode, prop_at, stdlib, translated, elaborated",
                         CONFIGS, ids=["prop-at-prop", "prop-at-type",
                                       "impredicative"])
def test_the_stdlib_and_the_corpus_are_checked_as_by_elaboration(
        mode, prop_at, stdlib, translated, elaborated):
    # the sweep that tests/test_decided_once.py checks for agreement
    sweep = corpus_sweep(mode, prop_at)
    # no stdlib command makes a hole
    assert sweep.stdlib == {"translated": stdlib}
    assert sweep.corpus == {"translated": translated,
                            "elaborated": elaborated}


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
