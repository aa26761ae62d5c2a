"""Script execution: commands against a signature, directives, file loading,
options, and kernel-only replay of an accepted session."""

import sys
import threading
from pathlib import Path

import pytest

import lttw.checker
import lttw.elaborator
import lttw.kernel
from lttw.checker import Checker
from lttw.corpus import CORPUS_DIR
from lttw.elaborator import Mismatch, UnsolvedMeta
from lttw.errors import (
    DomainMismatch, DuplicateName, FuelExhausted, KindMismatch, NestingTooDeep,
    NotAProduct, SignatureError, UnknownConstant,
)
from lttw.kernel import DEFAULT_FUEL, Fuel
from lttw.parser import parse_term
from lttw.printer import render
from lttw.signature import Definition, declare_rewrite, replay
from lttw.stdlib import load_standard
from lttw.surface import Directive, DirectiveOp, ScriptSyntaxError
from lttw.syntax import (
    TYPE, App, Const, ElKind, Lam, PiKind, PrfKind, PropKind, TypeKind, Var,
    alpha_eq, contains_meta, metas_of,
)

FIXTURES = Path(__file__).parent / "fixtures"

NAT_PRELUDE = """
> [Nat : Type];
> [zero : Nat];
> [succ : Nat -> Nat];
"""


def test_declarations_and_definitions_enter_signature():
    ck = Checker()
    ck.run_text(NAT_PRELUDE + "> [one = succ zero];\n")
    assert ck.sig.constant_count() == 3
    assert isinstance(ck.sig.entries["one"], Definition)
    assert alpha_eq(ck.sig.entries["succ"].kind.domain.body, Const("Nat"))


def test_define_checks_ascription():
    # the body is checked against the ascribed kind during elaboration,
    # so the rejection is a KindMismatch carrying the command's span
    ck = Checker()
    with pytest.raises(KindMismatch) as info:
        ck.run_text(NAT_PRELUDE + "> [p : Prop];\n> [bad = zero : Prf p];\n")
    assert info.value.span is not None


def test_rule_command_installs_rule():
    ck = Checker()
    ck.run_text(NAT_PRELUDE + """
> [double : Nat -> Nat];
> rule double zero = zero : Nat;
> rule [n : Nat] double (succ n) = succ (succ (double n)) : Nat;
> Reduce double (succ (succ zero));
""")
    assert ck.sig.rule_count() == 2
    assert ck.output[-1] == \
        "Reduce double (succ (succ zero)) = succ (succ (succ (succ zero)))"


def test_declaration_binder_needs_annotation():
    ck = Checker()
    with pytest.raises(ScriptSyntaxError) as info:
        ck.run_text("> [c [x] : Prop];\n")
    assert "annotation" in str(info.value)


def test_check_directive_records_and_prints():
    ck = Checker()
    ck.run_path(FIXTURES / "conjunction.lf")
    assert ck.output == [
        "Check conj_comm : "
        "(p : Prop) (q : Prop) Prf (conj p q) -> Prf (conj q p)"]
    tags = [r[0] for r in ck.log]
    assert tags.count("declare") == 4
    assert tags.count("define") == 1
    assert tags[-1] == "check"


def test_check_directive_rejects_wrong_kind():
    ck = Checker()
    with pytest.raises(KindMismatch):
        ck.run_text(NAT_PRELUDE + "> Check zero : Type;\n")


def test_check_fills_holes():
    ck = Checker()
    ck.run_text(NAT_PRELUDE + """
> [id [A : Type] [x : A] = x];
> Check id ? zero : Nat;
""")
    tag, t, k = ck.log[-1]
    assert tag == "check"
    assert not contains_meta(t)
    assert ck.output[-1] == "Check id Nat zero : Nat"


def test_only_a_command_with_holes_scans_for_them(monkeypatch):
    calls = []

    def counted(e):
        calls.append(e)
        return contains_meta(e)

    ck = Checker()
    ck.run_text(NAT_PRELUDE + "> [id [A : Type] [x : A] = x];\n")
    monkeypatch.setattr(lttw.elaborator, "contains_meta", counted)
    # the first is translated, the second's spine elaborated
    ck.run_text("> Check zero : Nat;\n> Check zero;\n")
    assert calls == []
    ck.run_text("> Check id ? zero : Nat;\n")
    assert calls
    assert ck.output == ["Check zero : Nat", "Check zero : Nat",
                         "Check id Nat zero : Nat"]


def test_only_a_command_with_holes_finishes_them(monkeypatch):
    calls = []

    def counted(e):
        calls.append(e)
        return metas_of(e)

    ck = Checker()
    ck.run_text(NAT_PRELUDE + "> [id [A : Type] [x : A] = x];\n")
    monkeypatch.setattr(lttw.elaborator, "metas_of", counted)
    # the first is translated, the second's spine elaborated
    ck.run_text("> Check zero : Nat;\n> Check zero;\n")
    assert calls == []
    ck.run_text("> Check id ? zero : Nat;\n")
    assert calls
    assert ck.output == ["Check zero : Nat", "Check zero : Nat",
                         "Check id Nat zero : Nat"]


# a hole in a parameter's annotation, solved by the body or a rule's sides,
# which come after the hole and so are elaborated, not translated
BINDER_HOLES = """
> [f [A : Type] [x : El ?] = x : El A];
> [h : Nat -> Nat];
> rule [n : El ?] h n = n : Nat;
> Reduce h (succ zero);
"""


def test_a_hole_in_a_parameter_annotation_is_filled_in_the_ascription():
    ck = Checker()
    ck.run_text(NAT_PRELUDE + BINDER_HOLES)
    _, name, body, ascription = ck.log[3]
    assert name == "f" and not contains_meta(ascription)
    assert alpha_eq(ascription, PiKind("A", TYPE, PiKind(
        "x", ElKind(Var("A")), ElKind(Var("A")))))
    assert alpha_eq(ck.sig.entries["f"].kind, ascription)


def test_a_hole_in_a_rule_binder_is_filled_and_the_rule_fires():
    ck = Checker()
    ck.run_text(NAT_PRELUDE + BINDER_HOLES)
    (_, rule), = [r for r in ck.log if r[0] == "rule"]
    ((x, k),) = rule.binders
    assert x == "n" and alpha_eq(k, ElKind(Const("Nat")))
    assert ck.output == ["Reduce h (succ zero) = succ zero"]
    # the kernel alone rebuilds the session from its log
    sig = replay(ck.log)
    assert list(sig.entries) == list(ck.sig.entries)
    assert sig.rule_count() == ck.sig.rule_count() == 1


def test_an_unsolved_hole_in_a_rule_binder_is_blamed_at_the_hole():
    ck = Checker()
    ck.run_text(NAT_PRELUDE)
    with pytest.raises(UnsolvedMeta) as info:
        ck.run_text("> [h : Nat -> Nat];\n"
                    "> rule [A : Type] [x : El ?] h zero = zero : Nat;\n",
                    file="binder.lf")
    assert info.value.diagnostic.rule == "hole-solved"
    span = info.value.span
    assert (span.file, span.line, span.col) == ("binder.lf", 2, 27)
    # the rejected rule left nothing behind
    assert ck.sig.rule_count() == 0 and ck.log[-1][:2] == ("declare", "h")


def test_typeof_output():
    ck = Checker()
    ck.run_text(NAT_PRELUDE + "> TypeOf succ zero;\n")
    assert ck.output == ["TypeOf succ zero : Nat"]


def test_typeof_and_reduce_are_rechecked_by_the_kernel(monkeypatch):
    # an elaborator that hands back a term of the wrong kind is caught
    # before anything is printed or normalised, and neither directive
    # leaves a replay record. The queries have a hole, so what follows it
    # is elaborated
    ck = Checker()
    ck.run_text(NAT_PRELUDE + "> [Bool : Type];\n> [tt : Bool];\n"
                + "> [idn [A : Type] [x : El A] = x];\n"
                + "> TypeOf idn ? zero;\n> Reduce idn ? (succ zero);\n")
    assert ck.output == ["TypeOf idn Nat zero : Nat",
                         "Reduce idn Nat (succ zero) = succ zero"]
    output, logged = list(ck.output), len(ck.log)
    monkeypatch.setattr(lttw.elaborator.Elaborator, "finish_term",
                        lambda self, e, span=None: Const("tt"))
    monkeypatch.setattr(lttw.kernel, "normalize", None)
    for directive in ("TypeOf idn ? zero", "Reduce idn ? zero"):
        with pytest.raises(KindMismatch) as info:
            ck.run_text(f"> {directive};\n")
        assert "term does not have the required kind" in str(info.value)
        assert alpha_eq(info.value.diagnostic.subject, Const("tt"))
    assert ck.output == output
    assert len(ck.log) == logged


def test_printed_terms_read_back_as_what_was_printed():
    # substitution puts the constant x under a binder named x; the printer
    # renames the binder, so the printed kind is the one checked
    ck = load_standard()
    ck.run_text("> [K [y : Nat] [x : Nat] = y : Nat];\n> [x : Nat];\n"
                "> Reduce K x;\n")
    assert ck.output[-1] == "Reduce K x = [x1 : Nat] x"
    ck = load_standard()
    ck.run_text("> [F : (y : Nat) (x : Nat) Prf (Eq hatNat y x)];\n"
                "> [x : Nat];\n> TypeOf F x;\n")
    assert ck.output[-1] == "TypeOf F x : (x1 : Nat) Prf (Eq hatNat x x1)"
    ck.run_text("> Check F x : (x1 : Nat) Prf (Eq hatNat x x1);\n")
    assert ck.output[-1] == "Check F x : (x1 : Nat) Prf (Eq hatNat x x1)"


def test_load_is_relative_and_idempotent():
    ck = Checker()
    ck.run_path(FIXTURES / "loads_conjunction.lf")
    # the double Load ran the file once: its Check printed one line
    assert len([s for s in ck.output if s.startswith("Check")]) == 1
    assert ck.output[-1] == "TypeOf idem : (p : Prop) Prf p -> Prf (conj p p)"


def test_load_cycle_detected():
    ck = Checker()
    with pytest.raises(ScriptSyntaxError) as info:
        ck.run_path(FIXTURES / "cycle_a.lf")
    assert "cycle" in str(info.value).lower()


# `f z` rewrites to itself, so reducing it never ends
LOOP_PRELUDE = """
> [N : Type];
> [z : N];
> [f : N -> N];
> rule f z = f z : N;
"""


def test_fuel_running_out_in_elaboration_carries_the_command_span():
    ck = Checker(fuel=50)
    with pytest.raises(FuelExhausted) as info:
        ck.run_text(LOOP_PRELUDE + "> [P : N -> Prop];\n> [p : Prf (P z)];\n"
                    "> Check p : Prf (P (f z));\n")
    assert str(info.value.span) == "<script>:8:3"


def test_setoption_fuel_bounds_reduction():
    ck = Checker()
    ck.run_text(NAT_PRELUDE + """
> [f : Nat -> Nat];
> rule f zero = f zero : Nat;
> SetOption fuel 50;
""")
    assert ck.fuel == 50
    with pytest.raises(FuelExhausted):
        ck.run_text("> Reduce f zero;\n")


# `one` unfolds in one step; p1 and c1 prove `P one` only after that step
ONE_PRELUDE = NAT_PRELUDE + """
> [one = succ zero];
> [P : Nat -> Prop];
> [p1 : P (succ zero)];
> [c1 : P (succ zero)];
> [pall : (n : Nat) P n];
"""


def _run_with_fuel(fuel, text):
    ck = Checker()
    ck.run_text(ONE_PRELUDE)
    # set directly, as `SetOption fuel` takes no budget below one step
    ck.fuel = fuel
    ck.run_text(text)
    return ck


def test_check_recheck_spends_from_the_elaboration_budget():
    # solving the hole against `P one` unfolds `one` once and the kernel's
    # re-check unfolds it again: each fits in one step, the command as a
    # whole needs two
    text = "> Check pall ? : P one;\n"
    with pytest.raises(FuelExhausted):
        _run_with_fuel(1, text)
    ck = _run_with_fuel(2, text)
    assert ck.output == ["Check pall (succ zero) : Prf (P one)"]


@pytest.mark.parametrize("text, needed", [
    # the elaborator leaves the equality without holes to the kernel,
    # whose check unfolds `one` once
    ("> Check p1 : P one;\n", 1),
    ("> [q = p1 : P one];\n", 1),
    # once per side in the kernel
    ("> rule c1 = p1 : P one;\n", 2),
    # the kernel's re-check unfolds `one` once and normalisation contracts
    # one redex
    ("> [g : Prf (P one) -> Nat];\n> Reduce ([x : Nat] x) (g p1);\n", 2),
], ids=["check", "define", "rule", "reduce"])
def test_one_budget_covers_the_whole_command(text, needed):
    with pytest.raises(FuelExhausted):
        _run_with_fuel(needed - 1, text)
    _run_with_fuel(needed, text)


def test_replay_gives_each_record_one_budget():
    ck = _run_with_fuel(4, "> rule c1 = p1 : P one;\n")
    *before, record = ck.log
    with pytest.raises(FuelExhausted):
        replay([("fuel", 1), record], replay(before))
    replay([("fuel", 2), record], replay(before))


def test_replay_gives_each_record_the_budget_its_command_ran_under():
    # the kernel's check that `minus M M` is zero for M = 32 * 32 takes
    # 109,974 steps, more than the default budget
    n = "succ (" * 31 + "succ zero" + ")" * 31
    m = f"mult ({n}) ({n})"
    ck = load_standard()
    ck.run_path(CORPUS_DIR / "arith.lf")
    ck.run_text("> SetOption fuel 200000;\n> Check EqI hatNat zero : "
                f"Prf (Eq hatNat (minus ({m}) ({m})) zero);\n")
    assert ck.log[-2] == ("fuel", 200000)
    sig = replay(ck.log)
    with pytest.raises(FuelExhausted):
        replay(ck.log[-1:], sig)


def test_the_log_records_a_budget_only_where_it_changes():
    assert [r for r in load_standard().log if r[0] == "fuel"] == []
    ck = Checker(fuel=50)
    ck.run_text(NAT_PRELUDE + "> SetOption fuel 50;\n> SetOption fuel 60;\n"
                f"> SetOption fuel {DEFAULT_FUEL};\n")
    assert [r if r[0] == "fuel" else r[0] for r in ck.log] == [
        ("fuel", 50), "declare", "declare", "declare", ("fuel", 60),
        ("fuel", DEFAULT_FUEL)]


def test_setoption_fuel_changes_only_its_own_checker():
    a, b = Checker(), Checker()
    a.run_text("> SetOption fuel 5;\n")
    assert a.fuel == 5
    assert b.fuel == DEFAULT_FUEL


def test_declare_rewrite_spends_every_kernel_check_from_one_fuel():
    ck = _run_with_fuel(4, "> rule c1 = p1 : P one;\n")
    (_, rule), sig = ck.log[-1], replay(ck.log[:-1])
    fuel = Fuel()
    declare_rewrite(sig, rule, fuel=fuel)
    assert fuel.limit - fuel.left == 2


def test_rule_dispatch_reduces_the_constructor_positions_of_every_rule():
    # only the earlier rule has a constructor in the first position, and
    # `zz` must be unfolded there for it to fire
    ck = Checker()
    ck.run_text("""
> [N : Type];
> [z : N];
> [s : N -> N];
> [g : N -> N -> N];
> rule [y : N] g z (s y) = y : N;
> rule [x : N] g x z = x : N;
> [zz = z];
> Reduce g zz (s z);
""")
    assert ck.output == ["Reduce g zz (s z) = z"]


def test_setoption_rejects_non_positive_fuel():
    ck = Checker()
    with pytest.raises(ScriptSyntaxError) as info:
        ck.run_text("> SetOption fuel 0;\n")
    assert "positive" in str(info.value)
    assert ck.fuel == DEFAULT_FUEL


def test_setoption_rejects_junk():
    ck = Checker()
    with pytest.raises(ScriptSyntaxError):
        ck.run_text("> SetOption fuel lots;\n")
    with pytest.raises(ScriptSyntaxError):
        ck.run_text("> SetOption colour red;\n")


def test_prop_placement_moves_only_prop():
    ck = Checker(prop_placement="type")
    ck.run_text("> [prop : Prop];\n> [other : Prop];\n")
    assert isinstance(ck.sig.entries["prop"].kind, TypeKind)
    assert isinstance(ck.sig.entries["other"].kind, PropKind)
    default = Checker()
    default.run_text("> [prop : Prop];\n")
    assert isinstance(default.sig.entries["prop"].kind, PropKind)


def test_replay_reruns_through_kernel_alone():
    ck = Checker()
    ck.run_path(FIXTURES / "conjunction.lf")
    for record in ck.log:
        for part in record[1:]:
            if not isinstance(part, (str, type(None))):
                assert not contains_meta(getattr(part, "lhs", part))
    sig = replay(ck.log)
    assert sig.constant_count() == ck.sig.constant_count()
    assert set(sig.entries) == set(ck.sig.entries)


def test_replay_rejects_tampered_log():
    ck = Checker()
    ck.run_path(FIXTURES / "conjunction.lf")
    tag, t, k = ck.log[-1]
    bad = ck.log[:-1] + [(tag, t, TYPE)]
    with pytest.raises(KindMismatch):
        replay(bad)
    with pytest.raises(SignatureError):
        replay([("mystery",)])


@pytest.mark.parametrize("record, tag", [
    (("mystery",), "'mystery'"), ((), "None"), ("check", "None"),
    (("check", Const("zero")), "'check'"), (("fuel", 10, 20), "'fuel'"),
], ids=["unknown-tag", "empty", "not-a-tuple", "short", "long"])
def test_replay_rejects_a_malformed_record(record, tag):
    ck = Checker()
    ck.run_text(NAT_PRELUDE)
    with pytest.raises(SignatureError) as info:
        replay(ck.log + [record])
    assert str(info.value) == (f"replay record 3 ({tag}) has no known tag, "
                               "or the wrong number of fields")
    assert info.value.diagnostic.rule == "replay-record"


def test_replay_rejects_a_check_record_whose_kind_is_ill_kinded():
    # `K bot Nat` unfolds to Nat whatever K's first argument is, so `zero`
    # checks against it; the kind itself applies K to a proposition
    ck = load_standard()
    ck.run_text("> [K [a : Nat] [b : Type] = b];\n")
    kind = ElKind(App(App(Const("K"), Const("bot")), Const("Nat")))
    with pytest.raises(DomainMismatch) as info:
        replay(ck.log + [("check", Const("zero"), kind)])
    assert info.value.diagnostic.rule == "app-domain"


def test_duplicate_declaration_carries_span():
    ck = Checker()
    with pytest.raises(DuplicateName) as info:
        ck.run_text("> [A : Type];\n> [A : Type];\n")
    assert info.value.span is not None
    assert info.value.span.line == 2


# A spine with one argument too many is rejected alike whether its last
# argument is an application (elaborated or inferred in the loop on the
# last argument) or not, by the checker and by replay, and whether the
# spine holds a hole or not. The kernel names the head and the arguments
# before the extra one, and the elaborator names them as the kernel does;
# the checker blames that argument.
APP_FN_PRELUDE = NAT_PRELUDE + "> [f : Nat -> Nat];\n"


@pytest.mark.parametrize("last, col", [("zero", 16), ("(succ zero)", 17)],
                         ids=["leading", "last-argument"])
def test_one_argument_too_many_is_rejected_at_that_argument(last, col):
    ck = Checker()
    ck.run_text(APP_FN_PRELUDE)
    with pytest.raises(NotAProduct) as info:
        ck.run_text(f"> Check f zero {last};\n")
    assert (info.value.span.line, info.value.span.col) == (1, col)
    assert render(info.value.diagnostic) == (
        "rule: app-fn\nsubject: f zero\nactual: Nat")


@pytest.mark.parametrize("first, col", [("?", 20), ("Nat", 22)],
                         ids=["hole", "explicit"])
def test_one_argument_too_many_after_a_hole_is_rejected_as_the_kernel_would(
        first, col):
    ck = Checker()
    ck.run_text(NAT_PRELUDE + "> [idn [A : Type] [x : El A] = x];\n")
    with pytest.raises(NotAProduct) as info:
        ck.run_text(f"> Check idn {first} zero zero;\n")
    assert (info.value.span.line, info.value.span.col) == (1, col)
    assert str(info.value).endswith(
        ": application of a term whose kind is not a product")
    assert render(info.value.diagnostic) == (
        "rule: app-fn\nsubject: idn Nat zero\nactual: Nat")


@pytest.mark.parametrize("last", [Const("zero"),
                                  App(Const("succ"), Const("zero"))],
                         ids=["leading", "last-argument"])
def test_replay_of_one_argument_too_many_is_rejected(last):
    ck = Checker()
    ck.run_text(APP_FN_PRELUDE)
    t = App(App(Const("f"), Const("zero")), last)
    with pytest.raises(NotAProduct) as info:
        replay(ck.log + [("check", t, ElKind(Const("Nat")))])
    assert render(info.value.diagnostic) == (
        "rule: app-fn\nsubject: f zero\nactual: Nat")


# Where a rejection that the kernel raises is blamed (`blame`): at the node
# of the command that the record's rejected node was built from. Each
# probe runs after BLAME_PRELUDE: a script, a query as the CLI builds it
# from its argument, or a corpus file. With `copied`, the kernel names a
# copy of the argument it rejects, a node the record does not hold; a
# subject the command holds at two places blames the command as well.
BLAME_PRELUDE = """
> [f : Nat -> Nat];
> [one = succ zero];
> [K [x : Nat] [y : Nat] = x : Nat];
> [P : Nat -> Prop];
> [g : (n : Nat) Prf (P n) -> Nat];
> [h : (x : Nat) Prf (P x)];
> [c : Prop -> Nat];
> [d : Prop -> Nat -> Nat];
> [any : (A : Type) El A];
"""
BLAMED = {
    "corpus-lambda": ("impredicative_neg.lf", (7, 16), "app-domain"),
    "query-argument": ("typeof succ bot", (1, 6), "app-domain"),
    "definition-argument": ("> [bad = succ bot : Nat];\n", (1, 15),
                            "app-domain"),
    "one-too-many-leading": ("> Check f zero zero;\n", (1, 16), "app-fn"),
    "one-too-many-last": ("> Check f zero (succ zero);\n", (1, 17),
                          "app-fn"),
    "script-line-3": ("> TypeOf zero;\n> Check\n>   bot : Nat;\n", (3, 5),
                      "check"),
    "unfolded-definition": (
        "> Check EqI hatNat (K one one) "
        ": Prf (Eq hatNat (K one one) (K zero one));\n", (1, 9), "check"),
    "definition-body": (
        "> [bad = EqI hatNat zero : Prf (Eq hatNat zero one)];\n", (1, 10),
        "define-ascription"),
    # ?0 := c bot from the ascription, an El body, not an argument; the
    # kernel checks the body first
    "filled-hole": ("> [bad = any ? : El (c bot)];\n", (1, 14), "app-domain"),
    # the argument, not the annotation that also names Nat
    "binder-annotation": ("> [bad [n : El Nat] = K n Nat : Nat];\n", (1, 27),
                          "app-domain"),
    # one `bot` node at two arguments, the first well kinded: the command
    "one-name-twice": ("> Check d bot bot;\n", (1, 3), "app-domain"),
    # ?0 := bot from `h bot`, whose `bot` is a second place: the command
    "hole-and-name": ("> Check g ? (h bot) : Nat;\n", (1, 3), "app-domain"),
    "record-node": ("> Check c (succ zero) : Nat;\n", (1, 12),
                    "app-domain"),
    "copied": ("> Check c (succ zero) : Nat;\n", (1, 3), "app-domain"),
}


@pytest.mark.parametrize("case", BLAMED)
def test_a_kernel_rejection_is_blamed_on_the_node_it_names(case,
                                                          monkeypatch):
    probe, at, rule = BLAMED[case]
    ck = load_standard()
    ck.run_text(BLAME_PRELUDE)
    entries, log = dict(ck.sig.entries), list(ck.log)
    if case == "copied":
        rejected = lttw.kernel._domain_mismatch
        monkeypatch.setattr(
            lttw.kernel, "_domain_mismatch", lambda arg, *kinds: rejected(
                App(arg.fn, arg.arg), *kinds))
    with pytest.raises(KindMismatch if rule != "app-fn" else NotAProduct) \
            as info:
        if probe.endswith(".lf"):
            ck.run_path(CORPUS_DIR / probe)
        elif probe.startswith("typeof "):
            term = parse_term(probe[len("typeof "):], file="<argument>")
            ck.run_command(Directive(DirectiveOp.TYPEOF, (term, None),
                                     term.span))
        else:
            ck.run_text(probe)
    span = info.value.span
    assert ((span.line, span.col), info.value.diagnostic.rule) == (at, rule)
    assert ck.sig.entries == entries and ck.log == log


# A binder that shadows one in scope is renamed apart, perhaps to a declared
# constant's name; the body's occurrences of that constant stay constants.
CAPTURE_PRELUDE = "> [Nat : Type];\n> [x1 : Prop];\n"


def test_shadowing_lambda_binder_does_not_capture_a_constant():
    ck = Checker()
    ck.run_text(CAPTURE_PRELUDE
                + "> Check [x : Nat] [x : Nat] x1 : Nat -> Nat -> Prop;\n")
    _, t, _ = ck.log[-1]
    assert alpha_eq(t.body.body, Const("x1"))


def test_shadowing_product_binder_does_not_capture_a_constant():
    ck = Checker()
    ck.run_text(CAPTURE_PRELUDE + "> [bad : (x : Nat) (x : Nat) Prf x1];\n")
    assert alpha_eq(ck.sig.entries["bad"].kind.codomain.codomain.body,
                    Const("x1"))


# The renamed binder must also avoid the names bound inside its body, or an
# inner binder of that name captures the renamed occurrences.
NAT = ElKind(Const("Nat"))


def test_shadowing_lambda_binder_avoids_inner_binder_names():
    ck = Checker()
    ck.run_text("> [Nat : Type];\n> [zero : Nat];\n> Check [x : Nat] "
                "[x : Nat] [x1 : Nat] x : Nat -> Nat -> Nat -> Nat;\n")
    _, t, _ = ck.log[-1]
    assert alpha_eq(t, Lam("a", NAT,
                           Lam("b", NAT, Lam("c", NAT, Var("b")))))


def test_shadowing_product_binder_avoids_inner_binder_names():
    ck = Checker()
    ck.run_text("> [Nat : Type];\n> [P : Nat -> Prop];\n"
                "> [c : (x : Nat) (x : Nat) (x1 : Nat) P x];\n")
    want = PiKind("a", NAT, PiKind("b", NAT, PiKind(
        "c", NAT, PrfKind(App(Const("P"), Var("b"))))))
    assert alpha_eq(ck.sig.entries["c"].kind, want)


# Surface names resolve through the binders in scope; the fresh kernel name
# of a shadowing binder is not a name the script can write.
def test_fresh_name_of_a_shadowing_binder_is_hidden():
    ck = Checker()
    with pytest.raises(UnknownConstant):
        ck.run_text("> [Nat : Type];\n> Check [x : Nat] [x : Nat] x1 "
                    ": Nat -> Nat -> Nat;\n")


# ------------------------------------------------- robustness of commands

# Nesting through an application's last argument, as in a numeral, costs
# no stack. Through a leading argument it costs the elaborator and the
# kernel a frame or more a level, so this depth runs out of the
# interpreter's stack
BEYOND = 2000


def numeral(n):
    return "succ (" * (n - 1) + "succ zero" + ")" * (n - 1)


def leading(n):
    # zero nested n deep through the first argument of a binary `plus`
    return "plus (" * n + "zero" + ") zero" * n


def test_too_deep_a_command_is_a_typed_rejection():
    ck = load_standard()
    ck.run_path(CORPUS_DIR / "arith.lf")
    entries, log = dict(ck.sig.entries), list(ck.log)
    with pytest.raises(NestingTooDeep) as info:
        ck.run_text(f"> [deep = {leading(BEYOND)}];\n", file="deep.lf")
    span = info.value.span
    assert (span.file, span.line, span.col) == ("deep.lf", 1, 3)
    assert info.value.diagnostic.rule == "depth"
    assert info.value.diagnostic.subject is None
    assert ck.sig.entries == entries and ck.log == log
    ck.run_text("> Reduce plus two two;\n")
    assert ck.output[-1] == ("Reduce plus two two = "
                             "succ (succ (succ (succ zero)))")


def test_too_deep_a_command_is_explained_like_any_rejection():
    # translating the last argument runs out of stack before the kernel
    # is asked anything, so the depth is the rejection, whether the first
    # argument is `bot` or `zero`. Next to a numeral, which costs no
    # stack, the false `bot` is the kernel's rejection, at `bot`
    ck = load_standard()
    ck.run_path(CORPUS_DIR / "arith.lf")
    ck.run_text("> [K = [a : Nat] [b : Nat] b];\n")
    for first in ("bot", "zero"):
        with pytest.raises(NestingTooDeep) as info:
            ck.run_text(f"> TypeOf K {first} ({leading(BEYOND)});\n")
        assert info.value.span.col == 3
    with pytest.raises(DomainMismatch) as info:
        ck.run_text(f"> TypeOf K bot ({numeral(10**4)});\n")
    assert (info.value.diagnostic.rule, info.value.span.col) == \
        ("app-domain", 12)
    ck.run_text(f"> TypeOf K zero ({numeral(10**4)});\n")
    assert ck.output[-1] == f"TypeOf K zero ({numeral(10**4)}) : Nat"


# an equation between the numerals n and m, as a query and as a definition
EQUATIONS = {
    "Check": "> Check EqI hatNat ({n}) : Prf (Eq hatNat ({n}) ({m}));\n",
    "Define": "> [deep = EqI hatNat ({n}) : Prf (Eq hatNat ({n}) ({m}))];\n"}


@pytest.mark.parametrize("form", EQUATIONS)
def test_a_deep_true_equation_is_accepted(form):
    # alpha-equality compares two distinct equal numerals in its loop, in
    # the kernel, at no stack cost
    ck = load_standard()
    logged = len(ck.log)
    n = numeral(BEYOND)
    ck.run_text(EQUATIONS[form].format(n=n, m=n))
    assert len(ck.log) == logged + 1


@pytest.mark.parametrize("form", EQUATIONS)
def test_a_deep_false_equation_is_a_typed_rejection(form):
    # conversion still recurses into the arguments of two numerals that
    # differ (ROADMAP item 13): a typed rejection, not a RecursionError
    ck = load_standard()
    entries, log = dict(ck.sig.entries), list(ck.log)
    equation = EQUATIONS[form].format(n=numeral(BEYOND),
                                      m=numeral(BEYOND + 1))
    with pytest.raises(NestingTooDeep) as info:
        ck.run_text(equation, file="deep.lf")
    span = info.value.span
    assert (span.file, span.line, span.col) == ("deep.lf", 1, 3)
    assert info.value.diagnostic.rule == "depth"
    assert ck.sig.entries == entries and ck.log == log
    # the kernel's own rule: a query's kind, or a definition's ascription
    with pytest.raises(KindMismatch) as info:
        ck.run_text(EQUATIONS[form].format(n=numeral(300), m=numeral(301)))
    assert info.value.diagnostic.rule == \
        {"Check": "check", "Define": "define-ascription"}[form]


def test_a_hole_inside_a_deep_numeral_is_filled():
    # unification and filling the hole loop on an application's last
    # argument, so the numeral's depth costs them no stack
    ck = load_standard()
    for depth in (700, BEYOND):
        hole, n = "succ (" * depth + "?" + ")" * depth, numeral(depth)
        ck.run_text(f"> Check EqI hatNat ({hole}) : "
                    f"Prf (Eq hatNat ({n}) ({n}));\n")
        assert ck.output[-1] == (f"Check EqI hatNat ({n}) : "
                                 f"Prf (Eq hatNat ({n}) ({n}))")


def test_a_hole_inside_a_deep_numeral_against_a_false_equation():
    # the hole is solved against the left side, and the right side, one
    # longer, differs from it at the bottom
    hole = "succ (" * BEYOND + "?" + ")" * BEYOND
    ck = load_standard()
    with pytest.raises(Mismatch) as info:
        ck.run_text(f"> Check EqI hatNat ({hole}) : Prf (Eq hatNat "
                    f"({numeral(BEYOND)}) ({numeral(BEYOND + 1)}));\n")
    diagnostic = info.value.diagnostic
    assert diagnostic.rule == "unify-rigid"
    assert diagnostic.subject is Const("zero")
    assert alpha_eq(diagnostic.expected, App(Const("succ"), Const("zero")))


def test_the_record_of_a_deep_numeral_prints():
    # the CI's 10^4-deep numeral: its log record's repr takes no stack
    ck = load_standard()
    ck.run_text(f"> Check {numeral(10**4)} : Nat;\n")
    shown = repr(ck.log[-1])
    assert shown.startswith("('check', App(Const('succ'), App(Const('succ'),")
    assert shown.count("App(Const('succ'), ") == 10**4
    assert shown.endswith("Const('zero'))" + ")" * (10**4 - 1)
                          + ", ElKind(Const('Nat')))")


def test_a_300_deep_numeral_is_accepted():
    # perfbench's deep family checks this numeral (check_numeral_300); a
    # parser that spent more stack frames per parenthesis would reject it
    numeral = "succ (" * 299 + "succ zero" + ")" * 299
    ck = load_standard()
    ck.run_text(f"> Check {numeral} : Nat;\n")
    assert ck.output[-1] == f"Check {numeral} : Nat"


def test_the_3000_deep_members_of_the_deep_family_are_accepted():
    # perfbench's reduce_plus_3000 and check_numeral_3000, far past the
    # interpreter's stack if each level of a numeral took a frame
    ck = load_standard()
    ck.run_path(CORPUS_DIR / "arith.lf")
    logged = len(ck.log)
    ck.run_text(f"> Reduce plus ({numeral(3000)}) ({numeral(3000)});\n"
                f"> Check {numeral(3000)} : Nat;\n")
    assert ck.output[-2:] == [
        f"Reduce plus ({numeral(3000)}) ({numeral(3000)}) = {numeral(6000)}",
        f"Check {numeral(3000)} : Nat"]
    assert [r[0] for r in ck.log[logged:]] == ["check"]
    replay(ck.log)


def test_deep_commands_in_two_threads_at_once():
    # each thread decides its numerals and has its too-deep commands
    # rejected with a typed error, whatever the other one is doing
    outcomes, threads = {}, []

    def check(name):
        ck = Checker()
        ck.run_text(NAT_PRELUDE + "> [plus : Nat -> Nat -> Nat];\n")
        rules = []
        for _ in range(3):
            ck.run_text(f"> Check {numeral(3000)} : Nat;\n")
            try:
                ck.run_text(f"> Check {leading(BEYOND)} : Nat;\n")
            except NestingTooDeep as e:
                rules.append(e.diagnostic.rule)
        outcomes[name] = ck.output, rules

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for name in ("a", "b"):
            threads.append(threading.Thread(target=check, args=(name,)))
            threads[-1].start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    want = [f"Check {numeral(3000)} : Nat"] * 3, ["depth"] * 3
    assert outcomes == {"a": want, "b": want}


def test_a_command_that_runs_out_of_stack_printing_leaves_no_trace(
        monkeypatch):
    # a Check runs out of stack printing its kind: rejected, it leaves no
    # record and no line
    def print_kind(k):
        raise RecursionError

    ck = Checker()
    ck.run_text(NAT_PRELUDE)
    log = list(ck.log)
    monkeypatch.setattr(lttw.checker, "print_kind", print_kind)
    with pytest.raises(NestingTooDeep):
        ck.run_text("> Check succ zero : Nat;\n")
    assert ck.log == log and ck.output == []


def test_an_object_that_is_not_a_command_is_refused():
    ck = Checker()
    with pytest.raises(TypeError, match="not a command"):
        ck.run_command("> [Nat : Type];")
    assert ck.log == [] and ck.output == [] and ck.sig.entries == {}


def test_failed_load_leaves_the_checker_as_it_was(tmp_path):
    ck = Checker()
    ck.run_text("> [B : Type];\n")
    entries, rules, log = dict(ck.sig.entries), dict(ck.sig.rules), \
        list(ck.log)
    script = tmp_path / "partial.lf"
    script.write_text("> [A : Type];\n> [a : A];\n> [b : Nope];\n")
    with pytest.raises(UnknownConstant):
        ck.run_path(script)
    assert ck.sig.entries == entries
    assert ck.sig.rules == rules
    assert ck.log == log
    script.write_text("> [A : Type];\n> [a : A];\n> [b : A];\n")
    ck.run_path(script)
    assert {"A", "a", "b"} <= set(ck.sig.entries)


def test_load_of_a_file_that_is_not_utf8_leaves_the_checker_as_it_was(
        tmp_path):
    ck = Checker()
    ck.run_text("> [B : Type];\n")
    entries, log = dict(ck.sig.entries), list(ck.log)
    (tmp_path / "bad.lf").write_bytes(b"> [A : Type];\n> [a : \xff];\n")
    outer = tmp_path / "outer.lf"
    outer.write_text('> [C : Type];\n> Load "bad.lf";\n')
    with pytest.raises(ScriptSyntaxError) as info:
        ck.run_path(outer)
    assert str(info.value) == (f"{outer}:2:3: cannot Load 'bad.lf': "
                               "not UTF-8 text at byte 21")
    assert ck.sig.entries == entries and ck.log == log
    assert ck.loaded == set()


def test_failed_load_restores_the_budget_with_the_log(tmp_path):
    ck = Checker()
    ck.run_text(NAT_PRELUDE)
    log = list(ck.log)
    script = tmp_path / "budget.lf"
    script.write_text("> SetOption fuel 7;\n> [a : Nat];\n> [a : Nat];\n")
    with pytest.raises(DuplicateName):
        ck.run_path(script)
    assert ck.fuel == DEFAULT_FUEL
    assert ck.log == log


def test_failed_load_drops_the_output_with_the_log(tmp_path):
    ck = Checker()
    ck.run_text(NAT_PRELUDE + "> Check zero : Nat;\n")
    log, output = list(ck.log), list(ck.output)
    (tmp_path / "inner.lf").write_text(
        "> [N : Type];\n> [z : N];\n> Check z : N;\n> Check ghost;\n")
    outer = tmp_path / "outer.lf"
    outer.write_text('> Load "inner.lf";\n')
    with pytest.raises(UnknownConstant):
        ck.run_path(outer)
    assert "z" not in ck.sig.entries
    assert ck.log == log
    assert ck.output == output == ["Check zero : Nat"]


def test_failed_load_forgets_the_files_it_loaded(tmp_path):
    # the inner file's declarations are rolled back with the outer file,
    # so a second Load must run it again
    (tmp_path / "inner.lf").write_text("> [A : Type];\n")
    outer = tmp_path / "outer.lf"
    outer.write_text('> Load "inner.lf";\n> [a : A];\n> [b : Nope];\n')
    ck = Checker()
    with pytest.raises(UnknownConstant):
        ck.run_path(outer)
    assert ck.sig.entries == {} and ck.loaded == set()
    outer.write_text('> Load "inner.lf";\n> [a : A];\n')
    ck.run_path(outer)
    assert {"A", "a"} <= set(ck.sig.entries)


def test_replay_of_too_deep_a_record_is_a_typed_rejection():
    nat = ElKind(Const("N"))
    signature = [("declare", "N", TYPE), ("declare", "z", nat),
                 ("declare", "s", PiKind("_", nat, nat)),
                 ("declare", "f", PiKind("_", nat, PiKind("_", nat, nat)))]

    def tower(n, level):
        deep = Const("z")
        for _ in range(n):
            deep = level(deep)
        return deep

    # inference takes a frame for each `f` a term is the first argument of
    leading = tower(BEYOND, lambda t: App(App(Const("f"), t), Const("z")))
    with pytest.raises(NestingTooDeep) as info:
        replay(signature + [("check", leading, nat)])
    assert "record 4" in str(info.value)
    assert info.value.diagnostic.rule == "depth"
    # and none for each `s`, whose argument is its last
    numeral = tower(10**4, lambda t: App(Const("s"), t))
    sig = replay(signature + [("define", "big", numeral, nat)])
    assert sig.entries["big"].body is numeral


@pytest.mark.parametrize("n", [0, -1, "many", 2.5, True])
def test_replay_rejects_a_budget_record_that_is_not_a_positive_int(n):
    ck = Checker()
    ck.run_text(NAT_PRELUDE)
    log = ck.log[:2] + [("fuel", n)] + ck.log[2:]
    with pytest.raises(SignatureError) as info:
        replay(log)
    assert str(info.value).startswith(f"replay record 2 sets the budget "
                                      f"to {n!r}")
    assert info.value.diagnostic.rule == "replay-fuel"


def test_checker_rejects_an_unknown_prop_placement():
    with pytest.raises(ValueError, match="unknown prop placement 'tpye'"):
        Checker(prop_placement="tpye")
    with pytest.raises(ValueError, match="unknown prop placement 'tpye'"):
        load_standard(prop_placement="tpye")


@pytest.mark.parametrize("fuel", [0, -3, 2.5, True])
def test_checker_refuses_a_budget_that_replay_refuses(fuel):
    # `replay` would refuse the session's ("fuel", n) record
    with pytest.raises(ValueError, match="fuel must be a positive int"):
        Checker(fuel=fuel)


def test_load_standard_refuses_a_zero_budget():
    with pytest.raises(ValueError, match="fuel must be a positive int"):
        load_standard(fuel=0)
