"""Signature management: declarations, definitions, rewrite-rule discipline."""

import pytest

from lttw.errors import (
    AscriptionMismatch, DomainMismatch, DuplicateName, HeadNotConstant,
    IllFormedKind, IllTyped, KindMismatch, NonLinearPattern, NotFound,
    SignatureError, UnboundVariable, UnknownConstant,
)
from lttw.kernel import EMPTY_CONTEXT, Fuel, check_term, whnf
from lttw.printer import render
from lttw.signature import (
    ConstDecl, Definition, RewriteRule, Signature, commit, declare_constant,
    declare_rewrite, define, lookup, replay,
)
from lttw.syntax import (
    PROP, TYPE, App, Const, ElKind, Lam, Meta, PiKind, PrfKind, Var, alpha_eq,
    app,
)

from mini import NAT, arrow, nat_signature, numeral


def test_duplicate_name_rejected():
    sig = nat_signature()
    with pytest.raises(DuplicateName):
        declare_constant(sig, "Nat", TYPE, Fuel())
    with pytest.raises(DuplicateName):
        define(sig, "zero", Const("zero"), fuel=Fuel())


def test_define_infers_kind():
    sig = nat_signature()
    d = define(sig, "one", App(Const("succ"), Const("zero")), fuel=Fuel())
    assert isinstance(d, Definition)
    assert alpha_eq(d.kind, NAT)


def test_define_with_good_ascription():
    sig = nat_signature()
    d = define(sig, "one", App(Const("succ"), Const("zero")), NAT, fuel=Fuel())
    assert alpha_eq(d.kind, NAT)


def test_define_with_bad_ascription():
    sig = nat_signature()
    with pytest.raises(AscriptionMismatch):
        define(sig, "bad", Const("zero"), TYPE, fuel=Fuel())


def test_ascription_mismatch_is_a_kind_mismatch():
    assert issubclass(AscriptionMismatch, KindMismatch)


def test_lookup_and_not_found():
    sig = nat_signature()
    assert isinstance(lookup(sig, "Nat"), ConstDecl)
    with pytest.raises(NotFound) as info:
        lookup(sig, "missing")
    assert info.value.diagnostic.rule == "signature-declared"


def test_definitions_unfold_transparently():
    sig = nat_signature()
    define(sig, "one", App(Const("succ"), Const("zero")), fuel=Fuel())
    assert alpha_eq(whnf(sig, Const("one"), Fuel()), numeral(1))


def test_rewrite_head_must_be_constant():
    sig = nat_signature()
    with pytest.raises(HeadNotConstant):
        declare_rewrite(sig, RewriteRule(
            binders=(("x", NAT),),
            lhs=App(Var("x"), Const("zero")),
            rhs=Var("x"),
            ascription=NAT), Fuel())


def test_rewrite_head_must_not_be_definition():
    sig = nat_signature()
    define(sig, "one", App(Const("succ"), Const("zero")), fuel=Fuel())
    with pytest.raises(HeadNotConstant):
        declare_rewrite(sig, RewriteRule(
            binders=(),
            lhs=Const("one"),
            rhs=numeral(1),
            ascription=NAT), Fuel())


def test_rewrite_unknown_head():
    sig = nat_signature()
    with pytest.raises(UnknownConstant):
        declare_rewrite(sig, RewriteRule(
            binders=(),
            lhs=Const("ghost"),
            rhs=Const("zero"),
            ascription=NAT), Fuel())


def test_plain_nonlinear_pattern_rejected():
    sig = nat_signature()
    declare_constant(sig, "eat2", arrow(NAT, arrow(NAT, NAT)), Fuel())
    with pytest.raises(NonLinearPattern):
        declare_rewrite(sig, RewriteRule(
            binders=(("x", NAT),),
            lhs=app(Const("eat2"), Var("x"), Var("x")),
            rhs=Var("x"),
            ascription=NAT), Fuel())


def test_repeated_rule_binder_names_its_rule():
    sig = nat_signature()
    declare_constant(sig, "eat2", arrow(NAT, arrow(NAT, NAT)), Fuel())
    with pytest.raises(NonLinearPattern) as info:
        declare_rewrite(sig, RewriteRule(
            binders=(("x", NAT), ("x", NAT)),
            lhs=app(Const("eat2"), Var("x"), Var("x")),
            rhs=Var("x"),
            ascription=NAT), Fuel())
    assert info.value.message == "rule binders must be distinct"
    assert render(info.value.diagnostic) == "rule: rewrite-linear\nsubject: x"


def test_forced_repeat_under_constructor_allowed():
    # proj (wrap A a) with A repeated: wrap's kind forces the repeat equal
    sig = Signature()
    declare_constant(sig, "W", TYPE, Fuel())
    declare_constant(sig, "Box", arrow(TYPE, TYPE), Fuel())
    w = ElKind(Const("W"))
    declare_constant(sig, "wrap", PiKind("A", TYPE, PiKind(
        "_", ElKind(Var("A")), ElKind(App(Const("Box"), Var("A"))))), Fuel())
    declare_constant(sig, "proj", PiKind("A", TYPE, PiKind(
        "_", ElKind(App(Const("Box"), Var("A"))), ElKind(Var("A")))), Fuel())
    declare_rewrite(sig, RewriteRule(
        binders=(("A", TYPE), ("a", ElKind(Var("A")))),
        lhs=app(Const("proj"), Var("A"),
                app(Const("wrap"), Var("A"), Var("a"))),
        rhs=Var("a"),
        ascription=ElKind(Var("A"))), Fuel())
    declare_constant(sig, "w0", w, Fuel())
    got = whnf(sig, app(Const("proj"), Const("W"),
                        app(Const("wrap"), Const("W"), Const("w0"))), Fuel())
    assert alpha_eq(got, Const("w0"))


def test_repeat_across_two_constructors_rejected():
    sig = Signature()
    declare_constant(sig, "W", TYPE, Fuel())
    w = ElKind(Const("W"))
    declare_constant(sig, "k", arrow(w, w), Fuel())
    declare_constant(sig, "f", arrow(w, arrow(w, w)), Fuel())
    with pytest.raises(NonLinearPattern):
        declare_rewrite(sig, RewriteRule(
            binders=(("x", w),),
            lhs=app(Const("f"), App(Const("k"), Var("x")),
                    App(Const("k"), Var("x"))),
            rhs=Var("x"),
            ascription=w), Fuel())


def test_overlapping_rules_rejected():
    sig = nat_signature()
    declare_constant(sig, "pick", arrow(NAT, NAT), Fuel())
    declare_rewrite(sig, RewriteRule(
        binders=(("x", NAT),),
        lhs=App(Const("pick"), Var("x")),
        rhs=Var("x"),
        ascription=NAT), Fuel())
    with pytest.raises(DuplicateName):
        declare_rewrite(sig, RewriteRule(
            binders=(),
            lhs=App(Const("pick"), Const("zero")),
            rhs=Const("zero"),
            ascription=NAT), Fuel())


def test_disjoint_constructor_rules_accepted():
    # the two recursor rules in the nat signature already coexist; a third
    # with the same constructors must be rejected
    sig = nat_signature()
    with pytest.raises(DuplicateName):
        declare_rewrite(sig, RewriteRule(
            binders=(("C", arrow(NAT, TYPE)),
                     ("a", ElKind(App(Var("C"), Const("zero")))),
                     ("b", PiKind("n", NAT, arrow(
                         ElKind(App(Var("C"), Var("n"))),
                         ElKind(App(Var("C"), App(Const("succ"),
                                                  Var("n")))))))),
            lhs=app(Const("E_Nat"), Var("C"), Var("a"), Var("b"),
                    Const("zero")),
            rhs=Var("a"),
            ascription=ElKind(App(Var("C"), Const("zero")))), Fuel())


def test_rule_arity_must_be_uniform():
    sig = nat_signature()
    with pytest.raises(SignatureError):
        declare_rewrite(sig, RewriteRule(
            binders=(("C", arrow(NAT, TYPE)),
                     ("a", ElKind(App(Var("C"), Const("zero"))))),
            lhs=app(Const("E_Nat"), Var("C"), Var("a")),
            rhs=Var("a"),
            ascription=ElKind(App(Var("C"), Const("zero")))), Fuel())


def test_rule_kinds_are_checked():
    sig = nat_signature()
    declare_constant(sig, "f1", arrow(NAT, NAT), Fuel())
    with pytest.raises(KindMismatch):
        declare_rewrite(sig, RewriteRule(
            binders=(("x", NAT),),
            lhs=App(Const("f1"), Var("x")),
            rhs=Const("Nat"),  # Type-level, not Nat-level
            ascription=NAT), Fuel())


def test_rhs_variable_must_be_bound_by_pattern():
    sig = nat_signature()
    declare_constant(sig, "f2", arrow(NAT, NAT), Fuel())
    with pytest.raises(IllTyped):
        declare_rewrite(sig, RewriteRule(
            binders=(("x", NAT), ("y", NAT)),
            lhs=App(Const("f2"), Var("x")),
            rhs=Var("y"),
            ascription=NAT), Fuel())


def test_deep_patterns_rejected():
    sig = nat_signature()
    declare_constant(sig, "f3", arrow(NAT, NAT), Fuel())
    with pytest.raises(IllTyped):
        declare_rewrite(sig, RewriteRule(
            binders=(("x", NAT),),
            lhs=App(Const("f3"), App(Const("succ"),
                                     App(Const("succ"), Var("x")))),
            rhs=Var("x"),
            ascription=NAT), Fuel())


def test_counts():
    sig = nat_signature()
    assert sig.constant_count() == 4
    assert sig.rule_count() == 2


# ---------------------------------------------- replay of hand-built records
#
# Kernel-only: each log is built as syntax, so neither the parser nor the
# elaborator can mask what the signature layer and the kernel decide.

BOT = Const("bot")
BASE = [("declare", "Nat", TYPE), ("declare", "zero", NAT),
        ("declare", "bot", PROP)]
NAT_ID = Lam("x", NAT, Var("x"))
# convertible to `Nat` by one beta step, but the redex applies a function
# on `Nat` to a proposition, so the kind is ill-formed
ILL_NAT = ElKind(App(Lam("y", NAT, Const("Nat")), BOT))
TAKES_FN = ("declare", "f", arrow(arrow(NAT, NAT), NAT))


def _replay_rejection(log, error):
    with pytest.raises(error) as info:
        replay(log)
    assert type(info.value) is error
    return info.value


def _same(a, b):
    return a is b or (a is not None and b is not None and alpha_eq(a, b))


@pytest.mark.parametrize("record, error, message, rule, subject, expected, "
                         "actual", [
    (("check", Var("q"), NAT), UnboundVariable,
     "variable 'q' is not in the context", "var", Var("q"), None, None),
    (("declare", "c", ElKind(Const("zero"))), IllFormedKind,
     "only a term of kind Type can be used as a type", "el-body",
     Const("zero"), TYPE, NAT),
    (("declare", "d", PrfKind(Const("Nat"))), IllFormedKind,
     "only a term of kind Prop can be used as a proposition", "prf-body",
     Const("Nat"), PROP, TYPE),
    (("define", "e", Const("zero"), PrfKind(BOT)), AscriptionMismatch,
     "definition of 'e' does not have its ascribed kind",
     "define-ascription", Const("zero"), PrfKind(BOT), NAT),
    (("define", "e", NAT_ID, arrow(NAT, PrfKind(BOT))), AscriptionMismatch,
     "definition of 'e' does not have its ascribed kind",
     "define-ascription", NAT_ID, arrow(NAT, PrfKind(BOT)),
     PiKind("x", NAT, NAT)),
    (("define", "e", Const("zero"), PrfKind(Const("Nat"))), IllFormedKind,
     "only a term of kind Prop can be used as a proposition", "prf-body",
     Const("Nat"), PROP, TYPE),
    # the body's error stands before the ascription's
    (("define", "e", Var("q"), PrfKind(Const("Nat"))), UnboundVariable,
     "variable 'q' is not in the context", "var", Var("q"), None, None),
], ids=["var", "el-body", "prf-body", "ascription", "ascription-lambda",
        "ill-formed-ascription", "body-first"])
def test_replay_rejection_names_its_rule(record, error, message, rule,
                                         subject, expected, actual):
    e = _replay_rejection(BASE + [record], error)
    assert str(e) == message
    d = e.diagnostic
    assert d.rule == rule
    assert _same(d.subject, subject)
    assert _same(d.expected, expected)
    assert _same(d.actual, actual)


@pytest.mark.parametrize("lhs, rhs, rule", [
    (App(Const("f"), Var("x")), Meta(0), "meta"),
    (App(Const("f"), Meta(0)), Const("zero"), "rewrite-pattern"),
    (App(Const("f"), App(Const("succ"), Meta(0))), Const("zero"),
     "rewrite-pattern-depth"),
], ids=["rhs", "argument", "under-constructor"])
def test_replay_rejects_a_rule_with_a_hole(lhs, rhs, rule):
    # `_whnf` substitutes into a stored right-hand side with its own mask
    # as the keys, so no stored rule may hold a hole
    sig = nat_signature()
    declare_constant(sig, "f", arrow(NAT, NAT), Fuel())
    rules = sig.rule_count()
    record = ("rule", RewriteRule(binders=(("x", NAT),), lhs=lhs, rhs=rhs,
                                  ascription=NAT))
    with pytest.raises(IllTyped) as info:
        replay([record], sig)
    assert info.value.diagnostic.rule == rule
    assert sig.rule_count() == rules


def test_lambda_argument_with_an_ill_kinded_body_is_rejected():
    # the annotation is the domain itself, the body's kind is not
    bad = Lam("x", NAT, BOT)
    e = _replay_rejection(BASE + [TAKES_FN, ("check", App(Const("f"), bad),
                                             NAT)], DomainMismatch)
    d = e.diagnostic
    assert d.rule == "app-domain" and d.subject is bad
    assert alpha_eq(d.expected, arrow(NAT, NAT))
    assert alpha_eq(d.actual, PiKind("x", NAT, PROP))


@pytest.mark.parametrize("record", [
    ("check", App(Const("f"), Lam("x", ILL_NAT, Var("x"))), NAT),
    ("define", "g", Lam("x", ILL_NAT, Var("x")), arrow(NAT, NAT)),
], ids=["argument", "definition"])
def test_annotation_convertible_to_the_domain_is_still_validated(record):
    e = _replay_rejection(BASE + [TAKES_FN, record], DomainMismatch)
    d = e.diagnostic
    assert d.rule == "app-domain" and d.subject is BOT
    assert alpha_eq(d.expected, NAT) and alpha_eq(d.actual, PROP)


def test_check_term_validates_the_kind_it_is_given():
    # the annotation is the kind's domain itself, so checking against the
    # kind without validating it would open the lambda and accept it
    ill_id = Lam("x", ILL_NAT, Var("x"))
    with pytest.raises(DomainMismatch) as info:
        check_term(replay(BASE), EMPTY_CONTEXT, ill_id, arrow(ILL_NAT, NAT),
                   Fuel())
    assert info.value.diagnostic.rule == "app-domain"


def test_alpha_variant_annotation_is_accepted_without_revalidation():
    # validating `(m : Nat) Prf (P m)` costs one unfolding of `T`, since
    # P takes a `T`; the lambda's annotation is the domain up to renaming
    # (k for h, m for n), so it is not validated again
    def pf(v):
        return PiKind(v, NAT, PrfKind(App(Const("P"), Var(v))))

    sig = replay(BASE + [
        ("define", "T", Const("Nat"), TYPE),
        ("declare", "P", arrow(ElKind(Const("T")), PROP)),
        ("declare", "h2n", arrow(PiKind("h", pf("n"), NAT), NAT))])
    lam = Lam("k", pf("m"), Const("zero"))
    spent = []
    for record in [("check", App(Const("h2n"), lam), NAT),
                   ("define", "g", lam, PiKind("h", pf("n"), NAT))]:
        fuel = Fuel()
        commit(sig, record, fuel)
        spent.append(fuel.limit - fuel.left)
    # inferring the lambda's kind instead spends one more step on each
    # (1 and 2)
    assert spent == [0, 1]
    assert "g" in sig.entries


def test_commit_rejects_an_unknown_record():
    with pytest.raises(SignatureError) as info:
        commit(Signature(), ("mystery",), Fuel())
    assert str(info.value) == "unknown replay record 'mystery'"
    assert info.value.diagnostic.rule == "replay-record"
