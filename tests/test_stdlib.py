"""The shipped signature: counts, declared kinds, computation rules, derived
connectives, the impredicative overlay, and generated equality."""

from pathlib import Path

import pytest

from lttw import kernel
from lttw.errors import UnknownConstant
from lttw.kernel import EMPTY_CONTEXT, Fuel
from lttw.printer import print_kind
from lttw.signature import ConstDecl
from lttw.stdlib import (
    CORE_FILES, DERIVED_FILE, IMPREDICATIVE_FILE, STDLIB_DIR,
    load_core_signature, load_standard,
)
from lttw.syntax import (
    PROP, App, Const, ElKind, Lam, PiKind, TypeKind, Var,
    alpha_eq, app,
)

from categories import (
    base_nat, carrier, code, describe, enumerate_categories, equality_kind,
    fun, generate_equality, is_basic, prod, set_of,
)

GOLDEN = Path(__file__).parent / "golden" / "standard_kinds.txt"


@pytest.fixture(scope="module")
def core():
    return load_core_signature()


@pytest.fixture(scope="module")
def standard():
    return load_standard()


@pytest.fixture(scope="module")
def impredicative():
    return load_standard(mode="impredicative")


# ------------------------------------------------------------------ loading

def test_core_counts(core):
    assert core.sig.constant_count() == 38
    assert core.sig.rule_count() == 11


def test_load_order_names_every_stdlib_file_once():
    named = list(CORE_FILES) + [DERIVED_FILE, IMPREDICATIVE_FILE]
    assert sorted(named) == sorted(p.name for p in STDLIB_DIR.glob("*.lf"))


def test_declared_kinds_match_golden(core):
    lines = [f"{name} : {print_kind(e.kind)}"
             for name, e in core.sig.entries.items()
             if isinstance(e, ConstDecl)]
    golden = GOLDEN.read_text(encoding="utf-8").rstrip("\n").splitlines()
    assert lines == golden


def test_derived_layer_is_definitions_only(standard):
    assert standard.sig.constant_count() == 38
    assert standard.sig.rule_count() == 11
    assert "And" in standard.sig.entries
    assert "ex" in standard.sig.entries


def test_prop_placement_type_loads_clean():
    ck = load_standard(prop_placement="type")
    assert ck.sig.constant_count() == 38
    assert isinstance(ck.sig.entries["prop"].kind, TypeKind)


def test_impredicative_overlay_counts(impredicative):
    assert impredicative.sig.constant_count() == 40
    assert impredicative.sig.rule_count() == 13


def test_impredicative_overlay_needs_derived_layer():
    ck = load_core_signature()
    with pytest.raises(UnknownConstant):
        ck.run_path(STDLIB_DIR / IMPREDICATIVE_FILE)


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        load_standard(mode="classical")
    with pytest.raises(ValueError):
        load_standard(prop_placement="kind")


# ------------------------------------------------- the definitional equality

def rule_instances(ck):
    """The session's rules as written: its log's rule records."""
    for record in ck.log:
        if record[0] == "rule":
            yield record[1]


def test_each_rule_holds_by_reduction(core):
    sig = core.sig
    seen = 0
    for src in rule_instances(core):
        ctx = EMPTY_CONTEXT
        for x, k in src.binders:
            ctx = ctx.extend(x, k)
        reduced = kernel.whnf(sig, src.lhs, Fuel())
        assert not alpha_eq(reduced, src.lhs), src
        assert kernel.convertible(sig, ctx, reduced, src.rhs, src.ascription,
                                  Fuel())
        seen += 1
    assert seen == 11
    assert sig.rule_count() == 11


def test_overlay_rules_hold_by_reduction(impredicative):
    sig = impredicative.sig
    seen = 0
    for src in rule_instances(impredicative):
        ctx = EMPTY_CONTEXT
        for x, k in src.binders:
            ctx = ctx.extend(x, k)
        assert kernel.convertible(sig, ctx, kernel.whnf(sig, src.lhs, Fuel()),
                                  src.rhs, src.ascription, Fuel())
        seen += 1
    assert seen == 13
    assert sig.rule_count() == 13


def test_beta_holds(core):
    sig = core.sig
    redex = App(Lam("x", ElKind(Const("Nat")),
                    App(Const("succ"), Var("x"))), Const("zero"))
    assert alpha_eq(kernel.whnf(sig, redex, Fuel()),
                    App(Const("succ"), Const("zero")))


def test_eta_holds(core):
    sig = core.sig
    fk = PiKind("_", ElKind(Const("Nat")), ElKind(Const("Nat")))
    ctx = EMPTY_CONTEXT.extend("g", fk)
    expanded = Lam("x", ElKind(Const("Nat")), App(Var("g"), Var("x")))
    assert kernel.convertible(sig, ctx, expanded, Var("g"), fk, Fuel())


# -------------------------------------------------------- derived decodings

def test_derived_kinds(standard):
    sig = standard.sig
    assert print_kind(sig.entries["AndE1"].kind) == \
        "(p : Prop) (q : Prop) Prf (And p q) -> Prf p"
    assert print_kind(sig.entries["ExI"].kind) == \
        "(A : Type) (P : A -> Prop) (a : A) Prf (P a) -> Prf (Ex A P)"
    assert print_kind(sig.entries["DNE"].kind) == \
        "(p : Prop) Prf (Not (Not p)) -> Prf p"


def prop_name_kind(sig):
    return kernel.infer_kind(sig, EMPTY_CONTEXT, Const("hatBot"), Fuel())


def test_v_decodes_binary_connectives(standard):
    sig = standard.sig
    pk = prop_name_kind(sig)
    ctx = EMPTY_CONTEXT.extend("p", pk).extend("q", pk)
    for name, meaning in (("and", "And"), ("or", "Or"), ("iff", "Iff")):
        decoded = App(Const("V"), app(Const(name), Var("p"), Var("q")))
        target = app(Const(meaning), App(Const("V"), Var("p")),
                     App(Const("V"), Var("q")))
        assert kernel.convertible(sig, ctx, decoded, target, PROP,
                                  Fuel()), name


def test_v_decodes_not_and_top(standard):
    sig = standard.sig
    ctx = EMPTY_CONTEXT.extend("p", prop_name_kind(sig))
    decoded = App(Const("V"), App(Const("not"), Var("p")))
    target = App(Const("Not"), App(Const("V"), Var("p")))
    assert kernel.convertible(sig, ctx, decoded, target, PROP, Fuel())
    assert kernel.convertible(sig, EMPTY_CONTEXT,
                              App(Const("V"), Const("top")),
                              Const("Top"), PROP, Fuel())


def test_v_decodes_existence(standard):
    sig = standard.sig
    ta = ElKind(App(Const("T"), Var("a")))
    ctx = (EMPTY_CONTEXT.extend("a", ElKind(Const("U")))
           .extend("P", PiKind("_", ta, prop_name_kind(sig))))
    decoded = App(Const("V"), app(Const("ex"), Var("a"), Var("P")))
    target = app(Const("Ex"), App(Const("T"), Var("a")),
                 Lam("x", ta, App(Const("V"), App(Var("P"), Var("x")))))
    assert kernel.convertible(sig, ctx, decoded, target, PROP, Fuel())


def test_membership_computes(standard):
    sig = standard.sig
    pred = Lam("n", ElKind(Const("Nat")), Const("hatBot"))
    member = app(Const("In"), Const("Nat"), Const("zero"),
                 app(Const("set"), Const("Nat"), pred))
    assert kernel.convertible(sig, EMPTY_CONTEXT, member, Const("bot"), PROP,
                              Fuel())


def test_overlay_decodes_over_a_set_type(impredicative):
    sig = impredicative.sig
    sn = ElKind(App(Const("Set"), Const("Nat")))
    ctx = EMPTY_CONTEXT.extend("Q", PiKind("_", sn, prop_name_kind(sig)))
    decoded = App(Const("V"), app(Const("barForall"),
                                  App(Const("Set"), Const("Nat")), Var("Q")))
    target = app(Const("forall"), App(Const("Set"), Const("Nat")),
                 Lam("x", sn, App(Const("V"), App(Var("Q"), Var("x")))))
    assert kernel.convertible(sig, ctx, decoded, target, PROP, Fuel())


# -------------------------------------------------------- equality generator

def test_category_helpers():
    n = base_nat()
    c = prod(n, fun(n, n))
    assert describe(c) == "Times(Nat,Arrow(Nat,Nat))"
    assert alpha_eq(carrier(c), app(Const("Times"), Const("Nat"),
                                    app(Const("Arrow"), Const("Nat"),
                                        Const("Nat"))))
    assert is_basic(prod(n, prod(n, n)))
    assert not is_basic(fun(n, n))
    assert not is_basic(prod(n, set_of(n)))
    assert alpha_eq(code(prod(n, n)),
                    app(Const("hatTimes"), Const("hatNat"), Const("hatNat")))
    with pytest.raises(ValueError):
        code(set_of(n))


def test_enumerate_counts():
    # closing {Nat} under prod/fun/set: 1, then 1+2+1, then 1+16+16+4
    assert len(enumerate_categories(0)) == 1
    assert len(enumerate_categories(1)) == 4
    assert len(enumerate_categories(2)) == 37


def test_basic_categories_reuse_declared_equality(standard):
    n = base_nat()
    eq = generate_equality(standard.sig, prod(n, n))
    assert isinstance(eq, Lam)
    body = eq.body.body
    head = body
    while isinstance(head, App):
        head = head.fn
    assert alpha_eq(head, Const("Eq"))


@pytest.mark.parametrize("cat", enumerate_categories(2), ids=describe)
def test_generated_equality_kind_checks(standard, cat):
    eq = generate_equality(standard.sig, cat)
    kernel.check_term(standard.sig, EMPTY_CONTEXT, eq, equality_kind(cat),
                      Fuel())


def test_generated_equality_under_type_placement():
    ck = load_standard(prop_placement="type")
    for cat in enumerate_categories(2):
        eq = generate_equality(ck.sig, cat)
        kernel.check_term(ck.sig, EMPTY_CONTEXT, eq, equality_kind(cat),
                          Fuel())


def test_generated_equality_is_reflexive_where_it_computes(standard):
    # at Set(Nat): both projections of membership coincide syntactically,
    # so the generated statement instantiates to forall of Iff of one prop
    sig = standard.sig
    cat = set_of(base_nat())
    eq = generate_equality(sig, cat)
    x = app(Const("set"), Const("Nat"),
            Lam("n", ElKind(Const("Nat")), Const("hatBot")))
    stated = app(eq, x, x)
    target = app(Const("forall"), Const("Nat"),
                 Lam("v", ElKind(Const("Nat")),
                     app(Const("Iff"), Const("bot"), Const("bot"))))
    assert kernel.convertible(sig, EMPTY_CONTEXT, stated, target, PROP, Fuel())
