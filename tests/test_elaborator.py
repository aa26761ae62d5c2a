"""Elaboration: name resolution, hole solving, kind coercion."""

import pytest

from mini import NAT, arrow, define_plus, numeral, universe_signature
from lttw.elaborator import (
    Elaborator, MetaState, Mismatch, OccursCheck, ScopeEscape,
    UnificationFailure, UnsolvedMeta, elaborate, elaborate_kind, unify,
)
from lttw.errors import (
    IllFormedKind, KindMismatch, NestingTooDeep, NotAProduct, UnknownConstant,
)
from lttw.kernel import EMPTY_CONTEXT, Fuel, equal_kinds, infer_kind
from lttw.parser import parse_kind, parse_term
from lttw.signature import declare_constant
from lttw.syntax import (
    PROP, TYPE, App, Const, ElKind, Kind, Lam, PiKind, PrfKind, Term, Var,
    alpha_eq, app,
)


@pytest.fixture(scope="module")
def sig():
    s = universe_signature()
    define_plus(s)
    return s


def elab(sig, text, expected=None, ctx=EMPTY_CONTEXT):
    return elaborate(sig, ctx, parse_term(text), expected, fuel=Fuel())


# ----------------------------------------------------------- resolution

def test_constant_and_bound_resolution(sig):
    ctx = EMPTY_CONTEXT.extend("zeroish", NAT)
    t = elab(sig, "plus zeroish zero", ctx=ctx)
    assert alpha_eq(t, app(Const("plus"), Var("zeroish"), Const("zero")))


def test_unknown_name(sig):
    with pytest.raises(UnknownConstant) as e:
        elab(sig, "mystery")
    assert e.value.span is not None


def test_binder_shadows_constant(sig):
    t = elab(sig, "[zero : Nat] succ zero")
    assert isinstance(t, Lam)
    assert alpha_eq(t, Lam("z", NAT, App(Const("succ"), Var("z"))))


def test_shadowed_context_binder_is_renamed(sig):
    ctx = EMPTY_CONTEXT.extend("n", NAT)
    t = elab(sig, "[n : Nat] plus n n", ctx=ctx)
    assert isinstance(t, Lam) and t.var != "n"
    assert alpha_eq(t, Lam("m", NAT, app(Const("plus"), Var("m"),
                                         Var("m"))))
    assert equal_kinds(sig, ctx, infer_kind(sig, ctx, t, Fuel()),
                       arrow(NAT, NAT), Fuel())


# ------------------------------------------------------------- checking

def test_lambda_annotation_from_expected(sig):
    t = elab(sig, "[n] succ n", expected=arrow(NAT, NAT))
    assert isinstance(t, Lam)
    assert alpha_eq(t.ann, NAT)


def test_unannotated_binder_needs_expected(sig):
    with pytest.raises(UnsolvedMeta):
        elab(sig, "[n] succ n")


def test_wrong_argument_kind_is_kernel_rejection(sig):
    with pytest.raises(KindMismatch):
        elab(sig, "succ bot")


def test_too_many_arguments(sig):
    with pytest.raises(NotAProduct):
        elab(sig, "zero zero")


def test_lambda_against_non_product(sig):
    with pytest.raises(KindMismatch):
        elab(sig, "[n : Nat] n", expected=NAT)


def test_expected_kind_accepts_after_reduction(sig):
    # T hatNat reduces to Nat, so zero checks against El (T hatNat)
    t = elab(sig, "zero",
             expected=ElKind(App(Const("T"), Const("hatNat"))))
    assert alpha_eq(t, Const("zero"))


def test_public_expected_mismatch(sig):
    with pytest.raises(KindMismatch):
        elab(sig, "zero", expected=PROP)


# ---------------------------------------------------------- hole solving

def _nat_eq_nat(n):
    return PrfKind(app(Const("Eq"), Const("hatNat"), n, n))


def _hyp(prop):
    return EMPTY_CONTEXT.extend("h", PrfKind(prop))


_FORALL_Q = app(Const("forallc"), Const("Nat"), Lam(
    "x", NAT, App(Const("V"), App(Const("q"), Var("x")))))


@pytest.mark.parametrize("text, expected, ctx", [
    # T ?A ~ Nat: the code behind the decoding rule is not inverted
    ("EqI ? zero", None, EMPTY_CONTEXT),
    # T ?A ~ Times Nat Nat, one rule deeper
    ("EqI ? pp", None, EMPTY_CONTEXT),
    # n is checked at T ?A before the expected kind could fix ?A, and its
    # own kind T hatNat is met reduced, as Nat
    ("[n] EqI ? n",
     PiKind("n", ElKind(App(Const("T"), Const("hatNat"))),
            _nat_eq_nat(Var("n"))), EMPTY_CONTEXT),
    # V ?p ~ bot, imp bot bot and a quantifier: reflection is not inverted
    ("lemma ? h", None, _hyp(Const("bot"))),
    ("lemma ? h", None, _hyp(app(Const("imp"), Const("bot"), Const("bot")))),
    ("lemma ? h", None, _hyp(_FORALL_Q)),
], ids=["decoding", "nested", "same-head-argument", "reflected-bottom",
        "reflected-implication", "reflected-quantifier"])
def test_hole_behind_a_rule_head_is_not_inverted(sig, text, expected, ctx):
    with pytest.raises(Mismatch) as e:
        elab(sig, text, expected, ctx)
    assert e.value.diagnostic.rule == "unify-rigid"
    assert e.value.span is not None


def test_hole_underdetermined(sig):
    with pytest.raises(UnsolvedMeta):
        elab(sig, "plus ? zero")
    with pytest.raises(UnsolvedMeta):
        elab(sig, "?", expected=NAT)


def test_elaborated_result_rechecks_pure(sig):
    t = elab(sig, "EqI hatNat ?", expected=_nat_eq_nat(Const("zero")))
    assert alpha_eq(t, app(Const("EqI"), Const("hatNat"), Const("zero")))
    k = infer_kind(sig, EMPTY_CONTEXT, t, Fuel())  # kernel alone, no holes
    assert equal_kinds(sig, EMPTY_CONTEXT, k, _nat_eq_nat(Const("zero")),
                       Fuel())


# ------------------------------------------------------------------ zonk

def _subterms(e):
    todo = [e]
    while todo:
        e = todo.pop()
        yield e
        todo += (f for f in e[:-1] if isinstance(f, (Term, Kind)))


# each node class a hole can occur in, holding `solved` and a child `kept`
# that zonk must leave as it is
HOLDERS = {
    "App": lambda solved, kept: App(kept, solved),
    "Lam": lambda solved, kept: Lam("x", ElKind(kept), solved),
    "ElKind": lambda solved, kept: ElKind(App(kept, solved)),
    "PrfKind": lambda solved, kept: PrfKind(App(kept, solved)),
    "PiKind": lambda solved, kept: PiKind("x", ElKind(kept), PrfKind(solved)),
}


@pytest.mark.parametrize("holder", HOLDERS.values(), ids=HOLDERS)
def test_zonk_fills_solutions_and_shares_what_it_leaves(holder):
    st = MetaState()
    solved, left = st.fresh(EMPTY_CONTEXT), st.fresh(EMPTY_CONTEXT)
    st.solutions[solved.ident] = Const("zero")
    # a child with a hole but no solution: walked, and not copied
    kept = App(Const("succ"), left)
    e = holder(solved, kept)
    got = st.zonk(e)
    assert alpha_eq(got, holder(Const("zero"), kept))
    assert any(sub is kept for sub in _subterms(got))
    unsolved = holder(left, kept)
    assert st.zonk(unsolved) is unsolved
    closed = holder(Const("zero"), App(Const("succ"), Const("zero")))
    assert st.zonk(closed) is closed


# ----------------------------------------------------------- unification

def test_occurs_check(sig):
    st = MetaState()
    m = st.fresh(EMPTY_CONTEXT)
    with pytest.raises(OccursCheck):
        unify(sig, EMPTY_CONTEXT, m, App(Const("succ"), m), None, st, Fuel())


def test_scope_escape(sig):
    st = MetaState()
    m = st.fresh(EMPTY_CONTEXT)  # scope: nothing
    ctx = EMPTY_CONTEXT.extend("x", NAT)
    with pytest.raises(ScopeEscape):
        unify(sig, ctx, m, App(Const("succ"), Var("x")), None, st, Fuel())


def test_rigid_mismatch(sig):
    st = MetaState()
    with pytest.raises(Mismatch):
        unify(sig, EMPTY_CONTEXT, Const("zero"),
              App(Const("succ"), Const("zero")), None, st, Fuel())


def test_solution_is_final(sig):
    st = MetaState()
    m = st.fresh(EMPTY_CONTEXT)
    unify(sig, EMPTY_CONTEXT, m, Const("zero"), None, st, Fuel())
    assert alpha_eq(st.solutions[m.ident], Const("zero"))
    with pytest.raises(Mismatch):
        unify(sig, EMPTY_CONTEXT, m, App(Const("succ"), Const("zero")),
              None, st, Fuel())


def test_unification_eta_expands_only_at_a_product(sig):
    # a hole under a binder unifies at the product kind both sides have;
    # at no kind, two lambdas are not compared at all
    st = MetaState()
    m = st.fresh(EMPTY_CONTEXT)
    unify(sig, EMPTY_CONTEXT, Lam("x", NAT, m), Lam("x", NAT, Const("zero")),
          arrow(NAT, NAT), st, Fuel())
    assert alpha_eq(st.solutions[m.ident], Const("zero"))
    st = MetaState()
    m = st.fresh(EMPTY_CONTEXT)
    with pytest.raises(Mismatch):
        unify(sig, EMPTY_CONTEXT, Lam("x", NAT, m),
              Lam("x", NAT, Const("zero")), None, st, Fuel())
    # a bare hole is solved as it stands, before eta would bury it
    st = MetaState()
    m = st.fresh(EMPTY_CONTEXT)
    unify(sig, EMPTY_CONTEXT, m, Const("succ"), arrow(NAT, NAT), st, Fuel())
    assert st.solutions[m.ident] == Const("succ")


def test_flex_flex_postpones_then_reports(sig):
    el = Elaborator(sig, Fuel())
    m1 = el.state.fresh(EMPTY_CONTEXT)
    m2 = el.state.fresh(EMPTY_CONTEXT)
    el._unify(EMPTY_CONTEXT, App(m1, Const("zero")),
              App(m2, Const("zero")), None, None)
    assert el.state.queue
    with pytest.raises(UnificationFailure):
        el.finish_term(App(m1, Const("zero")))


def test_same_hole_on_both_sides_is_postponed_until_solved(sig):
    # ?m zero ~ ?m (succ zero) is solvable by ?m := [_ : Nat] zero, so it
    # waits instead of demanding zero ~ succ zero; solving ?m later
    # discharges it
    el = Elaborator(sig, Fuel())
    m = el.state.fresh(EMPTY_CONTEXT)
    el.unify(EMPTY_CONTEXT, App(m, Const("zero")),
             App(m, App(Const("succ"), Const("zero"))), NAT)
    assert el.state.queue and m.ident not in el.state.solutions
    constant = Lam("x", NAT, Const("zero"))
    el.unify(EMPTY_CONTEXT, m, constant, arrow(NAT, NAT))
    assert alpha_eq(el.state.solutions[m.ident], constant)
    assert el.state.queue == []


def test_unify_kinds_at_a_product(sig):
    # binder names differ, the domain holds a hole and the codomain
    # depends on the binder
    def eq_zero(a, b):
        return PrfKind(app(Const("Eq"), Const("hatNat"), a, b))

    el = Elaborator(sig, Fuel())
    hole = el.state.fresh(EMPTY_CONTEXT)
    el.unify_kinds(EMPTY_CONTEXT,
                   PiKind("x", ElKind(hole), eq_zero(Var("x"), Const("zero"))),
                   PiKind("y", NAT, eq_zero(Var("y"), Const("zero"))), None)
    assert alpha_eq(el.state.solutions[hole.ident], Const("Nat"))
    el = Elaborator(sig, Fuel())
    hole = el.state.fresh(EMPTY_CONTEXT)
    with pytest.raises(Mismatch):
        el.unify_kinds(
            EMPTY_CONTEXT,
            PiKind("x", ElKind(hole), eq_zero(Var("x"), Const("zero"))),
            PiKind("y", NAT, eq_zero(Const("zero"), Var("y"))), None)


def test_unify_kinds_under_a_product_over_a_sort(sig):
    # the domains are the same sort, and the codomains solve the hole
    def family(b):
        return PiKind("A", TYPE, ElKind(app(Const("Times"), Var("A"), b)))

    el = Elaborator(sig, Fuel())
    hole = el.state.fresh(EMPTY_CONTEXT)
    el.unify_kinds(EMPTY_CONTEXT, family(hole), family(Const("Nat")), None)
    assert alpha_eq(el.state.solutions[hole.ident], Const("Nat"))


def test_unification_respects_reduction(sig):
    # plus 2 2 and 4 unify with a hole inside one side's argument
    st = MetaState()
    m = st.fresh(EMPTY_CONTEXT)
    lhs = app(Const("plus"), numeral(2), m)
    unify(sig, EMPTY_CONTEXT, lhs, numeral(4), None, st, Fuel())
    assert alpha_eq(st.zonk(m), numeral(2))
    from lttw.kernel import normalize
    assert alpha_eq(normalize(sig, st.zonk(lhs), Fuel()), numeral(4))


# -------------------------------------------------------- kind coercion

def test_term_coerced_to_prf(sig):
    k = elaborate_kind(sig, EMPTY_CONTEXT, parse_kind("bot"), Fuel())
    assert alpha_eq(k, PrfKind(Const("bot")))


def test_term_coerced_to_el_inside_arrow(sig):
    k = elaborate_kind(sig, EMPTY_CONTEXT, parse_kind("Nat -> Nat"), Fuel())
    assert alpha_eq(k, arrow(NAT, NAT))


def test_lowercase_kind_keywords_still_work(sig):
    k = elaborate_kind(sig, EMPTY_CONTEXT, parse_kind("El Nat -> Prf bot"),
                       Fuel())
    assert alpha_eq(k, arrow(NAT, PrfKind(Const("bot"))))


def test_non_type_term_rejected_as_kind(sig):
    with pytest.raises(IllFormedKind):
        elaborate_kind(sig, EMPTY_CONTEXT, parse_kind("zero"), Fuel())


def test_dependent_kind_elaboration(sig):
    k = elaborate_kind(sig, EMPTY_CONTEXT,
                       parse_kind("(A : U) T A -> T A -> Prop"), Fuel())
    assert isinstance(k, PiKind) and k.var == "A"
    assert alpha_eq(k.domain, ElKind(Const("U")))
    inner = k.codomain
    assert alpha_eq(inner.domain, ElKind(App(Const("T"), Var("A"))))


# ------------------------------------------------------------- deep input

def test_both_entry_points_reject_too_deep_a_term():
    # nested 2000 deep through a leading argument, elaboration overflows
    # the stack: a NestingTooDeep, as a checker command gives, and not a
    # RecursionError
    sig = universe_signature()
    declare_constant(sig, "f", arrow(NAT, arrow(NAT, NAT)), Fuel())
    deep = "f (" * 2000 + "zero" + ") zero" * 2000
    for run in (lambda: elaborate(sig, EMPTY_CONTEXT, parse_term(deep),
                                  fuel=Fuel()),
                lambda: elaborate_kind(sig, EMPTY_CONTEXT,
                                       parse_kind(f"El ({deep})"), Fuel())):
        with pytest.raises(NestingTooDeep) as info:
            run()
        assert info.value.message == "command nests too deeply to check"
        assert info.value.diagnostic.rule == "depth"
