"""Kernel: reduction, convertibility, inference.

Expected values are machine arithmetic (for numeral tests) or single
hand-derived reduction steps spelled out next to the assertion.
"""

import ast
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import lttw
from lttw.corpus import CORPUS_DIR
from lttw.errors import (
    DomainMismatch, DuplicateVariable, FuelExhausted, IllFormedKind,
    IllTyped, KindMismatch, NotAProduct, UnboundVariable, UnknownConstant,
)
from lttw.kernel import (
    EMPTY_CONTEXT, Fuel, check_context, check_kind_valid, convertible,
    equal_kinds, infer_kind, normalize, whnf,
)
from lttw.printer import render
from lttw.signature import RewriteRule, declare_constant, declare_rewrite
from lttw.stdlib import load_standard
from lttw.syntax import (
    TYPE, App, Const, ElKind, Lam, Meta, PiKind, Var, alpha_eq, app,
    free_vars,
)

from mini import NAT, arrow, const_nat_family, define_mult, define_plus, \
    nat_signature, numeral

CASES = settings(max_examples=500, deadline=None, derandomize=True)


@pytest.fixture(scope="module")
def sig():
    s = nat_signature()
    define_plus(s)
    define_mult(s)
    return s


# ------------------------------------------------------------- reduction

def test_whnf_beta_step(sig):
    t = App(Lam("x", NAT, Var("x")), Const("zero"))
    assert alpha_eq(whnf(sig, t, Fuel()), Const("zero"))


def test_whnf_stops_at_constructor(sig):
    # whnf must not reduce under succ: plus zero zero stays unreduced inside
    inner = app(Const("plus"), Const("zero"), Const("zero"))
    t = App(Const("succ"), inner)
    w = whnf(sig, t, Fuel())
    assert isinstance(w, App)
    assert alpha_eq(w, t)  # already weak-head normal


def test_whnf_fires_zero_rule(sig):
    # E_Nat C a b zero -> a, one step at the head
    t = app(Const("E_Nat"), const_nat_family(), numeral(3),
            Lam("_", NAT, Lam("r", NAT, App(Const("succ"), Var("r")))),
            Const("zero"))
    assert alpha_eq(whnf(sig, t, Fuel()), numeral(3))


def test_whnf_fires_succ_rule_once(sig):
    # E_Nat C a b (succ zero) -> b zero (E_Nat C a b zero) -> ... whnf
    # continues to the head constructor: succ (E_Nat C a b zero)
    b = Lam("_", NAT, Lam("r", NAT, App(Const("succ"), Var("r"))))
    t = app(Const("E_Nat"), const_nat_family(), Const("zero"), b, numeral(1))
    w = whnf(sig, t, Fuel())
    assert isinstance(w, App)
    head, args = w.fn, w.arg
    assert alpha_eq(head, Const("succ"))


def test_whnf_unfolds_definitions(sig):
    # plus is a definition; its unfolding exposes the E_Nat redex
    t = app(Const("plus"), numeral(0), numeral(2))
    w = whnf(sig, t, Fuel())
    assert isinstance(w, App)
    assert alpha_eq(w, numeral(2))


@CASES
@given(st.integers(0, 9), st.integers(0, 9))
def test_plus_matches_machine(m, n):
    s = nat_signature()
    define_plus(s)
    assert alpha_eq(normalize(s, app(Const("plus"), numeral(m), numeral(n)),
                              Fuel()),
                    numeral(m + n))


@CASES
@given(st.integers(0, 6), st.integers(0, 6))
def test_mult_matches_machine(m, n):
    s = nat_signature()
    define_plus(s)
    define_mult(s)
    assert alpha_eq(normalize(s, app(Const("mult"), numeral(m), numeral(n)),
                              Fuel()),
                    numeral(m * n))


def test_fuel_exhausted_on_looping_rule():
    sig = nat_signature()
    declare_constant(sig, "omega", arrow(NAT, NAT), Fuel())
    declare_rewrite(sig, RewriteRule(
        binders=(("x", NAT),),
        lhs=app(Const("omega"), Var("x")),
        rhs=app(Const("omega"), Var("x")),
        ascription=NAT), Fuel())
    with pytest.raises(FuelExhausted):
        whnf(sig, app(Const("omega"), Const("zero")), fuel=Fuel(1000))


def test_fuel_is_shared_across_nested_reduction(sig):
    big = app(Const("mult"), numeral(6), numeral(6))
    with pytest.raises(FuelExhausted):
        normalize(sig, big, fuel=Fuel(10))
    assert alpha_eq(normalize(sig, big, fuel=Fuel(100000)), numeral(36))


# ------------------------------------------- well-kinded term generation

def nat_terms(depth):
    """Terms of kind Nat, well-kinded by construction."""
    if depth <= 0:
        return st.integers(0, 3).map(numeral)
    sub = nat_terms(depth - 1)
    return st.one_of(
        st.integers(0, 3).map(numeral),
        st.builds(lambda a, b: app(Const("plus"), a, b), sub, sub),
        st.builds(lambda a: App(Const("succ"), a), sub),
        st.builds(lambda a: App(Lam("q", NAT, Var("q")), a), sub),
        st.builds(lambda a, b: app(
            Const("E_Nat"), const_nat_family(), a,
            Lam("_", NAT, Lam("r", NAT, App(Const("succ"), Var("r")))), b),
            sub, sub),
    )


well_kinded = nat_terms(3)


@CASES
@given(well_kinded)
def test_generated_terms_are_well_kinded(t):
    s = nat_signature()
    define_plus(s)
    assert isinstance(infer_kind(s, EMPTY_CONTEXT, t, Fuel()), ElKind)


@CASES
@given(well_kinded)
def test_whnf_idempotent(t):
    s = nat_signature()
    define_plus(s)
    w = whnf(s, t, Fuel())
    assert alpha_eq(whnf(s, w, Fuel()), w)


@CASES
@given(well_kinded)
def test_subject_reduction(t):
    s = nat_signature()
    define_plus(s)
    before = infer_kind(s, EMPTY_CONTEXT, t, Fuel())
    after = infer_kind(s, EMPTY_CONTEXT, whnf(s, t, Fuel()), Fuel())
    assert equal_kinds(s, EMPTY_CONTEXT, before, after, Fuel())


@CASES
@given(well_kinded)
def test_convertibility_reflexive_and_stable_under_expansion(t):
    s = nat_signature()
    define_plus(s)
    assert convertible(s, EMPTY_CONTEXT, t, t, NAT, Fuel())
    # beta-expansion preserves convertibility
    b = App(Lam("q", NAT, Var("q")), t)
    assert convertible(s, EMPTY_CONTEXT, t, b, NAT, Fuel())
    assert convertible(s, EMPTY_CONTEXT, b, t, NAT, Fuel())


@CASES
@given(well_kinded, well_kinded)
def test_convertibility_symmetric(a, b):
    s = nat_signature()
    define_plus(s)
    assert (convertible(s, EMPTY_CONTEXT, a, b, NAT, Fuel())
            == convertible(s, EMPTY_CONTEXT, b, a, NAT, Fuel()))


@CASES
@given(well_kinded, well_kinded, well_kinded)
def test_convertibility_transitive(a, b, c):
    s = nat_signature()
    define_plus(s)
    if (convertible(s, EMPTY_CONTEXT, a, b, NAT, Fuel())
            and convertible(s, EMPTY_CONTEXT, b, c, NAT, Fuel())):
        assert convertible(s, EMPTY_CONTEXT, a, c, NAT, Fuel())


# ---------------------------------------------------------------- eta

def test_eta_at_product_kind(sig):
    declare_constant(sig, "g", arrow(NAT, NAT), Fuel())
    expanded = Lam("x", NAT, App(Const("g"), Var("x")))
    assert convertible(sig, EMPTY_CONTEXT, expanded, Const("g"),
                       PiKind("x", NAT, NAT), Fuel())
    assert convertible(sig, EMPTY_CONTEXT, Const("g"), expanded,
                       PiKind("x", NAT, NAT), Fuel())


def test_eta_nested(sig):
    two = PiKind("x", NAT, PiKind("y", NAT, NAT))
    declare_constant(sig, "g2", two, Fuel())
    expanded = Lam("a", NAT, Lam("b", NAT,
                                 app(Const("g2"), Var("a"), Var("b"))))
    assert convertible(sig, EMPTY_CONTEXT, expanded, Const("g2"), two, Fuel())


def test_eta_only_at_the_product_kind_compared_at(sig):
    # the kind both sides have steers the comparison: at Nat -> Nat the
    # eta-expansion of f is f; at None there is no eta, and a lambda meets
    # a constant head, which no well-typed pair at a non-product kind does
    declare_constant(sig, "f", arrow(NAT, NAT), Fuel())
    expanded = Lam("x", NAT, App(Const("f"), Var("x")))
    assert convertible(sig, EMPTY_CONTEXT, expanded, Const("f"),
                       arrow(NAT, NAT), Fuel())
    assert not convertible(sig, EMPTY_CONTEXT, expanded, Const("f"), None,
                           Fuel())


def test_distinct_constructors_not_convertible(sig):
    assert not convertible(sig, EMPTY_CONTEXT, Const("zero"),
                           App(Const("succ"), Const("zero")), NAT, Fuel())


# ------------------------------------------------------------ inference

def test_infer_numeral(sig):
    k = infer_kind(sig, EMPTY_CONTEXT, numeral(4), Fuel())
    assert equal_kinds(sig, EMPTY_CONTEXT, k, NAT, Fuel())


def test_infer_plus_kind(sig):
    k = infer_kind(sig, EMPTY_CONTEXT, Const("plus"), Fuel())
    assert equal_kinds(sig, EMPTY_CONTEXT, k, arrow(NAT, arrow(NAT, NAT)),
                       Fuel())


def test_infer_unbound_variable(sig):
    with pytest.raises(UnboundVariable):
        infer_kind(sig, EMPTY_CONTEXT, Var("nowhere"), Fuel())


def test_infer_unknown_constant(sig):
    with pytest.raises(UnknownConstant):
        infer_kind(sig, EMPTY_CONTEXT, Const("nowhere"), Fuel())


def test_infer_not_a_product(sig):
    with pytest.raises(NotAProduct):
        infer_kind(sig, EMPTY_CONTEXT, App(Const("zero"), Const("zero")),
                   Fuel())


def test_infer_domain_mismatch(sig):
    with pytest.raises(DomainMismatch):
        infer_kind(sig, EMPTY_CONTEXT, App(Const("succ"), Const("Nat")),
                   Fuel())


def test_domain_mismatch_diagnostic_names_rule(sig):
    try:
        infer_kind(sig, EMPTY_CONTEXT, App(Const("succ"), Const("Nat")),
                   Fuel())
    except DomainMismatch as e:
        assert e.diagnostic is not None
        assert e.diagnostic.rule == "app-domain"
        assert e.diagnostic.expected is not None
    else:
        raise AssertionError("expected DomainMismatch")


# A spine is checked argument by argument against the head's kind,
# instantiated with the arguments before: the diagnostics show that kind.
def _diagnostic(sig, t, error):
    with pytest.raises(error) as info:
        infer_kind(sig, EMPTY_CONTEXT, t, Fuel())
    return info.value.diagnostic


def test_spine_diagnostics_at_the_second_argument(sig):
    d = _diagnostic(sig, app(Const("succ"), Const("zero"), Const("zero"),
                             Const("zero")), NotAProduct)
    assert d.rule == "app-fn"
    assert alpha_eq(d.subject, App(Const("succ"), Const("zero")))
    assert alpha_eq(d.actual, NAT)
    family = const_nat_family()
    d = _diagnostic(sig, app(Const("E_Nat"), family, Const("Nat"),
                             Const("zero")), DomainMismatch)
    assert d.rule == "app-domain"
    assert alpha_eq(d.subject, Const("Nat"))
    assert alpha_eq(d.expected, ElKind(App(family, Const("zero"))))
    assert alpha_eq(d.actual, TYPE)


def test_spine_diagnostics_at_the_third_argument():
    s = nat_signature()
    # pick : (C : Nat -> Type) (n : Nat) El (C n)
    pick_kind = ElKind(App(Var("C"), Var("n")))
    declare_constant(s, "pick", PiKind("C", arrow(NAT, TYPE),
                                       PiKind("n", NAT, pick_kind)), Fuel())
    family = const_nat_family()
    d = _diagnostic(s, app(Const("pick"), family, Const("zero"),
                           Const("zero")), NotAProduct)
    assert d.rule == "app-fn"
    assert alpha_eq(d.subject, app(Const("pick"), family, Const("zero")))
    assert alpha_eq(d.actual, ElKind(App(family, Const("zero"))))
    d = _diagnostic(s, app(Const("E_Nat"), family, Const("zero"),
                           Const("zero")), DomainMismatch)
    assert d.rule == "app-domain"
    assert alpha_eq(d.subject, Const("zero"))
    c_n = ElKind(App(family, Var("n")))
    c_sn = ElKind(App(family, App(Const("succ"), Var("n"))))
    assert alpha_eq(d.expected, PiKind("n", NAT, arrow(c_n, c_sn)))
    assert alpha_eq(d.actual, NAT)


def test_unresolved_metavariable_is_rejected_with_its_rule(sig):
    # the checker never passes the kernel a hole; a log can
    with pytest.raises(IllTyped) as info:
        infer_kind(sig, EMPTY_CONTEXT, App(Const("succ"), Meta(0)), Fuel())
    assert info.value.diagnostic.rule == "meta"


def test_infer_lambda_gives_product(sig):
    t = Lam("x", NAT, App(Const("succ"), Var("x")))
    k = infer_kind(sig, EMPTY_CONTEXT, t, Fuel())
    assert isinstance(k, PiKind)
    assert equal_kinds(sig, EMPTY_CONTEXT, k, arrow(NAT, NAT), Fuel())


def test_binder_shadowing_context_variable(sig):
    # [x : Nat][x : Nat] x is fine: inner binder is renamed internally
    t = Lam("x", NAT, Lam("x", NAT, Var("x")))
    k = infer_kind(sig, EMPTY_CONTEXT, t, Fuel())
    assert equal_kinds(sig, EMPTY_CONTEXT, k, arrow(NAT, arrow(NAT, NAT)),
                       Fuel())


def test_inferring_a_closed_lambda_caches_no_free_names_on_it(sig):
    # every node carries its free names as a mask, so a closed lambda's
    # is 0, the mask of every closed node
    t = Lam("x", NAT, Var("x"))
    infer_kind(sig, EMPTY_CONTEXT, t, Fuel())
    assert t.mask == 0 and t.mask == Const("c").mask
    assert free_vars(t) == free_vars(Const("c")) == frozenset()


def test_binder_in_the_context_does_not_capture_a_free_name(sig):
    # x is in the context, so the binder gets a fresh name; that name must
    # avoid x1, which is free (and unbound) in the body
    ctx = EMPTY_CONTEXT.extend("x", NAT)
    with pytest.raises(UnboundVariable):
        infer_kind(sig, ctx, Lam("x", NAT, Var("x1")), Fuel())


def test_dependent_codomain_substitution(sig):
    # E_Nat at a dependent family: (C : Nat -> Type) ... (n : Nat) C n
    k = infer_kind(sig, EMPTY_CONTEXT,
                   app(Const("E_Nat"), const_nat_family()), Fuel())
    # after applying the family, every C is gone
    assert isinstance(k, PiKind)


def test_check_kind_valid_rejects_term_level_garbage(sig):
    with pytest.raises(IllFormedKind):
        check_kind_valid(sig, EMPTY_CONTEXT, ElKind(Const("zero")), Fuel())


def test_check_context_duplicate(sig):
    with pytest.raises(DuplicateVariable):
        check_context(sig, [("x", NAT), ("x", NAT)], Fuel())


def test_check_context_dependent_entries(sig):
    ctx = check_context(sig, [("C", arrow(NAT, TYPE)),
                              ("a", ElKind(App(Var("C"), Const("zero"))))],
                        Fuel())
    assert len(ctx) == 2


def test_equal_kinds_modulo_reduction(sig):
    # El(plus zero zero ...) vs El(zero...): kinds compare up to conversion
    k1 = ElKind(App(Var("C"), app(Const("plus"), numeral(1), numeral(1))))
    k2 = ElKind(App(Var("C"), numeral(2)))
    ctx = check_context(sig, [("C", arrow(NAT, TYPE))], Fuel())
    assert equal_kinds(sig, ctx, k1, k2, Fuel())
    k3 = ElKind(App(Var("C"), numeral(3)))
    assert not equal_kinds(sig, ctx, k1, k3, Fuel())


# ------------------------------------------------------------ lazy delta

# The same definition on both sides is compared by its arguments before
# either side is unfolded; when they differ, both unfold as before.
@pytest.fixture
def arith():
    ck = load_standard()
    ck.run_path(CORPUS_DIR / "arith.lf")
    return ck


def _conversion_steps(ck, a, b):
    fuel = Fuel()
    assert convertible(ck.sig, EMPTY_CONTEXT, a, b, NAT, fuel)
    return fuel.limit - fuel.left


def test_the_same_definition_compares_its_arguments_first(arith):
    # `two` against `succ one` unfolds `two` once; `plus` never unfolds,
    # where unfolding both sides to weak-head form spent 31 steps
    plus = Const("plus")
    assert _conversion_steps(
        arith, app(plus, Const("two"), Const("three")),
        app(plus, App(Const("succ"), Const("one")), Const("three"))) == 1
    # `mult` stays folded; `four` against `plus two two` unfolds both
    # (237 steps when every definition unfolded first)
    four = Const("four")
    assert _conversion_steps(
        arith, app(Const("mult"), four, four),
        app(Const("mult"), App(Const("succ"), Const("three")),
            app(Const("plus"), Const("two"), Const("two")))) == 14


K_EQUATION = "Prf (Eq hatNat (K zero one) (K zero two))"


def _with_k(ck):
    # K ignores its second argument
    ck.run_text("> [K [x : Nat] [y : Nat] = x : Nat];\n")
    return ck


def test_different_arguments_still_unfold_the_definition(arith):
    # `one` is not `two`, yet after unfolding both sides are `zero`
    _with_k(arith).run_text(
        f"> Check EqI hatNat (K zero one) : {K_EQUATION};\n")
    assert arith.output[-1] == f"Check EqI hatNat (K zero one) : {K_EQUATION}"


def test_a_false_equation_under_a_definition_keeps_its_diagnostic(arith):
    with pytest.raises(KindMismatch) as info:
        _with_k(arith).run_text(
            f"> Check EqI hatNat (K one one) : {K_EQUATION};\n")
    assert str(info.value) == ("<script>:1:9: kind does not match what "
                               "this position requires")
    assert render(info.value.diagnostic) == (
        f"rule: check\nexpected: {K_EQUATION}\n"
        "actual: Prf (Eq hatNat (K one one) (K one one))")


def _tower(connective, n, x):
    for _ in range(n):
        x = (f"Not ({x})" if connective == "Not"
             else f"{connective} ({x}) ({x})")
    return x


@pytest.mark.parametrize("connective, n, fuel",
                         [("Not", 20, 80), ("Iff", 8, 128)])
def test_a_false_equation_between_towers_is_decided_in_few_steps(
        connective, n, fuel):
    # each level compares its arguments first, and they differ; unfolding
    # it (`Not p` is `imp p bot`) meets the very same pair, which is not
    # compared again. `fuel` is the least budget that reaches the verdict
    # when every definition unfolds first; comparing a pair anew at each
    # unfolding took 2^n (`Not`) and 4^n (`Iff`) times as many steps
    ck = load_standard()
    ck.run_text(f"> [p : Prop];\n> [q : Prop];\n"
                f"> [h : Prf ({_tower(connective, n, 'p')})];\n"
                f"> SetOption fuel {fuel};\n")
    with pytest.raises(KindMismatch) as info:
        ck.run_text(f"> Check h : Prf ({_tower(connective, n, 'q')});\n")
    assert info.value.diagnostic.rule == "check"


def test_a_missing_budget_is_an_error(sig):
    # no judgement starts a budget of its own
    with pytest.raises(TypeError):
        whnf(sig, Const("zero"))
    with pytest.raises(TypeError):
        infer_kind(sig, EMPTY_CONTEXT, Const("zero"))


# ------------------------------------------------------- trusted base

TRUSTED = ("syntax", "errors", "kernel", "signature")


def _lttw_imports(node, where=""):
    """(lttw module, enclosing class or function path) for each import of
    an lttw module under `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            yield from _lttw_imports(child, f"{where}{child.name}.")
            continue
        targets = []
        if isinstance(child, ast.ImportFrom):
            module = child.module or ""
            if child.level == 0 and module.split(".")[0] == "lttw":
                module = module[len("lttw."):]
            if child.level or module != child.module:
                targets = ([module.split(".")[0]] if module
                           else [a.name for a in child.names])
        elif isinstance(child, ast.Import):
            targets = [a.name.partition(".")[2] or "lttw"
                       for a in child.names
                       if a.name.split(".")[0] == "lttw"]
        for target in targets:
            yield target, where.rstrip(".")
        yield from _lttw_imports(child, where)


def test_trusted_modules_import_only_each_other():
    # syntax, errors, kernel and signature are what a reader must trust:
    # each imports nothing else from lttw, and only at module level
    src = Path(lttw.__file__).parent
    for name in TRUSTED:
        tree = ast.parse((src / f"{name}.py").read_text(encoding="utf-8"))
        for target, where in _lttw_imports(tree):
            assert target in TRUSTED and not where, (name, target, where)


def test_lttw_imports_form_a_dag():
    # every lttw import sits at module level, and no module imports one
    # that imports it back, directly or through others
    src = Path(lttw.__file__).parent
    graph = {}
    for path in sorted(src.rglob("*.py")):
        name = path.parent.name if path.name == "__init__.py" else path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        graph[name] = set()
        for target, where in _lttw_imports(tree):
            assert not where, (name, target, where)
            graph[name].add(target)
    # drop the modules that import no remaining module until none is left
    while graph:
        leaves = [m for m, deps in graph.items() if not deps & graph.keys()]
        assert leaves, sorted(graph)
        for m in leaves:
            del graph[m]


def test_errors_holds_only_what_the_core_or_several_layers_use():
    # errors.py is trusted: a class that one untrusted module alone names
    # lives in that module. A class is kept when a trusted module or two
    # modules name it, and so are its bases.
    src = Path(lttw.__file__).parent
    tree = ast.parse((src / "errors.py").read_text(encoding="utf-8"))
    bases = {c.name: {b.id for b in c.bases if isinstance(b, ast.Name)}
             for c in tree.body if isinstance(c, ast.ClassDef)}
    users = {name: set() for name in bases}
    for path in src.rglob("*.py"):
        module = path.parent.name if path.name == "__init__.py" else path.stem
        if module == "errors":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and node.id in users:
                users[node.id].add(module)
    kept = {name for name, used in users.items()
            if used & set(TRUSTED) or len(used) > 1}
    more = kept
    while more:
        more = {b for name in more for b in bases[name] & bases.keys()} - kept
        kept |= more
    assert set(bases) - kept == set()
