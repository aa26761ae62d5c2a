"""Core syntax: substitution, alpha-equivalence, free variables.

The oracle here is an independent nameless (de Bruijn) representation.
Converting to it erases binder names, so alpha-equivalence becomes plain
equality, and substitution for a *free* name needs no index shifting at all:
replacements carry no dangling bound references, which is exactly the
capture-avoidance property the named implementation must guarantee.
"""

import copy
import pickle

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from lttw.kernel import Fuel, whnf
from lttw.signature import Signature
from lttw.syntax import (
    HOLES, PROP, TYPE, App, Const, ElKind, Lam, Meta, PiKind, PrfKind,
    TypeKind, PropKind, Var, alpha_eq, contains_meta, free_vars, fresh_name,
    metas_of, name_mask, spine, app, subst, subst_masked, subst_parallel,
    subst_spine,
)
import lttw.syntax
from lttw.syntax import rename

# ---------------------------------------------------------------- oracle

def nameless(e, env=()):
    """Named term/kind -> nameless tree. env lists binders, innermost last."""
    if isinstance(e, Var):
        for i, n in enumerate(reversed(env)):
            if n == e.name:
                return ("bound", i)
        return ("free", e.name)
    if isinstance(e, Const):
        return ("const", e.name)
    if isinstance(e, Meta):
        return ("meta", e.ident)
    if isinstance(e, App):
        return ("app", nameless(e.fn, env), nameless(e.arg, env))
    if isinstance(e, Lam):
        return ("lam", nameless(e.ann, env), nameless(e.body, env + (e.var,)))
    if isinstance(e, TypeKind):
        return ("Type",)
    if isinstance(e, PropKind):
        return ("Prop",)
    if isinstance(e, ElKind):
        return ("El", nameless(e.body, env))
    if isinstance(e, PrfKind):
        return ("Prf", nameless(e.body, env))
    if isinstance(e, PiKind):
        return ("pi", nameless(e.domain, env),
                nameless(e.codomain, env + (e.var,)))
    raise TypeError(e)


# the tags of the nameless leaves other than a free name
LEAVES = ("bound", "const", "meta", "Type", "Prop")


def nameless_subst(ne, name, nr):
    """Replace every free occurrence of name in ne by nr. No shifting:
    nr's bound indices are all internal to nr."""
    tag = ne[0]
    if tag == "free":
        return nr if ne[1] == name else ne
    if tag in LEAVES:
        return ne
    return (tag,) + tuple(nameless_subst(c, name, nr) for c in ne[1:])


def nameless_free(ne, acc=None):
    if acc is None:
        acc = set()
    tag = ne[0]
    if tag == "free":
        acc.add(ne[1])
    elif tag not in LEAVES:
        for c in ne[1:]:
            nameless_free(c, acc)
    return acc


def unname(ne, supply, env=()):
    """Rebuild a named tree with machine-chosen binder names; the result is
    an alpha-variant of whatever produced ne."""
    tag = ne[0]
    if tag == "free":
        return Var(ne[1])
    if tag == "bound":
        return Var(env[-1 - ne[1]])
    if tag == "const":
        return Const(ne[1])
    if tag == "meta":
        return Meta(ne[1])
    if tag == "app":
        return App(unname(ne[1], supply, env), unname(ne[2], supply, env))
    if tag == "lam":
        x = f"fr{next(supply)}"
        return Lam(x, unname(ne[1], supply, env),
                   unname(ne[2], supply, env + (x,)))
    if tag == "Type":
        return TYPE
    if tag == "Prop":
        return PROP
    if tag == "El":
        return ElKind(unname(ne[1], supply, env))
    if tag == "Prf":
        return PrfKind(unname(ne[1], supply, env))
    if tag == "pi":
        x = f"fr{next(supply)}"
        return PiKind(x, unname(ne[1], supply, env),
                      unname(ne[2], supply, env + (x,)))
    raise TypeError(ne)


# ------------------------------------------------------------ strategies

NAMES = ["x", "y", "z", "f", "g", "x1"]
CONSTS = ["c", "d", "succ"]

names = st.sampled_from(NAMES)
consts = st.sampled_from(CONSTS)

terms = st.deferred(lambda: st.one_of(
    names.map(Var),
    consts.map(Const),
    st.builds(App, terms, terms),
    st.builds(Lam, names, kinds, terms),
))

kinds = st.deferred(lambda: st.one_of(
    st.just(TYPE),
    st.just(PROP),
    terms.map(ElKind),
    terms.map(PrfKind),
    st.builds(PiKind, names, kinds, kinds),
))

exprs = st.one_of(terms, kinds)

# Terms and kinds with holes
holey_terms = st.deferred(lambda: st.one_of(
    names.map(Var),
    consts.map(Const),
    st.integers(0, 3).map(Meta),
    st.builds(App, holey_terms, holey_terms),
    st.builds(Lam, names, holey_kinds, holey_terms),
))

holey_kinds = st.deferred(lambda: st.one_of(
    st.just(TYPE),
    st.just(PROP),
    holey_terms.map(ElKind),
    holey_terms.map(PrfKind),
    st.builds(PiKind, names, holey_kinds, holey_kinds),
))

holey_exprs = st.one_of(holey_terms, holey_kinds)

closed_terms = st.one_of(
    consts.map(Const),
    st.builds(lambda x, k, c: Lam(x, k, Var(x)), names, st.just(TYPE), names),
    st.builds(lambda c, d: App(Const(c), Const(d)), consts, consts),
)

CASES = settings(max_examples=500, deadline=None, derandomize=True)


# ---------------------------------------------------------------- tests

@CASES
@given(exprs, names, terms)
def test_subst_matches_nameless_oracle(t, v, r):
    got = nameless(subst(t, v, r))
    want = nameless_subst(nameless(t), v, nameless(r))
    assert got == want


@CASES
@given(exprs, names)
def test_subst_identity(t, v):
    assert alpha_eq(subst(t, v, Var(v)), t)


def nameless_subst_parallel(ne, mapping):
    tag = ne[0]
    if tag == "free":
        return mapping.get(ne[1], ne)
    if tag in LEAVES:
        return ne
    return (tag,) + tuple(nameless_subst_parallel(c, mapping) for c in ne[1:])


@CASES
@given(st.one_of(exprs, holey_exprs),
       st.dictionaries(names, st.one_of(terms, holey_terms), max_size=3))
def test_subst_parallel_matches_oracle(t, mapping):
    got = nameless(subst_parallel(t, mapping))
    want = nameless_subst_parallel(
        nameless(t), {v: nameless(r) for v, r in mapping.items()})
    assert got == want


# spines of up to four arguments, so a split has something to split
spines = st.builds(lambda h, args: app(h, *args), holey_terms,
                   st.lists(holey_terms, max_size=4))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(exprs, holey_exprs, spines),
       st.dictionaries(names, st.one_of(terms, holey_terms), max_size=3))
def test_subst_spine_matches_splitting_the_substitution(t, mapping):
    keys = 0
    for v in mapping:
        keys |= name_mask(v)
    head, args = subst_spine(t, mapping, keys)
    want_head, want_args = spine(subst_masked(t, mapping, keys))
    assert nameless(head) == nameless(want_head)
    assert list(map(nameless, args)) == list(map(nameless, want_args))


def test_subst_parallel_is_simultaneous():
    # swap x and y; iterated substitution would collapse both to the same var
    t = App(Var("x"), Var("y"))
    got = subst_parallel(t, {"x": Var("y"), "y": Var("x")})
    assert alpha_eq(got, App(Var("y"), Var("x")))


def test_a_key_no_variable_has_takes_no_bit():
    # a name that is only ever a mapping's key occurs free nowhere: the
    # target comes back as it is, and the name stays out of the registry
    name = "no_variable_has_this_name"
    t = App(Var("x"), Const("c"))
    assert subst_parallel(t, {name: Const("d")}) is t
    assert name_mask(name) == 0


@CASES
@given(exprs, st.sampled_from(NAMES[:3]), st.sampled_from(NAMES[3:]),
       closed_terms, closed_terms)
def test_subst_commutes_for_closed_replacements(t, v1, v2, r1, r2):
    ab = subst(subst(t, v1, r1), v2, r2)
    ba = subst(subst(t, v2, r2), v1, r1)
    assert alpha_eq(ab, ba)


@CASES
@given(exprs)
def test_alpha_eq_accepts_renamed_variant(t):
    variant = unname(nameless(t), iter(range(10 ** 6)))
    assert alpha_eq(t, variant)
    assert alpha_eq(variant, t)


@CASES
@given(st.one_of(exprs, holey_exprs), st.one_of(exprs, holey_exprs))
def test_alpha_eq_agrees_with_oracle(a, b):
    assert alpha_eq(a, b) == (nameless(a) == nameless(b))


@CASES
@given(exprs)
def test_free_vars_matches_oracle(t):
    assert free_vars(t) == frozenset(nameless_free(nameless(t)))


# More names than a machine word has bits. They are registered last name
# first, so the three drawn most often take the highest bits, and masks span
# several int digits.
WIDE = [f"w{i}" for i in range(100)]
for _name in reversed(WIDE):
    Var(_name)

wide_names = st.one_of(st.sampled_from(WIDE[:3]), st.sampled_from(WIDE))

wide_terms = st.deferred(lambda: st.one_of(
    wide_names.map(Var),
    consts.map(Const),
    st.builds(App, wide_terms, wide_terms),
    st.builds(Lam, wide_names, wide_kinds, wide_terms),
))

wide_kinds = st.deferred(lambda: st.one_of(
    st.just(TYPE),
    wide_terms.map(ElKind),
    wide_terms.map(PrfKind),
    st.builds(PiKind, wide_names, wide_kinds, wide_kinds),
))

wide_exprs = st.one_of(wide_terms, wide_kinds)


@CASES
@given(wide_exprs, wide_exprs,
       st.dictionaries(wide_names, wide_terms, max_size=3))
def test_masks_wider_than_a_machine_word_agree_with_oracle(t, u, mapping):
    assert min(name_mask(x) for x in WIDE[:3]).bit_length() > 64
    assert free_vars(t) == frozenset(nameless_free(nameless(t)))
    got = nameless(subst_parallel(t, mapping))
    want = nameless_subst_parallel(
        nameless(t), {v: nameless(r) for v, r in mapping.items()})
    assert got == want
    assert alpha_eq(t, u) == (nameless(t) == nameless(u))
    assert alpha_eq(t, unname(nameless(t), iter(range(10 ** 6))))


def test_subst_avoids_capture_concretely():
    # ([y : Type] x y)[x := y]  must rename the binder, not capture
    t = Lam("y", TYPE, App(Var("x"), Var("y")))
    got = subst(t, "x", Var("y"))
    want = Lam("w", TYPE, App(Var("y"), Var("w")))
    assert alpha_eq(got, want)
    assert not alpha_eq(got, Lam("w", TYPE, App(Var("w"), Var("w"))))


def test_subst_shadowed_is_untouched():
    t = Lam("x", TYPE, Var("x"))
    assert alpha_eq(subst(t, "x", Const("c")), t)


def test_subst_reaches_annotations_under_shadowing():
    # the binder shadows x in the body but not in its own annotation
    t = Lam("x", ElKind(Var("x")), Var("x"))
    got = subst(t, "x", Const("c"))
    assert alpha_eq(got, Lam("x", ElKind(Const("c")), Var("x")))


def test_rename_to_the_same_name_returns_the_term_itself():
    t = Lam("y", TYPE, App(Var("x"), Var("y")))
    assert rename(t, "x", "x") is t


def test_capturing_binder_is_renamed_in_the_same_pass(monkeypatch):
    # ([y : Type] x y)[x := y]: the binder is renamed while substituting,
    # so no node is visited twice; the annotation has no free name and is
    # not entered, so the recursion visits the other four once each
    engine = lttw.syntax._subst
    visited = []

    def counted(target, mapping, keys):
        visited.append(target)
        return engine(target, mapping, keys)

    monkeypatch.setattr(lttw.syntax, "_subst", counted)
    t = Lam("y", TYPE, App(Var("x"), Var("y")))
    got = rename(t, "x", "y")
    assert got.var != "y"
    assert alpha_eq(got, Lam("w", TYPE, App(Var("y"), Var("w"))))
    assert len(visited) == len(set(map(id, visited))) == 4
    assert TYPE not in visited


# whnf contracts a lambda chain applied to a spine in one simultaneous
# substitution; the reference contracts one binder at a time with subst.
# Arguments and the body's head are lambda-free, so the contractum is
# already weak-head normal.
lam_free_terms = st.deferred(lambda: st.one_of(
    names.map(Var),
    consts.map(Const),
    st.builds(App, lam_free_terms, lam_free_terms),
))


@CASES
@example([("x", TYPE), ("x", TYPE)], [Const("c"), Const("d")], "x", [])
@example([("x", TYPE), ("y", TYPE)], [Var("y")], "x", [Var("y")])
@given(st.lists(st.tuples(names, kinds), min_size=1, max_size=4),
       st.lists(lam_free_terms, min_size=1, max_size=5), names,
       st.lists(terms, max_size=2))
def test_whnf_beta_spine_matches_one_binder_at_a_time(binders, args, head,
                                                      rest):
    chain = app(Var(head), *rest)
    for x, k in reversed(binders):
        chain = Lam(x, k, chain)
    want, left = chain, list(args)
    while left and isinstance(want, Lam):
        want = subst(want.body, want.var, left.pop(0))
    want = app(want, *left)
    fuel = Fuel()
    got = whnf(Signature(), app(chain, *args), fuel)
    assert alpha_eq(got, want)
    assert fuel.limit - fuel.left == min(len(binders), len(args))


def test_free_names_are_masks_and_leaves_are_shared():
    # free names are an int with one bit per name: a closed node's is 0,
    # a variable's is its name's bit, and a node whose names all come
    # from one child has that child's; one node stands for each name
    assert Const("c").mask == App(Const("d"), Const("c")).mask == 0
    assert free_vars(Const("c")) == free_vars(App(Const("d"), Const("c")))
    x = Var("x")
    assert App(x, Const("c")).mask == x.mask == name_mask("x") != 0
    assert free_vars(App(x, Const("c"))) == free_vars(x) == {"x"}
    assert free_vars(Lam("y", TYPE, App(x, Var("y")))) == {"x"}
    body = App(x, Const("c"))
    assert Lam("y", TYPE, body).mask == body.mask
    assert free_vars(Lam("y", TYPE, body)) == free_vars(body)
    assert Var("x") is x and Const("c") is Const("c")
    assert Lam("x", TYPE, x).mask == TYPE.mask == 0
    assert free_vars(Lam("x", TYPE, x)) == free_vars(TYPE) == frozenset()


# A reference computation of what each node stores about its subtree: its
# free names and whether a Meta occurs.
def reference_names_and_holes(e):
    """(free names, idents of the Metas) of e, by recursion over it."""
    if isinstance(e, Var):
        return {e.name}, set()
    if isinstance(e, Meta):
        return set(), {e.ident}
    if isinstance(e, (Const, TypeKind, PropKind)):
        return set(), set()
    if isinstance(e, (ElKind, PrfKind)):
        return reference_names_and_holes(e.body)
    if isinstance(e, App):
        parts, binder = (e.fn, e.arg), None
    elif isinstance(e, Lam):
        parts, binder = (e.ann, e.body), e.var
    else:
        parts, binder = (e.domain, e.codomain), e.var
    (fv1, m1), (fv2, m2) = map(reference_names_and_holes, parts)
    return fv1 | (fv2 - {binder}), m1 | m2


@CASES
@given(st.one_of(holey_terms, holey_kinds))
def test_stored_names_and_hole_flag_match_a_reference(e):
    fv, metas = reference_names_and_holes(e)
    assert free_vars(e) == fv
    assert e.mask & ~HOLES == sum(name_mask(x) for x in fv)
    assert (e.mask & ~HOLES == 0) == (not fv)
    assert contains_meta(e) is bool(metas)
    assert metas_of(e) == metas


def test_nodes_print_their_fields_without_the_mask():
    t = Lam("x", ElKind(Const("Nat")), App(App(Var("f"), Meta(3)), Var("x")))
    assert repr(t) == ("Lam('x', ElKind(Const('Nat')), "
                       "App(App(Var('f'), Meta(3)), Var('x')))")
    k = PiKind("A", TYPE, PrfKind(App(Const("P"), Var("A"))))
    assert repr(k) == ("PiKind('A', TypeKind(), "
                       "PrfKind(App(Const('P'), Var('A'))))")
    assert repr((PROP, "check", Var("y"))) == "(PropKind(), 'check', Var('y'))"


def test_node_fields_cannot_be_assigned():
    for node, field in [(Var("x"), "name"), (App(Var("f"), Meta(0)), "fn"),
                        (Lam("x", TYPE, Var("x")), "fv"),
                        (PiKind("x", TYPE, PROP), "mask")]:
        with pytest.raises(AttributeError):
            setattr(node, field, None)
        with pytest.raises(AttributeError):
            object.__setattr__(node, field, None)
    # nor can a cache be attached
    with pytest.raises(AttributeError):
        Var("x")._fv = frozenset()


def test_structurally_equal_nodes_are_distinct():
    a = App(Var("x"), Const("c"))
    b = App(Var("x"), Const("c"))
    assert a != b and not a == b and a == a
    assert hash(a) != hash(b) and len({a, b}) == 2
    assert TypeKind() != TYPE
    with pytest.raises(TypeError):
        a < b


def test_a_copied_node_is_rebuilt_from_its_fields():
    t = Lam("y", ElKind(Var("A")), App(Meta(3), Var("y")))
    for got in (copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert got is not t and alpha_eq(got, t)
        assert free_vars(got) == {"A"} and contains_meta(got)


def test_fresh_name_basic():
    assert fresh_name("y", set()) == "y"
    assert fresh_name("y", {"y"}) == "y1"
    assert fresh_name("y", {"y", "y1"}) == "y2"
    assert fresh_name("y1", {"y1"}) == "y2"
    assert fresh_name("_", {"_"}) == "_1"


def test_spine_and_app_roundtrip():
    t = app(Const("f"), Var("x"), Var("y"), Const("c"))
    head, args = spine(t)
    assert isinstance(head, Const) and head.name == "f"
    assert [a.name for a in args] == ["x", "y", "c"]
