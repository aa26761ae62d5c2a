"""Category-indexed equality over the standard signature, built as syntax.

Every category built from Nat by products, function spaces, and sets gets a
binary predicate on its carrier. Categories with a code in the universe use
the declared equality at that code; the rest get the structural form
(componentwise for products, pointwise for functions, mutual membership for
sets). The kernel checks each generated term against the shipped signature
in test_stdlib.py.
"""

from dataclasses import dataclass

from lttw.signature import Signature
from lttw.syntax import (
    PROP, App, Const, ElKind, Kind, Lam, PiKind, Term, Var, app,
)


@dataclass(frozen=True)
class Category:
    """A carrier shape: Nat, or products / function spaces / sets of
    smaller shapes."""

    tag: str  # "base" | "prod" | "fun" | "set"
    parts: tuple = ()


def base_nat() -> Category:
    return Category("base")


def prod(a: Category, b: Category) -> Category:
    return Category("prod", (a, b))


def fun(a: Category, b: Category) -> Category:
    return Category("fun", (a, b))


def set_of(a: Category) -> Category:
    return Category("set", (a,))


def describe(cat: Category) -> str:
    if cat.tag == "base":
        return "Nat"
    inner = ",".join(describe(p) for p in cat.parts)
    return {"prod": "Times", "fun": "Arrow", "set": "Set"}[cat.tag] + \
        f"({inner})"


def is_basic(cat: Category) -> bool:
    """Basic categories are the ones with a code in the universe."""
    if cat.tag == "base":
        return True
    return cat.tag == "prod" and all(is_basic(p) for p in cat.parts)


def code(cat: Category) -> Term:
    if cat.tag == "base":
        return Const("hatNat")
    if cat.tag == "prod" and is_basic(cat):
        return app(Const("hatTimes"), code(cat.parts[0]), code(cat.parts[1]))
    raise ValueError(f"{describe(cat)} has no universe code")


def carrier(cat: Category) -> Term:
    if cat.tag == "base":
        return Const("Nat")
    parts = [carrier(p) for p in cat.parts]
    head = {"prod": "Times", "fun": "Arrow", "set": "Set"}[cat.tag]
    return app(Const(head), *parts)


def equality_kind(cat: Category) -> Kind:
    c = ElKind(carrier(cat))
    return PiKind("_", c, PiKind("_", c, PROP))


def _project(which: str, a: Term, b: Term, p: Term) -> Term:
    """First or second component of p : Times a b, by the eliminator."""
    motive = Lam("_", ElKind(app(Const("Times"), a, b)),
                 a if which == "fst" else b)
    branch = Lam("x", ElKind(a), Lam("y", ElKind(b),
                 Var("x") if which == "fst" else Var("y")))
    return app(Const("E_Times"), a, b, motive, branch, p)


def _apply(a: Term, b: Term, f: Term, x: Term) -> Term:
    """Apply f : Arrow a b to x : a, by the eliminator."""
    motive = Lam("_", ElKind(app(Const("Arrow"), a, b)), b)
    branch = Lam("h", PiKind("_", ElKind(a), ElKind(b)),
                 App(Var("h"), x))
    return app(Const("E_Arrow"), a, b, motive, branch, f)


def generate_equality(sig: Signature, cat: Category) -> Term:
    """Closed term of kind carrier -> carrier -> Prop. Needs the derived
    layer in sig (And, Iff) for non-basic categories."""
    c = carrier(cat)
    ck = ElKind(c)
    if is_basic(cat):
        body = app(Const("Eq"), code(cat), Var("l"), Var("r"))
    elif cat.tag == "prod":
        a, b = (carrier(p) for p in cat.parts)
        eq_a = generate_equality(sig, cat.parts[0])
        eq_b = generate_equality(sig, cat.parts[1])
        body = app(Const("And"),
                   app(eq_a, _project("fst", a, b, Var("l")),
                       _project("fst", a, b, Var("r"))),
                   app(eq_b, _project("snd", a, b, Var("l")),
                       _project("snd", a, b, Var("r"))))
    elif cat.tag == "fun":
        a, b = (carrier(p) for p in cat.parts)
        eq_b = generate_equality(sig, cat.parts[1])
        body = app(Const("forall"), a,
                   Lam("v", ElKind(a),
                       app(eq_b, _apply(a, b, Var("l"), Var("v")),
                           _apply(a, b, Var("r"), Var("v")))))
    elif cat.tag == "set":
        a = carrier(cat.parts[0])
        body = app(Const("forall"), a,
                   Lam("v", ElKind(a),
                       app(Const("Iff"),
                           App(Const("V"),
                               app(Const("in"), a, Var("v"), Var("l"))),
                           App(Const("V"),
                               app(Const("in"), a, Var("v"), Var("r"))))))
    else:
        raise ValueError(f"unknown category tag {cat.tag!r}")
    return Lam("l", ck, Lam("r", ck, body))


def enumerate_categories(max_depth: int) -> list[Category]:
    """All categories of construction depth at most max_depth, smallest
    first. Depth 0 is Nat alone; each level closes under prod, fun, set."""
    layer = [base_nat()]
    seen = {base_nat()}
    for _ in range(max_depth):
        grown = list(layer)
        for a in layer:
            for b in layer:
                for c in (prod(a, b), fun(a, b)):
                    if c not in seen:
                        seen.add(c)
                        grown.append(c)
            c = set_of(a)
            if c not in seen:
                seen.add(c)
                grown.append(c)
        layer = grown
    return layer
