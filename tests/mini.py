"""Hand-built miniature signature for kernel-level tests.

Everything here is constructed directly as syntax trees, independent of the
parser and the shipped library scripts, so kernel tests cannot be masked by
bugs in those layers.
"""

from lttw.kernel import Fuel
from lttw.signature import RewriteRule, Signature, declare_constant, define, \
    declare_rewrite
from lttw.syntax import (
    PROP, TYPE, App, Const, ElKind, Lam, PiKind, PrfKind, Var, app,
)

NAT = ElKind(Const("Nat"))


def arrow(k1, k2):
    return PiKind("_", k1, k2)


def nat_signature():
    """Nat with a Type-valued recursor and its two computation rules."""
    sig = Signature()
    declare_constant(sig, "Nat", TYPE, Fuel())
    declare_constant(sig, "zero", NAT, Fuel())
    declare_constant(sig, "succ", arrow(NAT, NAT), Fuel())

    ck = arrow(NAT, TYPE)
    c_zero = ElKind(App(Var("C"), Const("zero")))
    c_n = ElKind(App(Var("C"), Var("n")))
    c_sn = ElKind(App(Var("C"), App(Const("succ"), Var("n"))))
    step = PiKind("n", NAT, arrow(c_n, c_sn))
    declare_constant(
        sig, "E_Nat",
        PiKind("C", ck, arrow(c_zero, arrow(step,
                                            PiKind("n", NAT, c_n)))), Fuel())

    binders = (("C", ck), ("a", c_zero), ("b", step))
    declare_rewrite(sig, RewriteRule(
        binders=binders,
        lhs=app(Const("E_Nat"), Var("C"), Var("a"), Var("b"), Const("zero")),
        rhs=Var("a"),
        ascription=c_zero), Fuel())
    declare_rewrite(sig, RewriteRule(
        binders=binders + (("n", NAT),),
        lhs=app(Const("E_Nat"), Var("C"), Var("a"), Var("b"),
                App(Const("succ"), Var("n"))),
        rhs=app(Var("b"), Var("n"),
                app(Const("E_Nat"), Var("C"), Var("a"), Var("b"), Var("n"))),
        ascription=c_sn), Fuel())
    return sig


def universe_signature():
    """nat_signature plus a code universe with decoding rules, a reflected
    proposition layer, and a tiny equality family. Holes behind the
    decoding heads test the unifier's limits without depending on the
    shipped scripts."""
    sig = nat_signature()
    declare_constant(sig, "Times", arrow(TYPE, arrow(TYPE, TYPE)), Fuel())
    declare_constant(sig, "U", TYPE, Fuel())
    uk = ElKind(Const("U"))
    declare_constant(sig, "T", arrow(uk, TYPE), Fuel())
    declare_constant(sig, "hatNat", uk, Fuel())
    declare_constant(sig, "hatTimes", arrow(uk, arrow(uk, uk)), Fuel())
    declare_rewrite(sig, RewriteRule(
        binders=(),
        lhs=App(Const("T"), Const("hatNat")),
        rhs=Const("Nat"),
        ascription=TYPE), Fuel())
    declare_rewrite(sig, RewriteRule(
        binders=(("a", uk), ("b", uk)),
        lhs=App(Const("T"), app(Const("hatTimes"), Var("a"), Var("b"))),
        rhs=app(Const("Times"), App(Const("T"), Var("a")),
                App(Const("T"), Var("b"))),
        ascription=TYPE), Fuel())

    declare_constant(sig, "bot", PROP, Fuel())
    declare_constant(sig, "imp", arrow(PROP, arrow(PROP, PROP)), Fuel())
    declare_constant(sig, "prop", PROP, Fuel())
    pp = PrfKind(Const("prop"))
    declare_constant(sig, "V", arrow(pp, PROP), Fuel())
    declare_constant(sig, "hatbot", pp, Fuel())
    declare_constant(sig, "hatimp", arrow(pp, arrow(pp, pp)), Fuel())
    declare_constant(sig, "forallc", PiKind(
        "A", TYPE, arrow(arrow(ElKind(Var("A")), PROP), PROP)), Fuel())
    t_of = lambda v: ElKind(App(Const("T"), Var(v)))
    declare_constant(sig, "hatforall",
                     PiKind("u", uk, arrow(arrow(t_of("u"), pp), pp)), Fuel())
    declare_rewrite(sig, RewriteRule(
        binders=(),
        lhs=App(Const("V"), Const("hatbot")),
        rhs=Const("bot"),
        ascription=PROP), Fuel())
    declare_rewrite(sig, RewriteRule(
        binders=(("p", pp), ("q", pp)),
        lhs=App(Const("V"), app(Const("hatimp"), Var("p"), Var("q"))),
        rhs=app(Const("imp"), App(Const("V"), Var("p")),
                App(Const("V"), Var("q"))),
        ascription=PROP), Fuel())
    declare_rewrite(sig, RewriteRule(
        binders=(("u", uk), ("P", arrow(t_of("u"), pp))),
        lhs=App(Const("V"), app(Const("hatforall"), Var("u"), Var("P"))),
        rhs=app(Const("forallc"), App(Const("T"), Var("u")),
                Lam("x", t_of("u"),
                    App(Const("V"), App(Var("P"), Var("x"))))),
        ascription=PROP), Fuel())

    declare_constant(sig, "Eq", PiKind(
        "A", uk, arrow(t_of("A"), arrow(t_of("A"), PROP))), Fuel())
    declare_constant(sig, "EqI", PiKind(
        "A", uk, PiKind("a", t_of("A"),
                        PrfKind(app(Const("Eq"), Var("A"), Var("a"),
                                    Var("a"))))), Fuel())
    declare_constant(sig, "pp",
                     ElKind(app(Const("Times"), Const("Nat"), Const("Nat"))),
                     Fuel())
    declare_constant(sig, "q", arrow(NAT, pp), Fuel())
    declare_constant(sig, "lemma", PiKind(
        "p", pp, arrow(PrfKind(App(Const("V"), Var("p"))),
                       PrfKind(App(Const("V"), Var("p"))))), Fuel())
    return sig


def numeral(n):
    t = Const("zero")
    for _ in range(n):
        t = App(Const("succ"), t)
    return t


def const_nat_family():
    """[_ : Nat] Nat, the constant type family used for plain recursion."""
    return Lam("_", NAT, Const("Nat"))


def define_plus(sig):
    """plus m n = E_Nat ([_] Nat) n ([_][r] succ r) m."""
    body = Lam("m", NAT, Lam("n", NAT, app(
        Const("E_Nat"), const_nat_family(), Var("n"),
        Lam("_", NAT, Lam("r", NAT, App(Const("succ"), Var("r")))),
        Var("m"))))
    return define(sig, "plus", body, fuel=Fuel())


def define_mult(sig):
    """mult m n = E_Nat ([_] Nat) zero ([_][r] plus n r) m."""
    body = Lam("m", NAT, Lam("n", NAT, app(
        Const("E_Nat"), const_nat_family(), Const("zero"),
        Lam("_", NAT, Lam("r", NAT, app(Const("plus"), Var("n"), Var("r")))),
        Var("m"))))
    return define(sig, "mult", body, fuel=Fuel())
