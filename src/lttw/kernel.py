"""Kernel: reduction, convertibility, kind inference and validity.

Definitional equality (beta, eta, rewrite rules, unfolding of definitions)
is decided at the kind both sides have: eta only at a product kind, else
weak-head spines with one variable or constant head, argument by argument.

An application spine is instantiated once, not once per argument. Beta
contracts every lambda binder that has an argument in one simultaneous
substitution of the innermost body; kind inference, spine comparison and
their elaborator counterparts carry a map from the head kind's binders to
the arguments seen so far and substitute a domain only when it is needed,
the final codomain once. Instantiating `Pi x1:A1. Pi x2:A2. B` with a1, a2
one binder at a time equals `B[x1:=a1, x2:=a2]` done simultaneously, and a
later binder of the same name simply overwrites the earlier entry.

Every entry point takes a fuel bound: a `Fuel`, which the call shares with
whatever else its caller spends from it, or a number of steps for a fresh
budget. Running out raises FuelExhausted rather than looping. Rejections
raise typed errors carrying a Diagnostic with the violated rule's name.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Union

from .errors import (
    Diagnostic, DomainMismatch, DuplicateVariable, FuelExhausted,
    IllFormedKind, IllTyped, KindMismatch, NotAProduct, UnboundVariable,
    UnknownConstant,
)
from .signature import CompiledRule, Definition, Signature
from .syntax import (
    PROP, TYPE, App, Const, ElKind, Expr, Kind, Lam, Meta, PiKind, PrfKind,
    PropKind, Term, TypeKind, Var, alpha_eq, app, fresh_name, name_mask,
    rename, spine, subst_parallel,
)

DEFAULT_FUEL = 100000


def parse_fuel(text: str) -> int:
    """A step budget as written on the command line or in `SetOption fuel`:
    a positive whole number. Raises ValueError saying what is wrong."""
    try:
        fuel = int(text)
    except ValueError:
        raise ValueError(f"fuel must be a number, got {text!r}") from None
    if fuel <= 0:
        raise ValueError(f"fuel must be positive, got {fuel}")
    return fuel


class Fuel:
    """Shared step budget. One instance flows through a whole command."""

    __slots__ = ("limit", "left")

    def __init__(self, limit: int = DEFAULT_FUEL):
        self.limit = limit
        self.left = limit

    def spend(self) -> None:
        if self.left <= 0:
            raise self.exhausted()
        self.left -= 1

    def exhausted(self) -> FuelExhausted:
        """The error a spend beyond this budget raises."""
        return FuelExhausted(
            f"no reduction head-normalised within {self.limit} steps",
            diagnostic=Diagnostic("fuel"))


def _fuel(f: Union[int, Fuel, None]) -> Fuel:
    if isinstance(f, Fuel):
        return f
    return Fuel(DEFAULT_FUEL if f is None else f)


class Context:
    """Ordered variable context. Names are unique; extend raises on shadowing
    (`bind` picks a name that does not shadow)."""

    __slots__ = ("_map",)

    def __init__(self, _map: Optional[dict] = None):
        self._map = _map if _map is not None else {}

    def extend(self, name: str, kind: Kind) -> "Context":
        if name in self._map:
            raise DuplicateVariable(
                f"variable {name!r} already in context",
                diagnostic=Diagnostic("context-fresh", subject=Var(name)))
        m = dict(self._map)
        m[name] = kind
        return Context(m)

    def bind(self, hint: str, kind: Kind, *terms: Expr,
             avoid: Iterable[str] = ()) -> tuple[str, "Context"]:
        """Open a binder of `kind` over `terms`: its name and the context
        extended with it. The name is `hint` when that is neither in the
        context nor free in `terms`, else a fresh name avoiding the
        context, the free names of `terms` and `avoid`."""
        if hint not in self._map:
            bit = name_mask(hint)
            for e in terms:
                if e.mask & bit:
                    break
            else:
                return hint, self.extend(hint, kind)
        x = fresh_name(hint, set(self._map).union(avoid,
                                                  *(e.fv for e in terms)))
        return x, self.extend(x, kind)

    def lookup(self, name: str) -> Optional[Kind]:
        return self._map.get(name)

    def names(self) -> set[str]:
        return set(self._map)

    def __len__(self) -> int:
        return len(self._map)

    def __repr__(self) -> str:
        return "Context(" + ", ".join(self._map) + ")"


EMPTY_CONTEXT = Context()


# ------------------------------------------------------------- reduction

def whnf(sig: Signature, t: Term, fuel: Union[int, Fuel, None] = None) -> Term:
    """Weak-head normal form: reduce until the head is a binder with no
    argument, a variable, a metavariable, or a constant no rule fires on.
    Arguments in constructor positions of candidate rules are reduced (the
    result keeps that work); other arguments are untouched.

    A lambda chain applied to a spine, written or exposed by unfolding a
    definition, is contracted in one substitution for all the binders that
    have an argument; each binder still spends one step of fuel."""
    f = _fuel(fuel)
    head, args = spine(t)
    changed = False
    while True:
        if isinstance(head, Lam) and args:
            # contract every binder that has an argument in one pass
            mapping: dict[str, Term] = {}
            n = 0
            while isinstance(head, Lam) and n < len(args):
                f.spend()
                mapping[head.var] = args[n]
                head = head.body
                n += 1
            head = subst_parallel(head, mapping)
            args = args[n:]
            changed = True
            head, args2 = spine(head)
            args = args2 + args
            continue
        if isinstance(head, Const):
            entry = sig.get(head.name)
            if isinstance(entry, Definition):
                f.spend()
                head, args2 = spine(entry.body)
                args = args2 + args
                changed = True
                continue
            rules = sig.rules_for(head.name)
            if rules and len(args) >= rules[0].arity:
                arity = rules[0].arity
                for i in rules[-1].con_positions:
                    reduced = whnf(sig, args[i], f)
                    if reduced is not args[i]:
                        args = args[:i] + [reduced] + args[i + 1:]
                        changed = True
                fired = False
                for rule in rules:
                    binding = _match(rule, args)
                    if binding is not None:
                        f.spend()
                        contractum = subst_parallel(rule.rhs, binding)
                        head, args2 = spine(contractum)
                        args = args2 + args[arity:]
                        changed = True
                        fired = True
                        break
                if fired:
                    continue
            break
        break
    if not changed:
        return t
    return app(head, *args)


def _match(rule: CompiledRule, args: list) -> Optional[dict]:
    binding: dict[str, Term] = {}
    for pat, arg in zip(rule.patterns, args):
        tag = pat[0]
        if tag == "var":
            binding[pat[1]] = arg
        else:  # constructor: arg is already in whnf
            head, sub = spine(arg)
            if not (isinstance(head, Const) and head.name == pat[1]
                    and len(sub) == len(pat[2])):
                return None
            for sp, sa in zip(pat[2], sub):
                if sp[0] == "var":
                    binding[sp[1]] = sa
    return binding


def normalize(sig: Signature, t: Term,
              fuel: Union[int, Fuel, None] = None) -> Term:
    """Full normal form: whnf at every subterm, annotations included."""
    f = _fuel(fuel)
    return _norm(sig, t, f)


def _norm(sig: Signature, t: Term, f: Fuel) -> Term:
    t = whnf(sig, t, f)
    if isinstance(t, Lam):
        return Lam(t.var, normalize_kind(sig, t.ann, f), _norm(sig, t.body, f))
    head, args = spine(t)
    if not args:
        return t
    return app(head, *[_norm(sig, a, f) for a in args])


def normalize_kind(sig: Signature, k: Kind,
                   fuel: Union[int, Fuel, None] = None) -> Kind:
    f = _fuel(fuel)
    if isinstance(k, (TypeKind, PropKind)):
        return k
    if isinstance(k, ElKind):
        return ElKind(_norm(sig, k.body, f))
    if isinstance(k, PrfKind):
        return PrfKind(_norm(sig, k.body, f))
    if isinstance(k, PiKind):
        return PiKind(k.var, normalize_kind(sig, k.domain, f),
                      normalize_kind(sig, k.codomain, f))
    raise TypeError(f"not a kind: {k!r}")


# ---------------------------------------------------------- convertibility

def convertible(sig: Signature, ctx: Context, a: Term, b: Term,
                at: Optional[Kind], fuel: Union[int, Fuel, None] = None
                ) -> bool:
    """Definitional equality of a and b at `at`, the kind both sides have.
    Eta happens only when `at` is a product; None means no eta at this
    level, where a lambda is ill-typed and convertible with nothing."""
    f = _fuel(fuel)
    return _conv(sig, ctx, a, b, at, f)


def _conv(sig: Signature, ctx: Context, a: Term, b: Term,
          at: Optional[Kind], f: Fuel) -> bool:
    if alpha_eq(a, b):
        return True
    if isinstance(at, PiKind):
        x, ctx2 = ctx.bind(at.var, at.domain, a, b, at)
        cod = rename(at.codomain, at.var, x)
        return _conv(sig, ctx2, App(a, Var(x)), App(b, Var(x)), cod, f)
    a = whnf(sig, a, f)
    b = whnf(sig, b, f)
    if alpha_eq(a, b):
        return True
    ha, sa = spine(a)
    hb, sb = spine(b)
    if type(ha) is not type(hb) or len(sa) != len(sb):
        return False
    if not isinstance(ha, (Var, Const)) or ha.name != hb.name:
        return False
    for u, v, arg_at in zip(sa, sb, spine_domains(sig, ctx, ha, sa)):
        if not _conv(sig, ctx, u, v, arg_at, f):
            return False
    return True


def spine_domains(sig: Signature, ctx: Context, head: Term,
                  args: list) -> Iterator[Optional[Kind]]:
    """For each argument of `head args`, the kind the argument is compared
    at: its domain in the head's kind, instantiated with the arguments
    before it, when that domain is a product, else None. Only a product
    steers a comparison (eta), so no other domain is instantiated. The
    head's kind is a variable's in `ctx` or a constant's in `sig`; any
    other head gives None throughout."""
    k: Optional[Kind] = None
    if isinstance(head, Var):
        k = ctx.lookup(head.name)
    elif isinstance(head, Const):
        entry = sig.get(head.name)
        k = entry.kind if entry is not None else None
    mapping: dict[str, Term] = {}
    for u in args:
        if not isinstance(k, PiKind):
            yield None
            continue
        yield (subst_parallel(k.domain, mapping)
               if isinstance(k.domain, PiKind) else None)
        mapping[k.var] = u
        k = k.codomain


def equal_kinds(sig: Signature, ctx: Context, k1: Kind, k2: Kind,
                fuel: Union[int, Fuel, None] = None) -> bool:
    f = _fuel(fuel)
    return _eqk(sig, ctx, k1, k2, f)


def _eqk(sig: Signature, ctx: Context, k1: Kind, k2: Kind, f: Fuel) -> bool:
    t1, t2 = type(k1), type(k2)
    if t1 is not t2:
        return False
    if t1 is TypeKind or t1 is PropKind:
        return True
    if t1 is ElKind:
        return _conv(sig, ctx, k1.body, k2.body, TYPE, f)
    if t1 is PrfKind:
        return _conv(sig, ctx, k1.body, k2.body, PROP, f)
    if t1 is PiKind:
        if not _eqk(sig, ctx, k1.domain, k2.domain, f):
            return False
        x, ctx2 = ctx.bind(k1.var, k1.domain, k1, k2)
        c1 = rename(k1.codomain, k1.var, x)
        c2 = rename(k2.codomain, k2.var, x)
        return _eqk(sig, ctx2, c1, c2, f)
    raise TypeError(f"not a kind: {k1!r}")


# ------------------------------------------------------------- inference

def infer_kind(sig: Signature, ctx: Context, t: Term,
               fuel: Union[int, Fuel, None] = None) -> Kind:
    f = _fuel(fuel)
    return _infer(sig, ctx, t, f)


def _infer(sig: Signature, ctx: Context, t: Term, f: Fuel) -> Kind:
    if isinstance(t, App):
        # the commonest node first. Walk the spine once; the head's kind
        # is instantiated lazily
        head, args = spine(t)
        k = _infer(sig, ctx, head, f)
        mapping: dict[str, Term] = {}
        for i, arg in enumerate(args):
            if not isinstance(k, PiKind):
                raise NotAProduct(
                    "application of a term whose kind is not a product",
                    diagnostic=Diagnostic(
                        "app-fn", subject=app(head, *args[:i]),
                        actual=subst_parallel(k, mapping)))
            domain = subst_parallel(k.domain, mapping)
            arg_kind = _infer(sig, ctx, arg, f)
            if not _eqk(sig, ctx, arg_kind, domain, f):
                raise DomainMismatch(
                    "argument kind does not match the function's domain",
                    diagnostic=Diagnostic("app-domain", subject=arg,
                                          expected=domain, actual=arg_kind))
            mapping[k.var] = arg
            k = k.codomain
        return subst_parallel(k, mapping)
    if isinstance(t, Var):
        k = ctx.lookup(t.name)
        if k is None:
            raise UnboundVariable(
                f"variable {t.name!r} is not in the context",
                diagnostic=Diagnostic("var", subject=t))
        return k
    if isinstance(t, Const):
        entry = sig.get(t.name)
        if entry is None:
            raise UnknownConstant(
                f"constant {t.name!r} is not declared",
                diagnostic=Diagnostic("const", subject=t))
        return entry.kind
    if isinstance(t, Meta):
        raise IllTyped(
            "term still contains an unresolved metavariable",
            diagnostic=Diagnostic("meta", subject=t))
    if isinstance(t, Lam):
        check_kind_valid(sig, ctx, t.ann, f)
        x, ctx2 = ctx.bind(t.var, t.ann, t)
        body_kind = _infer(sig, ctx2, rename(t.body, t.var, x), f)
        return PiKind(x, t.ann, body_kind)
    raise TypeError(f"not a term: {t!r}")


def check_kind_valid(sig: Signature, ctx: Context, k: Kind,
                     fuel: Union[int, Fuel, None] = None) -> None:
    f = _fuel(fuel)
    _check_kind(sig, ctx, k, f)


def _check_kind(sig: Signature, ctx: Context, k: Kind, f: Fuel) -> None:
    if isinstance(k, (TypeKind, PropKind)):
        return
    if isinstance(k, ElKind):
        body_kind = _infer(sig, ctx, k.body, f)
        if not isinstance(body_kind, TypeKind):
            raise IllFormedKind(
                "only a term of kind Type can be used as a type",
                diagnostic=Diagnostic("el-body", subject=k.body,
                                      expected=TYPE, actual=body_kind))
        return
    if isinstance(k, PrfKind):
        body_kind = _infer(sig, ctx, k.body, f)
        if not isinstance(body_kind, PropKind):
            raise IllFormedKind(
                "only a term of kind Prop can be used as a proposition",
                diagnostic=Diagnostic("prf-body", subject=k.body,
                                      expected=PROP, actual=body_kind))
        return
    if isinstance(k, PiKind):
        _check_kind(sig, ctx, k.domain, f)
        x, ctx2 = ctx.bind(k.var, k.domain, k)
        _check_kind(sig, ctx2, rename(k.codomain, k.var, x), f)
        return
    raise TypeError(f"not a kind: {k!r}")


def check_context(sig: Signature, entries,
                  fuel: Union[int, Fuel, None] = None) -> Context:
    """Validate a sequence of (name, kind) entries left to right and build
    the Context. Raises DuplicateVariable on repeated names."""
    f = _fuel(fuel)
    ctx = EMPTY_CONTEXT
    for name, kind in entries:
        _check_kind(sig, ctx, kind, f)
        ctx = ctx.extend(name, kind)
    return ctx


def check_term(sig: Signature, ctx: Context, t: Term, expected: Kind,
               fuel: Union[int, Fuel, None] = None) -> Kind:
    """Infer t's kind and require it equal to expected."""
    f = _fuel(fuel)
    actual = _infer(sig, ctx, t, f)
    if not _eqk(sig, ctx, actual, expected, f):
        raise KindMismatch(
            "term does not have the required kind",
            diagnostic=Diagnostic("check", subject=t, expected=expected,
                                  actual=actual))
    return actual
