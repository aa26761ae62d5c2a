"""Kernel: reduction, convertibility, kind inference and validity.

It defines the `Signature` it reads, which `lttw.signature` validates and
fills, and it imports only `syntax` and `errors` from lttw.

Definitional equality (beta, eta, rewrite rules, unfolding of definitions)
is decided at the kind both sides have: eta only at a product kind, else
weak-head spines with one variable or constant head, argument by argument.
After eta, the same definition on both sides is compared by its arguments
before it unfolds: sound by congruence, and complete, as a failure unfolds
and compares as before, skipping the argument pairs already found unequal.

An application spine is instantiated once, not once per argument. Beta
contracts every lambda binder that has an argument in one simultaneous
substitution of the innermost body; kind inference, spine comparison and
their elaborator counterparts carry a map from the head kind's binders to
the arguments seen so far and substitute a domain only when it is needed,
the final codomain once. Instantiating `Pi x1:A1. Pi x2:A2. B` with a1, a2
one binder at a time equals `B[x1:=a1, x2:=a2]` done simultaneously, and a
later binder of the same name simply overwrites the earlier entry.
Reduction runs on split spines (`whnf_spine`): a contractum is substituted
split (`subst_spine`), and conversion and the elaborator's unification
split each side once, so nothing builds an application only to split it.

A lambda is checked against a product known to be valid (`check_against`;
Coquand, SCP 1996): an annotation alpha-equivalent to the product's domain
is not validated again. That is sound in LF (Harper, Honsell & Plotkin,
JACM 1993): the domain is a validated kind, or a valid kind instantiated
with arguments checked at their domains, and validity is alpha-invariant.
An annotation only convertible to the domain, like `([y : Nat] Nat) bot`
for `Nat`, is validated, and a rejection keeps its Diagnostic.

Every function that reduces or checks takes the caller's `Fuel` as a
required argument and spends from it: one budget covers everything one
command does, and the kernel never starts a budget of its own. Running out
raises FuelExhausted rather than looping. Rejections raise typed errors
carrying a Diagnostic with the violated rule's name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .errors import (
    Diagnostic, DomainMismatch, DuplicateVariable, FuelExhausted,
    IllFormedKind, IllTyped, KindMismatch, NotAProduct, UnboundVariable,
    UnknownConstant,
)
from .syntax import (
    PROP, TYPE, App, Const, ElKind, Expr, Kind, Lam, Meta, PiKind, PrfKind,
    PropKind, Term, TypeKind, Var, alpha_eq, app, free_vars, fresh_name,
    name_mask, rename, spine, subst_masked, subst_parallel, subst_spine,
)

DEFAULT_FUEL = 100000


class Fuel:
    """Shared step budget. One instance flows through a whole command."""

    __slots__ = ("limit", "left")

    def __init__(self, limit: int = DEFAULT_FUEL):
        self.limit = limit
        self.left = limit

    def spend(self) -> None:
        if self.left <= 0:
            raise FuelExhausted(
                f"no reduction head-normalised within {self.limit} steps",
                diagnostic=Diagnostic("fuel"))
        self.left -= 1


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
        return Context({**self._map, name: kind})

    def bind(self, hint: str, kind: Kind,
             *terms: Expr) -> tuple[str, "Context"]:
        """Open a binder of `kind` over `terms`: its name and the context
        extended with it. The name is `hint` when that is neither in the
        context nor free in `terms`, else a fresh name avoiding the
        context and the free names of `terms`."""
        free = 0
        for e in terms:
            free |= e.mask
        if hint in self._map or free & name_mask(hint):
            hint = fresh_name(hint,
                              set(self._map).union(*map(free_vars, terms)))
        return hint, self.extend(hint, kind)

    def lookup(self, name: str) -> Optional[Kind]:
        return self._map.get(name)


EMPTY_CONTEXT = Context()


# --------------------------------------------------------- signature data

@dataclass(frozen=True)
class ConstDecl:
    kind: Kind


@dataclass(frozen=True)
class Definition:
    kind: Kind
    body: Term


Entry = Union[ConstDecl, Definition]


@dataclass(frozen=True)
class RewriteRule:
    """User-facing rule: binders scope over both sides; ascription is the
    common kind of lhs and rhs under the binders."""

    binders: tuple[tuple[str, Kind], ...]
    lhs: Term
    rhs: Term
    ascription: Kind


@dataclass(frozen=True)
class CompiledRule:
    """Match-ready form of a rule for the head it is stored under in
    `Signature.rules`, taking one argument per pattern. A pattern is
    ("var", name) or ("con", constant, subpatterns); a subpattern is
    ("var", name) for a first binding or ("forced", name) for a repeat the
    kind system already forces equal. `con_positions` are the sorted
    argument positions where this rule or an earlier rule for the same head
    has a constructor pattern: the ones reduction must bring to weak-head
    form before the head's rules match."""

    patterns: tuple
    rhs: Term
    con_positions: tuple[int, ...]


class Signature:
    def __init__(self):
        self.entries: dict[str, Entry] = {}  # by name
        self.rules: dict[str, list[CompiledRule]] = {}

    def constant_count(self) -> int:
        return sum(isinstance(e, ConstDecl) for e in self.entries.values())

    def rule_count(self) -> int:
        return sum(len(rs) for rs in self.rules.values())


# ------------------------------------------------------------- reduction

def whnf(sig: Signature, t: Term, fuel: Fuel) -> Term:
    """Weak-head normal form: reduce until the head is a binder with no
    argument, a variable, a metavariable, or a constant no rule fires on.
    Arguments in constructor positions of candidate rules are reduced (the
    result keeps that work); other arguments are untouched.

    A lambda chain applied to a spine, written or exposed by unfolding a
    definition, is contracted in one substitution for all the binders that
    have an argument; each binder still spends one step of fuel."""
    head, args = spine(t)
    head2, args2 = whnf_spine(sig, head, args, fuel)
    return t if args2 is args else app(head2, *args2)


def whnf_spine(sig: Signature, head: Term, args: list, fuel: Fuel,
               delta: bool = True) -> tuple[Term, list]:
    """whnf of the spine `head args`, split; without `delta`, short of a
    defined head. `args` is never changed, and is returned iff unreduced."""
    entries, rules = sig.entries, sig.rules
    while True:
        cls = type(head)
        if cls is Lam and args:
            # contract every binder that has an argument in one pass
            mapping: dict[str, Term] = {}
            keys = n = 0
            while type(head) is Lam and n < len(args):
                fuel.spend()
                mapping[head.var] = args[n]
                keys |= name_mask(head.var)
                head = head.body
                n += 1
            head, inner = subst_spine(head, mapping, keys)
            args = inner + args[n:]
            continue
        if cls is not Const:
            break
        entry = entries.get(head.name)
        if type(entry) is Definition and delta:
            fuel.spend()
            head, inner = spine(entry.body)
            args = inner + args
            continue
        candidates = rules.get(head.name)
        if not candidates or len(args) < len(candidates[0].patterns):
            break
        split = {}  # constructor position -> its argument's normal spine
        for i in candidates[-1].con_positions:
            h, sub = spine(args[i])
            h2, sub2 = split[i] = whnf_spine(sig, h, sub, fuel)
            if sub2 is not sub:
                args = args[:i] + [app(h2, *sub2)] + args[i + 1:]
        for rule in candidates:
            binding = _match(rule, args, split)
            if binding is not None:
                break
        else:
            break  # no rule fires
        fuel.spend()
        # the match binds every free name of the right-hand side
        head, inner = subst_spine(rule.rhs, binding, rule.rhs.mask)
        args = inner + args[len(rule.patterns):]
    return head, args


def _match(rule: CompiledRule, args: list, split: dict) -> Optional[dict]:
    binding: dict[str, Term] = {}
    for i, pat in enumerate(rule.patterns):
        if pat[0] == "var":
            binding[pat[1]] = args[i]
            continue
        head, sub = split[i]  # a constructor position, in weak-head form
        if not (type(head) is Const and head.name == pat[1]
                and len(sub) == len(pat[2])):
            return None
        for sp, sa in zip(pat[2], sub):
            if sp[0] == "var":
                binding[sp[1]] = sa
    return binding


def normalize(sig: Signature, t: Term, fuel: Fuel) -> Term:
    """Full normal form: whnf at every subterm, annotations included. The
    leading arguments of a spine are normalised by recursion and the last
    one in the loop, so a numeral costs no stack."""
    outer = []  # each enclosing spine: its head, normal leading arguments
    while True:
        head, args = whnf_spine(sig, *spine(t), fuel)
        if not args:
            t = head
            if isinstance(t, Lam):
                t = Lam(t.var, normalize_kind(sig, t.ann, fuel),
                        normalize(sig, t.body, fuel))
            break
        t = args.pop()  # a list of this call's own
        outer.append((head, *[normalize(sig, a, fuel) for a in args]))
    while outer:
        t = app(*outer.pop(), t)
    return t


def normalize_kind(sig: Signature, k: Kind, fuel: Fuel) -> Kind:
    if isinstance(k, (TypeKind, PropKind)):
        return k
    if isinstance(k, (ElKind, PrfKind)):
        return type(k)(normalize(sig, k.body, fuel))
    if isinstance(k, PiKind):
        return PiKind(k.var, normalize_kind(sig, k.domain, fuel),
                      normalize_kind(sig, k.codomain, fuel))
    raise TypeError(f"not a kind: {k!r}")


# ---------------------------------------------------------- convertibility

def convertible(sig: Signature, ctx: Context, a: Term, b: Term,
                at: Optional[Kind], fuel: Fuel) -> bool:
    """Definitional equality of a and b at `at`, the kind both sides have.
    Eta happens only when `at` is a product; None means no eta at this
    level, where a lambda is ill-typed and convertible with nothing."""
    # the kernel itself calls `_conv`, the name perfbench's tracer counts
    return _conv(sig, ctx, a, b, at, fuel, set())


def _conv(sig: Signature, ctx: Context, a: Term, b: Term,
          at: Optional[Kind], fuel: Fuel, unequal: set) -> bool:
    if alpha_eq(a, b):
        return True
    while isinstance(at, PiKind):
        x, ctx = ctx.bind(at.var, at.domain, a, b, at)
        a, b = App(a, Var(x)), App(b, Var(x))
        at = rename(at.codomain, at.var, x)
    ha, sa = whnf_spine(sig, *spine(a), fuel, False)
    hb, sb = whnf_spine(sig, *spine(b), fuel, False)
    if type(ha) is Const and type(sig.entries.get(ha.name)) is Definition:
        if (type(hb) is Const and hb.name == ha.name and len(sa) == len(sb)
                and _argwise(sig, ctx, ha, sa, sb, fuel, unequal)):
            return True
        ha, sa = whnf_spine(sig, ha, sa, fuel)
    if type(hb) is Const and type(sig.entries.get(hb.name)) is Definition:
        hb, sb = whnf_spine(sig, hb, sb, fuel)
    if type(ha) is not type(hb) or len(sa) != len(sb):
        return False
    if type(ha) is not Var and type(ha) is not Const:
        # a lambda where no eta applies, or a hole: alpha-equality only
        return alpha_eq(app(ha, *sa), app(hb, *sb))
    return ha.name == hb.name and _argwise(sig, ctx, ha, sa, sb, fuel, unequal)


def _argwise(sig: Signature, ctx: Context, head: Term, sa: list, sb: list,
             fuel: Fuel, unequal: set) -> bool:
    """`head sa` against `head sb`. A pair found unequal is recorded, as
    the sides of an unfolded definition hold the same argument objects."""
    for u, v, arg_at in zip(sa, sb, spine_domains(sig, ctx, head, sa)):
        if ((u, v) in unequal
                or not _conv(sig, ctx, u, v, arg_at, fuel, unequal)):
            unequal.add((u, v))
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
        entry = sig.entries.get(head.name)
        k = entry.kind if entry is not None else None
    mapping: dict[str, Term] = {}
    for u in args:
        if isinstance(k, PiKind):
            yield (subst_parallel(k.domain, mapping)
                   if isinstance(k.domain, PiKind) else None)
            mapping[k.var] = u
            k = k.codomain
        else:  # past the end of the head's product, or no kind at all
            yield None


def equal_kinds(sig: Signature, ctx: Context, k1: Kind, k2: Kind,
                fuel: Fuel) -> bool:
    t1, t2 = type(k1), type(k2)
    if t1 is not t2:
        return False
    if t1 is TypeKind or t1 is PropKind:
        return True
    if t1 is ElKind or t1 is PrfKind:  # at Type or Prop: no eta
        return _conv(sig, ctx, k1.body, k2.body, None, fuel, set())
    if t1 is PiKind:
        if not equal_kinds(sig, ctx, k1.domain, k2.domain, fuel):
            return False
        x, ctx2 = ctx.bind(k1.var, k1.domain, k1, k2)
        c1 = rename(k1.codomain, k1.var, x)
        c2 = rename(k2.codomain, k2.var, x)
        return equal_kinds(sig, ctx2, c1, c2, fuel)
    raise TypeError(f"not a kind: {k1!r}")


# ------------------------------------------------------------- inference

def infer_kind(sig: Signature, ctx: Context, t: Term, fuel: Fuel) -> Kind:
    """The kind of t. The leading arguments of a spine are inferred by
    recursion and the last one in the loop, so a numeral costs no stack.
    An argument is checked against its domain (`check_against`), so a
    lambda argument's annotation is not validated again."""
    if isinstance(t, App):
        # the commonest node first
        outer = []  # each enclosing spine: its last argument, that
        # argument's domain, the product it is the domain of, its map
        while True:
            # walk the spine once; the head's kind is instantiated lazily
            head, args = spine(t)
            t = args.pop() if isinstance(args[-1], App) else None
            k = infer_kind(sig, ctx, head, fuel)
            mapping: dict[str, Term] = {}
            keys = 0  # the mask of mapping's names
            for i, arg in enumerate(args):
                if not isinstance(k, PiKind):
                    raise not_a_product(head, args[:i], k, mapping)
                domain = subst_masked(k.domain, mapping, keys)
                arg_kind = check_against(sig, ctx, arg, domain, fuel)
                if arg_kind is not None:
                    raise _domain_mismatch(arg, domain, arg_kind)
                mapping[k.var] = arg
                keys |= name_mask(k.var)
                k = k.codomain
            if t is None:
                break
            if not isinstance(k, PiKind):
                raise not_a_product(head, args, k, mapping)
            outer.append((t, subst_masked(k.domain, mapping, keys), k,
                          mapping, keys))
        k = subst_masked(k, mapping, keys)
        while outer:
            arg, domain, product, mapping, keys = outer.pop()
            if not equal_kinds(sig, ctx, k, domain, fuel):
                raise _domain_mismatch(arg, domain, k)
            mapping[product.var] = arg
            k = subst_masked(product.codomain, mapping,
                             keys | name_mask(product.var))
        return k
    if isinstance(t, Var):
        k = ctx.lookup(t.name)
        if k is None:
            raise UnboundVariable(
                f"variable {t.name!r} is not in the context",
                diagnostic=Diagnostic("var", subject=t))
        return k
    if isinstance(t, Const):
        entry = sig.entries.get(t.name)
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
        check_kind_valid(sig, ctx, t.ann, fuel)
        x, ctx2 = ctx.bind(t.var, t.ann, t)
        body_kind = infer_kind(sig, ctx2, rename(t.body, t.var, x), fuel)
        return PiKind(x, t.ann, body_kind)
    raise TypeError(f"not a term: {t!r}")


def check_against(sig: Signature, ctx: Context, t: Term, expected: Kind,
                  fuel: Fuel) -> Optional[Kind]:
    """None when t has kind `expected`, else the kind `infer_kind` gives t.
    The caller guarantees that `expected` is valid in ctx, so a lambda is
    checked against it by the rule in the module docstring. A binder opens
    under the name inference gives it: one not in ctx, so not free in
    `expected`, and so the name `equal_kinds` would pick as well."""
    opened = []
    while (type(t) is Lam and type(expected) is PiKind
           and alpha_eq(t.ann, expected.domain)):
        x, ctx = ctx.bind(t.var, t.ann, t)
        opened.append((x, t.ann))
        t = rename(t.body, t.var, x)
        expected = rename(expected.codomain, expected.var, x)
    actual = infer_kind(sig, ctx, t, fuel)
    if equal_kinds(sig, ctx, actual, expected, fuel):
        return None
    for x, ann in reversed(opened):
        actual = PiKind(x, ann, actual)
    return actual


def not_a_product(head: Term, args: list, k: Kind,
                  mapping: dict) -> NotAProduct:
    """The rejection of `head args` applied to one more argument, where
    `k` under `mapping` is its kind, not a product."""
    return NotAProduct(
        "application of a term whose kind is not a product",
        diagnostic=Diagnostic("app-fn", subject=app(head, *args),
                              actual=subst_parallel(k, mapping)))


def _domain_mismatch(arg: Term, domain: Kind,
                     arg_kind: Kind) -> DomainMismatch:
    return DomainMismatch(
        "argument kind does not match the function's domain",
        diagnostic=Diagnostic("app-domain", subject=arg, expected=domain,
                              actual=arg_kind))


def check_kind_valid(sig: Signature, ctx: Context, k: Kind,
                     fuel: Fuel) -> None:
    if isinstance(k, (TypeKind, PropKind)):
        return
    if isinstance(k, (ElKind, PrfKind)):
        sort, name, what, rule = (
            (TYPE, "Type", "a type", "el-body") if type(k) is ElKind
            else (PROP, "Prop", "a proposition", "prf-body"))
        body_kind = infer_kind(sig, ctx, k.body, fuel)
        if type(body_kind) is not type(sort):
            raise IllFormedKind(
                f"only a term of kind {name} can be used as {what}",
                diagnostic=Diagnostic(rule, subject=k.body, expected=sort,
                                      actual=body_kind))
        return
    if isinstance(k, PiKind):
        check_kind_valid(sig, ctx, k.domain, fuel)
        x, ctx2 = ctx.bind(k.var, k.domain, k)
        check_kind_valid(sig, ctx2, rename(k.codomain, k.var, x), fuel)
        return
    raise TypeError(f"not a kind: {k!r}")


def check_context(sig: Signature, entries, fuel: Fuel) -> Context:
    """Validate a sequence of (name, kind) entries left to right and build
    the Context. Raises DuplicateVariable on repeated names."""
    ctx = EMPTY_CONTEXT
    for name, kind in entries:
        check_kind_valid(sig, ctx, kind, fuel)
        ctx = ctx.extend(name, kind)
    return ctx


def check_term(sig: Signature, ctx: Context, t: Term, expected: Kind,
               fuel: Fuel) -> None:
    """Require `expected` to be a valid kind in ctx, and t to have it."""
    check_kind_valid(sig, ctx, expected, fuel)
    actual = check_against(sig, ctx, t, expected, fuel)
    if actual is not None:
        raise KindMismatch(
            "term does not have the required kind",
            diagnostic=Diagnostic("check", subject=t, expected=expected,
                                  actual=actual))
