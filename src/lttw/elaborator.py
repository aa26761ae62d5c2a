"""Elaboration: resolve names, fill holes, coerce terms used as kinds.

A surface name resolves to the innermost binder of that name in scope,
else to a constant of the signature. Kernel contexts hold each name once,
so a binder that shadows a name already in the context enters it under a
fresh kernel name (from `Context.bind`); the elaborator's scope maps the
surface name to that kernel name and hides the fresh name from surface
lookup, so `x1` written under `[x : Nat] [x : Nat]` never reaches the
renamed binder. Surface syntax is never rewritten.

Unification is the kernel's conversion plus holes, first-order and eager:
both sides are reduced to weak-head form (metavariable heads block). A
side that is a bare hole is solved to the other side, before eta; else the
two are compared at their kind, with eta only when it is a product (None:
no eta), and spines with one variable or constant head are compared
argument by argument at their domains. A constraint with a hole applied to
arguments is postponed: the queue is retried when a top-level unification
ends and when the command finishes, and what is left then is reported.
Nothing is inverted: in `T ?m ~ Nat`, a hole behind a rewrite-rule head,
the heads mismatch unless another constraint has solved ?m first.

A hole's solution may only mention variables that were in scope where the
hole was written; solutions are final once recorded; every hole of a command
must be solved by the end of it. Elaborated output is Meta-free, and the
kernel alone checks it: in the checker's commit, or at the end of
`elaborate` and `elaborate_kind`. A kind equality that involves no hole is
recorded as an obligation, which that check decides. The elaborator only
explains a rejection (`Elaborator.explain`), deciding the obligations in
order with the steps deciding them in place would have had left.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import (
    Diagnostic, FuelExhausted, IllFormedKind, KindMismatch, LttwError,
    NotAProduct, SourceSpan, UnknownConstant,
)
from . import kernel
from .kernel import Context, Fuel, Signature
from .surface import (
    SApp, SEl, SHole, SLam, SName, SPi, SProp, SPrf, SType, STermKind,
    SurfaceKind, SurfaceTerm,
)
from .syntax import (
    HOLES, PROP, TYPE, App, Const, ElKind, Kind, Lam, Meta, PiKind,
    PrfKind, PropKind, Term, TypeKind, Var, alpha_eq, contains_meta,
    free_vars, metas_of, rename, spine, subst_parallel,
)


class ElabError(LttwError):
    pass


class UnsolvedMeta(ElabError):
    pass


class UnificationFailure(ElabError):
    pass


class OccursCheck(UnificationFailure):
    pass


class ScopeEscape(UnificationFailure):
    pass


class Mismatch(UnificationFailure):
    pass


def _kind_mismatch(span, rule: str, expected: Kind,
                   actual: Kind) -> KindMismatch:
    return KindMismatch("kind does not match what this position requires",
                        span=span,
                        diagnostic=Diagnostic(rule, expected=expected,
                                              actual=actual))


@dataclass
class MetaInfo:
    scope: frozenset
    span: Optional[SourceSpan]


class MetaState:
    """Metavariables and pending constraints for one command."""

    def __init__(self):
        self.counter = 0
        self.info: dict[int, MetaInfo] = {}
        self.solutions: dict[int, Term] = {}
        self.queue: list[tuple] = []  # (ctx, a, b, at)

    def fresh(self, ctx: Context, span: Optional[SourceSpan] = None) -> Meta:
        ident = self.counter
        self.counter += 1
        self.info[ident] = MetaInfo(frozenset(ctx.names()), span)
        return Meta(ident)

    def zonk(self, e):
        """Apply current solutions throughout a term or kind. Subterms
        without a solved hole are shared, not copied, and a subterm without
        a hole is not walked."""
        if not self.solutions or not e.mask & HOLES:
            return e
        cls = type(e)
        if cls is Meta:
            sol = self.solutions.get(e.ident)
            return e if sol is None else self.zonk(sol)
        if cls is App:
            fn, arg = self.zonk(e.fn), self.zonk(e.arg)
            return e if fn is e.fn and arg is e.arg else App(fn, arg)
        if cls is Lam:
            ann, body = self.zonk(e.ann), self.zonk(e.body)
            return e if ann is e.ann and body is e.body \
                else Lam(e.var, ann, body)
        if cls is ElKind or cls is PrfKind:
            body = self.zonk(e.body)
            return e if body is e.body else cls(body)
        # the only other node a hole can occur in
        dom, cod = self.zonk(e.domain), self.zonk(e.codomain)
        return e if dom is e.domain and cod is e.codomain \
            else PiKind(e.var, dom, cod)


class Elaborator:
    def __init__(self, sig: Signature, fuel: Fuel):
        self.sig = sig
        self.fuel = fuel
        self.state = MetaState()
        # surface name -> kernel name, for the binders `_bind` renamed;
        # None hides a fresh kernel name from surface lookup
        self.scope: dict[str, Optional[str]] = {}
        # each kind equality without holes, as (ctx, actual, expected,
        # span, rule, steps spent so far), for `explain`
        self.obligations: list = []

    # ----------------------------------------------------------- terms

    def term(self, ctx: Context, s: SurfaceTerm,
             expected: Optional[Kind]) -> tuple[Term, Kind]:
        if isinstance(s, SName):
            t, k = self._name(ctx, s)
            return self._against(ctx, t, k, expected, s.span)
        if isinstance(s, SHole):
            if expected is None:
                raise UnsolvedMeta(
                    "hole in a position whose kind is not determined",
                    span=s.span, diagnostic=Diagnostic("hole-kind"))
            m = self.state.fresh(ctx, s.span)
            return m, expected
        if isinstance(s, SLam):
            return self._lambda(ctx, s, expected)
        if isinstance(s, SApp):
            return self._application(ctx, s, expected)
        raise TypeError(f"not a surface term: {s!r}")

    def _name(self, ctx: Context, s: SName) -> tuple[Term, Kind]:
        x = self.scope.get(s.name, s.name)
        k = ctx.lookup(x)
        if k is not None:
            return Var(x), k
        entry = self.sig.get(s.name)
        if entry is not None:
            return Const(s.name), entry.kind
        raise UnknownConstant(
            f"unknown name {s.name!r}", span=s.span,
            diagnostic=Diagnostic("name-declared", subject=Const(s.name)))

    def _against(self, ctx: Context, t: Term, k: Kind,
                 expected: Optional[Kind], span) -> tuple[Term, Kind]:
        if expected is not None:
            self._require_kinds_equal(ctx, k, expected, span, "check")
            return t, expected
        return t, k

    def _require_kinds_equal(self, ctx: Context, actual: Kind,
                             expected: Kind, span, rule: str) -> None:
        """An obligation for the kernel when no holes are involved, else
        unification. A command that has made no hole needs no scan."""
        a = self.state.zonk(actual)
        e = self.state.zonk(expected)
        if self.state.counter == 0 or not (
                contains_meta(a) or contains_meta(e)):
            self.obligations.append(
                (ctx, a, e, span, rule, self.fuel.limit - self.fuel.left))
            return
        self.unify_kinds(ctx, a, e, span)

    def explain(self, error: Exception) -> Exception:
        """The error this command would have raised had every obligation
        been decided in place, given that elaborating it with them
        recorded, and then checking the result, raised `error`.

        The obligations are decided in order, each with the steps deciding
        in place would have had left at that point: the first that is
        false or runs out of steps gives the error. When all hold, `error`
        stands, unless its steps and theirs together overrun the budget."""
        budget = self.fuel.limit
        used = 0  # steps the obligations decided so far took
        for ctx, actual, expected, span, rule, spent in self.obligations:
            left = budget - spent - used
            if left < 0:
                # elaboration would have run out before this obligation
                return self.fuel.exhausted()
            fuel = Fuel(budget)
            fuel.left = left
            try:
                if not kernel.equal_kinds(self.sig, ctx, actual, expected,
                                          fuel):
                    return _kind_mismatch(span, rule, expected, actual)
            except FuelExhausted as e:
                return e
            used += left - fuel.left
        if used > self.fuel.left:
            return self.fuel.exhausted()
        return error

    def _lambda(self, ctx: Context, s: SLam,
                expected: Optional[Kind]) -> tuple[Term, Kind]:
        if expected is not None and not isinstance(expected, PiKind):
            raise KindMismatch(
                "an abstraction only has product kinds",
                span=s.span,
                diagnostic=Diagnostic("lam-kind", expected=expected))
        if s.ann is not None:
            dom = self.kind(ctx, s.ann)
            if isinstance(expected, PiKind):
                self._require_kinds_equal(ctx, dom, expected.domain, s.span,
                                          "lam-domain")
        elif isinstance(expected, PiKind):
            dom = expected.domain
        else:
            raise UnsolvedMeta(
                f"binder {s.var!r} needs an annotation here", span=s.span,
                diagnostic=Diagnostic("lam-annotation"))
        x, ctx2, outer = self._bind(ctx, s.var, dom)
        try:
            cod = None
            if isinstance(expected, PiKind):
                cod = rename(expected.codomain, expected.var, x)
            body, body_kind = self.term(ctx2, s.body, cod)
        finally:
            self.scope = outer
        result_kind = expected if expected is not None \
            else PiKind(x, dom, body_kind)
        return Lam(x, dom, body), result_kind

    def _application(self, ctx: Context, s: SApp,
                     expected: Optional[Kind]) -> tuple[Term, Kind]:
        """`term` of an application. The leading arguments are elaborated
        by recursion and a last argument that is an application in the
        loop, so a numeral costs no stack."""
        outer = []  # each enclosing application: its span and expected
        # kind, its head and leading arguments, the product its last
        # argument is the domain of, and its map so far
        while True:
            chain = []
            fn = s
            while isinstance(fn, SApp):
                chain.append(fn.arg)
                fn = fn.fn
            chain.reverse()
            inner = chain.pop() if isinstance(chain[-1], SApp) else None
            t, k = self.term(ctx, fn, None)
            # the head's kind is instantiated lazily, as in the kernel
            mapping: dict[str, Term] = {}
            for arg_s in chain:
                if not isinstance(k, PiKind):
                    raise self._too_many_arguments(arg_s, k, mapping)
                domain = subst_parallel(k.domain, mapping)
                arg, _ = self.term(ctx, arg_s, domain)
                t = App(t, arg)
                mapping[k.var] = arg
                k = k.codomain
            if inner is None:
                break
            if not isinstance(k, PiKind):
                raise self._too_many_arguments(inner, k, mapping)
            outer.append((s.span, expected, t, k, mapping))
            s, expected = inner, subst_parallel(k.domain, mapping)
        t, k = self._against(ctx, t, subst_parallel(k, mapping), expected,
                             s.span)
        while outer:
            span, expected, fn, product, mapping = outer.pop()
            mapping[product.var] = t
            t, k = self._against(ctx, App(fn, t), subst_parallel(
                product.codomain, mapping), expected, span)
        return t, k

    def _too_many_arguments(self, arg_s, k: Kind,
                            mapping: dict) -> NotAProduct:
        return NotAProduct(
            "too many arguments: the head's kind is not a product here",
            span=getattr(arg_s, "span", None),
            diagnostic=Diagnostic("app-fn", actual=self.state.zonk(
                subst_parallel(k, mapping))))

    def _bind(self, ctx: Context, name: str, kind: Kind):
        """Enter the surface binder `name`: its kernel name, the extended
        context and the scope to restore on leaving it. A name already in
        the context gets a fresh kernel name; the surface name resolves to
        it, and surface lookup of the fresh name itself finds no binder, so
        a constant of that name stays a constant. The fresh name may be a
        constant's: the kernel tells `Var` from `Const`, and the printer
        renames a binder that would capture a constant it prints."""
        x, ctx2 = ctx.bind(name, kind)
        outer = self.scope
        if x != name:
            self.scope = {**outer, name: x, x: None}
        return x, ctx2, outer

    # ----------------------------------------------------------- kinds

    def kind(self, ctx: Context, s: SurfaceKind) -> Kind:
        if isinstance(s, SType):
            return TYPE
        if isinstance(s, SProp):
            return PROP
        if isinstance(s, SEl):
            t, _ = self.term(ctx, s.body, TYPE)
            return ElKind(t)
        if isinstance(s, SPrf):
            t, _ = self.term(ctx, s.body, PROP)
            return PrfKind(t)
        if isinstance(s, SPi):
            dom = self.kind(ctx, s.domain)
            x, ctx2, outer = self._bind(ctx, s.var, dom)
            try:
                return PiKind(x, dom, self.kind(ctx2, s.codomain))
            finally:
                self.scope = outer
        if isinstance(s, STermKind):
            t, k = self.term(ctx, s.term, None)
            k = self.state.zonk(k)
            if isinstance(k, TypeKind):
                return ElKind(t)
            if isinstance(k, PropKind):
                return PrfKind(t)
            raise IllFormedKind(
                "a term used as a kind must be a type or a proposition",
                span=s.span,
                diagnostic=Diagnostic("kind-coercion", subject=t, actual=k))
        raise TypeError(f"not a surface kind: {s!r}")

    # ----------------------------------------------------- unification

    def unify_kinds(self, ctx: Context, k1: Kind, k2: Kind, span) -> None:
        k1 = self.state.zonk(k1)
        k2 = self.state.zonk(k2)
        t1, t2 = type(k1), type(k2)
        if t1 is not t2:
            raise Mismatch(
                "kinds with different shapes cannot be made equal",
                span=span,
                diagnostic=Diagnostic("kind-unify", expected=k2, actual=k1))
        if t1 in (TypeKind, PropKind):
            return
        if t1 is ElKind or t1 is PrfKind:  # at Type or Prop: no eta
            self.unify(ctx, k1.body, k2.body, None, span)
            return
        if t1 is PiKind:
            self.unify_kinds(ctx, k1.domain, k2.domain, span)
            x, ctx2 = ctx.bind(k1.var, k1.domain, k1, k2)
            c1 = rename(k1.codomain, k1.var, x)
            c2 = rename(k2.codomain, k2.var, x)
            self.unify_kinds(ctx2, c1, c2, span)
            return
        raise TypeError(f"not a kind: {k1!r}")

    def unify(self, ctx: Context, a: Term, b: Term, at: Optional[Kind],
              span=None) -> None:
        """Make a and b equal at `at`, the kind both have, solving holes.
        Eta only when `at` is a product; None means no eta at this level."""
        self._unify(ctx, a, b, at, span)
        self._drain(span)

    def _unify(self, ctx: Context, a: Term, b: Term, at: Optional[Kind],
               span) -> None:
        a = kernel.whnf(self.sig, self.state.zonk(a), self.fuel)
        b = kernel.whnf(self.sig, self.state.zonk(b), self.fuel)
        if alpha_eq(a, b):
            return
        # a bare hole is solved before eta, which would only hide it under
        # an application no first-order step can solve
        if isinstance(a, Meta):
            self._solve(ctx, a.ident, b, span)
            return
        if isinstance(b, Meta):
            self._solve(ctx, b.ident, a, span)
            return
        at = self.state.zonk(at) if at is not None else None
        if isinstance(at, PiKind):
            x, ctx2 = ctx.bind(at.var, at.domain, a, b, at)
            cod = rename(at.codomain, at.var, x)
            self._unify(ctx2, App(a, Var(x)), App(b, Var(x)), cod, span)
            return
        ha, sa = spine(a)
        hb, sb = spine(b)
        if isinstance(ha, Meta) or isinstance(hb, Meta):
            self.state.queue.append((ctx, a, b, at, span))
            return
        if (isinstance(ha, (Var, Const)) and type(ha) is type(hb)
                and ha.name == hb.name and len(sa) == len(sb)):
            for u, v, arg_at in zip(sa, sb, kernel.spine_domains(
                    self.sig, ctx, ha, sa)):
                self._unify(ctx, u, v, arg_at, span)
            return
        raise Mismatch(
            "terms with different rigid heads cannot be made equal",
            span=span,
            diagnostic=Diagnostic("unify-rigid", subject=a, expected=b))

    def _solve(self, ctx: Context, ident: int, value: Term, span) -> None:
        value = self.state.zonk(value)
        if isinstance(value, Meta) and value.ident == ident:
            return
        if ident in metas_of(value):
            raise OccursCheck(
                "a hole's solution mentions the hole itself", span=span,
                diagnostic=Diagnostic("occurs", subject=value))
        info = self.state.info[ident]
        escaped = free_vars(value) - info.scope
        if escaped:
            raise ScopeEscape(
                "solution mentions variables not in scope at the hole: "
                + ", ".join(sorted(escaped)),
                span=span or info.span,
                diagnostic=Diagnostic("scope", subject=value))
        self.state.solutions[ident] = value

    def _drain(self, span) -> None:
        progress = True
        while progress and self.state.queue:
            progress = False
            pending = self.state.queue
            self.state.queue = []
            for (ctx, a, b, at, sp) in pending:
                q_before = len(self.state.queue)
                s_before = len(self.state.solutions)
                self._unify(ctx, a, b, at, sp)
                if (len(self.state.solutions) > s_before
                        or len(self.state.queue) == q_before):
                    progress = True
            # a constraint re-queued without solving anything is only
            # retried if some other constraint made progress

    # ---------------------------------------------------------- finish

    def finish_term(self, e, span=None):
        """Drain the pending constraints and return the term or kind `e`
        with every hole filled; raises if a hole or constraint is left.
        A command that made no hole has nothing to drain or fill."""
        if self.state.counter == 0:
            return e
        self._drain(span)
        e = self.state.zonk(e)
        left = metas_of(e)
        if left or self.state.queue:
            self._report_unsolved(left, span)
        return e

    finish_kind = finish_term

    def _report_unsolved(self, left: set, span) -> None:
        if self.state.queue:
            ctx, a, b, at, sp = self.state.queue[0]
            raise UnificationFailure(
                "constraints remain that first-order unification cannot "
                "decide", span=sp or span,
                diagnostic=Diagnostic("postponed", subject=self.state.zonk(a),
                                      expected=self.state.zonk(b)))
        ident = min(left)
        info = self.state.info[ident]
        raise UnsolvedMeta("a hole was never determined",
                           span=info.span or span,
                           diagnostic=Diagnostic("hole-solved"))


def elaborate(sig: Signature, ctx: Context, s: SurfaceTerm,
              expected: Optional[Kind] = None, *, fuel: Fuel) -> Term:
    """Elaborate one surface term; the kernel then checks it at its kind."""
    el = Elaborator(sig, fuel)
    span = getattr(s, "span", None)
    try:
        t, k = el.term(ctx, s, expected)
        t = el.finish_term(t, span)
        kernel.check_term(sig, ctx, t, el.finish_kind(k, span), fuel)
        return t
    except Exception as e:
        raise el.explain(e)


def elaborate_kind(sig: Signature, ctx: Context, s: SurfaceKind,
                   fuel: Fuel) -> Kind:
    """Elaborate one surface kind; the kernel then validates it."""
    el = Elaborator(sig, fuel)
    try:
        k = el.finish_kind(el.kind(ctx, s), getattr(s, "span", None))
        kernel.check_kind_valid(sig, ctx, k, fuel)
        return k
    except Exception as e:
        raise el.explain(e)


def unify(sig: Signature, ctx: Context, a: Term, b: Term,
          at: Optional[Kind], state: MetaState, fuel: Fuel) -> None:
    """Standalone entry point over an existing MetaState."""
    el = Elaborator(sig, fuel)
    el.state = state
    el.unify(ctx, a, b, at)
