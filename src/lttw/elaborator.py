"""Elaboration: resolve names, fill holes, coerce terms used as kinds;
and translation of explicit commands, which only resolves names.

A surface name resolves to the innermost binder of that name in scope,
else to a constant of the signature. Kernel contexts hold each name once,
so a binder that shadows a name already in the context enters it under a
fresh kernel name (from `Context.bind`); the elaborator's scope maps the
surface name to that kernel name and hides the fresh name from surface
lookup, so `x1` written under `[x : Nat] [x : Nat]` never reaches the
renamed binder. Surface syntax is never rewritten.

Unification is the kernel's conversion plus holes, first-order and eager:
both sides are reduced to weak-head form on split spines, as conversion
reduces them (`kernel.whnf_spine`; metavariable heads block). A
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

A position travels as the surface node or command to blame (`blame`), not
as a span: a node builds its span on demand, and only an error or
`explain` asks for one.

A command with no hole and no lambda without an annotation (`explicit`)
gives the elaborator nothing to solve: every equality it meets becomes an
obligation. The `Translator` builds such a command's terms and kinds with
the Elaborator's name resolution and binder renaming (`Resolver`) and
nothing else, and the checker's commit is the only inference they get. It
gives up where the elaborator would raise without the kernel raising too:
an unknown name, or a term in kind position whose kind is no sort. Either
way the checker then elaborates the command.
"""

from __future__ import annotations

from operator import is_
from typing import Any, Optional

from .errors import (
    Diagnostic, FuelExhausted, IllFormedKind, KindMismatch, LttwError,
    NestingTooDeep, NotAProduct, UnknownConstant,
)
from . import kernel
from .kernel import Context, Fuel, Signature
from .surface import (
    SApp, SEl, SHole, SLam, SLift, SName, SPi, SPrf, SProp, SType,
    SourceSpan, STermKind, SurfaceKind, SurfaceTerm,
)
from .syntax import (
    HOLES, PROP, TYPE, App, Const, ElKind, Kind, Lam, Meta, PiKind,
    PrfKind, PropKind, Term, TypeKind, Var, alpha_eq, app, contains_meta,
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


# each sort, and the kind that lifts a term of that sort
_LIFTS = {TypeKind: ElKind, PropKind: PrfKind}


def _span(blame) -> Optional[SourceSpan]:
    """The span of the node or command to blame, if there is one."""
    return None if blame is None else blame.span


def _kind_mismatch(blame, rule: str, expected: Kind,
                   actual: Kind) -> KindMismatch:
    return KindMismatch("kind does not match what this position requires",
                        span=_span(blame),
                        diagnostic=Diagnostic(rule, expected=expected,
                                              actual=actual))


class MetaState:
    """Metavariables and pending constraints for one command."""

    def __init__(self):
        # by ident: each hole's context and surface node (or None)
        self.info: list[tuple[Context, Any]] = []
        self.solutions: dict[int, Term] = {}
        self.queue: list[tuple] = []  # (ctx, a, b, at, blame)

    def fresh(self, ctx: Context, blame=None) -> Meta:
        self.info.append((ctx, blame))
        return Meta(len(self.info) - 1)

    def zonk(self, e):
        """Apply current solutions throughout a term or kind. Subterms
        without a solved hole are shared, not copied, and a subterm without
        a hole is not walked. The last field is filled in the loop, so a
        numeral costs no stack, and the leading ones by recursion, from a
        plain loop: before Python 3.12 a comprehension is one more frame."""
        if not self.solutions or not e.mask & HOLES:
            return e
        outer = []  # each enclosing node, and its leading fields filled
        while e.mask & HOLES:
            if type(e) is Meta:
                sol = self.solutions.get(e.ident)
                if sol is None:
                    break
                e = sol
                continue
            lead = []
            for f in e[:-2]:
                lead.append(self.zonk(f) if isinstance(f, (Term, Kind))
                            else f)
            outer.append((e, lead))
            e = e[-2]
        while outer:
            node, lead = outer.pop()
            if e is not node[-2] or not all(map(is_, lead, node)):
                node = type(node)(*lead, e)
            e = node
        return e


class Resolver:
    """Name resolution and binder renaming, which the Elaborator and the
    Translator share."""

    def __init__(self, sig: Signature, fuel: Fuel):
        self.sig = sig
        self.fuel = fuel
        # surface name -> kernel name, for the binders `_bind` renamed;
        # None hides a fresh kernel name from surface lookup
        self.scope: dict[str, Optional[str]] = {}

    def _name(self, ctx: Context, s: SName) -> tuple[Term, Kind]:
        x = self.scope.get(s.name, s.name)
        k = ctx.lookup(x)
        if k is not None:
            return Var(x), k
        entry = self.sig.entries.get(s.name)
        if entry is not None:
            return Const(s.name), entry.kind
        raise UnknownConstant(
            f"unknown name {s.name!r}", span=s.span,
            diagnostic=Diagnostic("name-declared", subject=Const(s.name)))

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


class Elaborator(Resolver):
    def __init__(self, sig: Signature, fuel: Fuel):
        super().__init__(sig, fuel)
        self.state = MetaState()
        # each kind equality without holes, as (ctx, actual, expected,
        # blame, rule, steps spent so far), for `explain`: the node or
        # command to blame builds its span only for a rejection
        self.obligations: list = []

    # ----------------------------------------------------------- terms

    def term(self, ctx: Context, s: SurfaceTerm,
             expected: Optional[Kind]) -> tuple[Term, Kind]:
        if isinstance(s, SName):
            t, k = self._name(ctx, s)
            return self._against(ctx, t, k, expected, s)
        if isinstance(s, SHole):
            if expected is None:
                raise UnsolvedMeta(
                    "hole in a position whose kind is not determined",
                    span=s.span, diagnostic=Diagnostic("hole-kind"))
            return self.state.fresh(ctx, s), expected
        if isinstance(s, SLam):
            return self._lambda(ctx, s, expected)
        if isinstance(s, SApp):
            return self._application(ctx, s, expected)
        raise TypeError(f"not a surface term: {s!r}")

    def _against(self, ctx: Context, t: Term, k: Kind,
                 expected: Optional[Kind], blame) -> tuple[Term, Kind]:
        if expected is not None:
            self._require_kinds_equal(ctx, k, expected, blame, "check")
            return t, expected
        return t, k

    def _require_kinds_equal(self, ctx: Context, actual: Kind,
                             expected: Kind, blame, rule: str) -> None:
        """An obligation for the kernel when no holes are involved, else
        unification. A command that has made no hole needs no scan."""
        a = self.state.zonk(actual)
        e = self.state.zonk(expected)
        if not self.state.info or not (
                contains_meta(a) or contains_meta(e)):
            self.obligations.append(
                (ctx, a, e, blame, rule, self.fuel.limit - self.fuel.left))
            return
        self.unify_kinds(ctx, a, e, blame)

    def explain(self, error: Exception) -> Exception:
        """The error this command would have raised had every obligation
        been decided in place, given that elaborating it with them
        recorded, and then checking the result, raised `error`.

        The obligations are decided in order, each with the steps deciding
        in place would have had left at that point: the first that is
        false, runs out of steps or overflows the stack gives the error.
        When all hold, `error` stands, unless its steps and theirs together
        overrun the budget. A stack overflow, the command's own or an
        obligation's, is a NestingTooDeep."""
        budget = self.fuel.limit
        used = 0  # steps the obligations decided so far took
        for ctx, actual, expected, blame, rule, spent in self.obligations:
            left = budget - spent - used
            if left < 0:
                # elaboration would have run out before this obligation
                return self.fuel.exhausted()
            fuel = Fuel(budget)
            fuel.left = left
            try:
                if not kernel.equal_kinds(self.sig, ctx, actual, expected,
                                          fuel):
                    return _kind_mismatch(blame, rule, expected, actual)
            except (FuelExhausted, RecursionError) as e:
                error = e
                break
            used += left - fuel.left
        else:
            if used > self.fuel.left:
                return self.fuel.exhausted()
        if isinstance(error, RecursionError):
            return NestingTooDeep("command nests too deeply to check",
                                  diagnostic=Diagnostic("depth"))
        return error

    def _lambda(self, ctx: Context, s: SLam,
                expected: Optional[Kind]) -> tuple[Term, Kind]:
        if expected is not None and not isinstance(expected, PiKind):
            raise KindMismatch(
                "an abstraction only has product kinds", span=s.span,
                diagnostic=Diagnostic("lam-kind", expected=expected))
        if s.ann is not None:
            dom = self.kind(ctx, s.ann)
            if isinstance(expected, PiKind):
                self._require_kinds_equal(ctx, dom, expected.domain, s,
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
        outer = []  # each enclosing application and its expected kind,
        # its head and leading arguments, the product its last argument is
        # the domain of, and its map so far
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
            outer.append((s, expected, t, k, mapping))
            s, expected = inner, subst_parallel(k.domain, mapping)
        t, k = self._against(ctx, t, subst_parallel(k, mapping), expected,
                             s)
        while outer:
            s, expected, fn, product, mapping = outer.pop()
            mapping[product.var] = t
            t, k = self._against(ctx, App(fn, t), subst_parallel(
                product.codomain, mapping), expected, s)
        return t, k

    def _too_many_arguments(self, arg_s, k: Kind,
                            mapping: dict) -> NotAProduct:
        return NotAProduct(
            "too many arguments: the head's kind is not a product here",
            span=arg_s.span,
            diagnostic=Diagnostic("app-fn", actual=self.state.zonk(
                subst_parallel(k, mapping))))

    # ----------------------------------------------------------- kinds

    def kind(self, ctx: Context, s: SurfaceKind) -> Kind:
        if isinstance(s, SType):
            return TYPE
        if isinstance(s, SProp):
            return PROP
        if isinstance(s, SLift):
            sort = TYPE if isinstance(s, SEl) else PROP
            t, _ = self.term(ctx, s.body, sort)
            return _LIFTS[type(sort)](t)
        if isinstance(s, SPi):
            dom = self.kind(ctx, s.domain)
            x, ctx2, outer = self._bind(ctx, s.var, dom)
            try:
                return PiKind(x, dom, self.kind(ctx2, s.codomain))
            finally:
                self.scope = outer
        if isinstance(s, STermKind):
            return self._coerce(ctx, s)
        raise TypeError(f"not a surface kind: {s!r}")

    def _coerce(self, ctx: Context, s: STermKind) -> Kind:
        """El or Prf of a term written where a kind belongs, by its kind."""
        t, k = self.term(ctx, s.term, None)
        k = self.state.zonk(k)
        if type(k) in _LIFTS:
            return _LIFTS[type(k)](t)
        raise IllFormedKind(
            "a term used as a kind must be a type or a proposition",
            span=s.span,
            diagnostic=Diagnostic("kind-coercion", subject=t, actual=k))

    # ----------------------------------------------------- unification

    def unify_kinds(self, ctx: Context, k1: Kind, k2: Kind, blame) -> None:
        k1 = self.state.zonk(k1)
        k2 = self.state.zonk(k2)
        t1, t2 = type(k1), type(k2)
        if t1 is not t2:
            raise Mismatch(
                "kinds with different shapes cannot be made equal",
                span=_span(blame),
                diagnostic=Diagnostic("kind-unify", expected=k2, actual=k1))
        if t1 in (TypeKind, PropKind):
            return
        if t1 is ElKind or t1 is PrfKind:  # at Type or Prop: no eta
            self.unify(ctx, k1.body, k2.body, None, blame)
            return
        if t1 is PiKind:
            self.unify_kinds(ctx, k1.domain, k2.domain, blame)
            x, ctx2 = ctx.bind(k1.var, k1.domain, k1, k2)
            self.unify_kinds(ctx2, rename(k1.codomain, k1.var, x),
                             rename(k2.codomain, k2.var, x), blame)
            return
        raise TypeError(f"not a kind: {k1!r}")

    def unify(self, ctx: Context, a: Term, b: Term, at: Optional[Kind],
              blame=None) -> None:
        """Make a and b equal at `at`, the kind both have, solving holes.
        Eta only when `at` is a product; None means no eta at this level."""
        self._unify(ctx, a, b, at, blame)
        self._drain()

    def _unify(self, ctx: Context, a: Term, b: Term, at: Optional[Kind],
               blame) -> None:
        """`unify` short of draining the queue. Of two spines with one rigid
        head, the last argument pair is unified in the loop, at no stack."""
        while True:
            a, ha, sa = self._whnf(a)
            b, hb, sb = self._whnf(b)
            if alpha_eq(a, b):
                return
            # a bare hole is solved before eta, which would only hide it
            # under an application no first-order step can solve
            if isinstance(a, Meta):
                self._solve(ctx, a.ident, b, blame)
                return
            if isinstance(b, Meta):
                self._solve(ctx, b.ident, a, blame)
                return
            at = self.state.zonk(at) if at is not None else None
            if isinstance(at, PiKind):
                x, ctx = ctx.bind(at.var, at.domain, a, b, at)
                a, b = App(a, Var(x)), App(b, Var(x))
                at = rename(at.codomain, at.var, x)
                continue
            if isinstance(ha, Meta) or isinstance(hb, Meta):
                self.state.queue.append((ctx, a, b, at, blame))
                return
            if not (isinstance(ha, (Var, Const)) and type(ha) is type(hb)
                    and ha.name == hb.name and len(sa) == len(sb)):
                raise Mismatch(
                    "terms with different rigid heads cannot be made equal",
                    span=_span(blame), diagnostic=Diagnostic(
                        "unify-rigid", subject=a, expected=b))
            # equal bare heads were alpha-equal: the spines are not empty
            *leading, (a, b, at) = zip(sa, sb, kernel.spine_domains(
                self.sig, ctx, ha, sa))
            for u, v, arg_at in leading:
                self._unify(ctx, u, v, arg_at, blame)

    def _whnf(self, t: Term) -> tuple[Term, Term, list]:
        """t with its holes filled, in weak-head form, and that form's
        head and arguments. A term unchanged by reduction is not rebuilt."""
        t = self.state.zonk(t)
        head, args = spine(t)
        head2, args2 = kernel.whnf_spine(self.sig, head, args, self.fuel)
        return (t if args2 is args else app(head2, *args2)), head2, args2

    def _solve(self, ctx: Context, ident: int, value: Term, blame) -> None:
        """Record `value` as the solution of the hole `ident`. `_unify`
        passes it zonked, and not that hole itself."""
        if ident in metas_of(value):
            raise OccursCheck(
                "a hole's solution mentions the hole itself",
                span=_span(blame),
                diagnostic=Diagnostic("occurs", subject=value))
        scope, hole = self.state.info[ident]
        escaped = [x for x in free_vars(value) if scope.lookup(x) is None]
        if escaped:
            raise ScopeEscape(
                "solution mentions variables not in scope at the hole: "
                + ", ".join(sorted(escaped)),
                span=_span(blame or hole),
                diagnostic=Diagnostic("scope", subject=value))
        self.state.solutions[ident] = value

    def _drain(self) -> None:
        progress = True
        while progress and self.state.queue:
            progress = False
            pending = self.state.queue
            self.state.queue = []
            for (ctx, a, b, at, queued) in pending:
                q_before = len(self.state.queue)
                s_before = len(self.state.solutions)
                self._unify(ctx, a, b, at, queued)
                if (len(self.state.solutions) > s_before
                        or len(self.state.queue) == q_before):
                    progress = True
            # a constraint re-queued without solving anything is only
            # retried if some other constraint made progress

    # ---------------------------------------------------------- finish

    def finish_term(self, e, blame=None):
        """Drain the pending constraints and return the term or kind `e`
        with every hole filled; raises if a hole or constraint is left.
        A command that made no hole has nothing to drain or fill."""
        if not self.state.info:
            return e
        self._drain()
        e = self.state.zonk(e)
        left = metas_of(e)
        if left or self.state.queue:
            self._report_unsolved(left, blame)
        return e

    finish_kind = finish_term

    def _report_unsolved(self, left: set, blame) -> None:
        if self.state.queue:
            ctx, a, b, at, queued = self.state.queue[0]
            raise UnificationFailure(
                "constraints remain that first-order unification cannot "
                "decide", span=_span(queued or blame),
                diagnostic=Diagnostic("postponed", subject=self.state.zonk(a),
                                      expected=self.state.zonk(b)))
        _, hole = self.state.info[min(left)]
        raise UnsolvedMeta("a hole was never determined",
                           span=_span(hole or blame),
                           diagnostic=Diagnostic("hole-solved"))


class Untranslatable(Exception):
    """The translator gives a command up; the elaborator runs it."""


class Translator(Resolver):
    """The terms and kinds of an explicit command, built with the
    Elaborator's interface, so that the checker runs a command with
    either. A bare term in kind position becomes El or Prf by the sort its
    head's kind ends in after one product per argument: substitution never
    changes a kind's constructor, so that is the sort the elaborator's
    instantiated kind has."""

    def term(self, ctx: Context, s: SurfaceTerm,
             expected: Optional[Kind]) -> tuple[Term, Optional[Kind]]:
        return self._term(ctx, s), expected

    def _term(self, ctx: Context, s: SurfaceTerm) -> Term:
        """The leading arguments of an application are translated by
        recursion and its last argument in the loop, as `_application`
        elaborates them."""
        outer = []  # each enclosing application's head, leading arguments
        while type(s) is SApp:
            chain = []
            while type(s) is SApp:
                chain.append(s.arg)
                s = s.fn
            lead = [self._term(ctx, s)]
            for arg_s in reversed(chain[1:]):
                lead.append(self._term(ctx, arg_s))
            outer.append(lead)
            s = chain[0]
        if type(s) is SName:
            t = self._name(ctx, s)[0]
        elif type(s) is SLam and s.ann is not None:
            dom = self.kind(ctx, s.ann)
            x, ctx2, scope = self._bind(ctx, s.var, dom)
            try:
                t = Lam(x, dom, self._term(ctx2, s.body))
            finally:
                self.scope = scope
        else:
            raise Untranslatable(f"not an explicit surface term: {s!r}")
        while outer:
            t = app(*outer.pop(), t)
        return t

    # the Elaborator's walk, which calls `term` and `_coerce`; taken from
    # the class itself, so perfbench's tracer, which wraps the Elaborator's
    # methods, books translation under the checker
    kind = Elaborator.kind

    def _coerce(self, ctx: Context, s: STermKind) -> Kind:
        t = self._term(ctx, s.term)
        head, args = spine(t)
        k = None  # a lambda head gives up
        if type(head) is Var:
            k = ctx.lookup(head.name)
        elif type(head) is Const:
            k = self.sig.entries[head.name].kind
        for _ in args:
            k = k.codomain if type(k) is PiKind else None
        lift = _LIFTS.get(type(k))
        if lift is None:
            raise Untranslatable("not a type or a proposition")
        return lift(t)

    @staticmethod
    def finish_term(e, blame=None):
        return e

    finish_kind = finish_term


def explicit(nodes) -> bool:
    """Whether the surface terms and kinds `nodes` hold no hole, no None
    and no lambda without an annotation, so that the Translator can build
    them. Each node is walked to its end before the next, so a caller
    that puts a term before its kind finds a hole in the term without
    walking the kind."""
    stack = list(nodes)
    stack.reverse()
    while stack:
        s = stack.pop()
        cls = type(s)
        if cls is SApp:
            stack += s.arg, s.fn
        elif cls is SName or cls is SType or cls is SProp:
            continue
        elif cls is SLam:
            if s.ann is None:
                return False
            stack += s.body, s.ann
        elif cls is SPi:
            stack += s.codomain, s.domain
        elif cls is STermKind:
            stack.append(s.term)
        elif cls is SEl or cls is SPrf:
            stack.append(s.body)
        else:  # a hole, or None for a binder with no annotation
            return False
    return True


def elaborate(sig: Signature, ctx: Context, s: SurfaceTerm,
              expected: Optional[Kind] = None, *, fuel: Fuel) -> Term:
    """Elaborate one surface term; the kernel then checks it at its kind."""
    el = Elaborator(sig, fuel)
    try:
        t, k = el.term(ctx, s, expected)
        t = el.finish_term(t, s)
        kernel.check_term(sig, ctx, t, el.finish_kind(k, s), fuel)
        return t
    except Exception as e:
        raise el.explain(e) from None


def elaborate_kind(sig: Signature, ctx: Context, s: SurfaceKind,
                   fuel: Fuel) -> Kind:
    """Elaborate one surface kind; the kernel then validates it."""
    el = Elaborator(sig, fuel)
    try:
        k = el.finish_kind(el.kind(ctx, s), s)
        kernel.check_kind_valid(sig, ctx, k, fuel)
        return k
    except Exception as e:
        raise el.explain(e) from None


def unify(sig: Signature, ctx: Context, a: Term, b: Term,
          at: Optional[Kind], state: MetaState, fuel: Fuel) -> None:
    """Standalone entry point over an existing MetaState."""
    el = Elaborator(sig, fuel)
    el.state = state
    el.unify(ctx, a, b, at)
