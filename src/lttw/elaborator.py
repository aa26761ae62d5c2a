"""Elaboration: resolve names, fill holes, coerce terms used as kinds;
and the walk that finds the node a rejection blames. Surface syntax is
never rewritten.

Until a command makes its first hole, a subterm that holds no hole and no
lambda without an annotation (its `holes` flag is clear) is translated: it
is built by name resolution alone, at the kind it is checked against
(`Elaborator._translates`). No kind holds a hole there, so elaborating it
would decide nothing, and the kernel's check of the record is its only
inference. Everything from the first hole on is elaborated.

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
`elaborate` and `elaborate_kind`. A kind equality without holes is left to
that check, which decides it once. A spine with one argument too many is
rejected as the kernel rejects it, at that argument.

A position travels as the surface node or command to blame, not as a
span: a node builds its span only for an error. A kernel error has none,
and `blaming` finds the node it names.
"""

from __future__ import annotations

from contextlib import contextmanager
from operator import is_
from typing import Any, Optional

from .errors import (
    Diagnostic, IllFormedKind, KindMismatch, LttwError, NestingTooDeep,
    NotAProduct, UnknownConstant,
)
from . import kernel
from .kernel import Context, Fuel, Signature
from .surface import (
    SApp, SEl, SHole, SLam, SLift, SName, SPi, SPrf, SProp, SType, SourceSpan,
    STermKind, SurfaceKind, SurfaceTerm,
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


class Elaborator:
    """Elaborates the terms and kinds of one command. A surface name
    resolves to the innermost binder of that name in scope, else to a
    constant of the signature."""

    def __init__(self, sig: Signature, fuel: Fuel):
        self.sig = sig
        self.fuel = fuel
        self.state = MetaState()
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

    # ----------------------------------------------------------- terms

    def _translates(self, s) -> bool:
        """Whether the surface term `s` is built by name resolution alone
        (`_term`): it holds no hole and no lambda without an annotation,
        and the command has made no hole, so no kind equality on the way
        involves one."""
        return not s.holes and not self.state.info

    def term(self, ctx: Context, s: SurfaceTerm,
             expected: Optional[Kind]) -> tuple[Term, Kind]:
        if expected is not None and self._translates(s):
            return self._term(ctx, s), expected
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

    def _term(self, ctx: Context, s: SurfaceTerm) -> Term:
        """The term `s`, which `_translates`, by name resolution alone. The
        leading arguments of an application are translated by recursion and
        its last argument in the loop, as `_application` elaborates them."""
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
        if type(s) is SLam:  # annotated, as its flag says
            dom = self.kind(ctx, s.ann)
            x, ctx2, scope = self._bind(ctx, s.var, dom)
            try:
                t = Lam(x, dom, self._term(ctx2, s.body))
            finally:
                self.scope = scope
        else:
            t = self._name(ctx, s)[0]
        while outer:
            t = app(*outer.pop(), t)
        return t

    def _against(self, ctx: Context, t: Term, k: Kind,
                 expected: Optional[Kind], blame) -> tuple[Term, Kind]:
        if expected is not None:
            self._require_kinds_equal(ctx, k, expected, blame)
            return t, expected
        return t, k

    def _require_kinds_equal(self, ctx: Context, actual: Kind,
                             expected: Kind, blame) -> None:
        """Unify the two kinds when a hole is involved. An equality without
        holes is left to the kernel's check of the record, and a command
        that has made no hole needs no scan."""
        if not self.state.info:
            return
        a = self.state.zonk(actual)
        e = self.state.zonk(expected)
        if contains_meta(a) or contains_meta(e):
            self.unify_kinds(ctx, a, e, blame)

    def _lambda(self, ctx: Context, s: SLam,
                expected: Optional[Kind]) -> tuple[Term, Kind]:
        if expected is not None and not isinstance(expected, PiKind):
            raise KindMismatch(
                "an abstraction only has product kinds", span=s.span,
                diagnostic=Diagnostic("lam-kind", expected=expected))
        if s.ann is not None:
            dom = self.kind(ctx, s.ann)
            if isinstance(expected, PiKind):
                self._require_kinds_equal(ctx, dom, expected.domain, s)
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
        """`term` of an application. The leading arguments are built by
        recursion, and a last argument that is an application is elaborated
        in the loop unless it is translated (`_term` loops too), so a
        numeral costs no stack either way."""
        outer = []  # each enclosing application and its expected kind,
        # its head and leading arguments, the product its last argument is
        # the domain of, and its map so far
        while True:
            chain = []
            fn = s
            while isinstance(fn, SApp):
                chain.append(fn.arg)
                fn = fn.fn
            t, k = self.term(ctx, fn, None)
            # the head's kind is instantiated lazily, as in the kernel
            mapping: dict[str, Term] = {}
            while chain:
                arg_s = chain.pop()
                if not isinstance(k, PiKind):
                    raise self._too_many_arguments(arg_s, t, k, mapping)
                domain = subst_parallel(k.domain, mapping)
                if (not chain and type(arg_s) is SApp
                        and not self._translates(arg_s)):
                    break
                arg, _ = self.term(ctx, arg_s, domain)
                t = App(t, arg)
                mapping[k.var] = arg
                k = k.codomain
            else:  # every argument is built
                break
            outer.append((s, expected, t, k, mapping))
            s, expected = arg_s, domain
        t, k = self._against(ctx, t, subst_parallel(k, mapping), expected,
                             s)
        while outer:
            s, expected, fn, product, mapping = outer.pop()
            mapping[product.var] = t
            t, k = self._against(ctx, App(fn, t), subst_parallel(
                product.codomain, mapping), expected, s)
        return t, k

    def _too_many_arguments(self, arg_s, fn: Term, k: Kind,
                            mapping: dict) -> NotAProduct:
        """The kernel's rejection of `fn` applied to `arg_s` at the kind
        `k` under `mapping`, blamed at `arg_s`."""
        zonk = self.state.zonk
        error = kernel.not_a_product(
            zonk(fn), [], zonk(k), {x: zonk(a) for x, a in mapping.items()})
        error.span = arg_s.span
        return error

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


def too_deep(span: Optional[SourceSpan] = None) -> NestingTooDeep:
    """The rejection of a command that overflows the interpreter's stack."""
    return NestingTooDeep("command nests too deeply to check", span=span,
                          diagnostic=Diagnostic("depth"))


def elaborate(sig: Signature, ctx: Context, s: SurfaceTerm,
              expected: Optional[Kind] = None, *, fuel: Fuel) -> Term:
    """Elaborate one surface term; the kernel then checks it at its kind."""
    el = Elaborator(sig, fuel)
    try:
        t, k = el.term(ctx, s, expected)
        t = el.finish_term(t, s)
        kernel.check_term(sig, ctx, t, el.finish_kind(k, s), fuel)
    except RecursionError:
        raise too_deep() from None
    return t


def elaborate_kind(sig: Signature, ctx: Context, s: SurfaceKind,
                   fuel: Fuel) -> Kind:
    """Elaborate one surface kind; the kernel then validates it."""
    el = Elaborator(sig, fuel)
    try:
        k = el.finish_kind(el.kind(ctx, s), s)
        kernel.check_kind_valid(sig, ctx, k, fuel)
    except RecursionError:
        raise too_deep() from None
    return k


def unify(sig: Signature, ctx: Context, a: Term, b: Term,
          at: Optional[Kind], state: MetaState, fuel: Fuel) -> None:
    """Standalone entry point over an existing MetaState."""
    el = Elaborator(sig, fuel)
    el.state = state
    el.unify(ctx, a, b, at)


# ------------------------------------------------------------------ blame

# the rejections of a kind judgement, whose subject is the term judged
_JUDGED = (KindMismatch, NotAProduct, IllFormedKind)
# each surface node's children: (kernel node's field, surface node's field)
_CHILDREN = {SApp: (("fn", "fn"), ("arg", "arg")),
             SLam: (("ann", "ann"), ("body", "body")),
             SPi: (("domain", "domain"), ("codomain", "codomain")),
             SEl: (("body", "body"),), SPrf: (("body", "body"),),
             STermKind: (("body", "term"),)}


@contextmanager
def blaming(roots: list):
    """Give a rejection of a kind judgement raised in the block, which the
    kernel raises without a span, the span of the node of the command that
    its Diagnostic names, where `_places` finds one node.

    `roots` pairs each top node of the record checked with the surface node
    it was built from. A variable or a constant is one node wherever it is
    written: a subject at more than one place may be well kinded at the
    first, so it blames none."""
    try:
        yield
    except _JUDGED as error:
        d = error.diagnostic
        if error.span is None and d and d.subject:
            places = {id(s): s for s in _places(roots, d)}
            if len(places) == 1:
                error.span = places.popitem()[1].span
        raise


def _places(roots: list, d: Diagnostic):
    """The surface nodes that hold `d`'s subject, found by identity under
    `roots`: a surface node's children are paired with the fields they were
    built into (`_CHILDREN`), and each node of a filled hole with the hole.
    An `app-domain` or `app-fn` rejection yields the argument of the
    application whose argument, or whose head and leading arguments (built
    anew), its subject is."""
    stack = list(roots)
    while stack:
        e, s = stack.pop()
        if e is None or s is None:
            continue
        if d.rule == "app-domain" or d.rule == "app-fn":
            if type(e) is App and (e.arg is d.subject if d.rule == "app-domain"
                                   else alpha_eq(e.fn, d.subject)):
                yield s.arg if type(s) is SApp else s
        elif e is d.subject:
            yield s
        if type(s) is SHole:
            stack += [(f, s) for f in e[:-1] if isinstance(f, (Term, Kind))]
        else:
            stack += [(getattr(e, ef, None), getattr(s, sf))
                      for ef, sf in _CHILDREN.get(type(s), ())]
