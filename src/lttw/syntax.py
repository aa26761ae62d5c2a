"""Core term and kind syntax with capture-avoiding substitution.

Terms are lambda-terms over named variables and declared constants; kinds are
the dependent products over them, with Type/Prop at the top and El/Prf
injecting terms back into the kind layer. Binding is Church-style: every
abstraction and product carries its domain kind.

Alpha-equivalent terms are interchangeable everywhere; structural identity of
Python objects is never significant. Nodes compare by identity (use alpha_eq).
Each node is an immutable tuple of its fields followed by its free-name set
and a flag telling whether a Meta occurs in it; both are computed when the
node is built, so free_vars and contains_meta are field reads.

Substitution has one engine, subst_parallel: a single simultaneous,
capture-avoiding pass. subst (one name) and rename (binder opening: one name
to a fresh variable) are calls into it, and a binder that would capture is
renamed inside the same pass rather than by a walk of its own.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Union

# Every free-name set costs a node its own frozenset (216 bytes even when
# empty), so closed nodes share one empty set, a variable shares the one
# singleton set of its name, and a node whose names all come from one child
# shares that child's set.
_NO_NAMES: frozenset[str] = frozenset()
_NAME_SETS: dict[str, frozenset[str]] = {}


def _union(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    if b <= a:
        return a
    if a <= b:
        return b
    return a | b


def _unbind(fv: frozenset[str], x: str) -> frozenset[str]:
    return fv - {x} if x in fv else fv


_new = tuple.__new__


class _Node:
    """Shared behaviour of the tuple-backed nodes. Each node class is a
    namedtuple of its fields followed by `fv`, its free names, and `holes`,
    whether a Meta occurs in it; its `__new__` computes both from the
    children. Equality and hashing are by identity, as for any object, and
    nodes do not order: the tuple's structural comparisons never apply."""

    __slots__ = ()
    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__
    __lt__ = __le__ = __gt__ = __ge__ = object.__lt__

    def __getnewargs__(self):
        # copy and pickle rebuild a node from its fields, not fv and holes
        return self[:-2]

    def __repr__(self):
        fields = ", ".join(map(repr, self[:-2]))
        return f"{type(self).__name__}({fields})"


class Term(_Node):
    __slots__ = ()


class Kind(_Node):
    __slots__ = ()


Expr = Union[Term, Kind]


class Var(Term, namedtuple("Var", "name fv holes")):
    __slots__ = ()

    def __new__(cls, name: str):
        fv = _NAME_SETS.get(name)
        if fv is None:
            fv = _NAME_SETS[name] = frozenset((name,))
        return _new(cls, (name, fv, False))


class Const(Term, namedtuple("Const", "name fv holes")):
    __slots__ = ()

    def __new__(cls, name: str):
        return _new(cls, (name, _NO_NAMES, False))


class Lam(Term, namedtuple("Lam", "var ann body fv holes")):
    __slots__ = ()

    def __new__(cls, var: str, ann: Kind, body: Term):
        return _new(cls, (var, ann, body,
                          _union(ann.fv, _unbind(body.fv, var)),
                          ann.holes or body.holes))


class App(Term, namedtuple("App", "fn arg fv holes")):
    __slots__ = ()

    def __new__(cls, fn: Term, arg: Term):
        return _new(cls, (fn, arg, _union(fn.fv, arg.fv),
                          fn.holes or arg.holes))


class Meta(Term, namedtuple("Meta", "ident fv holes")):
    """Elaboration-time unknown. Never survives into kernel checking."""

    __slots__ = ()

    def __new__(cls, ident: int):
        return _new(cls, (ident, _NO_NAMES, True))


class TypeKind(Kind, namedtuple("TypeKind", "fv holes")):
    __slots__ = ()

    def __new__(cls):
        return _new(cls, (_NO_NAMES, False))


class PropKind(Kind, namedtuple("PropKind", "fv holes")):
    __slots__ = ()

    def __new__(cls):
        return _new(cls, (_NO_NAMES, False))


class ElKind(Kind, namedtuple("ElKind", "body fv holes")):
    __slots__ = ()

    def __new__(cls, body: Term):
        return _new(cls, (body, body.fv, body.holes))


class PrfKind(Kind, namedtuple("PrfKind", "body fv holes")):
    __slots__ = ()

    def __new__(cls, body: Term):
        return _new(cls, (body, body.fv, body.holes))


class PiKind(Kind, namedtuple("PiKind", "var domain codomain fv holes")):
    __slots__ = ()

    def __new__(cls, var: str, domain: Kind, codomain: Kind):
        return _new(cls, (var, domain, codomain,
                          _union(domain.fv, _unbind(codomain.fv, var)),
                          domain.holes or codomain.holes))


TYPE = TypeKind()
PROP = PropKind()


def app(fn: Term, *args: Term) -> Term:
    for a in args:
        fn = App(fn, a)
    return fn


def spine(t: Term) -> tuple[Term, list[Term]]:
    """Split nested applications into (head, [arg1, ..., argn])."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return t, args


def free_vars(e: Expr) -> frozenset[str]:
    """Free variable names of a term or kind (computed when the node is
    built, shared between nodes where equal)."""
    return e.fv


_DIGITS = "0123456789"


def fresh_name(base: str, avoid: Iterable[str]) -> str:
    """A name not in avoid, formed from base plus a minimal numeric suffix.

    The digit tail of base is stripped first so renaming y1 yields y2, not
    y11. Deterministic: same inputs, same answer.
    """
    taken = set(avoid)
    if base not in taken:
        return base
    stem = base.rstrip(_DIGITS) or base
    i = 1
    while f"{stem}{i}" in taken:
        i += 1
    return f"{stem}{i}"


def subst(target: Expr, var: str, replacement: Term) -> Expr:
    """Capture-avoiding substitution of replacement for free var in target."""
    return subst_parallel(target, {var: replacement})


def rename(e: Expr, old: str, new: str) -> Expr:
    """e with its free name old renamed to new; e itself when they agree."""
    return e if old == new else subst_parallel(e, {old: Var(new)})


def subst_parallel(target: Expr, mapping: dict[str, Term]) -> Expr:
    """Simultaneous capture-avoiding substitution: the one substitution engine.

    Every name in mapping is replaced at once, so names substituted in never
    get re-substituted: firing a rewrite rule whose contractum mentions
    several pattern variables must not let one binding's free names collide
    with another binding. A binder that would capture a free name of a
    replacement is renamed by adding `binder -> Var(fresh)` to the mapping
    its body is substituted with, so every subterm is walked once.
    Subterms without a mapped free name are shared, not copied.
    """
    cls = type(target)
    if cls is Var:
        return mapping.get(target.name, target)
    if target.fv.isdisjoint(mapping):
        return target
    if cls is App:
        return App(subst_parallel(target.fn, mapping),
                   subst_parallel(target.arg, mapping))
    if cls is ElKind:
        return ElKind(subst_parallel(target.body, mapping))
    if cls is PrfKind:
        return PrfKind(subst_parallel(target.body, mapping))
    if cls is Lam:
        ann = subst_parallel(target.ann, mapping)
        x, body = _under_binder(target.var, target.body, mapping)
        return Lam(x, ann, body)
    if cls is PiKind:
        dom = subst_parallel(target.domain, mapping)
        x, cod = _under_binder(target.var, target.codomain, mapping)
        return PiKind(x, dom, cod)
    raise TypeError(f"not a term or kind: {target!r}")


def _under_binder(x: str, body: Expr, mapping: dict[str, Term]):
    """The binder name and body that `x. body` has after mapping."""
    fv = body.fv
    live = {v: t for v, t in mapping.items() if v != x and v in fv}
    if not live:
        return x, body
    incoming = frozenset().union(*(t.fv for t in live.values()))
    if x in incoming:
        # binder would capture; rename it away from everything in sight
        x2 = fresh_name(x, fv | incoming | set(live))
        live[x] = Var(x2)
        x = x2
    return x, subst_parallel(body, live)


def alpha_eq(a: Expr, b: Expr) -> bool:
    """Equality up to consistent renaming of bound variables."""
    return _aeq(a, b, {}, {}, 0)


def _aeq(a: Expr, b: Expr, ea: dict, eb: dict, depth: int) -> bool:
    if a is b and ea == eb:
        return True
    ta, tb = type(a), type(b)
    if ta is not tb:
        return False
    if ta is Var:
        la, lb = ea.get(a.name), eb.get(b.name)
        if la is None and lb is None:
            return a.name == b.name
        return la == lb
    if ta is Const:
        return a.name == b.name
    if ta is Meta:
        return a.ident == b.ident
    if ta is App:
        return (_aeq(a.fn, b.fn, ea, eb, depth)
                and _aeq(a.arg, b.arg, ea, eb, depth))
    if ta is Lam:
        if not _aeq(a.ann, b.ann, ea, eb, depth):
            return False
        ea2 = dict(ea)
        eb2 = dict(eb)
        ea2[a.var] = depth
        eb2[b.var] = depth
        return _aeq(a.body, b.body, ea2, eb2, depth + 1)
    if ta is TypeKind or ta is PropKind:
        return True
    if ta is ElKind or ta is PrfKind:
        return _aeq(a.body, b.body, ea, eb, depth)
    if ta is PiKind:
        if not _aeq(a.domain, b.domain, ea, eb, depth):
            return False
        ea2 = dict(ea)
        eb2 = dict(eb)
        ea2[a.var] = depth
        eb2[b.var] = depth
        return _aeq(a.codomain, b.codomain, ea2, eb2, depth + 1)
    raise TypeError(f"not a term or kind: {a!r}")


def metas_of(e: Expr) -> set[int]:
    out: set[int] = set()
    _collect_metas(e, out)
    return out


def contains_meta(e: Expr) -> bool:
    return e.holes


def _collect_metas(e: Expr, out: set[int]) -> None:
    if not e.holes:
        return
    if isinstance(e, Meta):
        out.add(e.ident)
    elif isinstance(e, App):
        _collect_metas(e.fn, out)
        _collect_metas(e.arg, out)
    elif isinstance(e, Lam):
        _collect_metas(e.ann, out)
        _collect_metas(e.body, out)
    elif isinstance(e, (ElKind, PrfKind)):
        _collect_metas(e.body, out)
    elif isinstance(e, PiKind):
        _collect_metas(e.domain, out)
        _collect_metas(e.codomain, out)
