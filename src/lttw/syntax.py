"""Core term and kind syntax with capture-avoiding substitution.

Terms are lambda-terms over named variables and declared constants; kinds are
the dependent products over them, with Type/Prop at the top and El/Prf
injecting terms back into the kind layer. Binding is Church-style: every
abstraction and product carries its domain kind.

Alpha-equivalent terms are interchangeable everywhere; structural identity of
Python objects is never significant. Nodes compare by identity (use alpha_eq).
Each node is an immutable tuple of its fields followed by `mask`, computed
when the node is built: its free names, and in bit 0 (`HOLES`) whether a
Meta occurs in it. So testing a free name and contains_meta are field reads.

A set of free names is an int with one bit per variable name. The bits come
from one registry for the whole process: the first `Var(name)` takes the
next bit, and every later `Var(name)` returns that same node, as
`Const(name)` returns one node per name. A union is `|`, leaving a binder
is `& ~bit`, and whether any of a set of names occurs free is one `&`. No
name has bit 0, so `HOLES` passes up through every `|` and binder, and
substitution, whose keys are names, never meets it. free_vars and `node.fv`
decode a mask, less that bit, into a frozenset for the few callers that
need the names themselves. The three benchmark workloads together see
89 distinct variable names, so their masks fit in 3 int digits.

The garbage collector is why: nodes are acyclic and immutable, but CPython's
cyclic collector tracks every tuple subclass and frozenset and rescans each
live one at every full collection. An int is never tracked, and a leaf
shared per name is one tracked object, not one per occurrence.

Substitution has one engine, subst_parallel: a single simultaneous,
capture-avoiding pass. subst (one name), rename (one name to a fresh
variable) and subst_masked (the mask of the names in hand) call into it,
and a binder that would capture is renamed inside the same pass.
"""

from __future__ import annotations

from collections import namedtuple
from threading import Lock
from typing import Iterable, Union

_new = tuple.__new__

# The registry of variable names: the one Var of each name, and the names
# by bit position (a name's bit is 1 << its index; index 0 is `HOLES`, no
# name's). A name enters under the lock so that no two names share a bit;
# lookups take no lock.
_VARS: dict[str, "Var"] = {}
_NAMES: list[str] = ["?"]
_REGISTERING = Lock()
# the bit of a mask that says a Meta occurs in the node
HOLES = 1
# the one Const of each name
_CONSTS: dict[str, "Const"] = {}


def _names(mask: int) -> frozenset[str]:
    """The names whose bits are set in mask."""
    names = []
    mask &= ~HOLES
    while mask:
        low = mask & -mask
        names.append(_NAMES[low.bit_length() - 1])
        mask ^= low
    return frozenset(names)


def name_mask(name: str) -> int:
    """The bit of `name` in free-name masks; 0 for a name that no variable
    has had, which occurs free nowhere."""
    v = _VARS.get(name)
    return 0 if v is None else v.mask


class _Node:
    """Shared behaviour of the tuple-backed nodes. Each node class is a
    namedtuple of its fields followed by `mask`, its free names and
    `HOLES`, which its `__new__` computes from the children. Equality and
    hashing are by identity, as for any object, and nodes do not order:
    the tuple's structural comparisons never apply."""

    __slots__ = ()
    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__
    __lt__ = __le__ = __gt__ = __ge__ = object.__lt__

    @property
    def fv(self) -> frozenset[str]:
        """The free names, decoded from `mask`."""
        return _names(self.mask)

    def __getnewargs__(self):
        # copy and pickle rebuild a node from its fields, not its mask
        return self[:-1]

    def __repr__(self):
        fields = ", ".join(map(repr, self[:-1]))
        return f"{type(self).__name__}({fields})"


class Term(_Node):
    __slots__ = ()


class Kind(_Node):
    __slots__ = ()


Expr = Union[Term, Kind]


class Var(Term, namedtuple("Var", "name mask")):
    """The one variable node of its name; its mask is the name's bit."""

    __slots__ = ()

    def __new__(cls, name: str):
        v = _VARS.get(name)
        if v is None:
            with _REGISTERING:
                v = _VARS.get(name)
                if v is None:
                    bit = 1 << len(_NAMES)
                    _NAMES.append(name)
                    v = _VARS[name] = _new(cls, (name, bit))
        return v


class Const(Term, namedtuple("Const", "name mask")):
    """The one constant node of its name."""

    __slots__ = ()

    def __new__(cls, name: str):
        c = _CONSTS.get(name)
        if c is None:
            c = _CONSTS.setdefault(name, _new(cls, (name, 0)))
        return c


class Lam(Term, namedtuple("Lam", "var ann body mask")):
    __slots__ = ()

    def __new__(cls, var: str, ann: Kind, body: Term):
        return _new(cls, (var, ann, body,
                          ann.mask | (body.mask & ~name_mask(var))))


class App(Term, namedtuple("App", "fn arg mask")):
    __slots__ = ()

    def __new__(cls, fn: Term, arg: Term):
        return _new(cls, (fn, arg, fn.mask | arg.mask))


class Meta(Term, namedtuple("Meta", "ident mask")):
    """Elaboration-time unknown. Never survives into kernel checking."""

    __slots__ = ()

    def __new__(cls, ident: int):
        return _new(cls, (ident, HOLES))


class TypeKind(Kind, namedtuple("TypeKind", "mask")):
    __slots__ = ()

    def __new__(cls):
        return _new(cls, (0,))


class PropKind(Kind, namedtuple("PropKind", "mask")):
    __slots__ = ()

    def __new__(cls):
        return _new(cls, (0,))


class ElKind(Kind, namedtuple("ElKind", "body mask")):
    __slots__ = ()

    def __new__(cls, body: Term):
        return _new(cls, (body, body.mask))


class PrfKind(Kind, namedtuple("PrfKind", "body mask")):
    __slots__ = ()

    def __new__(cls, body: Term):
        return _new(cls, (body, body.mask))


class PiKind(Kind, namedtuple("PiKind", "var domain codomain mask")):
    __slots__ = ()

    def __new__(cls, var: str, domain: Kind, codomain: Kind):
        return _new(cls, (var, domain, codomain,
                          domain.mask | (codomain.mask & ~name_mask(var))))


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
    """Free variable names of a term or kind, decoded from its mask."""
    return _names(e.mask)


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
    if not target.mask:
        return target
    keys = 0
    for v in mapping:
        keys |= Var(v).mask
    return subst_masked(target, mapping, keys)


def subst_masked(target: Expr, mapping: dict[str, Term], keys: int) -> Expr:
    """subst_parallel for a caller that keeps `keys`, the mask of mapping's
    names, as it fills the mapping, rather than rebuilding it per call."""
    return _subst(target, mapping, keys) if target.mask & keys else target


def _subst(target: Expr, mapping: dict[str, Term], keys: int) -> Expr:
    """subst_parallel's recursion; `keys` is the mask of mapping's names,
    and `target` has one of them free. A child is entered only when it has
    one too."""
    cls = type(target)
    if cls is Var:
        return mapping[target.name]
    if cls is App:
        fn, arg = target.fn, target.arg
        return App(_subst(fn, mapping, keys) if fn.mask & keys else fn,
                   _subst(arg, mapping, keys) if arg.mask & keys else arg)
    if cls is ElKind or cls is PrfKind:  # the body has the kind's names
        return cls(_subst(target.body, mapping, keys))
    if cls is Lam or cls is PiKind:  # a binder: name, domain, body
        x, dom, body, _ = target
        if dom.mask & keys:
            dom = _subst(dom, mapping, keys)
        x, body = _under_binder(x, body, mapping, keys)
        return cls(x, dom, body)
    raise TypeError(f"not a term or kind: {target!r}")


def _under_binder(x: str, body: Expr, mapping: dict[str, Term], keys: int):
    """The binder name and body that `x. body` has after mapping."""
    bound = name_mask(x)
    live = body.mask & keys & ~bound
    if not live:
        return x, body
    sub = {v: mapping[v] for v in _names(live)}
    incoming = 0
    for t in sub.values():
        incoming |= t.mask
    if incoming & bound:
        # binder would capture; rename it away from everything in sight
        x2 = fresh_name(x, _names(body.mask | incoming).union(sub))
        sub[x] = Var(x2)
        x = x2
        live |= bound
    return x, _subst(body, sub, live)


def alpha_eq(a: Expr, b: Expr) -> bool:
    """Equality up to consistent renaming of bound variables."""
    return a is b or _aeq(a, b, {}, {}, 0)


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
    if ta is Lam or ta is PiKind:  # a binder: name, domain, body
        if not _aeq(a[1], b[1], ea, eb, depth):
            return False
        ea2 = dict(ea)
        eb2 = dict(eb)
        ea2[a[0]] = depth
        eb2[b[0]] = depth
        return _aeq(a[2], b[2], ea2, eb2, depth + 1)
    if ta is TypeKind or ta is PropKind:
        return True
    if ta is ElKind or ta is PrfKind:
        return _aeq(a.body, b.body, ea, eb, depth)
    raise TypeError(f"not a term or kind: {a!r}")


def metas_of(e: Expr) -> set[int]:
    out: set[int] = set()
    _collect_metas(e, out)
    return out


def contains_meta(e: Expr) -> bool:
    return bool(e.mask & HOLES)


def _collect_metas(e: Expr, out: set[int]) -> None:
    if not e.mask & HOLES:
        return
    if isinstance(e, Meta):
        out.add(e.ident)
    elif isinstance(e, App):
        _collect_metas(e.fn, out)
        _collect_metas(e.arg, out)
    elif isinstance(e, (Lam, PiKind)):  # a binder: name, domain, body
        _collect_metas(e[1], out)
        _collect_metas(e[2], out)
    elif isinstance(e, (ElKind, PrfKind)):
        _collect_metas(e.body, out)
