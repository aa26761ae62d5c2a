"""Printing kernel terms and kinds back to script syntax, and rendering a
rejection's Diagnostic (`render`).

Conventions (these fix the golden-file format):
  - application is left-associative juxtaposition; compound arguments are
    parenthesised, lambdas always are;
  - `[x : K] body` for abstraction;
  - `(x : K) K'` for products whose variable occurs in the codomain,
    `K -> K'` otherwise, with products/arrows parenthesised on the left of
    an arrow;
  - El is implicit (the term is printed bare in kind position); Prf prints
    its argument as an atom.

Binder names survive printing unchanged unless a constant of the same name
occurs in the printed term or kind: such a binder would capture the
constant when the output is read back, so it is renamed (`x` to `x1`).
Substitution can bring a constant under a binder of its name, say `K x`
for `K = [y : Nat] [x : Nat] y`; elaborated source never binds one.
"""

from __future__ import annotations

from functools import cache
from typing import Callable

from .errors import Diagnostic
from .syntax import (
    App, Const, ElKind, Kind, Lam, Meta, PiKind, PrfKind, PropKind, Term,
    TypeKind, Var, free_vars, fresh_name, name_mask, rename, spine,
)


def print_term(t: Term) -> str:
    return _term(t, cache(lambda: _constants(t)), top=True)


def print_kind(k: Kind) -> str:
    return _kind(k, cache(lambda: _constants(k)), left_of_arrow=False)


def show(obj) -> str:
    """Render a term or kind for diagnostics."""
    if isinstance(obj, Kind):
        return print_kind(obj)
    if isinstance(obj, Term):
        return print_term(obj)
    return str(obj)


def render(d: Diagnostic) -> str:
    """A Diagnostic as the lines the CLI prints under a rejection."""
    return "\n".join([f"rule: {d.rule}"] + [
        f"{field}: {show(getattr(d, field))}"
        for field in ("subject", "expected", "actual")
        if getattr(d, field) is not None])


# `taken()` gives the constant names of the whole printed object; it
# collects them when the first binder asks, so a term without binders
# costs no extra walk
Taken = Callable[[], frozenset]


def _constants(root) -> frozenset:
    names, stack = set(), [root]
    while stack:
        e = stack.pop()
        if type(e) is Const:
            names.add(e.name)
        else:
            stack += (f for f in e[:-1] if isinstance(f, (Term, Kind)))
    return frozenset(names)


def _term(t: Term, taken: Taken, top: bool) -> str:
    if isinstance(t, Var) or isinstance(t, Const):
        return t.name
    if isinstance(t, Meta):
        return f"?{t.ident}"
    if isinstance(t, Lam):
        x, ann, body = t.var, t.ann, t.body
        if x in taken() or ann.mask & name_mask(x):
            x = fresh_name(x, taken() | free_vars(body) | free_vars(ann))
            body = rename(body, t.var, x)
        inner = _term(body, taken, top=True)
        s = f"[{x} : {_kind(ann, taken, left_of_arrow=False)}] {inner}"
        return s if top else f"({s})"
    if isinstance(t, App):
        # a last argument that is an application is not printed by
        # recursion: the loop continues with it, one parenthesis further in
        levels = []
        while True:
            head, args = spine(t)
            t = args.pop() if isinstance(args[-1], App) else None
            words = [_term(head, taken, top=False)]
            for a in args:
                words.append(_term(a, taken, top=False) if _atomic(a)
                             else "(" + _term(a, taken, top=True) + ")")
            levels.append(" ".join(words))
            if t is None:
                return " (".join(levels) + ")" * (len(levels) - 1)
    raise TypeError(f"not a term: {t!r}")


def _atomic(t: Term) -> bool:
    return isinstance(t, (Var, Const, Meta))


def _kind(k: Kind, taken: Taken, left_of_arrow: bool) -> str:
    if isinstance(k, TypeKind):
        return "Type"
    if isinstance(k, PropKind):
        return "Prop"
    if isinstance(k, ElKind):
        body = k.body
        if isinstance(body, Lam):
            return "(" + _term(body, taken, top=True) + ")"
        return _term(body, taken, top=False)
    if isinstance(k, PrfKind):
        body = k.body
        if _atomic(body):
            return f"Prf {_term(body, taken, top=False)}"
        return f"Prf ({_term(body, taken, top=True)})"
    if isinstance(k, PiKind):
        x, dom, cod = k.var, k.domain, k.codomain
        if cod.mask & name_mask(x):
            if x in taken():
                x = fresh_name(x, taken() | free_vars(cod) | free_vars(dom))
                cod = rename(cod, k.var, x)
            s = (f"({x} : {_kind(dom, taken, left_of_arrow=False)}) "
                 f"{_kind(cod, taken, left_of_arrow=False)}")
            return f"({s})" if left_of_arrow else s
        s = (f"{_kind(dom, taken, left_of_arrow=True)} -> "
             f"{_kind(cod, taken, left_of_arrow=False)}")
        return f"({s})" if left_of_arrow else s
    raise TypeError(f"not a kind: {k!r}")
