"""Printing kernel terms and kinds back to script syntax.

Conventions (these fix the golden-file format):
  - application is left-associative juxtaposition; compound arguments are
    parenthesised, lambdas always are;
  - `[x : K] body` for abstraction;
  - `(x : K) K'` for products whose variable occurs in the codomain,
    `K -> K'` otherwise, with products/arrows parenthesised on the left of
    an arrow;
  - El is implicit (the term is printed bare in kind position); Prf prints
    its argument as an atom.

Binder names survive printing unchanged unless they collide with a name in
`taken` (pass the signature's constant names when printing terms that might
bind a name a later unfolding introduced; elaborated source never does).
"""

from __future__ import annotations

from typing import Optional

from .syntax import (
    App, Const, ElKind, Kind, Lam, Meta, PiKind, PrfKind, PropKind, Term,
    TypeKind, Var, free_vars, fresh_name, rename, spine,
)


def print_term(t: Term, taken: Optional[set] = None) -> str:
    return _term(t, taken or set(), top=True)


def print_kind(k: Kind, taken: Optional[set] = None) -> str:
    return _kind(k, taken or set(), left_of_arrow=False)


def show(obj) -> str:
    """Render a term or kind for diagnostics."""
    if isinstance(obj, Kind):
        return print_kind(obj)
    if isinstance(obj, Term):
        return print_term(obj)
    return str(obj)


def _term(t: Term, taken: set, top: bool) -> str:
    if isinstance(t, Var) or isinstance(t, Const):
        return t.name
    if isinstance(t, Meta):
        return f"?{t.ident}"
    if isinstance(t, Lam):
        x, ann, body = t.var, t.ann, t.body
        if x in taken or (x in free_vars(ann)):
            x = fresh_name(x, taken | free_vars(body) | free_vars(ann))
            body = rename(body, t.var, x)
        inner = _term(body, taken, top=True)
        s = f"[{x} : {_kind(ann, taken, left_of_arrow=False)}] {inner}"
        return s if top else f"({s})"
    if isinstance(t, App):
        head, args = spine(t)
        parts = [_term(head, taken, top=False)]
        for a in args:
            parts.append(_term(a, taken, top=False) if _atomic(a)
                         else "(" + _term(a, taken, top=True) + ")")
        return " ".join(parts)
    raise TypeError(f"not a term: {t!r}")


def _atomic(t: Term) -> bool:
    return isinstance(t, (Var, Const, Meta))


def _kind(k: Kind, taken: set, left_of_arrow: bool) -> str:
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
        if x in free_vars(cod):
            if x in taken:
                x = fresh_name(x, taken | free_vars(cod) | free_vars(dom))
                cod = rename(cod, k.var, x)
            s = (f"({x} : {_kind(dom, taken, left_of_arrow=False)}) "
                 f"{_kind(cod, taken, left_of_arrow=False)}")
            return f"({s})" if left_of_arrow else s
        s = (f"{_kind(dom, taken, left_of_arrow=True)} -> "
             f"{_kind(cod, taken, left_of_arrow=False)}")
        return f"({s})" if left_of_arrow else s
    raise TypeError(f"not a kind: {k!r}")
