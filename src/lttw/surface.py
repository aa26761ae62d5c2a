"""Surface syntax produced by the parser and consumed by the elaborator.

Names are unresolved (binder or constant is decided during elaboration),
holes stand for arguments to be inferred, and binder annotations may be
missing. Every node carries its source span.

Term and kind nodes are plain classes with __slots__. The parser builds one
for nearly every token, and a slotted object is built several times faster
than a frozen dataclass; the elaborator reads their fields on every command,
and a slot reads as fast as a dataclass attribute, where a named tuple field
reads slower. Like term nodes they compare by identity. Commands stay
frozen dataclasses.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

from .errors import SourceSpan


class _Node:
    __slots__ = ()

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"


class SurfaceTerm(_Node):
    __slots__ = ()


class SurfaceKind(_Node):
    __slots__ = ()


class SName(SurfaceTerm):
    __slots__ = ("name", "span")

    def __init__(self, name: str, span: SourceSpan):
        self.name = name
        self.span = span


class SHole(SurfaceTerm):
    __slots__ = ("span",)

    def __init__(self, span: SourceSpan):
        self.span = span


class SLam(SurfaceTerm):
    __slots__ = ("var", "ann", "body", "span")

    def __init__(self, var: str, ann: Optional[SurfaceKind],
                 body: SurfaceTerm, span: SourceSpan):
        self.var = var
        self.ann = ann
        self.body = body
        self.span = span


class SApp(SurfaceTerm):
    __slots__ = ("fn", "arg", "span")

    def __init__(self, fn: SurfaceTerm, arg: SurfaceTerm, span: SourceSpan):
        self.fn = fn
        self.arg = arg
        self.span = span


class SType(SurfaceKind):
    __slots__ = ("span",)

    def __init__(self, span: SourceSpan):
        self.span = span


class SProp(SurfaceKind):
    __slots__ = ("span",)

    def __init__(self, span: SourceSpan):
        self.span = span


class SEl(SurfaceKind):
    __slots__ = ("body", "span")

    def __init__(self, body: SurfaceTerm, span: SourceSpan):
        self.body = body
        self.span = span


class SPrf(SurfaceKind):
    __slots__ = ("body", "span")

    def __init__(self, body: SurfaceTerm, span: SourceSpan):
        self.body = body
        self.span = span


class SPi(SurfaceKind):
    __slots__ = ("var", "domain", "codomain", "span")

    def __init__(self, var: str, domain: SurfaceKind, codomain: SurfaceKind,
                 span: SourceSpan):
        self.var = var
        self.domain = domain
        self.codomain = codomain
        self.span = span


class STermKind(SurfaceKind):
    """A term written where a kind belongs; elaboration coerces it to El or
    Prf according to its inferred kind."""

    __slots__ = ("term", "span")

    def __init__(self, term: SurfaceTerm, span: SourceSpan):
        self.term = term
        self.span = span


Binder = tuple[str, Optional[SurfaceKind], SourceSpan]


class DirectiveOp(Enum):
    CHECK = "Check"
    REDUCE = "Reduce"
    TYPEOF = "TypeOf"
    LOAD = "Load"
    SETOPTION = "SetOption"


@dataclass(frozen=True)
class Declare:
    name: str
    binders: tuple[Binder, ...]
    kind: SurfaceKind
    span: SourceSpan


@dataclass(frozen=True)
class Define:
    name: str
    binders: tuple[Binder, ...]
    body: SurfaceTerm
    kind: Optional[SurfaceKind]
    span: SourceSpan


@dataclass(frozen=True)
class DeclareRule:
    binders: tuple[Binder, ...]
    lhs: SurfaceTerm
    rhs: SurfaceTerm
    kind: SurfaceKind
    span: SourceSpan


@dataclass(frozen=True)
class Directive:
    op: DirectiveOp
    payload: tuple
    span: SourceSpan


Command = Union[Declare, Define, DeclareRule, Directive]
