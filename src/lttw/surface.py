"""The script language's types: source spans, the syntax error, and the
surface syntax produced by the parser and consumed by the elaborator.

Names are unresolved (binder or constant is decided during elaboration),
holes stand for arguments to be inferred, and binder annotations may be
missing. Every term and kind node holds the first and the last token it
covers and its file; its source span is built from them only when
something asks for it, which in practice is an error. Each term and kind
node also has a `holes` flag, set when it is built from its children: true
when it holds a hole or a lambda without an annotation. Commands carry
their span.

Term and kind nodes are plain classes with __slots__. The parser builds one
for nearly every token, and a slotted object is built several times faster
than a frozen dataclass; the elaborator reads their fields on every command,
and a slot reads as fast as a dataclass attribute, where a named tuple field
reads slower. Like term nodes they compare by identity. A node holds no
SourceSpan of its own: a tuple subclass stays tracked by the garbage
collector for as long as it lives, while the lexer's exact token tuples do
not. Commands stay frozen dataclasses.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

from .errors import LttwError


class SourceSpan(namedtuple("SourceSpan", "file line col end_line end_col")):
    """Half-open source range: line/col are 1-based, end is exclusive. The
    parser builds one for each command and each of a command's binders; a
    term or kind node builds its own only when asked."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


class ScriptSyntaxError(LttwError):
    """A script that is not well formed, or a command it cannot run."""


# (type, value, line, col): type is "ident", "string", "number", "eof" or
# the punctuation itself; value is as written, so a string literal keeps
# its quotes
Token = tuple[str, str, int, int]


def token_span(first: Token, last: Token, file: str) -> SourceSpan:
    """The source range from the start of `first` to the end of `last`."""
    _, _, line, col = first
    _, value, end_line, end_col = last
    return SourceSpan(file, line, col, end_line, end_col + len(value))


class _Node:
    # the first and last tokens the node covers, and its file
    __slots__ = ("first", "last", "file")

    def __init__(self, first: Token, last: Token, file: str):
        self.first, self.last, self.file = first, last, file

    @property
    def span(self) -> SourceSpan:
        return token_span(self.first, self.last, self.file)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}"
                           for f in (*self.__slots__, "span"))
        return f"{type(self).__name__}({fields})"


class SurfaceTerm(_Node):
    __slots__ = ()


class SurfaceKind(_Node):
    __slots__ = ()


class SName(SurfaceTerm):
    __slots__ = ("name",)
    holes = False

    def __init__(self, name: str, first: Token, last: Token, file: str):
        self.name = name
        self.first, self.last, self.file = first, last, file


class SHole(SurfaceTerm):
    __slots__ = ()
    holes = True


class SLam(SurfaceTerm):
    __slots__ = ("var", "ann", "body", "holes")

    def __init__(self, var: str, ann: Optional[SurfaceKind],
                 body: SurfaceTerm, first: Token, last: Token, file: str):
        self.var = var
        self.ann = ann
        self.body = body
        self.holes = ann is None or ann.holes or body.holes
        self.first, self.last, self.file = first, last, file


class SApp(SurfaceTerm):
    __slots__ = ("fn", "arg", "holes")

    def __init__(self, fn: SurfaceTerm, arg: SurfaceTerm, first: Token,
                 last: Token, file: str):
        self.fn = fn
        self.arg = arg
        self.holes = fn.holes or arg.holes
        self.first, self.last, self.file = first, last, file


class SType(SurfaceKind):
    __slots__ = ()
    holes = False


class SProp(SurfaceKind):
    __slots__ = ()
    holes = False


class SLift(SurfaceKind):
    """`El t` or `Prf t`: a term lifted to a kind."""

    __slots__ = ("body", "holes")

    def __init__(self, body: SurfaceTerm, first: Token, last: Token,
                 file: str):
        self.body = body
        self.holes = body.holes
        self.first, self.last, self.file = first, last, file


class SEl(SLift):
    __slots__ = ()


class SPrf(SLift):
    __slots__ = ()


class SPi(SurfaceKind):
    __slots__ = ("var", "domain", "codomain", "holes")

    def __init__(self, var: str, domain: SurfaceKind, codomain: SurfaceKind,
                 first: Token, last: Token, file: str):
        self.var = var
        self.domain = domain
        self.codomain = codomain
        self.holes = domain.holes or codomain.holes
        self.first, self.last, self.file = first, last, file


class STermKind(SurfaceKind):
    """A term written where a kind belongs; elaboration coerces it to El or
    Prf according to its inferred kind."""

    __slots__ = ("term", "holes")

    def __init__(self, term: SurfaceTerm, first: Token, last: Token,
                 file: str):
        self.term = term
        self.holes = term.holes
        self.first, self.last, self.file = first, last, file


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
