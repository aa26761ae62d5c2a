"""Error taxonomy shared by every layer of the checker.

Every error raised on purpose by this package is an LttwError. Rejections
coming out of the kernel carry a Diagnostic naming the violated rule and the
judgement pieces involved, so callers can print *why* without re-running
anything.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Any, Optional


class SourceSpan(namedtuple("SourceSpan", "file line col end_line end_col")):
    """Half-open source range: line/col are 1-based, end is exclusive.

    An immutable tuple of its five fields. The parser builds one for every
    node, so its hot paths skip the class's Python-level __new__ and call
    tuple.__new__ directly."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


@dataclass
class Diagnostic:
    """What went wrong, in terms of the judgement that failed.

    rule names the checking rule that rejected (e.g. "app-domain",
    "rewrite-head"). subject/expected/actual hold terms or kinds; they are
    rendered lazily so this module stays import-light.
    """

    rule: str
    subject: Any = None
    expected: Any = None
    actual: Any = None

    def render(self) -> str:
        from .printer import show  # deferred: printer needs syntax

        parts = [f"rule: {self.rule}"]
        if self.subject is not None:
            parts.append(f"subject: {show(self.subject)}")
        if self.expected is not None:
            parts.append(f"expected: {show(self.expected)}")
        if self.actual is not None:
            parts.append(f"actual: {show(self.actual)}")
        return "\n".join(parts)


class LttwError(Exception):
    """Base class; carries an optional span and diagnostic."""

    def __init__(self, message: str, span: Optional[SourceSpan] = None,
                 diagnostic: Optional[Diagnostic] = None):
        super().__init__(message)
        self.message = message
        self.span = span
        self.diagnostic = diagnostic

    def __str__(self) -> str:
        if self.span is not None:
            return f"{self.span}: {self.message}"
        return self.message


class NestingTooDeep(LttwError):
    """The input nests deeper than the interpreter's stack allows. Its
    diagnostic's rule is "depth"."""


# lexing / parsing

class ScriptSyntaxError(LttwError):
    pass


class UnterminatedCommand(ScriptSyntaxError):
    pass


# signature management

class SignatureError(LttwError):
    pass


class DuplicateName(SignatureError):
    pass


class NonLinearPattern(SignatureError):
    pass


class HeadNotConstant(SignatureError):
    pass


class NotFound(SignatureError):
    pass


# kernel judgements

class KernelError(LttwError):
    pass


class UnboundVariable(KernelError):
    pass


class UnknownConstant(KernelError):
    pass


class NotAProduct(KernelError):
    pass


class DuplicateVariable(KernelError):
    pass


class FuelExhausted(KernelError):
    pass


class IllTyped(KernelError):
    pass


class IllFormedKind(KernelError):
    pass


class KindMismatch(KernelError):
    pass


class DomainMismatch(KindMismatch):
    pass


class AscriptionMismatch(KindMismatch):
    pass


# elaboration

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


# corpus running

class CorpusError(LttwError):
    pass


class MismatchedOutcome(CorpusError):
    pass


def matches_error_name(exc: BaseException, name: str) -> bool:
    """True when exc's class, or any ancestor, is called name.

    Manifest expectations like reject:KindMismatch match subclasses too
    (DomainMismatch, AscriptionMismatch). Manifests spell ScriptSyntaxError
    as SyntaxError, the builtin's name.
    """
    if name == "SyntaxError":
        return isinstance(exc, ScriptSyntaxError)
    return any(c.__name__ == name for c in type(exc).__mro__)
