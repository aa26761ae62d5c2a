"""Error taxonomy shared by the layers of the checker.

Every error raised on purpose by this package is an LttwError. Rejections
coming out of the kernel carry a Diagnostic naming the violated rule and the
judgement pieces involved, so callers can print *why* without re-running
anything. This module imports nothing from lttw. It holds the errors of the
trusted core and those several layers share; printing a Diagnostic is the
printer's job, and an error only one other layer raises lives with it (the
elaborator's, the parser's UnterminatedCommand, the corpus runner's).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Any, Optional


class SourceSpan(namedtuple("SourceSpan", "file line col end_line end_col")):
    """Half-open source range: line/col are 1-based, end is exclusive.

    An immutable tuple of its five fields. The parser builds one for each
    command and each of a command's binders; a term or kind node builds
    its own from its first and last tokens only when asked, which in
    practice only an error does."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


@dataclass
class Diagnostic:
    """What went wrong, in terms of the judgement that failed.

    rule names the checking rule that rejected (e.g. "app-domain",
    "rewrite-head"). subject/expected/actual hold terms or kinds;
    `lttw.printer.render` turns the whole into text.
    """

    rule: str
    subject: Any = None
    expected: Any = None
    actual: Any = None


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
    """The input nests deeper than the interpreter's stack allows, other
    than through an application's last argument, which costs no stack. Its
    diagnostic's rule is "depth"."""


# lexing / parsing

class ScriptSyntaxError(LttwError):
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
