"""Lexer and parser for the proof-script format.

Only lines whose first non-blank character is `>` are code; everything else
is commentary. Code from consecutive lines is one token stream, and each
command ends with `;`. Commands:

    [c [x1 : K1] ... [xn : Kn] : K];          declare constant
    [c [x1 : K1] ... [xn : Kn] = t];          define (ascription `: K` optional)
    rule [x1 : K1] ... [xn : Kn] lhs = rhs : K;   declare rewrite rule
    Check t;  Check t : K;  TypeOf t;  Reduce t;
    Load "path";  SetOption name value;

Terms: application is juxtaposition (left-associative) and a trailing
unparenthesised lambda is the final argument; `[x : K] t` / `[x] t` abstract;
`?` is a hole. Kinds: `Type`, `Prop`, `Prf t`, `El t`, `(x : K) K'`,
`K -> K'`, or a bare term (coerced by the elaborator).

Input nested deeper than the interpreter's stack allows is rejected with
NestingTooDeep at the token where the command, term or kind began.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .errors import (
    Diagnostic, NestingTooDeep, ScriptSyntaxError, SourceSpan,
    UnterminatedCommand,
)
from .surface import (
    Binder, Command, Declare, DeclareRule, Define, Directive, DirectiveOp,
    SApp, SEl, SHole, SLam, SName, SPi, SProp, SPrf, SType, STermKind,
    SurfaceKind, SurfaceTerm,
)

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_NUMBER = re.compile(r"[0-9]+")
_STRING = re.compile(r'"([^"\\]*)"')
_PUNCT = ("->", "[", "]", "(", ")", ":", ";", "=", "?")

KEYWORDS_KIND = {"Type", "Prop", "El", "Prf"}
DIRECTIVES = {d.value: d for d in DirectiveOp}


@dataclass(frozen=True)
class Token:
    type: str  # "ident", "string", or the punctuation itself
    value: str
    line: int
    col: int

    def span(self, file: str) -> SourceSpan:
        return SourceSpan(file, self.line, self.col, self.line,
                          self.col + len(self.value))


def tokenize(text: str, file: str) -> list[Token]:
    tokens: list[Token] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.lstrip()
        if not stripped.startswith(">"):
            continue
        offset = len(raw) - len(stripped) + 1  # content after the marker
        line = stripped[1:]
        i = 0
        n = len(line)
        while i < n:
            c = line[i]
            if c.isspace():
                i += 1
                continue
            col = offset + i + 1
            if c == '"':
                m = _STRING.match(line, i)
                if not m:
                    raise ScriptSyntaxError(
                        "unterminated string literal",
                        span=SourceSpan(file, lineno, col, lineno, col + 1))
                tokens.append(Token("string", m.group(1), lineno, col))
                i = m.end()
                continue
            if line.startswith("->", i):
                tokens.append(Token("->", "->", lineno, col))
                i += 2
                continue
            if c in "[]():;=?":
                tokens.append(Token(c, c, lineno, col))
                i += 1
                continue
            m = _IDENT.match(line, i)
            if m:
                tokens.append(Token("ident", m.group(0), lineno, col))
                i = m.end()
                continue
            m = _NUMBER.match(line, i)
            if m:
                # numbers only occur as SetOption values
                tokens.append(Token("number", m.group(0), lineno, col))
                i = m.end()
                continue
            raise ScriptSyntaxError(
                f"unexpected character {c!r}",
                span=SourceSpan(file, lineno, col, lineno, col + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token], file: str):
        self.tokens = tokens
        self.file = file
        self.pos = 0

    # ------------------------------------------------------- plumbing

    def peek(self, ahead: int = 0) -> Optional[Token]:
        i = self.pos + ahead
        return self.tokens[i] if i < len(self.tokens) else None

    def next(self) -> Token:
        t = self.peek()
        if t is None:
            raise UnterminatedCommand(
                "input ended inside a command", span=self._last_span())
        self.pos += 1
        return t

    def expect(self, type_: str) -> Token:
        t = self.peek()
        if t is None:
            raise UnterminatedCommand(
                f"input ended where {type_!r} was expected",
                span=self._last_span())
        if t.type != type_:
            raise ScriptSyntaxError(
                f"expected {type_!r}, found {t.value!r}",
                span=t.span(self.file))
        self.pos += 1
        return t

    def _last_span(self) -> SourceSpan:
        if self.tokens:
            return self.tokens[-1].span(self.file)
        return SourceSpan(self.file, 1, 1, 1, 1)

    def _span_from(self, start: Token) -> SourceSpan:
        end = self.tokens[self.pos - 1] if self.pos else start
        return SourceSpan(self.file, start.line, start.col, end.line,
                          end.col + len(end.value))

    def too_deep(self, start: Token) -> NestingTooDeep:
        return NestingTooDeep(
            "input nests too deeply to parse", span=start.span(self.file),
            diagnostic=Diagnostic("depth"))

    # ------------------------------------------------------- commands

    def parse_script(self) -> list[Command]:
        commands = []
        while (start := self.peek()) is not None:
            try:
                commands.append(self.parse_command())
            except RecursionError:
                raise self.too_deep(start) from None
        return commands

    def parse_command(self) -> Command:
        t = self.peek()
        assert t is not None
        if t.type == "ident" and t.value == "rule":
            return self._rule_command()
        if t.type == "ident" and t.value in DIRECTIVES:
            return self._directive()
        if t.type == "[":
            return self._declaration()
        raise ScriptSyntaxError(
            f"a command starts with '[', 'rule', or a directive; "
            f"found {t.value!r}", span=t.span(self.file))

    def _declaration(self) -> Command:
        start = self.expect("[")
        name = self.expect("ident").value
        binders = self._binders()
        t = self.peek()
        if t is not None and t.type == ":":
            self.next()
            kind = self.parse_kind()
            self.expect("]")
            self.expect(";")
            return Declare(name, binders, kind, self._span_from(start))
        if t is not None and t.type == "=":
            self.next()
            body = self.parse_term()
            kind = None
            t2 = self.peek()
            if t2 is not None and t2.type == ":":
                self.next()
                kind = self.parse_kind()
            self.expect("]")
            self.expect(";")
            return Define(name, binders, body, kind, self._span_from(start))
        if t is None:
            raise UnterminatedCommand("input ended inside a declaration",
                                      span=self._last_span())
        raise ScriptSyntaxError(
            f"expected ':' or '=' in a declaration, found {t.value!r}",
            span=t.span(self.file))

    def _rule_command(self) -> Command:
        start = self.expect("ident")  # "rule"
        binders = self._binders()
        lhs = self.parse_term()
        self.expect("=")
        rhs = self.parse_term()
        self.expect(":")
        kind = self.parse_kind()
        self.expect(";")
        return DeclareRule(binders, lhs, rhs, kind, self._span_from(start))

    def _directive(self) -> Command:
        start = self.expect("ident")
        op = DIRECTIVES[start.value]
        if op is DirectiveOp.LOAD:
            path = self.expect("string").value
            self.expect(";")
            return Directive(op, (path,), self._span_from(start))
        if op is DirectiveOp.SETOPTION:
            name = self.expect("ident").value
            value = self.next()
            if value.type not in ("ident", "string", "number"):
                raise ScriptSyntaxError(
                    f"SetOption value must be a name, number, or string, "
                    f"found {value.value!r}", span=value.span(self.file))
            self.expect(";")
            return Directive(op, (name, value.value),
                             self._span_from(start))
        term = self.parse_term()
        kind = None
        if op is DirectiveOp.CHECK:
            t = self.peek()
            if t is not None and t.type == ":":
                self.next()
                kind = self.parse_kind()
        self.expect(";")
        if op is DirectiveOp.CHECK:
            return Directive(op, (term, kind), self._span_from(start))
        return Directive(op, (term,), self._span_from(start))

    def _binders(self) -> tuple[Binder, ...]:
        """Zero or more [x : K] / [x] groups. Stops before a '[' that does
        not look like a binder (never happens in command position, where the
        next token after binders is ':' or '=' or a term)."""
        binders: list[Binder] = []
        while True:
            t = self.peek()
            if t is None or t.type != "[":
                break
            t1 = self.peek(1)
            t2 = self.peek(2)
            if t1 is None or t1.type != "ident":
                break
            if t2 is None or t2.type not in (":", "]"):
                break
            start = self.next()
            name = self.expect("ident").value
            ann = None
            if self.peek() is not None and self.peek().type == ":":
                self.next()
                ann = self.parse_kind()
            self.expect("]")
            binders.append((name, ann, self._span_from(start)))
        return tuple(binders)

    # ---------------------------------------------------------- terms

    def parse_term(self) -> SurfaceTerm:
        t = self.peek()
        if t is None:
            raise UnterminatedCommand("input ended where a term was expected",
                                      span=self._last_span())
        if t.type == "[":
            return self._lambda()
        atom = self._atom()
        if atom is None:
            raise ScriptSyntaxError(f"expected a term, found {t.value!r}",
                                    span=t.span(self.file))
        return self._application(atom, t)

    def _application(self, fn: SurfaceTerm, start: Token) -> SurfaceTerm:
        while True:
            t = self.peek()
            if t is None:
                return fn
            if t.type == "[":
                # trailing lambda is the final argument
                arg = self._lambda()
                return SApp(fn, arg, self._span_from(start))
            arg = self._atom()
            if arg is None:
                return fn
            fn = SApp(fn, arg, self._span_from(start))

    def _atom(self) -> Optional[SurfaceTerm]:
        t = self.peek()
        if t is None:
            return None
        if t.type == "ident":
            if t.value in DIRECTIVES or t.value in KEYWORDS_KIND:
                return None
            self.next()
            return SName(t.value, t.span(self.file))
        if t.type == "?":
            self.next()
            return SHole(t.span(self.file))
        if t.type == "(":
            self.next()
            inner = self.parse_term()
            self.expect(")")
            return inner
        return None

    def _lambda(self) -> SurfaceTerm:
        start = self.expect("[")
        name = self.expect("ident").value
        ann = None
        if self.peek() is not None and self.peek().type == ":":
            self.next()
            ann = self.parse_kind()
        self.expect("]")
        body = self.parse_term()
        return SLam(name, ann, body, self._span_from(start))

    # ---------------------------------------------------------- kinds

    def parse_kind(self) -> SurfaceKind:
        start = self.peek()
        if start is None:
            raise UnterminatedCommand("input ended where a kind was expected",
                                      span=self._last_span())
        if start.type == "(":
            t1, t2 = self.peek(1), self.peek(2)
            if (t1 is not None and t1.type == "ident"
                    and t2 is not None and t2.type == ":"):
                # named product (x : K) K'
                self.next()
                name = self.expect("ident").value
                self.expect(":")
                dom = self.parse_kind()
                self.expect(")")
                cod = self.parse_kind()
                return SPi(name, dom, cod, self._span_from(start))
        left = self._kind_arrow_operand(start)
        t = self.peek()
        if t is not None and t.type == "->":
            self.next()
            right = self.parse_kind()
            return SPi("_", left, right, self._span_from(start))
        return left

    def _kind_arrow_operand(self, start: Token) -> SurfaceKind:
        t = self.peek()
        assert t is not None
        if t.type == "ident" and t.value == "Type":
            self.next()
            return SType(t.span(self.file))
        if t.type == "ident" and t.value == "Prop":
            self.next()
            return SProp(t.span(self.file))
        if t.type == "ident" and t.value == "El":
            self.next()
            body = self.parse_term()
            return SEl(body, self._span_from(start))
        if t.type == "ident" and t.value == "Prf":
            self.next()
            body = self.parse_term()
            return SPrf(body, self._span_from(start))
        if t.type == "(":
            # parenthesised kind; may continue as a term application
            self.next()
            inner = self.parse_kind()
            self.expect(")")
            nxt = self.peek()
            if (isinstance(inner, STermKind) and nxt is not None
                    and nxt.type in ("ident", "?", "(", "[")
                    and self._starts_term(nxt)):
                term = self._application(inner.term, start)
                return STermKind(term, self._span_from(start))
            return inner
        # bare term in kind position
        term = self.parse_term()
        return STermKind(term, self._span_from(start))

    def _starts_term(self, t: Token) -> bool:
        if t.type == "ident":
            return t.value not in DIRECTIVES and t.value not in KEYWORDS_KIND
        return t.type in ("?", "(", "[")


def parse_script(text: str, file: str = "<script>") -> list[Command]:
    return _Parser(tokenize(text, file), file).parse_script()


def parse_term(text: str, file: str = "<term>") -> SurfaceTerm:
    """Parse a standalone term (no leading '>' markers needed)."""
    return _parse_standalone(text, file, _Parser.parse_term, "term")


def parse_kind(text: str, file: str = "<kind>") -> SurfaceKind:
    """Parse a standalone kind (no leading '>' markers needed)."""
    return _parse_standalone(text, file, _Parser.parse_kind, "kind")


def _parse_standalone(text: str, file: str, parse, what: str):
    marked = "\n".join("> " + line for line in text.splitlines())
    p = _Parser(tokenize(marked, file), file)
    try:
        result = parse(p)
    except RecursionError:
        raise p.too_deep(p.tokens[0]) from None
    t = p.peek()
    if t is not None:
        raise ScriptSyntaxError(f"unexpected {t.value!r} after the {what}",
                                span=t.span(file))
    return result
