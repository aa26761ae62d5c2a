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

One regex, _TOKEN, lexes: each match is optional blank space and one token,
and the number of the group that matched gives the token's type. Columns are
1-based in the line as written, so a script's columns count the `>` marker
and the text before it, while standalone text (parse_term, parse_kind)
counts from its own first character. The parser sees the tokens followed by
`eof` tokens that sit on the last real token (on 1:1 for empty input), so
lookahead never runs off the end, and input that ends too soon is an
UnterminatedCommand at that last token.

Tokens and spans are tuples, and the hot paths (the lexer loop and the
term loop, _application) build them with tuple.__new__. _application
reads a whole application, its parenthesised arguments and its trailing
lambda in one loop, so each level of parentheses costs one stack frame.
Input nested deeper than the interpreter's stack allows is rejected with
NestingTooDeep at the token where the command, term or kind began.
"""

from __future__ import annotations

import re
from collections import namedtuple
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

_TOKEN = re.compile(r"""
    \s*(?:
        ("[^"\\]*")                  # 1: string
      | (->|[][():;=?])              # 2: punctuation, its own type
      | ([A-Za-z_][A-Za-z0-9_']*)    # 3: ident
      | ([0-9]+)                     # 4: number, only as a SetOption value
      | (\S)                         # 5: no token starts here
    )""", re.VERBOSE)
_TYPES = (None, "string", None, "ident", "number")  # by group; None: value
_BAD = 5

KEYWORDS_KIND = {"Type", "Prop", "El", "Prf"}
DIRECTIVES = {d.value: d for d in DirectiveOp}
_RESERVED = KEYWORDS_KIND | DIRECTIVES.keys()  # names that start no term


_new = tuple.__new__


class Token(namedtuple("Token", "type value line col")):
    """type is "ident", "string", "number", "eof" or the punctuation itself;
    value is as written, so a string literal keeps its quotes."""

    __slots__ = ()

    def span(self, file: str) -> SourceSpan:
        return _new(SourceSpan, (file, self.line, self.col, self.line,
                                 self.col + len(self.value)))

    def shown(self) -> str:
        """The token as a message quotes it; a string literal is already
        quoted."""
        return self.value if self.type == "string" else repr(self.value)


def tokenize(text: str, file: str) -> list[Token]:
    tokens: list[Token] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.lstrip()
        if stripped.startswith(">"):
            _scan(raw, len(raw) - len(stripped) + 1, lineno, file, tokens)
    return tokens


def _scan(line: str, pos: int, lineno: int, file: str,
          tokens: list[Token]) -> None:
    """Append the tokens of line[pos:] to tokens; columns count from the
    line's first character."""
    append = tokens.append
    for m in _TOKEN.finditer(line, pos):
        group = m.lastindex
        value = m[group]
        col = m.start(group) + 1
        if group == _BAD:
            raise ScriptSyntaxError(
                "unterminated string literal" if value == '"'
                else f"unexpected character {value!r}",
                span=SourceSpan(file, lineno, col, lineno, col + 1))
        append(_new(Token, (_TYPES[group] or value, value, lineno, col)))


class _Parser:
    def __init__(self, tokens: list[Token], file: str):
        # three end-of-input tokens cover the longest lookahead (_binders);
        # each spans the last real token
        last = tokens[-1] if tokens else Token("eof", "", 1, 1)
        self.tokens = tokens + [Token("eof", last.value, last.line,
                                      last.col)] * 3
        self.file = file
        self.pos = 0

    # ------------------------------------------------------- plumbing

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.pos + ahead]

    def accept(self, type_: str) -> bool:
        """Consume the next token if it has type type_."""
        if self.tokens[self.pos].type == type_:
            self.pos += 1
            return True
        return False

    def expect(self, type_: str) -> Token:
        t = self.tokens[self.pos]
        if t.type != type_:
            raise self.error(t, f"where {type_!r} was expected",
                             f"expected {type_!r}, found {t.shown()}")
        self.pos += 1
        return t

    def error(self, t: Token, where: str, message: str) -> ScriptSyntaxError:
        """The error for an unwanted token t: input ended `where` when t is
        the end of input, `message` otherwise."""
        if t.type == "eof":
            return UnterminatedCommand(f"input ended {where}",
                                       span=t.span(self.file))
        return ScriptSyntaxError(message, span=t.span(self.file))

    def _span_from(self, start: Token) -> SourceSpan:
        end = self.tokens[self.pos - 1] if self.pos else start
        return _new(SourceSpan, (self.file, start.line, start.col, end.line,
                                 end.col + len(end.value)))

    def too_deep(self, start: Token) -> NestingTooDeep:
        return NestingTooDeep(
            "input nests too deeply to parse", span=start.span(self.file),
            diagnostic=Diagnostic("depth"))

    # ------------------------------------------------------- commands

    def parse_script(self) -> list[Command]:
        commands = []
        while (start := self.peek()).type != "eof":
            try:
                commands.append(self.parse_command())
            except RecursionError:
                raise self.too_deep(start) from None
        return commands

    def parse_command(self) -> Command:
        t = self.peek()
        if t.type == "ident" and t.value == "rule":
            return self._rule_command()
        if t.type == "ident" and t.value in DIRECTIVES:
            return self._directive()
        if t.type == "[":
            return self._declaration()
        raise ScriptSyntaxError(
            f"a command starts with '[', 'rule', or a directive; "
            f"found {t.shown()}", span=t.span(self.file))

    def _declaration(self) -> Command:
        start = self.expect("[")
        name = self.expect("ident").value
        binders = self._binders()
        if self.accept(":"):
            kind = self.parse_kind()
            self.expect("]")
            self.expect(";")
            return Declare(name, binders, kind, self._span_from(start))
        if self.accept("="):
            body = self.parse_term()
            kind = self.parse_kind() if self.accept(":") else None
            self.expect("]")
            self.expect(";")
            return Define(name, binders, body, kind, self._span_from(start))
        t = self.peek()
        raise self.error(t, "inside a declaration",
                         f"expected ':' or '=' in a declaration, "
                         f"found {t.shown()}")

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
            path = self.expect("string").value[1:-1]
            self.expect(";")
            return Directive(op, (path,), self._span_from(start))
        if op is DirectiveOp.SETOPTION:
            name = self.expect("ident").value
            value = self.peek()
            if value.type not in ("ident", "string", "number"):
                raise self.error(
                    value, "inside a command",
                    f"SetOption value must be a name, number, or string, "
                    f"found {value.shown()}")
            self.pos += 1
            self.expect(";")
            literal = value.value
            if value.type == "string":
                literal = literal[1:-1]
            return Directive(op, (name, literal), self._span_from(start))
        term = self.parse_term()
        kind = None
        if op is DirectiveOp.CHECK and self.accept(":"):
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
        while (self.peek().type == "[" and self.peek(1).type == "ident"
               and self.peek(2).type in (":", "]")):
            binders.append(self._binder())
        return tuple(binders)

    def _binder(self) -> Binder:
        """One [x : K] or [x]."""
        start = self.expect("[")
        name = self.expect("ident").value
        ann = self.parse_kind() if self.accept(":") else None
        self.expect("]")
        return name, ann, self._span_from(start)

    # ---------------------------------------------------------- terms

    def parse_term(self) -> SurfaceTerm:
        return self._application(None, self.tokens[self.pos])

    def _application(self, fn: Optional[SurfaceTerm],
                     start: Token) -> SurfaceTerm:
        """fn applied to the arguments that follow, as one left-nested SApp
        spanning from start; with fn None, the first argument is the head,
        and at least one is required. An argument is a name, a hole, a
        parenthesised term or a lambda; a lambda is the last argument, and
        a term that starts with one is that lambda."""
        tokens, file = self.tokens, self.file
        _, _, line, col = start
        while True:
            t = tokens[self.pos]
            type_, value, at_line, at_col = t
            if type_ == "ident" and value not in _RESERVED:
                self.pos += 1
                arg = SName(value, _new(SourceSpan, (
                    file, at_line, at_col, at_line, at_col + len(value))))
            elif type_ == "?":
                self.pos += 1
                arg = SHole(_new(SourceSpan, (
                    file, at_line, at_col, at_line, at_col + 1)))
            elif type_ == "(":
                self.pos += 1
                arg = self._application(None, tokens[self.pos])
                self.expect(")")
            elif type_ == "[":
                arg = self._lambda()
                if fn is None:
                    return arg
                return SApp(fn, arg, self._span_from(start))
            elif fn is None:
                raise self.error(t, "where a term was expected",
                                 f"expected a term, found {t.shown()}")
            else:
                return fn
            if fn is None:
                fn = arg
            else:
                _, end, end_line, end_col = tokens[self.pos - 1]
                fn = SApp(fn, arg, _new(SourceSpan, (
                    file, line, col, end_line, end_col + len(end))))

    def _lambda(self) -> SurfaceTerm:
        start = self.peek()
        name, ann, _ = self._binder()
        body = self.parse_term()
        return SLam(name, ann, body, self._span_from(start))

    # ---------------------------------------------------------- kinds

    def parse_kind(self) -> SurfaceKind:
        start = self.peek()
        if start.type == "eof":
            raise UnterminatedCommand("input ended where a kind was expected",
                                      span=start.span(self.file))
        if (start.type == "(" and self.peek(1).type == "ident"
                and self.peek(2).type == ":"):
            # named product (x : K) K'
            self.expect("(")
            name = self.expect("ident").value
            self.expect(":")
            dom = self.parse_kind()
            self.expect(")")
            cod = self.parse_kind()
            return SPi(name, dom, cod, self._span_from(start))
        left = self._kind_arrow_operand(start)
        if self.accept("->"):
            right = self.parse_kind()
            return SPi("_", left, right, self._span_from(start))
        return left

    def _kind_arrow_operand(self, start: Token) -> SurfaceKind:
        t = self.peek()
        if t.type == "ident" and t.value == "Type":
            self.pos += 1
            return SType(t.span(self.file))
        if t.type == "ident" and t.value == "Prop":
            self.pos += 1
            return SProp(t.span(self.file))
        if t.type == "ident" and t.value == "El":
            self.pos += 1
            body = self.parse_term()
            return SEl(body, self._span_from(start))
        if t.type == "ident" and t.value == "Prf":
            self.pos += 1
            body = self.parse_term()
            return SPrf(body, self._span_from(start))
        if self.accept("("):
            # parenthesised kind; may continue as a term application
            inner = self.parse_kind()
            self.expect(")")
            if isinstance(inner, STermKind):
                term = self._application(inner.term, start)
                if term is not inner.term:
                    return STermKind(term, self._span_from(start))
            return inner
        # bare term in kind position
        term = self.parse_term()
        return STermKind(term, self._span_from(start))


def parse_script(text: str, file: str = "<script>") -> list[Command]:
    return _Parser(tokenize(text, file), file).parse_script()


def parse_term(text: str, file: str = "<term>") -> SurfaceTerm:
    """Parse a standalone term (no leading '>' markers needed)."""
    return _parse_standalone(text, file, _Parser.parse_term, "term")


def parse_kind(text: str, file: str = "<kind>") -> SurfaceKind:
    """Parse a standalone kind (no leading '>' markers needed)."""
    return _parse_standalone(text, file, _Parser.parse_kind, "kind")


def _parse_standalone(text: str, file: str, parse, what: str):
    tokens: list[Token] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        _scan(line, 0, lineno, file, tokens)
    p = _Parser(tokens, file)
    try:
        result = parse(p)
    except RecursionError:
        raise p.too_deep(p.tokens[0]) from None
    t = p.peek()
    if t.type != "eof":
        raise ScriptSyntaxError(f"unexpected {t.shown()} after the {what}",
                                span=t.span(file))
    return result
