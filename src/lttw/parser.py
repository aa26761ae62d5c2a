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

A token is a plain tuple (type, value, line, col), not an instance of a
tuple subclass: CPython's garbage collector stops tracking an exact tuple
of untracked values such as strings and ints the first time a collection
sees it, while it rescans a tuple subclass at every collection for as long
as it lives, and a script holds tens of thousands of tokens. Spans are
SourceSpan tuples, built on the hot paths with tuple.__new__. _application
reads a whole application, its parenthesised arguments and its lambdas in
one loop, keeping the applications it is inside on a list of its own, so
no nesting of terms costs stack. Input that nests deeper than the
interpreter's stack allows, which only kinds can, is rejected with
NestingTooDeep at the token where the command, term or kind began.
"""

from __future__ import annotations

import re
from typing import Optional

from .errors import Diagnostic, NestingTooDeep, ScriptSyntaxError, SourceSpan
from .surface import (
    Binder, Command, Declare, DeclareRule, Define, Directive, DirectiveOp,
    SApp, SEl, SHole, SLam, SName, SPi, SProp, SPrf, SType, STermKind,
    SurfaceKind, SurfaceTerm,
)


class UnterminatedCommand(ScriptSyntaxError):
    pass


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


# (type, value, line, col): type is "ident", "string", "number", "eof" or
# the punctuation itself; value is as written, so a string literal keeps
# its quotes
Token = tuple[str, str, int, int]


def _span(t: Token, file: str) -> SourceSpan:
    """The source range a token covers."""
    _, value, line, col = t
    return _new(SourceSpan, (file, line, col, line, col + len(value)))


def _shown(t: Token) -> str:
    """The token as a message quotes it; a string literal is already
    quoted."""
    return t[1] if t[0] == "string" else repr(t[1])


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
        append((_TYPES[group] or value, value, lineno, col))


class _Parser:
    def __init__(self, tokens: list[Token], file: str):
        # three end-of-input tokens cover the longest lookahead (_binders);
        # each spans the last real token
        _, value, line, col = tokens[-1] if tokens else ("eof", "", 1, 1)
        self.tokens = tokens + [("eof", value, line, col)] * 3
        self.file = file
        self.pos = 0

    # ------------------------------------------------------- plumbing

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.pos + ahead]

    def accept(self, type_: str) -> bool:
        """Consume the next token if it has type type_."""
        if self.tokens[self.pos][0] == type_:
            self.pos += 1
            return True
        return False

    def expect(self, type_: str) -> Token:
        t = self.tokens[self.pos]
        if t[0] != type_:
            raise self.error(t, f"where {type_!r} was expected",
                             f"expected {type_!r}, found {_shown(t)}")
        self.pos += 1
        return t

    def error(self, t: Token, where: str, message: str) -> ScriptSyntaxError:
        """The error for an unwanted token t: input ended `where` when t is
        the end of input, `message` otherwise."""
        if t[0] == "eof":
            return UnterminatedCommand(f"input ended {where}",
                                       span=_span(t, self.file))
        return ScriptSyntaxError(message, span=_span(t, self.file))

    def _span_from(self, start: Token) -> SourceSpan:
        _, _, line, col = start
        _, value, end_line, end_col = (self.tokens[self.pos - 1] if self.pos
                                       else start)
        return _new(SourceSpan, (self.file, line, col, end_line,
                                 end_col + len(value)))

    def too_deep(self, start: Token) -> NestingTooDeep:
        return NestingTooDeep(
            "input nests too deeply to parse", span=_span(start, self.file),
            diagnostic=Diagnostic("depth"))

    # ------------------------------------------------------- commands

    def parse_script(self) -> list[Command]:
        commands = []
        while (start := self.peek())[0] != "eof":
            try:
                commands.append(self.parse_command())
            except RecursionError:
                raise self.too_deep(start) from None
        return commands

    def parse_command(self) -> Command:
        t = self.peek()
        type_, value, _, _ = t
        if type_ == "ident" and value == "rule":
            return self._rule_command()
        if type_ == "ident" and value in DIRECTIVES:
            return self._directive()
        if type_ == "[":
            return self._declaration()
        raise ScriptSyntaxError(
            f"a command starts with '[', 'rule', or a directive; "
            f"found {_shown(t)}", span=_span(t, self.file))

    def _declaration(self) -> Command:
        start = self.expect("[")
        name = self.expect("ident")[1]
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
                         f"found {_shown(t)}")

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
        op = DIRECTIVES[start[1]]
        if op is DirectiveOp.LOAD:
            path = self.expect("string")[1][1:-1]
            self.expect(";")
            return Directive(op, (path,), self._span_from(start))
        if op is DirectiveOp.SETOPTION:
            name = self.expect("ident")[1]
            t = self.peek()
            type_, literal, _, _ = t
            if type_ not in ("ident", "string", "number"):
                raise self.error(
                    t, "inside a command",
                    f"SetOption value must be a name, number, or string, "
                    f"found {_shown(t)}")
            self.pos += 1
            self.expect(";")
            if type_ == "string":
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
        while (self.peek()[0] == "[" and self.peek(1)[0] == "ident"
               and self.peek(2)[0] in (":", "]")):
            binders.append(self._binder())
        return tuple(binders)

    def _binder(self) -> Binder:
        """One [x : K] or [x]."""
        start = self.expect("[")
        name = self.expect("ident")[1]
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
        a term that starts with one is that lambda.

        A parenthesised term and a lambda's body are read in the same loop
        as the application around them, which waits on `outer`, so nesting
        costs no stack."""
        tokens, file = self.tokens, self.file
        _, _, line, col = start
        outer = []  # (fn, start, line, col, binder): an enclosing
        # application, and the lambda's binder if it waits on a body, or
        # None if on a parenthesised argument
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
            elif type_ == "(" or type_ == "[":
                binder = None
                if type_ == "(":
                    self.pos += 1
                else:
                    binder = (t, *self._binder()[:2])
                outer.append((fn, start, line, col, binder))
                fn, start = None, tokens[self.pos]
                _, _, line, col = start
                continue
            elif fn is None:
                raise self.error(t, "where a term was expected",
                                 f"expected a term, found {_shown(t)}")
            else:
                # this application ends here, and so does each enclosing
                # one whose last argument is a lambda around it
                while True:
                    if not outer:
                        return fn
                    arg = fn
                    fn, start, line, col, binder = outer.pop()
                    if binder is None:
                        self.expect(")")
                        break
                    at, name, ann = binder
                    arg = SLam(name, ann, arg, self._span_from(at))
                    if fn is not None:
                        fn = SApp(fn, arg, self._span_from(start))
                    else:
                        fn = arg
            if fn is None:
                fn = arg
            else:
                _, end, end_line, end_col = tokens[self.pos - 1]
                fn = SApp(fn, arg, _new(SourceSpan, (
                    file, line, col, end_line, end_col + len(end))))

    # ---------------------------------------------------------- kinds

    def parse_kind(self) -> SurfaceKind:
        start = self.peek()
        if start[0] == "eof":
            raise UnterminatedCommand("input ended where a kind was expected",
                                      span=_span(start, self.file))
        if (start[0] == "(" and self.peek(1)[0] == "ident"
                and self.peek(2)[0] == ":"):
            # named product (x : K) K'
            self.expect("(")
            name = self.expect("ident")[1]
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
        type_, value, _, _ = t
        if type_ == "ident" and value == "Type":
            self.pos += 1
            return SType(_span(t, self.file))
        if type_ == "ident" and value == "Prop":
            self.pos += 1
            return SProp(_span(t, self.file))
        if type_ == "ident" and value == "El":
            self.pos += 1
            body = self.parse_term()
            return SEl(body, self._span_from(start))
        if type_ == "ident" and value == "Prf":
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
    if t[0] != "eof":
        raise ScriptSyntaxError(f"unexpected {_shown(t)} after the {what}",
                                span=_span(t, file))
    return result
