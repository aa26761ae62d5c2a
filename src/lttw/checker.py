"""Running proof-script commands against a signature.

The elaborator fills holes and coerces terms written in kind position; every
accepted command is then pushed through the signature layer, whose own kernel
checks see only hole-free syntax. Each accepted command also appends a replay
record (kernel objects, no surface syntax), so a whole session can be
re-checked later with the elaborator out of the loop entirely.

Option `prop_placement` decides what kind the distinguished constant `prop`
is declared at: "prop" keeps the script's `Prop`, "type" turns the
declaration into `Type`. Scripts that consistently write bare `prop` in
binder positions (letting coercion insert El or Prf) check the same way
under both placements.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .elaborator import Elaborator
from .errors import LttwError, ScriptSyntaxError
from . import kernel
from .kernel import Context, DEFAULT_FUEL, EMPTY_CONTEXT
from .parser import parse_script
from .printer import print_kind, print_term
from .signature import (
    RewriteRule, Signature, declare_constant, declare_rewrite, define,
)
from .surface import (
    Command, Declare, DeclareRule, Define, Directive, DirectiveOp,
)
from .syntax import TYPE, Lam, PiKind, PropKind


@dataclass
class CheckerConfig:
    prop_placement: str = "prop"  # "prop" | "type"
    fuel: int = DEFAULT_FUEL


class Checker:
    def __init__(self, sig: Optional[Signature] = None,
                 config: Optional[CheckerConfig] = None):
        self.sig = sig if sig is not None else Signature()
        self.config = config if config is not None else CheckerConfig()
        self.log: list[tuple] = []
        self.output: list[str] = []
        self.loaded: set[str] = set()
        self._loading: list[str] = []

    # ------------------------------------------------------------ files

    def run_path(self, path) -> None:
        resolved = str(Path(path).resolve())
        if resolved in self.loaded:
            return
        if resolved in self._loading:
            raise ScriptSyntaxError(
                f"Load cycle through {path!s}")
        text = Path(resolved).read_text(encoding="utf-8")
        self._loading.append(resolved)
        try:
            self.run_text(text, file=str(path))
        finally:
            self._loading.pop()
        self.loaded.add(resolved)

    def run_text(self, text: str, file: str = "<script>") -> None:
        for cmd in parse_script(text, file=file):
            self.run_command(cmd)

    # --------------------------------------------------------- commands

    def run_command(self, cmd: Command) -> None:
        if isinstance(cmd, Declare):
            self._declare(cmd)
        elif isinstance(cmd, Define):
            self._define(cmd)
        elif isinstance(cmd, DeclareRule):
            self._rule(cmd)
        elif isinstance(cmd, Directive):
            self._directive(cmd)
        else:
            raise TypeError(f"not a command: {cmd!r}")

    def _elaborator(self) -> Elaborator:
        return Elaborator(self.sig, self.config.fuel)

    def _binder_telescope(self, el: Elaborator, binders,
                          what: str) -> tuple[Context, list]:
        ctx = EMPTY_CONTEXT
        pairs = []
        for name, ann, span in binders:
            if ann is None:
                raise ScriptSyntaxError(
                    f"parameter {name!r} of a {what} needs a kind "
                    f"annotation", span=span)
            k = el.kind(ctx, ann)
            ctx = ctx.extend(name, k)
            pairs.append((name, k))
        return ctx, pairs

    def _declare(self, cmd: Declare) -> None:
        el = self._elaborator()
        ctx, pairs = self._binder_telescope(el, cmd.binders, "declaration")
        result = el.kind(ctx, cmd.kind)
        el._drain(cmd.span)
        kind = result
        for name, k in reversed(pairs):
            kind = PiKind(name, k, kind)
        kind = el.finish_kind(kind, cmd.span)
        if (self.config.prop_placement == "type" and cmd.name == "prop"
                and isinstance(kind, PropKind)):
            kind = TYPE
        try:
            declare_constant(self.sig, cmd.name, kind,
                             fuel=self.config.fuel)
        except LttwError as e:
            raise self._with_span(e, cmd.span)
        self.log.append(("declare", cmd.name, kind))

    def _define(self, cmd: Define) -> None:
        el = self._elaborator()
        ctx, pairs = self._binder_telescope(el, cmd.binders, "definition")
        expected = el.kind(ctx, cmd.kind) if cmd.kind is not None else None
        body, _ = el.term(ctx, cmd.body, expected)
        el._drain(cmd.span)
        for name, k in reversed(pairs):
            body = Lam(name, k, body)
        body = el.finish_term(body, cmd.span)
        ascription = None
        if expected is not None:
            k = el.finish_kind(expected, cmd.span)
            for name, bk in reversed(pairs):
                k = PiKind(name, bk, k)
            ascription = k
        try:
            define(self.sig, cmd.name, body, ascription,
                   fuel=self.config.fuel)
        except LttwError as e:
            raise self._with_span(e, cmd.span)
        self.log.append(("define", cmd.name, body, ascription))

    def _rule(self, cmd: DeclareRule) -> None:
        el = self._elaborator()
        ctx, pairs = self._binder_telescope(el, cmd.binders, "rule")
        ascription = el.kind(ctx, cmd.kind)
        lhs, _ = el.term(ctx, cmd.lhs, ascription)
        rhs, _ = el.term(ctx, cmd.rhs, ascription)
        el._drain(cmd.span)
        lhs = el.finish_term(lhs, cmd.span)
        rhs = el.finish_term(rhs, cmd.span)
        ascription = el.finish_kind(ascription, cmd.span)
        rule = RewriteRule(binders=tuple(pairs), lhs=lhs, rhs=rhs,
                           ascription=ascription)
        try:
            declare_rewrite(self.sig, rule, fuel=self.config.fuel)
        except LttwError as e:
            raise self._with_span(e, cmd.span)
        self.log.append(("rule", rule))

    # ------------------------------------------------------- directives

    def _directive(self, cmd: Directive) -> None:
        op = cmd.op
        if op is DirectiveOp.LOAD:
            (rel,) = cmd.payload
            base = Path(cmd.span.file).parent if cmd.span.file else Path(".")
            self.run_path(base / rel)
            return
        if op is DirectiveOp.SETOPTION:
            name, value = cmd.payload
            if name == "fuel":
                try:
                    self.config.fuel = int(value)
                except ValueError:
                    raise ScriptSyntaxError(
                        f"fuel must be a number, got {value!r}",
                        span=cmd.span)
                return
            raise ScriptSyntaxError(f"unknown option {name!r}",
                                    span=cmd.span)
        el = self._elaborator()
        if op is DirectiveOp.CHECK:
            term_s, kind_s = cmd.payload
            expected = (el.kind(EMPTY_CONTEXT, kind_s)
                        if kind_s is not None else None)
            t, k = el.term(EMPTY_CONTEXT, term_s, expected)
            el._drain(cmd.span)
            t = el.finish_term(t, cmd.span)
            k = el.finish_kind(k, cmd.span)
            # the kernel alone confirms what elaboration produced, from
            # what is left of the command's budget
            kernel.check_term(self.sig, EMPTY_CONTEXT, t, k, el.fuel)
            self.log.append(("check", t, k))
            self.output.append(
                f"Check {print_term(t)} : {print_kind(k)}")
            return
        (term_s,) = cmd.payload
        t, k = el.term(EMPTY_CONTEXT, term_s, None)
        el._drain(cmd.span)
        t = el.finish_term(t, cmd.span)
        k = el.finish_kind(k, cmd.span)
        if op is DirectiveOp.TYPEOF:
            self.output.append(
                f"TypeOf {print_term(t)} : {print_kind(k)}")
            return
        if op is DirectiveOp.REDUCE:
            reduced = kernel.normalize(self.sig, t, self.config.fuel)
            self.output.append(
                f"Reduce {print_term(t)} = {print_term(reduced)}")
            return
        raise TypeError(f"not a directive: {op!r}")

    @staticmethod
    def _with_span(e: LttwError, span) -> LttwError:
        if e.span is None:
            e.span = span
        return e


def replay(log: list[tuple],
           sig: Optional[Signature] = None,
           fuel: int = DEFAULT_FUEL) -> Signature:
    """Re-check a session from its replay records: signature and kernel
    only, no parsing, no elaboration. Raises on the first rejection."""
    sig = sig if sig is not None else Signature()
    for record in log:
        tag = record[0]
        if tag == "declare":
            _, name, kind = record
            declare_constant(sig, name, kind, fuel=fuel)
        elif tag == "define":
            _, name, body, ascription = record
            define(sig, name, body, ascription, fuel=fuel)
        elif tag == "rule":
            _, rule = record
            declare_rewrite(sig, rule, fuel=fuel)
        elif tag == "check":
            _, t, k = record
            kernel.check_term(sig, EMPTY_CONTEXT, t, k, fuel)
        else:
            raise ValueError(f"unknown replay record {tag!r}")
    return sig
