"""Running proof-script commands against a signature.

The elaborator fills holes and coerces terms written in kind position; every
accepted command is then turned into a replay record (kernel objects, no
surface syntax) and committed: `lttw.signature.commit` checks the record
with the signature layer and the kernel, which see only hole-free syntax,
and the record is appended to the log. `lttw.signature.replay` commits a
log the same way, so a whole session can be re-checked later with the
elaborator out of the loop entirely. A `TypeOf` or `Reduce` declares nothing
and leaves no record, but the kernel checks the term it elaborated all the
same before it is printed or normalised.

The kernel decides every kind equality without holes, once. The elaborator
decides only the equalities that involve a hole and records the others as
obligations for the kernel's check. A rejected command is explained from
them (`Elaborator.explain`): decided in order, the first that fails gives
the error that deciding them during elaboration would have raised.
`kernel.check_term` validates the kind of a `Check`, `TypeOf` or `Reduce`
before it checks the term against it.

One command spends from one step budget of `fuel` steps: hole solving, the
kernel check of what was elaborated and the normalisation of a `Reduce`
draw on the same `Fuel`. A budget other than the default is logged as a
`("fuel", n)` record where it changes, so `replay` gives each record the
budget its command ran under. A `Load` runs each command of the loaded
file on its own budget and is all-or-nothing: a file that fails leaves the
signature, the log, the budget, the output and the loaded files as they
were.

Each command runs once. The parser, the elaborator, the kernel and the
printer each loop on an application's last argument, so a numeral costs
them no stack, however long. A command nested deeper than the
interpreter's stack allows elsewhere is explained like any other
rejection: a false obligation recorded before the stack ran out gives the
error, and otherwise the command is rejected with NestingTooDeep. Either
way a rejected command leaves the signature unchanged.

A `Checker` session has two settings, both given to the constructor.
`fuel` is each command's budget until a `SetOption fuel` changes it.
`prop_placement` decides what kind the distinguished constant `prop` is
declared at: "prop" keeps the script's `Prop`, "type" turns the declaration
into `Type`. Scripts that consistently write bare `prop` in binder
positions (letting coercion insert El or Prf) check the same way under both
placements.
"""

from __future__ import annotations

import errno
from pathlib import Path
from typing import Optional

from .elaborator import Elaborator
from .errors import Diagnostic, LttwError, NestingTooDeep, ScriptSyntaxError
from . import kernel
from .kernel import (
    DEFAULT_FUEL, EMPTY_CONTEXT, Context, Fuel, RewriteRule, Signature,
)
from .parser import parse_script
from .printer import print_kind, print_term
# `replay` is not used here: perfbench/tracer.py reads it from this module
from .signature import commit, replay  # noqa: F401
from .surface import (
    Command, Declare, DeclareRule, Define, Directive, DirectiveOp,
)
from .syntax import TYPE, Lam, PiKind, PropKind


# directives that elaborate nothing
_UNELABORATED = (DirectiveOp.LOAD, DirectiveOp.SETOPTION)


def parse_fuel(text: str) -> int:
    """A step budget as written on the command line or in `SetOption fuel`:
    a positive whole number. Raises ValueError saying what is wrong."""
    try:
        fuel = int(text)
    except ValueError:
        raise ValueError(f"fuel must be a number, got {text!r}") from None
    if fuel <= 0:
        raise ValueError(f"fuel must be positive, got {fuel}")
    return fuel


def read_text(path) -> str:
    """The text of a script or manifest. A file that is not UTF-8 raises
    OSError, as one that cannot be read does."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise OSError(errno.EILSEQ, f"not UTF-8 text at byte {e.start}",
                      str(path)) from None


class Checker:
    def __init__(self, prop_placement: str = "prop",
                 fuel: int = DEFAULT_FUEL):
        if prop_placement not in ("prop", "type"):
            raise ValueError(f"unknown prop placement {prop_placement!r}")
        self.prop_placement = prop_placement
        self.fuel = fuel
        self.sig = Signature()
        self.log: list[tuple] = []
        if fuel != DEFAULT_FUEL:
            self.log.append(("fuel", fuel))
        self.output: list[str] = []
        self.loaded: set[str] = set()
        self._loading: list[str] = []
        # the elaborator of the command being run
        self._el: Optional[Elaborator] = None

    # ------------------------------------------------------------ files

    def run_path(self, path) -> None:
        resolved = str(Path(path).resolve())
        if resolved in self.loaded:
            return
        if resolved in self._loading:
            raise ScriptSyntaxError(f"Load cycle through {path!s}")
        text = read_text(path)
        entries = dict(self.sig.entries)
        rules = {head: list(rs) for head, rs in self.sig.rules.items()}
        logged, printed = len(self.log), len(self.output)
        fuel, loaded = self.fuel, set(self.loaded)
        self._loading.append(resolved)
        try:
            self.run_text(text, file=str(path))
        except Exception:
            self.sig.entries, self.sig.rules = entries, rules
            del self.log[logged:], self.output[printed:]
            self.fuel, self.loaded = fuel, loaded
            raise
        finally:
            self._loading.pop()
        self.loaded.add(resolved)

    def run_text(self, text: str, file: str = "<script>") -> None:
        for cmd in parse_script(text, file=file):
            self.run_command(cmd)

    # --------------------------------------------------------- commands

    def run_command(self, cmd: Command) -> None:
        logged, printed = len(self.log), len(self.output)
        try:
            if isinstance(cmd, Directive) and cmd.op in _UNELABORATED:
                self._directive(cmd)
            else:
                self._elaborate_and_commit(self._step(cmd), cmd)
        except LttwError as e:
            # the innermost command that raised it is the one to blame
            if e.span is None:
                e.span = cmd.span
            raise
        except RecursionError:
            # a Check runs out of stack printing a term it has logged; as
            # a rejected command, it leaves no record and no line
            del self.log[logged:], self.output[printed:]
            raise NestingTooDeep("command nests too deeply to check",
                                 span=cmd.span,
                                 diagnostic=Diagnostic("depth")) from None

    def _step(self, cmd: Command):
        if isinstance(cmd, Declare):
            return self._declare
        if isinstance(cmd, Define):
            return self._define
        if isinstance(cmd, DeclareRule):
            return self._rule
        if isinstance(cmd, Directive):
            return self._directive
        raise TypeError(f"not a command: {cmd!r}")

    def _elaborate_and_commit(self, step, cmd: Command) -> None:
        """Run `step`, a command that elaborates, once, with its kind
        equalities without holes left to the kernel's check and a rejection
        explained from them (see the module docstring)."""
        el = self._el = self._elaborator()
        try:
            step(cmd)
        except Exception as e:
            # past a false obligation, elaboration and the kernel may fail
            # in any way; the explanation says which error stands
            raise el.explain(e)
        finally:
            self._el = None  # its obligations hold the command's terms

    def _elaborator(self) -> Elaborator:
        # the command's one budget: elaboration, the commit and a Reduce's
        # normalisation all spend from it
        return Elaborator(self.sig, Fuel(self.fuel))

    def _commit(self, record: tuple, fuel: Fuel) -> None:
        commit(self.sig, record, fuel)
        self.log.append(record)

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
        el = self._el
        ctx, pairs = self._binder_telescope(el, cmd.binders, "declaration")
        kind = el.kind(ctx, cmd.kind)
        for name, k in reversed(pairs):
            kind = PiKind(name, k, kind)
        kind = el.finish_kind(kind, cmd.span)
        if (self.prop_placement == "type" and cmd.name == "prop"
                and isinstance(kind, PropKind)):
            kind = TYPE
        self._commit(("declare", cmd.name, kind), el.fuel)

    def _define(self, cmd: Define) -> None:
        el = self._el
        ctx, pairs = self._binder_telescope(el, cmd.binders, "definition")
        expected = el.kind(ctx, cmd.kind) if cmd.kind is not None else None
        body, _ = el.term(ctx, cmd.body, expected)
        for name, k in reversed(pairs):
            body = Lam(name, k, body)
        body = el.finish_term(body, cmd.span)
        ascription = None
        if expected is not None:
            k = el.finish_kind(expected, cmd.span)
            for name, bk in reversed(pairs):
                k = PiKind(name, bk, k)
            ascription = k
        self._commit(("define", cmd.name, body, ascription), el.fuel)

    def _rule(self, cmd: DeclareRule) -> None:
        el = self._el
        ctx, pairs = self._binder_telescope(el, cmd.binders, "rule")
        ascription = el.kind(ctx, cmd.kind)
        lhs, _ = el.term(ctx, cmd.lhs, ascription)
        rhs, _ = el.term(ctx, cmd.rhs, ascription)
        rule = RewriteRule(binders=tuple(pairs),
                           lhs=el.finish_term(lhs, cmd.span),
                           rhs=el.finish_term(rhs, cmd.span),
                           ascription=el.finish_kind(ascription, cmd.span))
        self._commit(("rule", rule), el.fuel)

    # ------------------------------------------------------- directives

    def _directive(self, cmd: Directive) -> None:
        op = cmd.op
        if op is DirectiveOp.LOAD:
            (rel,) = cmd.payload
            base = Path(cmd.span.file).parent if cmd.span.file else Path(".")
            try:
                self.run_path(base / rel)
            except OSError as e:
                # the script is at fault, not the command line
                raise ScriptSyntaxError(
                    f"cannot Load {rel!r}: {e.strerror or e}",
                    span=cmd.span) from None
            return
        if op is DirectiveOp.SETOPTION:
            name, value = cmd.payload
            if name != "fuel":
                raise ScriptSyntaxError(f"unknown option {name!r}",
                                        span=cmd.span)
            try:
                fuel = parse_fuel(value)
            except ValueError as e:
                raise ScriptSyntaxError(str(e), span=cmd.span) from None
            if fuel != self.fuel:
                self.log.append(("fuel", fuel))
                self.fuel = fuel
            return
        el = self._el
        expected = None
        if op is DirectiveOp.CHECK:
            term_s, kind_s = cmd.payload
            if kind_s is not None:
                expected = el.kind(EMPTY_CONTEXT, kind_s)
        else:
            (term_s,) = cmd.payload
        t, k = el.term(EMPTY_CONTEXT, term_s, expected)
        t = el.finish_term(t, cmd.span)
        k = el.finish_kind(k, cmd.span)
        # the kernel alone confirms what elaboration produced; only a Check
        # is also a replay record
        if op is DirectiveOp.CHECK:
            self._commit(("check", t, k), el.fuel)
        else:
            kernel.check_term(self.sig, EMPTY_CONTEXT, t, k, el.fuel)
        if op is DirectiveOp.REDUCE:
            reduced = kernel.normalize(self.sig, t, el.fuel)
            self.output.append(
                f"Reduce {print_term(t)} = {print_term(reduced)}")
        else:
            self.output.append(
                f"{op.value} {print_term(t)} : {print_kind(k)}")
