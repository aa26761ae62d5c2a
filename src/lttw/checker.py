"""Running proof-script commands against a signature.

Every command is turned into a replay record (kernel objects, no surface
syntax) and committed: `lttw.signature.commit` checks the record with the
signature layer and the kernel, and the record is appended to the log, so
`lttw.signature.replay` can re-check a session with the elaborator out of
the loop. A query's record is `("check", t, k)`, which only a `Check` logs;
it is checked before the term is printed or normalised.

Every command runs on one `Elaborator`. Until the command's first hole, a
subterm checked against a kind is translated, by name resolution alone,
and the kernel's check is its only inference; a spine checked against no
kind, such as a query's without one, is elaborated for its kind, its
arguments translated. From the first hole on, the elaborator fills the
holes, deciding only the kind equalities that involve one, and the kernel
decides the others.

Every command is checked once, and the kernel's rejection stands: it
carries no span, and `elaborator.blaming` gives it the span of the node
of the command that its Diagnostic names, or `run_command` the command's.
A command nested deeper than the interpreter's stack allows is rejected
with NestingTooDeep. A rejected command leaves the signature, the log and the
output as they were: it appends to `log` and `output` only as its last
step, after it has printed.

One command spends from one step budget of `fuel` steps, made by
`_elaborator`: hole solving, the kernel's check and the normalisation of a
`Reduce` draw on the same `Fuel`. A budget other than the default is
logged as a `("fuel", n)` record where it changes, so `replay` gives each
record the budget its command ran under. A `Load` runs each command of
the loaded file on its own budget and is all-or-nothing
(`all_or_nothing`).

A `Checker` session has two settings, both given to the constructor.
`fuel` is each command's budget until a `SetOption fuel` changes it: a
positive int, as `replay` requires of a logged budget.
`prop_placement` decides what kind the distinguished constant `prop` is
declared at: "prop" keeps the script's `Prop`, "type" turns the declaration
into `Type`. Scripts that consistently write bare `prop` in binder
positions (letting coercion insert El or Prf) check the same way under both
placements.
"""

from __future__ import annotations

import errno
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

from .elaborator import Elaborator, blaming, too_deep
from .errors import LttwError
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
    ScriptSyntaxError,
)
from .syntax import TYPE, Lam, PiKind, PropKind


# the method that runs each command, by the command's type
_METHODS = {Declare: "_declare", Define: "_define", DeclareRule: "_rule",
            Directive: "_directive"}


def _under(e, binders, inner) -> list:
    """The roots of `e`, built under a Lam or a product per binder: each
    binder's kind with its annotation, and what they bind with `inner`."""
    roots = []
    for _, ann, _ in binders:
        roots.append((e[1], ann))
        e = e[2]
    return roots + [(e, inner)]


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
        # the budgets `replay` accepts
        if type(fuel) is not int or fuel <= 0:
            raise ValueError(f"fuel must be a positive int, got {fuel!r}")
        self.prop_placement = prop_placement
        self.fuel = fuel
        self.sig = Signature()
        self.log: list[tuple] = []
        if fuel != DEFAULT_FUEL:
            self.log.append(("fuel", fuel))
        self.output: list[str] = []
        self.loaded: set[str] = set()
        self._loading: list[str] = []
        # the command being run's elaborator
        self._el: Optional[Elaborator] = None

    # ------------------------------------------------------------ files

    def run_path(self, path) -> None:
        resolved = str(Path(path).resolve())
        if resolved in self.loaded:
            return
        if resolved in self._loading:
            raise ScriptSyntaxError(f"Load cycle through {path!s}")
        text = read_text(path)
        self._loading.append(resolved)
        try:
            with self.all_or_nothing():
                self.run_text(text, file=str(path))
        finally:
            self._loading.pop()
        self.loaded.add(resolved)

    @contextmanager
    def all_or_nothing(self):
        """Run the block; if it raises, the signature, the log, the output,
        the budget and the loaded files are left as they were before it."""
        entries = dict(self.sig.entries)
        rules = {head: list(rs) for head, rs in self.sig.rules.items()}
        logged, printed = len(self.log), len(self.output)
        fuel, loaded = self.fuel, set(self.loaded)
        try:
            yield
        except Exception:
            self.sig.entries, self.sig.rules = entries, rules
            del self.log[logged:], self.output[printed:]
            self.fuel, self.loaded = fuel, loaded
            raise

    def run_text(self, text: str, file: str = "<script>") -> None:
        for cmd in parse_script(text, file=file):
            self.run_command(cmd)

    # --------------------------------------------------------- commands

    def run_command(self, cmd: Command) -> None:
        """Run `cmd` on an elaborator of its own (see the module
        docstring)."""
        # looked up on the instance, so a method replaced on the class runs
        name = _METHODS.get(type(cmd))
        if name is None:
            raise TypeError(f"not a command: {cmd!r}")
        self._el = self._elaborator()
        try:
            getattr(self, name)(cmd)
        except RecursionError:
            raise too_deep(cmd.span) from None
        except LttwError as e:
            # the innermost command that has no node to blame blames itself
            if e.span is None:
                e.span = cmd.span
            raise
        finally:
            self._el = None

    def _elaborator(self) -> Elaborator:
        # the command's one budget: elaboration, the commit and a Reduce's
        # normalisation all spend from it
        return Elaborator(self.sig, Fuel(self.fuel))

    def _commit(self, record: tuple, fuel: Fuel, roots: list) -> None:
        with blaming(roots):
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
        kind = el.finish_kind(kind, cmd)
        if (self.prop_placement == "type" and cmd.name == "prop"
                and isinstance(kind, PropKind)):
            kind = TYPE
        self._commit(("declare", cmd.name, kind), el.fuel,
                     _under(kind, cmd.binders, cmd.kind))

    def _define(self, cmd: Define) -> None:
        el = self._el
        ctx, pairs = self._binder_telescope(el, cmd.binders, "definition")
        expected = el.kind(ctx, cmd.kind) if cmd.kind is not None else None
        body, _ = el.term(ctx, cmd.body, expected)
        for name, k in reversed(pairs):
            body = Lam(name, k, body)
        body = el.finish_term(body, cmd)
        ascription = expected
        if expected is not None:
            for name, k in reversed(pairs):
                ascription = PiKind(name, k, ascription)
            ascription = el.finish_kind(ascription, cmd)
        roots = _under(body, cmd.binders, cmd.body)
        if ascription is not None:
            roots += _under(ascription, cmd.binders, cmd.kind)
        self._commit(("define", cmd.name, body, ascription), el.fuel, roots)

    def _rule(self, cmd: DeclareRule) -> None:
        el = self._el
        ctx, pairs = self._binder_telescope(el, cmd.binders, "rule")
        ascription = el.kind(ctx, cmd.kind)
        lhs, _ = el.term(ctx, cmd.lhs, ascription)
        rhs, _ = el.term(ctx, cmd.rhs, ascription)
        rule = RewriteRule(binders=tuple((name, el.finish_kind(k, cmd))
                                         for name, k in pairs),
                           lhs=el.finish_term(lhs, cmd),
                           rhs=el.finish_term(rhs, cmd),
                           ascription=el.finish_kind(ascription, cmd))
        roots = [(k, ann) for (_, k), (_, ann, _)
                 in zip(rule.binders, cmd.binders)]
        self._commit(("rule", rule), el.fuel, roots + [
            (rule.lhs, cmd.lhs), (rule.rhs, cmd.rhs),
            (rule.ascription, cmd.kind)])

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
        term_s, kind_s = cmd.payload
        expected = None if kind_s is None else el.kind(EMPTY_CONTEXT, kind_s)
        t, k = el.term(EMPTY_CONTEXT, term_s, expected)
        t = el.finish_term(t, cmd)
        record = ("check", t, el.finish_kind(k, cmd))
        # the kernel alone confirms what elaboration produced
        with blaming(list(zip(record[1:], cmd.payload))):
            commit(self.sig, record, el.fuel)
        if op is DirectiveOp.REDUCE:
            reduced = kernel.normalize(self.sig, t, el.fuel)
            line = f"Reduce {print_term(t)} = {print_term(reduced)}"
        else:
            line = f"{op.value} {print_term(t)} : {print_kind(record[2])}"
        # only a Check is also a replay record
        if op is DirectiveOp.CHECK:
            self.log.append(record)
        self.output.append(line)
