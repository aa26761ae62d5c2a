"""Signatures: declared constants, transparent definitions, rewrite rules.

A signature is the mutable store a checking session builds up. Constants are
opaque; definitions unfold during reduction; rewrite rules attach to a
declared head constant and fire on depth-1 constructor patterns.

Every mutating operation validates its input with the kernel before storing
anything, so a signature that exists is well-formed. It spends all of its
kernel checks from one budget: the `Fuel` it is given, or a fresh one of
the given number of steps. Declaration order is significant (later entries
may mention earlier ones); nothing here attempts reordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .errors import (
    Diagnostic, DuplicateName, HeadNotConstant, IllTyped, KindMismatch,
    AscriptionMismatch, NonLinearPattern, NotFound, SignatureError,
    UnknownConstant,
)
from .syntax import Const, Kind, Term, Var, free_vars, spine


@dataclass(frozen=True)
class ConstDecl:
    name: str
    kind: Kind


@dataclass(frozen=True)
class Definition:
    name: str
    kind: Kind
    body: Term


Entry = Union[ConstDecl, Definition]


@dataclass(frozen=True)
class RewriteRule:
    """User-facing rule: binders scope over both sides; ascription is the
    common kind of lhs and rhs under the binders."""

    binders: tuple[tuple[str, Kind], ...]
    lhs: Term
    rhs: Term
    ascription: Kind


@dataclass(frozen=True)
class CompiledRule:
    """Match-ready form. Each pattern is ("var", name) or ("con", constant,
    subpatterns); a subpattern is ("var", name) for a first binding or
    ("forced", name) for a repeat the kind system already forces equal.
    `con_positions` are the sorted argument positions where this rule or an
    earlier rule for the same head has a constructor pattern: the ones
    reduction must bring to weak-head form before the head's rules match."""

    head: str
    arity: int
    patterns: tuple
    rhs: Term
    source: RewriteRule
    con_positions: tuple[int, ...]


class Signature:
    def __init__(self):
        self.entries: dict[str, Entry] = {}
        self.rules: dict[str, list[CompiledRule]] = {}

    def get(self, name: str) -> Optional[Entry]:
        return self.entries.get(name)

    def rules_for(self, name: str) -> list[CompiledRule]:
        return self.rules.get(name, [])

    def constant_count(self) -> int:
        return sum(1 for e in self.entries.values()
                   if isinstance(e, ConstDecl))

    def rule_count(self) -> int:
        return sum(len(rs) for rs in self.rules.values())


def lookup(sig: Signature, name: str) -> Entry:
    entry = sig.get(name)
    if entry is None:
        raise NotFound(f"no declaration named {name!r}")
    return entry


def _require_fresh(sig: Signature, name: str) -> None:
    if name in sig.entries:
        raise DuplicateName(
            f"{name!r} is already declared",
            diagnostic=Diagnostic("signature-fresh", subject=Const(name)))


def declare_constant(sig: Signature, name: str, kind: Kind,
                     fuel=None) -> ConstDecl:
    from . import kernel

    _require_fresh(sig, name)
    fuel = kernel._fuel(fuel)
    kernel.check_kind_valid(sig, kernel.EMPTY_CONTEXT, kind, fuel)
    decl = ConstDecl(name, kind)
    sig.entries[name] = decl
    return decl


def define(sig: Signature, name: str, body: Term,
           ascription: Optional[Kind] = None, fuel=None) -> Definition:
    from . import kernel

    _require_fresh(sig, name)
    fuel = kernel._fuel(fuel)
    inferred = kernel.infer_kind(sig, kernel.EMPTY_CONTEXT, body, fuel)
    kind = inferred
    if ascription is not None:
        kernel.check_kind_valid(sig, kernel.EMPTY_CONTEXT, ascription,
                                fuel)
        if not kernel.equal_kinds(sig, kernel.EMPTY_CONTEXT, inferred,
                                  ascription, fuel):
            raise AscriptionMismatch(
                f"definition of {name!r} does not have its ascribed kind",
                diagnostic=Diagnostic("define-ascription", subject=body,
                                      expected=ascription, actual=inferred))
        kind = ascription
    defn = Definition(name, kind, body)
    sig.entries[name] = defn
    return defn


def declare_rewrite(sig: Signature, rule: RewriteRule,
                    fuel=None) -> CompiledRule:
    from . import kernel

    compiled = _compile_rule(sig, rule)
    for other in sig.rules_for(compiled.head):
        if other.arity != compiled.arity:
            raise SignatureError(
                f"rules for {compiled.head!r} must all take "
                f"{other.arity} arguments",
                diagnostic=Diagnostic("rewrite-arity", subject=rule.lhs))
        if not _distinguishable(other, compiled):
            raise DuplicateName(
                f"rewrite rule overlaps an existing rule for "
                f"{compiled.head!r}",
                diagnostic=Diagnostic("rewrite-overlap", subject=rule.lhs))
    _check_rule_kinds(sig, rule, kernel._fuel(fuel))
    sig.rules.setdefault(compiled.head, []).append(compiled)
    return compiled


def _compile_rule(sig: Signature, rule: RewriteRule) -> CompiledRule:
    binders: set[str] = set()
    for x, _ in rule.binders:
        if x in binders:
            raise NonLinearPattern(
                "rule binders must be distinct",
                diagnostic=Diagnostic("rewrite-linear", subject=Var(x)))
        binders.add(x)

    head, args = spine(rule.lhs)
    if not isinstance(head, Const):
        raise HeadNotConstant(
            "rewrite left-hand side must be a constant applied to patterns",
            diagnostic=Diagnostic("rewrite-head", subject=rule.lhs))
    head_entry = sig.get(head.name)
    if head_entry is None:
        raise UnknownConstant(
            f"unknown rewrite head {head.name!r}",
            diagnostic=Diagnostic("rewrite-head-declared", subject=head))
    if isinstance(head_entry, Definition):
        raise HeadNotConstant(
            f"{head.name!r} is a definition; rules need a declared constant",
            diagnostic=Diagnostic("rewrite-head-opaque", subject=head))

    bound: dict[str, str] = {}  # name -> "direct" | "nested"
    patterns = []
    for arg in args:
        patterns.append(_compile_pattern(sig, arg, binders, bound,
                                         direct=True))
    extra = (free_vars(rule.rhs) & binders) - set(bound)
    if extra:
        raise IllTyped(
            "rule right-hand side uses variables the pattern never binds: "
            + ", ".join(sorted(extra)),
            diagnostic=Diagnostic("rewrite-rhs-bound", subject=rule.rhs))

    earlier = sig.rules_for(head.name)
    positions = {i for i, p in enumerate(patterns) if p[0] == "con"}
    positions.update(earlier[-1].con_positions if earlier else ())
    return CompiledRule(head.name, len(patterns), tuple(patterns), rule.rhs,
                        rule, tuple(sorted(positions)))


def _compile_pattern(sig: Signature, arg: Term, binders: set[str],
                     bound: dict[str, str], direct: bool):
    if isinstance(arg, Var):
        if arg.name not in binders:
            raise IllTyped(
                f"pattern variable {arg.name!r} is not a rule binder",
                diagnostic=Diagnostic("rewrite-pattern-binder", subject=arg))
        if arg.name in bound:
            # A repeat is tolerable only when well-kindedness forces it
            # equal to the binding occurrence: the first use was a direct
            # argument and this one sits under a constructor.
            if direct or bound[arg.name] != "direct":
                raise NonLinearPattern(
                    f"pattern variable {arg.name!r} repeats in a position "
                    "the kind system does not force",
                    diagnostic=Diagnostic("rewrite-linear", subject=arg))
            return ("forced", arg.name)
        bound[arg.name] = "direct" if direct else "nested"
        return ("var", arg.name)
    if not direct:
        raise IllTyped(
            "patterns nest constructors at most one level deep",
            diagnostic=Diagnostic("rewrite-pattern-depth", subject=arg))
    head, sub = spine(arg)
    if not isinstance(head, Const):
        raise IllTyped(
            "pattern arguments must be variables or constructor patterns",
            diagnostic=Diagnostic("rewrite-pattern", subject=arg))
    entry = sig.get(head.name)
    if entry is None:
        raise UnknownConstant(
            f"unknown constructor {head.name!r} in pattern",
            diagnostic=Diagnostic("rewrite-constructor-declared",
                                  subject=head))
    if isinstance(entry, Definition):
        raise HeadNotConstant(
            f"{head.name!r} unfolds, so it cannot head a pattern",
            diagnostic=Diagnostic("rewrite-constructor-opaque",
                                  subject=head))
    subpats = tuple(_compile_pattern(sig, s, binders, bound, direct=False)
                    for s in sub)
    return ("con", head.name, subpats)


def _check_rule_kinds(sig: Signature, rule: RewriteRule, fuel) -> None:
    from . import kernel

    ctx = kernel.check_context(sig, rule.binders, fuel)
    kernel.check_kind_valid(sig, ctx, rule.ascription, fuel)
    lhs_kind = kernel.infer_kind(sig, ctx, rule.lhs, fuel)
    if not kernel.equal_kinds(sig, ctx, lhs_kind, rule.ascription,
                              fuel):
        raise KindMismatch(
            "rule left-hand side does not have the ascribed kind",
            diagnostic=Diagnostic("rewrite-lhs-kind", subject=rule.lhs,
                                  expected=rule.ascription, actual=lhs_kind))
    rhs_kind = kernel.infer_kind(sig, ctx, rule.rhs, fuel)
    if not kernel.equal_kinds(sig, ctx, rhs_kind, rule.ascription,
                              fuel):
        raise KindMismatch(
            "rule right-hand side does not have the ascribed kind",
            diagnostic=Diagnostic("rewrite-rhs-kind", subject=rule.rhs,
                                  expected=rule.ascription, actual=rhs_kind))


def _distinguishable(a: CompiledRule, b: CompiledRule) -> bool:
    """Rules may share a head only if some argument position has constructor
    patterns with different constructors in the two rules."""
    for pa, pb in zip(a.patterns, b.patterns):
        if pa[0] == "con" and pb[0] == "con" and pa[1] != pb[1]:
            return True
    return False
