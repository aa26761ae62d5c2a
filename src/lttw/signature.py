"""Signatures: declared constants, transparent definitions, rewrite rules.

A signature (its data is defined in the kernel) is the mutable store a
checking session builds up. Constants are opaque; definitions unfold during
reduction; rewrite rules attach to a declared head constant and fire on
depth-1 constructor patterns.

Every mutating operation validates its input with the kernel before storing
anything, so a signature that exists is well-formed. It spends all of its
kernel checks from the caller's `Fuel`, a required argument. Declaration
order is significant (later entries may mention earlier ones); nothing here
attempts reordering. `commit` checks and stores one replay record, `replay`
a whole log: with syntax, errors and kernel, the trusted base.
"""

from __future__ import annotations

from typing import Optional

from .errors import (
    Diagnostic, DuplicateName, HeadNotConstant, IllTyped, KindMismatch,
    AscriptionMismatch, LttwError, NestingTooDeep, NonLinearPattern,
    NotFound, SignatureError, UnknownConstant,
)
from .kernel import (
    DEFAULT_FUEL, EMPTY_CONTEXT, CompiledRule, ConstDecl, Definition, Entry,
    Fuel, RewriteRule, Signature, check_against, check_context,
    check_kind_valid, check_term, infer_kind,
)
from .syntax import Const, Kind, Term, Var, free_vars, spine


def lookup(sig: Signature, name: str) -> Entry:
    entry = sig.entries.get(name)
    if entry is None:
        raise NotFound(f"no declaration named {name!r}",
                       diagnostic=Diagnostic("signature-declared",
                                             subject=Const(name)))
    return entry


def _require_fresh(sig: Signature, name: str) -> None:
    if name in sig.entries:
        raise DuplicateName(
            f"{name!r} is already declared",
            diagnostic=Diagnostic("signature-fresh", subject=Const(name)))


def declare_constant(sig: Signature, name: str, kind: Kind,
                     fuel: Fuel) -> ConstDecl:
    _require_fresh(sig, name)
    check_kind_valid(sig, EMPTY_CONTEXT, kind, fuel)
    decl = sig.entries[name] = ConstDecl(kind)
    return decl


def define(sig: Signature, name: str, body: Term,
           ascription: Optional[Kind] = None, *, fuel: Fuel) -> Definition:
    _require_fresh(sig, name)
    if ascription is None:
        kind = infer_kind(sig, EMPTY_CONTEXT, body, fuel)
    else:
        try:
            check_kind_valid(sig, EMPTY_CONTEXT, ascription, fuel)
        except LttwError:
            infer_kind(sig, EMPTY_CONTEXT, body, fuel)  # a body error first
            raise
        inferred = check_against(sig, EMPTY_CONTEXT, body, ascription, fuel)
        if inferred is not None:
            raise AscriptionMismatch(
                f"definition of {name!r} does not have its ascribed kind",
                diagnostic=Diagnostic("define-ascription", subject=body,
                                      expected=ascription, actual=inferred))
        kind = ascription
    defn = sig.entries[name] = Definition(kind, body)
    return defn


def declare_rewrite(sig: Signature, rule: RewriteRule,
                    fuel: Fuel) -> CompiledRule:
    head, compiled = _compile_rule(sig, rule)
    for other in sig.rules.get(head, ()):
        if len(other.patterns) != len(compiled.patterns):
            raise SignatureError(
                f"rules for {head!r} must all take "
                f"{len(other.patterns)} arguments",
                diagnostic=Diagnostic("rewrite-arity", subject=rule.lhs))
        if not _distinguishable(other, compiled):
            raise DuplicateName(
                f"rewrite rule overlaps an existing rule for {head!r}",
                diagnostic=Diagnostic("rewrite-overlap", subject=rule.lhs))
    _check_rule_kinds(sig, rule, fuel)
    sig.rules.setdefault(head, []).append(compiled)
    return compiled


def _compile_rule(sig: Signature,
                  rule: RewriteRule) -> tuple[str, CompiledRule]:
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
    head_entry = sig.entries.get(head.name)
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

    earlier = sig.rules.get(head.name)
    positions = {i for i, p in enumerate(patterns) if p[0] == "con"}
    positions.update(earlier[-1].con_positions if earlier else ())
    return head.name, CompiledRule(tuple(patterns), rule.rhs,
                                   tuple(sorted(positions)))


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
    entry = sig.entries.get(head.name)
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


def _check_rule_kinds(sig: Signature, rule: RewriteRule, fuel: Fuel) -> None:
    ctx = check_context(sig, rule.binders, fuel)
    check_kind_valid(sig, ctx, rule.ascription, fuel)
    for side, t, name in (("left", rule.lhs, "rewrite-lhs-kind"),
                          ("right", rule.rhs, "rewrite-rhs-kind")):
        actual = check_against(sig, ctx, t, rule.ascription, fuel)
        if actual is not None:
            raise KindMismatch(
                f"rule {side}-hand side does not have the ascribed kind",
                diagnostic=Diagnostic(name, subject=t,
                                      expected=rule.ascription, actual=actual))


def _distinguishable(a: CompiledRule, b: CompiledRule) -> bool:
    """Rules may share a head only if some argument position has constructor
    patterns with different constructors in the two rules."""
    return any(pa[0] == pb[0] == "con" and pa[1] != pb[1]
               for pa, pb in zip(a.patterns, b.patterns))


# ----------------------------------------------------------------- replay

def commit(sig: Signature, record: tuple, fuel: Fuel) -> None:
    """Check one replay record with this layer and the kernel, spending
    from `fuel`, and store what it declares. A `check` record stores
    nothing; its kind must be well formed and its term of that kind.
    Raises on rejection, leaving `sig` unchanged."""
    tag = record[0] if record else None
    if len(record) != _FIELDS.get(tag, len(record)):
        raise SignatureError(
            f"replay record {tag!r} needs {_FIELDS[tag]} fields, "
            f"not {len(record)}", diagnostic=Diagnostic("replay-record"))
    if tag == "declare":
        _, name, kind = record
        declare_constant(sig, name, kind, fuel)
    elif tag == "define":
        _, name, body, ascription = record
        define(sig, name, body, ascription, fuel=fuel)
    elif tag == "rule":
        _, rule = record
        declare_rewrite(sig, rule, fuel)
    elif tag == "check":
        _, t, k = record
        check_term(sig, EMPTY_CONTEXT, t, k, fuel)
    else:
        raise SignatureError(f"unknown replay record {tag!r}",
                             diagnostic=Diagnostic("replay-record"))


_FIELDS = {"declare": 3, "define": 4, "rule": 2, "check": 3, "fuel": 2}


def replay(log: list[tuple], sig: Optional[Signature] = None) -> Signature:
    """Re-check a session from its replay records: signature and kernel
    only, no parsing, no elaboration. Each record is committed on its own
    budget, as its command was: `DEFAULT_FUEL` steps, or `n` after a
    `("fuel", n)` record, which a session logs where its budget changes;
    `n` must be a positive int. Raises on the first rejection, or on a
    record whose tag or length is none of `_FIELDS`."""
    sig = sig if sig is not None else Signature()
    fuel = DEFAULT_FUEL
    for i, record in enumerate(log):
        tag = record[0] if type(record) is tuple and record else None
        if type(tag) is not str or _FIELDS.get(tag) != len(record):
            raise SignatureError(
                f"replay record {i} ({tag!r}) has no known tag, or the wrong "
                "number of fields", diagnostic=Diagnostic("replay-record"))
        if tag == "fuel":
            _, fuel = record
            if type(fuel) is not int or fuel <= 0:
                raise SignatureError(
                    f"replay record {i} sets the budget to {fuel!r}, "
                    "not a positive int",
                    diagnostic=Diagnostic("replay-fuel"))
            continue
        try:
            commit(sig, record, Fuel(fuel))
        except RecursionError:
            raise NestingTooDeep(
                f"replay record {i} nests too deeply to check",
                diagnostic=Diagnostic("depth")) from None
    return sig
