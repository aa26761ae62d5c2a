"""Each kind equality without holes is decided once, by the kernel.

The elaborator leaves such an equality to the kernel's check of the
record, and the kernel's rejection stands. These tests run the same
commands through the checker, which translates what comes before a
command's first hole and elaborates the rest, and through a reference that
elaborates every command in full with `InPlaceElaborator` (defined here,
not in the package), which decides every such equality in place before the
kernel's check. They
require the same verdict for every command, and the same output, log and
fuel for every acceptance. The one difference allowed is a command that
runs out of fuel deciding in place and is accepted when the kernel alone
decides.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import random
import sys
from pathlib import Path

import pytest

import lttw.corpus
from lttw import Checker
from lttw.corpus import parse_manifest
from lttw.elaborator import Elaborator
from lttw.errors import Diagnostic, FuelExhausted, KindMismatch, LttwError
from lttw.kernel import Fuel, equal_kinds
from lttw.parser import parse_script
from lttw.printer import render
from lttw.stdlib import (
    CORE_FILES, DERIVED_FILE, IMPREDICATIVE_FILE, STDLIB_DIR,
)
from lttw.surface import (
    SApp, SEl, SLam, SName, SPi, SPrf, STermKind, Declare, DeclareRule,
    Define, Directive, DirectiveOp,
)
from lttw.syntax import contains_meta

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.workloads import ARITH_SIZE, arith_script  # noqa: E402

# the predicative configuration with `Prop` at `prop` is run with mutants
CONFIGS = (
    ("manifest.txt", "predicative", "type"),
    ("manifest_impredicative.txt", "impredicative", "prop"),
)


class InPlaceElaborator(Elaborator):
    """Translates nothing, and decides each equality without holes where
    it arises, instead of leaving it to the kernel. It decides on a copy of
    what is left of the command's budget, so that it runs out where
    deciding in place would, and an accepted command spends what the
    checker's does."""

    def _translates(self, s):
        return False

    def _require_kinds_equal(self, ctx, actual, expected, blame):
        actual = self.state.zonk(actual)
        expected = self.state.zonk(expected)
        if contains_meta(actual) or contains_meta(expected):
            self.unify_kinds(ctx, actual, expected, blame)
            return
        fuel = Fuel(self.fuel.limit)
        fuel.left = self.fuel.left
        if not equal_kinds(self.sig, ctx, actual, expected, fuel):
            raise KindMismatch(
                "kind does not match what this position requires",
                span=blame.span, diagnostic=Diagnostic(
                    "check", expected=expected, actual=actual))


class InPlaceChecker(Checker):
    """The reference: every command is elaborated in full, and every
    equality without holes is decided in place by the elaborator; the
    kernel then checks what it elaborated."""

    def _elaborator(self):
        el = InPlaceElaborator(self.sig, Fuel(self.fuel))
        self.budget = el.fuel
        return el


class Once(Checker):
    """The checker, keeping each command's budget to read its fuel."""

    def _elaborator(self):
        el = super()._elaborator()
        self.budget = el.fuel
        return el


def _outcome(ck: Checker, cmd):
    output, log = len(ck.output), len(ck.log)
    try:
        ck.run_command(cmd)
    except LttwError as e:
        return ("reject", type(e))
    return ("accept", ck.output[output:], repr(ck.log[log:]),
            ck.budget.limit - ck.budget.left)


class Pair:
    """The checker and the reference, fed the same commands."""

    def __init__(self, mode="predicative", prop_at="prop"):
        self.once = Once(prop_placement=prop_at)
        self.in_place = InPlaceChecker(prop_placement=prop_at)
        self.rejections = 0
        self.fuel_to_accept = []
        files = [STDLIB_DIR / name for name in CORE_FILES + (DERIVED_FILE,)]
        if mode == "impredicative":
            files.append(STDLIB_DIR / IMPREDICATIVE_FILE)
        for path in files:
            self.run_file(path)

    def run(self, cmd) -> str:
        """Run `cmd` on both, compare, and return the verdict. The error
        of a rejection is the checker's."""
        once = self.last = _outcome(self.once, cmd)
        in_place = _outcome(self.in_place, cmd)
        if (once[0] == "accept" and in_place[0] == "reject"
                and in_place[1] is FuelExhausted):
            self.fuel_to_accept.append(cmd)
            return "accept"
        if once[0] == "reject":
            assert in_place[0] == "reject", cmd.span
            self.rejections += 1
        else:
            assert once == in_place, cmd.span
        return once[0]

    def run_file(self, path: Path) -> None:
        self.run_accepted(path.read_text(encoding="utf-8"), str(path))

    def run_accepted(self, text: str, file: str = "<script>") -> None:
        for cmd in parse_script(text, file=file):
            assert self.run(cmd) == "accept", cmd.span

    def snapshot(self):
        return [(dict(ck.sig.entries),
                 {head: list(rs) for head, rs in ck.sig.rules.items()},
                 len(ck.log), len(ck.output))
                for ck in (self.once, self.in_place)]

    def restore(self, snap) -> None:
        for ck, (entries, rules, log, output) in zip(
                (self.once, self.in_place), snap):
            ck.sig.entries, ck.sig.rules = entries, rules
            del ck.log[log:]
            del ck.output[output:]


def _corpus_commands(manifest: str):
    """(command, whether its script expects it to be accepted) in manifest
    order; a script expected to be rejected contributes its first command
    only."""
    for entry in parse_manifest(lttw.corpus.CORPUS_DIR / manifest):
        commands = parse_script(entry.path.read_text(encoding="utf-8"),
                                file=str(entry.path))
        if entry.outcome != "accept":
            yield commands[0], False
            continue
        for cmd in commands:
            yield cmd, True


@pytest.mark.parametrize("manifest, mode, prop_at", CONFIGS,
                         ids=["prop-at-type", "impredicative"])
def test_corpus_configuration_is_checked_the_same(manifest, mode, prop_at):
    pair = Pair(mode, prop_at)
    for cmd, accepted in _corpus_commands(manifest):
        assert pair.run(cmd) == ("accept" if accepted else "reject")
    assert pair.fuel_to_accept == []


# ------------------------------------------------------------- mutants

# constants of four different kinds: Nat, Prop, Type and a proof
REPLACEMENTS = ("zero", "bot", "Nat", "TopI")


def _spine(s):
    args = []
    while isinstance(s, SApp):
        args.append(s.arg)
        s = s.fn
    args.reverse()
    return s, args


def _at(s):
    """The first and last tokens and the file of the surface node `s`."""
    return s.first, s.last, s.file


def _rebuild(app: SApp, head, args):
    """The spine `head args`, each application keeping the span of the
    one it replaces in `app`."""
    spans = []
    s = app
    while isinstance(s, SApp):
        spans.append(_at(s))
        s = s.fn
    spans.reverse()
    t = head
    for arg, span in zip(args, spans):
        t = SApp(t, arg, *span)
    return t


def _term_mutants(s):
    """Copies of the surface term `s` with one application spine changed:
    two arguments swapped, or one replaced by a constant."""
    if isinstance(s, SLam):
        if s.ann is not None:
            for ann in _kind_mutants(s.ann):
                yield SLam(s.var, ann, s.body, *_at(s))
        for body in _term_mutants(s.body):
            yield SLam(s.var, s.ann, body, *_at(s))
    elif isinstance(s, SApp):
        head, args = _spine(s)
        for i in range(len(args)):
            for j in range(i + 1, len(args)):
                swapped = list(args)
                swapped[i], swapped[j] = args[j], args[i]
                yield _rebuild(s, head, swapped)
            for name in REPLACEMENTS:
                if getattr(args[i], "name", None) != name:
                    replaced = list(args)
                    replaced[i] = SName(name, *_at(args[i]))
                    yield _rebuild(s, head, replaced)
            for arg in _term_mutants(args[i]):
                yield _rebuild(s, head, args[:i] + [arg] + args[i + 1:])
        for h in _term_mutants(head):
            yield _rebuild(s, h, args)


def _kind_mutants(k):
    if isinstance(k, (SEl, SPrf)):
        for body in _term_mutants(k.body):
            yield type(k)(body, *_at(k))
    elif isinstance(k, STermKind):
        for t in _term_mutants(k.term):
            yield STermKind(t, *_at(k))
    elif isinstance(k, SPi):
        for d in _kind_mutants(k.domain):
            yield SPi(k.var, d, k.codomain, *_at(k))
        for c in _kind_mutants(k.codomain):
            yield SPi(k.var, k.domain, c, *_at(k))


def _binder_mutants(binders):
    for i, (name, ann, span) in enumerate(binders):
        if ann is not None:
            for a in _kind_mutants(ann):
                yield binders[:i] + ((name, a, span),) + binders[i + 1:]


def _command_mutants(cmd):
    replace = dataclasses.replace
    if isinstance(cmd, Declare):
        for b in _binder_mutants(cmd.binders):
            yield replace(cmd, binders=b)
        for k in _kind_mutants(cmd.kind):
            yield replace(cmd, kind=k)
    elif isinstance(cmd, Define):
        for b in _binder_mutants(cmd.binders):
            yield replace(cmd, binders=b)
        for t in _term_mutants(cmd.body):
            yield replace(cmd, body=t)
        if cmd.kind is not None:
            for k in _kind_mutants(cmd.kind):
                yield replace(cmd, kind=k)
    elif isinstance(cmd, DeclareRule):
        for b in _binder_mutants(cmd.binders):
            yield replace(cmd, binders=b)
        for t in _term_mutants(cmd.lhs):
            yield replace(cmd, lhs=t)
        for t in _term_mutants(cmd.rhs):
            yield replace(cmd, rhs=t)
        for k in _kind_mutants(cmd.kind):
            yield replace(cmd, kind=k)
    elif isinstance(cmd, Directive) and cmd.op in (
            DirectiveOp.CHECK, DirectiveOp.REDUCE, DirectiveOp.TYPEOF):
        term, *kind = cmd.payload
        for t in _term_mutants(term):
            yield replace(cmd, payload=(t, *kind))
        if kind and kind[0] is not None:
            for k in _kind_mutants(kind[0]):
                yield replace(cmd, payload=(term, k))


# mutants tried per command, drawn from the first MUTANT_POOL of its
# mutants: building every mutant of the largest commands takes seconds
MUTANTS_PER_COMMAND = 3
MUTANT_POOL = 100


def test_predicative_corpus_and_its_ill_kinded_mutants_are_checked_the_same():
    pair = Pair()
    rng = random.Random(12)
    for cmd, accepted in _corpus_commands("manifest.txt"):
        mutants = list(itertools.islice(_command_mutants(cmd), MUTANT_POOL))
        for mutant in rng.sample(mutants,
                                 min(MUTANTS_PER_COMMAND, len(mutants))):
            snap = pair.snapshot()
            pair.run(mutant)
            pair.restore(snap)
        assert pair.run(cmd) == ("accept" if accepted else "reject")
    assert pair.rejections >= 300
    assert pair.fuel_to_accept == []


def test_an_ill_kinded_check_kind_is_rejected_as_deciding_in_place_would():
    # `K bot Nat` unfolds to Nat whatever K's first argument is, so `zero`
    # checks against it; the kernel's check of the kind rejects the
    # ill-kinded `bot`, which deciding in place rejects first
    pair = Pair()
    for cmd in parse_script("> [K = [a : Nat] [b : Type] b];\n"
                            "> Check zero : K bot Nat;\n"):
        pair.run(cmd)
    assert pair.rejections == 1
    with pytest.raises(KindMismatch) as info:
        pair.once.run_text("> Check zero : K bot Nat;\n")
    assert render(info.value.diagnostic) == \
        "rule: app-domain\nsubject: bot\nexpected: Nat\nactual: Prop"


# `one` and `two` unfold in one step each. In each probe an equality that
# holds spends a step before something else does: a later equality that
# fails, hole solving, or an unsolved hole. The budget decides whether the
# probe runs out of fuel first.
BUDGET_PRELUDE = """
> [one = succ zero];
> [two = succ one];
> [P : Nat -> Prop];
> [Q : Nat -> Nat -> Prop];
> [p1 : P (succ zero)];
> [q : Q zero (succ zero)];
> [f : P one -> P two -> Nat];
> [w : P one -> (n : Nat) Q n one -> Prf bot -> Nat];
> [v : P one -> (n : Nat) Q n one -> (m : Nat) Nat];
"""
BUDGET_PROBES = """
> TypeOf f p1 p1;
> TypeOf w p1 ? q zero;
> TypeOf v p1 ? q ?;
"""


def test_rejections_under_every_small_budget_are_explained_the_same():
    pair = Pair()
    pair.run_accepted(BUDGET_PRELUDE)
    errors = set()
    for fuel in range(1, 6):
        pair.run_accepted(f"> SetOption fuel {fuel};\n")
        for cmd in parse_script(BUDGET_PROBES):
            assert pair.run(cmd) == "reject"
            errors.add(pair.last[1].__name__)
    assert errors == {"FuelExhausted", "DomainMismatch", "UnsolvedMeta"}


# --------------------------------------------------------------- arith

@functools.lru_cache(maxsize=None)
def _arith_commands(seed: int) -> tuple:
    script, _ = arith_script(seed, *ARITH_SIZE)
    return tuple(parse_script(script, file="<arith>"))


def _arith_pair() -> Pair:
    pair = Pair()
    pair.run_file(lttw.corpus.CORPUS_DIR / "arith.lf")
    return pair


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_arith_script_is_checked_the_same(seed):
    pair = _arith_pair()
    verdicts = [pair.run(cmd) for cmd in _arith_commands(seed)]
    # the false equations, and nothing else
    assert verdicts.count("reject") == pair.rejections == 36
    assert pair.fuel_to_accept == []


def test_arith_script_under_a_small_budget_is_checked_the_same():
    # each run only adds `check` records to the log, so the runs can share
    # one session
    pair = _arith_pair()
    out_of_fuel = 0
    for fuel in (1, 2, 3, 5, 10, 50):
        pair.run_accepted(f"> SetOption fuel {fuel};\n")
        for cmd in _arith_commands(1):
            if pair.run(cmd) == "reject":
                out_of_fuel += pair.last[1] is FuelExhausted
    # the budgets bite, and deciding in place on what is left of the
    # budget runs out nowhere that the kernel's one check does not
    assert out_of_fuel > 0
    assert pair.fuel_to_accept == []
