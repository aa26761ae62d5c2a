"""Each kind equality without holes is decided once, by the kernel.

The elaborator leaves such an equality to the kernel's check of the
record, and the kernel's rejection stands. These tests run commands
through `oracle.Pair`: the checker, and a reference that elaborates every
command in full and decides every such equality in place before the
kernel's check. They require the same verdict for every command, and the
same output, log and fuel for every acceptance: on the standard signature
and the corpus in its three configurations, on ill-kinded mutants of the
corpus, under small budgets and on the arith scripts. A command that the
checker accepts and the reference runs out of fuel on, deciding in place,
is counted, and no test has one.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import random
import sys
from pathlib import Path

import pytest

from lttw.corpus import CORPUS_DIR
from lttw.errors import KindMismatch
from lttw.parser import parse_script
from lttw.printer import render
from lttw.surface import (
    SApp, SEl, SLam, SName, SPi, SPrf, STermKind, Declare, DeclareRule,
    Define, Directive, DirectiveOp,
)
from oracle import Pair, corpus_commands, corpus_sweep

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.workloads import ARITH_SIZE, arith_script  # noqa: E402


# (mode, where `prop` is declared)
CONFIGS = (("predicative", "prop"), ("predicative", "type"),
           ("impredicative", "prop"))


@pytest.mark.parametrize("mode, prop_at", CONFIGS,
                         ids=["prop-at-prop", "prop-at-type",
                              "impredicative"])
def test_corpus_configuration_is_checked_the_same(mode, prop_at):
    # every command gets its script's verdict on both sides, and the
    # reference runs out of fuel on none the checker accepts;
    # tests/test_translation.py reads the same sweep's path counts
    assert corpus_sweep(mode, prop_at).fuel_to_accept == ()


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
    for cmd, accepted in corpus_commands("predicative"):
        mutants = list(itertools.islice(_command_mutants(cmd), MUTANT_POOL))
        for mutant in rng.sample(mutants,
                                 min(MUTANTS_PER_COMMAND, len(mutants))):
            with pair.rolled_back():
                pair.run(mutant)
        assert (pair.run(cmd) == "accept") == accepted, cmd.span
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
        pair.checker.run_text("> Check zero : K bot Nat;\n")
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
            errors.add(pair.run(cmd))
    assert errors == {"FuelExhausted", "DomainMismatch", "UnsolvedMeta"}


# --------------------------------------------------------------- arith

@functools.lru_cache(maxsize=None)
def _arith_commands(seed: int) -> tuple:
    script, _ = arith_script(seed, *ARITH_SIZE)
    return tuple(parse_script(script, file="<arith>"))


def _arith_pair() -> Pair:
    pair = Pair()
    pair.run_file(CORPUS_DIR / "arith.lf")
    pair.paths.clear()
    return pair


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_arith_script_is_checked_the_same(seed):
    pair = _arith_pair()
    verdicts = [pair.run(cmd) for cmd in _arith_commands(seed)]
    # the false equations, and nothing else; the `explicit` shape's Checks
    # and every Reduce make no hole, and the false equations and the other
    # shapes have holes
    assert len(verdicts) == 144
    assert len(verdicts) - verdicts.count("accept") == pair.rejections == 36
    assert pair.paths["translated"] == 72
    assert pair.fuel_to_accept == []


def test_arith_script_under_a_small_budget_is_checked_the_same():
    # each run only adds `check` records to the log, so the runs can share
    # one session
    pair = _arith_pair()
    out_of_fuel = 0
    for fuel in (1, 2, 3, 5, 10, 50):
        pair.run_accepted(f"> SetOption fuel {fuel};\n")
        for cmd in _arith_commands(1):
            out_of_fuel += pair.run(cmd) == "FuelExhausted"
    # the budgets bite, and deciding in place on what is left of the
    # budget runs out nowhere that the kernel's one check does not
    assert out_of_fuel > 0
    assert pair.fuel_to_accept == []
