"""Release gate: the ten checks a build must pass before it ships.

One test per requirement, in order, each printing a single pass/fail line
under `pytest -v`. Expected values come from independent oracles computed
in this file (machine integers, a nameless substitution oracle, the pinned
golden kind listing) rather than from the code under test.
"""

import random
import time
from pathlib import Path

import pytest

from lttw import kernel
from lttw.checker import Checker
from lttw.cli import main
from lttw.corpus import (
    CORPUS_DIR, MANIFEST_IMPREDICATIVE, check_corpus,
)
from lttw.errors import UnknownConstant
from lttw.kernel import EMPTY_CONTEXT, Fuel
from lttw.parser import parse_term
from lttw.printer import print_kind, print_term
from lttw.signature import ConstDecl, Signature, replay
from lttw.stdlib import (
    CORE_FILES, STDLIB_DIR, load_core_signature, load_standard,
)
from lttw.surface import SApp, SEl, SLam, SName, SPi, SProp, SPrf, SType, STermKind
from lttw.syntax import (
    PROP, TYPE, App, Const, ElKind, Lam, PiKind, PrfKind, Var, alpha_eq,
    free_vars, subst,
)

from test_syntax import nameless, nameless_subst

GOLDEN_KINDS = Path(__file__).parent / "golden" / "standard_kinds.txt"


# ----------------------------------------------------------- shared runs

@pytest.fixture(scope="module")
def predicative():
    return check_corpus(strict=False)


@pytest.fixture(scope="module")
def impredicative():
    return check_corpus(manifest_path=MANIFEST_IMPREDICATIVE,
                        mode="impredicative", strict=False)


def numeral(n):
    t = Const("zero")
    for _ in range(n):
        t = App(Const("succ"), t)
    return t


# ------------------------------------------------------------- the gate

def test_01_standard_signature_matches_golden_kinds_within_a_second():
    t0 = time.perf_counter()
    core = load_core_signature()
    elapsed = time.perf_counter() - t0

    lines = [f"{name} : {print_kind(e.kind)}"
             for name, e in core.sig.entries.items()
             if isinstance(e, ConstDecl)]
    golden = GOLDEN_KINDS.read_text(encoding="utf-8").rstrip("\n").splitlines()
    assert lines == golden
    assert core.sig.constant_count() == 38
    assert core.sig.rule_count() == 11
    assert elapsed < 1.0, f"load took {elapsed:.3f}s"


def test_02_every_rewrite_rule_reduces_its_pattern_at_the_head():
    # Each declared equation, instantiated with its own fresh binder
    # variables, must take a head step under whnf and land exactly (up to
    # alpha, after unfolding any defined constants on the right) on its
    # stated right-hand side. The rules as written are the log's records.
    def fires(ck, expect_count):
        sig, seen = ck.sig, 0
        for record in ck.log:
            if record[0] != "rule":
                continue
            _, src = record
            reduced = kernel.whnf(sig, src.lhs, Fuel())
            assert not alpha_eq(reduced, src.lhs), print_term(src.lhs)
            assert alpha_eq(reduced, kernel.whnf(sig, src.rhs, Fuel())), \
                print_term(src.lhs)
            seen += 1
        assert seen == expect_count
        assert sig.rule_count() == expect_count

    fires(load_core_signature(), 11)
    fires(load_standard(mode="impredicative"), 13)

    # beta and eta ride along with the declared rules
    sig = load_core_signature().sig
    beta = App(Lam("x", ElKind(Const("Nat")), App(Const("succ"), Var("x"))),
               Const("zero"))
    assert alpha_eq(kernel.whnf(sig, beta, Fuel()), numeral(1))
    fk = PiKind("_", ElKind(Const("Nat")), ElKind(Const("Nat")))
    ctx = EMPTY_CONTEXT.extend("g", fk)
    wrapped = Lam("x", ElKind(Const("Nat")), App(Var("g"), Var("x")))
    assert kernel.convertible(sig, ctx, wrapped, Var("g"), fk, Fuel())


def test_03_successor_discrimination_needs_the_universe_layer():
    # With the full signature the discriminator-based proof that succ x
    # is never zero goes through.
    full = load_standard()
    for f in ("arith.lf", "sets.lf", "peano4.lf"):
        full.run_path(CORPUS_DIR / f)
    assert any(line.startswith("Check peano4 :") for line in full.output)

    # Withholding the universe/set layer (keeping only the first four
    # foundation files) leaves the same development inexpressible: the
    # scripts fail at their first reference into the missing layer.
    stripped = Checker()
    for f in CORE_FILES[:4]:
        stripped.run_path(STDLIB_DIR / f)
    assert stripped.sig.constant_count() < 38
    with pytest.raises(UnknownConstant) as exc:
        for f in ("arith.lf", "sets.lf", "peano4.lf"):
            stripped.run_path(CORPUS_DIR / f)
    assert "hatEq" in str(exc.value)
    assert stripped.sig.entries.get("peano4") is None


def test_04_addition_and_multiplication_agree_with_machine_integers():
    ck = load_standard()
    ck.run_path(CORPUS_DIR / "arith.lf")
    t0 = time.perf_counter()
    for m in range(13):
        for n in range(13):
            got = kernel.normalize(
                ck.sig, App(App(Const("plus"), numeral(m)), numeral(n)),
                Fuel())
            assert alpha_eq(got, numeral(m + n)), f"plus {m} {n}"
            got = kernel.normalize(
                ck.sig, App(App(Const("mult"), numeral(m)), numeral(n)),
                Fuel())
            assert alpha_eq(got, numeral(m * n)), f"mult {m} {n}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"338 normalisations took {elapsed:.2f}s"


def test_05_counting_development_checks_through_the_exact_three_witness(predicative):
    ck, results = predicative
    assert all(r.ok for r in results)
    out = ck.output
    # the definitions land at their stated kinds
    assert "Check at_least_set : (tau : U) Nat -> Set (Set (T tau))" in out
    assert "TypeOf cardinality : (tau : U) Set (T tau) -> Set Nat" in out
    assert "TypeOf Exactly : (tau : U) Set (T tau) -> Nat -> Prop" in out
    # lower bounds transfer downward, with a checked proof term
    assert ("TypeOf at_least_down : (tau : U) (A : Set (T tau)) (n : Nat) "
            "(m : Nat) Prf (V (leq m n)) -> Prf (At_Least tau A n) -> "
            "Prf (At_Least tau A m)") in out
    # a concrete three-element set is counted exactly
    assert "Check card_three_exact : Prf (Exactly hatNat (card three) three)" in out
    assert "Check exactly_empty : Prf (Exactly hatNat (empty Nat) zero)" in out


def test_06_impredicative_overlay_flips_exactly_one_scripted_outcome(
        predicative, impredicative):
    _, pred = predicative
    _, impr = impredicative
    before = {r.entry.name: r.outcome for r in pred}
    after = {r.entry.name: r.outcome for r in impr}

    # quantifying a set body over all sets is a kind error either way: the
    # kernel's DomainMismatch, which the manifests' reject:KindMismatch
    # names by its base class
    neg = [r for r in pred + impr if r.entry.name == "impredicative_neg.lf"]
    assert [(r.outcome, r.ok) for r in neg] == \
        [("reject:DomainMismatch", True)] * 2

    # the overlay's own quantifier only exists once the extension loads
    flips = sorted((n, before[n], after[n])
                   for n in before if before[n] != after[n])
    assert flips == [("impredicative_only.lf",
                      "reject:UnknownConstant", "accept")]


def test_07_prop_placement_choice_leaves_corpus_outcomes_unchanged(predicative):
    _, pred = predicative
    _, moved = check_corpus(prop_placement="type", strict=False)
    assert [(r.entry.name, r.outcome) for r in pred] == \
           [(r.entry.name, r.outcome) for r in moved]


# ------------------------------------------- randomized property suites

VAR_POOL = ["x", "y", "z", "w"]
CONST_POOL = ["f", "g", "Nat", "succ"]


def gen_kind(rng, depth):
    if depth == 0:
        return rng.choice([TYPE, PROP, ElKind(Const("Nat"))])
    pick = rng.randrange(5)
    if pick == 0:
        return ElKind(gen_term(rng, depth - 1))
    if pick == 1:
        return PrfKind(gen_term(rng, depth - 1))
    if pick == 2:
        return PiKind(rng.choice(VAR_POOL), gen_kind(rng, depth - 1),
                      gen_kind(rng, depth - 1))
    return rng.choice([TYPE, PROP])


def gen_term(rng, depth):
    if depth == 0:
        return rng.choice([Var(rng.choice(VAR_POOL)),
                           Const(rng.choice(CONST_POOL))])
    pick = rng.randrange(4)
    if pick == 0:
        return App(gen_term(rng, depth - 1), gen_term(rng, depth - 1))
    if pick == 1:
        return Lam(rng.choice(VAR_POOL), gen_kind(rng, depth - 1),
                   gen_term(rng, depth - 1))
    return rng.choice([Var(rng.choice(VAR_POOL)),
                       Const(rng.choice(CONST_POOL))])


def gen_arith(rng, depth):
    """Closed term over the corpus arithmetic signature. Leaves stay small
    so nested mult cannot normalise into numerals deeper than the Python
    recursion limit."""
    if depth == 0:
        return numeral(rng.randrange(4))
    pick = rng.randrange(4)
    if pick == 0:
        return App(Const("succ"), gen_arith(rng, depth - 1))
    op = rng.choice(["plus", "mult", "minus"])
    return App(App(Const(op), gen_arith(rng, depth - 1)),
               gen_arith(rng, depth - 1))


def resolve_term(s, bound=frozenset()):
    """Surface tree back to core, vars vs consts split by the pools above."""
    if isinstance(s, SName):
        if s.name not in bound and s.name in CONST_POOL:
            return Const(s.name)
        return Var(s.name)
    if isinstance(s, SApp):
        return App(resolve_term(s.fn, bound), resolve_term(s.arg, bound))
    if isinstance(s, SLam):
        assert s.ann is not None
        return Lam(s.var, resolve_kind(s.ann, bound),
                   resolve_term(s.body, bound | {s.var}))
    raise AssertionError(f"unexpected surface node {s!r}")


def resolve_kind(s, bound=frozenset()):
    if isinstance(s, SType):
        return TYPE
    if isinstance(s, SProp):
        return PROP
    if isinstance(s, (SEl, STermKind)):
        body = s.body if isinstance(s, SEl) else s.term
        return ElKind(resolve_term(body, bound))
    if isinstance(s, SPrf):
        return PrfKind(resolve_term(s.body, bound))
    if isinstance(s, SPi):
        return PiKind(s.var, resolve_kind(s.domain, bound),
                      resolve_kind(s.codomain, bound | {s.var}))
    raise AssertionError(f"unexpected surface node {s!r}")


def test_08_randomized_property_suites_hold_with_five_hundred_cases_each(
        predicative):
    rng = random.Random(20260816)

    # substitution: identity, commutation of closed replacements, and
    # capture-avoidance against the independent nameless oracle
    for _ in range(500):
        t = gen_term(rng, 4)
        v = rng.choice(VAR_POOL)
        assert alpha_eq(subst(t, v, Var(v)), t)
    for _ in range(500):
        t = gen_term(rng, 4)
        v1, v2 = rng.sample(VAR_POOL, 2)
        r1 = App(Const("succ"), Const("Nat"))
        r2 = Const(rng.choice(CONST_POOL))
        left = subst(subst(t, v1, r1), v2, r2)
        right = subst(subst(t, v2, r2), v1, r1)
        assert alpha_eq(left, right)
    for _ in range(500):
        t, r = gen_term(rng, 4), gen_term(rng, 3)
        v = rng.choice(VAR_POOL)
        assert nameless(subst(t, v, r)) == \
            nameless_subst(nameless(t), v, nameless(r))

    # convertibility is an equivalence relation on checked terms
    ck = load_standard()
    ck.run_path(CORPUS_DIR / "arith.lf")
    sig, nat = ck.sig, ElKind(Const("Nat"))

    def conv(a, b):
        return kernel.convertible(sig, EMPTY_CONTEXT, a, b, nat, Fuel())

    for _ in range(500):
        a = gen_arith(rng, 2)
        b = kernel.whnf(sig, a, Fuel())
        c = kernel.normalize(sig, a, Fuel())
        other = gen_arith(rng, 2)
        assert conv(a, a)
        assert conv(a, b) and conv(b, a)
        assert conv(b, c) and conv(a, c)
        assert conv(a, other) == conv(other, a)

    # weak head normalisation is idempotent
    for _ in range(500):
        h = kernel.whnf(sig, gen_arith(rng, 2), Fuel())
        assert alpha_eq(kernel.whnf(sig, h, Fuel()), h)

    # printing then reparsing is the identity on core terms
    for _ in range(500):
        t = gen_term(rng, 4)
        printed = print_term(t)
        assert alpha_eq(resolve_term(parse_term(printed)), t), printed

    # every term the corpus checked stays well-kinded after reduction
    ck2, _ = predicative
    seen = {}

    def collect(t):
        if isinstance(t, App):
            collect(t.fn)
            collect(t.arg)
        elif isinstance(t, Lam):
            collect(t.body)
        if not free_vars(t):
            seen.setdefault(print_term(t), t)

    for record in ck2.log:
        if record[0] == "define":
            collect(record[2])
        elif record[0] == "check":
            collect(record[1])
    assert len(seen) >= 500
    for t in seen.values():
        k = kernel.infer_kind(ck2.sig, EMPTY_CONTEXT, t, Fuel())
        kernel.check_term(ck2.sig, EMPTY_CONTEXT,
                          kernel.whnf(ck2.sig, t, Fuel()), k, Fuel())


def test_09_elaborated_corpus_replays_without_the_elaborator(predicative):
    ck, results = predicative
    assert all(r.ok for r in results)
    assert len(ck.log) > 200
    replay(ck.log, Signature())


def test_10_whole_corpus_command_finishes_inside_a_minute(capsys):
    t0 = time.perf_counter()
    rc = main(["corpus"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert rc == 0
    assert "12/12 as expected" in out
    assert elapsed < 60.0, f"corpus run took {elapsed:.1f}s"
