"""Corpus: manifest outcomes, mode/placement invariance, replay, and
subject reduction over everything the corpus checked.

Expected reduction outputs are machine arithmetic stated next to each
assertion; everything else is structural (outcomes match the manifest,
logs replay, kinds survive reduction).
"""

import sys
from pathlib import Path

import pytest

from lttw import kernel
from lttw.checker import Checker
from lttw.corpus import (
    CORPUS_DIR, MANIFEST, MANIFEST_IMPREDICATIVE, MismatchedOutcome,
    check_corpus, parse_manifest,
)
from lttw.elaborator import elaborate
from lttw.errors import (
    FuelExhausted, KindMismatch, LttwError, NestingTooDeep, UnknownConstant,
)
from lttw.kernel import EMPTY_CONTEXT, Fuel
from lttw.parser import parse_script, parse_term
from lttw.printer import print_term
from lttw.signature import Signature, commit, replay
from lttw.stdlib import load_standard
from lttw.syntax import App, Lam, free_vars

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.workloads import ARITH_SIZE, arith_script  # noqa: E402


@pytest.fixture(scope="module")
def predicative():
    return check_corpus(strict=False)


@pytest.fixture(scope="module")
def impredicative():
    return check_corpus(MANIFEST_IMPREDICATIVE, mode="impredicative",
                        strict=False)


@pytest.fixture(scope="module")
def arith_signature():
    ck = load_standard()
    ck.run_path(CORPUS_DIR / "arith.lf")
    return ck.sig


# ------------------------------------------------------------- manifest

def test_manifest_shape():
    entries = parse_manifest(MANIFEST)
    assert len(entries) == 12
    assert all(e.path.is_file() for e in entries)
    names = [e.name for e in entries]
    assert names.index("cardinality_thms_ext.lf") \
        == names.index("cardinality_thms.lf") + 1
    rejected = {e.name: e.outcome for e in entries
                if e.outcome != "accept"}
    assert rejected == {
        "impredicative_neg.lf": "reject:KindMismatch",
        "impredicative_only.lf": "reject:UnknownConstant",
    }


def test_manifest_rejects_bad_lines(tmp_path):
    bad = tmp_path / "m.txt"
    bad.write_text("a.lf maybe\n")
    with pytest.raises(LttwError):
        parse_manifest(bad)
    bad.write_text("a.lf accept shiny\n")
    with pytest.raises(LttwError):
        parse_manifest(bad)
    bad.write_text("a.lf accept extended\n")
    with pytest.raises(LttwError):
        parse_manifest(bad)


# ------------------------------------------------------------- outcomes

def test_every_outcome_matches(predicative):
    _, results = predicative
    assert len(results) == 12
    for r in results:
        assert r.ok, r.line()


def test_every_outcome_matches_impredicative(impredicative):
    _, results = impredicative
    assert len(results) == 12
    for r in results:
        assert r.ok, r.line()


def test_extension_flips_exactly_one_outcome(predicative, impredicative):
    _, pred = predicative
    _, impred = impredicative
    flips = [(p.entry.name, p.outcome, i.outcome)
             for p, i in zip(pred, impred) if p.outcome != i.outcome]
    assert flips == [("impredicative_only.lf",
                      "reject:UnknownConstant", "accept")]


def test_strict_mode_raises_on_deviation(tmp_path):
    target = tmp_path / "arith.lf"
    target.write_text((CORPUS_DIR / "arith.lf").read_text(encoding="utf-8"),
                      encoding="utf-8")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("arith.lf reject:KindMismatch\n")
    with pytest.raises(MismatchedOutcome):
        check_corpus(manifest)


def test_manifest_name_syntax_error_matches_script_syntax_error(tmp_path):
    (tmp_path / "bad.lf").write_text("> [c : A & B];\n")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("bad.lf reject:SyntaxError\n")
    _, (result,) = check_corpus(manifest)
    assert result.ok and result.outcome == "reject:ScriptSyntaxError"


def test_a_script_to_be_rejected_must_fail_on_its_first_command(tmp_path):
    (tmp_path / "late.lf").write_text("> [A : Type];\n> Check ghost : A;\n")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("late.lf reject:UnknownConstant\n")
    _, (result,) = check_corpus(manifest, strict=False)
    assert isinstance(result.error, UnknownConstant)
    assert not result.ok
    assert result.outcome == "reject:UnknownConstant at command 2"
    assert "MISMATCH" in result.line()
    with pytest.raises(MismatchedOutcome, match="at command 2"):
        check_corpus(manifest)


def test_a_script_rejected_late_is_taken_back(tmp_path):
    # `late.lf` declares A before it is rejected; `next.lf` declares A again
    (tmp_path / "late.lf").write_text("> [A : Type];\n> Check ghost : A;\n")
    (tmp_path / "next.lf").write_text("> [A : Type];\n")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("late.lf reject:UnknownConstant\nnext.lf accept\n")
    ck, (late, following) = check_corpus(manifest, strict=False)
    assert not late.ok
    assert late.outcome == "reject:UnknownConstant at command 2"
    assert following.ok and following.outcome == "accept"
    assert [r[1] for r in ck.log if r[0] == "declare"].count("A") == 1


def test_rejected_scripts_leave_no_trace():
    ck = load_standard()
    with pytest.raises(KindMismatch):
        ck.run_path(CORPUS_DIR / "impredicative_neg.lf")
    assert ck.sig.entries.get("member_of_all_sets") is None
    with pytest.raises(UnknownConstant):
        ck.run_path(CORPUS_DIR / "impredicative_only.lf")
    assert ck.sig.entries.get("member_of_all_sets") is None


def test_prop_placement_type_is_outcome_identical(predicative):
    _, base = predicative
    _, moved = check_corpus(prop_placement="type", strict=False)
    assert [(r.entry.name, r.outcome) for r in moved] \
        == [(r.entry.name, r.outcome) for r in base]


# -------------------------------------------------------------- outputs

def test_reduction_outputs(predicative):
    ck, _ = predicative
    out = set(ck.output)
    # 2 + 3 = 5
    assert ("Reduce plus two three = "
            "succ (succ (succ (succ (succ zero))))") in out
    # 3 * 2 = 6
    assert ("Reduce mult three two = "
            "succ (succ (succ (succ (succ (succ zero)))))") in out
    # 2 - 4 truncates to 0
    assert "Reduce minus two four = zero" in out
    # 2 * (-1) = -2, as the difference pair (0, 2)
    assert ("Reduce zmult ztwo (zneg zone) = "
            "pair Nat Nat zero (succ (succ zero))") in out


@pytest.mark.parametrize("source, spent", [
    ("mult three three", 60),
    ("plus (succ (succ zero)) three", 15),
    ("minus four two", 50),
])
def test_normalisation_fuel_after_arith(arith_signature, source, spent):
    # beta over a whole spine spends one step per binder it consumes, as
    # contracting the binders one at a time did
    t = elaborate(arith_signature, EMPTY_CONTEXT, parse_term(source),
                  fuel=Fuel())
    fuel = kernel.Fuel()
    kernel.normalize(arith_signature, t, fuel)
    assert fuel.limit - fuel.left == spent


def test_key_checked_kinds(predicative):
    ck, _ = predicative
    out = set(ck.output)
    assert ("Check card_three_exact : "
            "Prf (Exactly hatNat (card three) three)") in out
    assert ("TypeOf at_least_down : (tau : U) (A : Set (T tau)) (n : Nat) "
            "(m : Nat) Prf (V (leq m n)) -> Prf (At_Least tau A n) -> "
            "Prf (At_Least tau A m)") in out
    assert ("Check exactly_empty : "
            "Prf (Exactly hatNat (empty Nat) zero)") in out


# ---------------------------------------------------------------- replay

def test_full_corpus_log_replays_kernel_only(predicative):
    ck, _ = predicative
    assert len(ck.log) > 200
    sig = replay(ck.log, Signature())
    assert sig.entries.get("card_three_exact") is not None
    assert sig.entries.get("qeq_refl") is not None


CONFIGS = [(MANIFEST, "predicative", "prop"),
           (MANIFEST, "predicative", "type"),
           (MANIFEST_IMPREDICATIVE, "impredicative", "prop")]


@pytest.mark.parametrize("manifest, mode, prop_at", CONFIGS)
def test_replay_spends_the_pinned_kernel_work(manifest, mode, prop_at):
    # the kernel's steps over a whole log, each record on its own budget;
    # a kernel change that moves this count must say so
    ck, _ = check_corpus(manifest, mode=mode, prop_placement=prop_at)
    sig, spent = Signature(), 0
    for record in ck.log:
        fuel = Fuel()
        commit(sig, record, fuel)
        spent += fuel.limit - fuel.left
    assert spent == 7574


@pytest.mark.parametrize("seed, spent", [(1, 39167), (2, 38656),
                                         (3, 40007)])
def test_arith_spends_the_pinned_kernel_work(seed, spent, monkeypatch):
    # the steps of each command's budget over the arith workload's script,
    # rejected commands included; a change that moves this count must say so
    ck = load_standard()
    ck.run_path(CORPUS_DIR / "arith.lf")
    budgets = []
    make = Checker._elaborator

    def metered(self):
        el = make(self)
        budgets.append(el.fuel)
        return el

    monkeypatch.setattr(Checker, "_elaborator", metered)
    script, _ = arith_script(seed, *ARITH_SIZE)
    for cmd in parse_script(script, file="<arith>"):
        try:
            ck.run_command(cmd)
        except LttwError:
            pass
    assert sum(f.limit - f.left for f in budgets) == spent


def _tower(n, innermost):
    # `innermost` nested n deep through the first argument of `plus`
    return "plus (" * (n - 1) + f"plus {innermost} zero" + ") zero" * (n - 1)


@pytest.mark.parametrize("n, accepted", [(400, True), (2000, False)])
def test_a_deep_equation_under_one_definition(n, accepted):
    # both sides unfold to zero; compared argument by argument first, they
    # differ only at the innermost `plus`
    p, q = _tower(n, "zero"), _tower(n, "(pred one)")
    command = f"Check EqI hatNat ({p}) : Prf (Eq hatNat ({p}) ({q}))"
    ck = load_standard()
    ck.run_path(CORPUS_DIR / "arith.lf")
    if accepted:
        ck.run_text(f"> {command};\n")
        assert ck.output[-1] == command
        return
    with pytest.raises(NestingTooDeep) as info:
        ck.run_text(f"> {command};\n")
    assert info.value.diagnostic.rule == "depth"


# ---------------------------------------------- subject reduction, bulk

def _closed_subterms(log):
    roots = []
    for rec in log:
        if rec[0] == "define":
            roots.append(rec[2])
        elif rec[0] == "check":
            roots.append(rec[1])
    seen = {}

    def collect(t):
        if isinstance(t, App):
            collect(t.fn)
            collect(t.arg)
        elif isinstance(t, Lam):
            collect(t.body)
        if not free_vars(t):
            seen.setdefault(print_term(t), t)

    for r in roots:
        collect(r)
    return seen


def test_subject_reduction_on_every_corpus_term(predicative):
    ck, _ = predicative
    sig = ck.sig
    seen = _closed_subterms(ck.log)
    assert len(seen) >= 500
    normalized = 0
    for key, t in seen.items():
        k = kernel.infer_kind(sig, EMPTY_CONTEXT, t, Fuel())
        head = kernel.whnf(sig, t, Fuel())
        kernel.check_term(sig, EMPTY_CONTEXT, head, k, Fuel())
        if len(key) <= 400:
            try:
                full = kernel.normalize(sig, t, Fuel())
            except FuelExhausted:
                continue
            kernel.check_term(sig, EMPTY_CONTEXT, full, k, Fuel())
            normalized += 1
    assert normalized >= 500
