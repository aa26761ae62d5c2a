"""Command line: subcommands, flags, exit codes, and the stdout/stderr
split.

All invocations but `python -m lttw` go through main() in-process;
expected outputs repeat strings already pinned by the corpus tests.
"""

import ast
import errno
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lttw
from lttw.cli import main
from lttw.corpus import CORPUS_DIR
from lttw.errors import LttwError
from lttw.kernel import Fuel
from lttw.signature import RewriteRule, declare_constant, declare_rewrite
from lttw.syntax import App, Const, Var

from mini import NAT, arrow, nat_signature

ARITH = str(CORPUS_DIR / "arith.lf")
GATE_NEG = str(CORPUS_DIR / "impredicative_neg.lf")
GATE_ONLY = str(CORPUS_DIR / "impredicative_only.lf")
FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------- subcommands

def test_typeof_prints_kind(capsys):
    code, out, err = run(capsys, "typeof", "TopI")
    assert code == 0
    assert out == "TypeOf TopI : Prf (imp bot bot)\n"
    assert err == ""


def test_python_m_lttw_runs_the_cli(tmp_path):
    src = Path(lttw.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-m", "lttw", "typeof", "TopI"], cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "TypeOf TopI : Prf (imp bot bot)\n"


def test_reduce_after_loading_script(capsys):
    code, out, err = run(capsys, "reduce", "--load", ARITH,
                         "plus two three")
    assert code == 0
    # 2 + 3 = 5; the loaded script's own output is not repeated
    assert out == ("Reduce plus two three = "
                   "succ (succ (succ (succ (succ zero))))\n")


def test_term_argument_is_one_term(capsys):
    code, out, err = run(capsys, "typeof", "zero; [evil : Prop]; Check evil")
    assert code == 1
    assert out == ""
    assert err == "<argument>:1:5: unexpected ';' after the term\n"


def test_term_argument_counts_its_own_columns(capsys):
    code, out, err = run(capsys, "reduce", "f & x")
    assert code == 1
    assert err == "<argument>:1:3: unexpected character '&'\n"


def test_check_prints_script_output(capsys):
    code, out, err = run(capsys, "check", ARITH)
    assert code == 0
    assert "Reduce minus two four = zero" in out
    assert err == ""


def test_check_quiet_suppresses_results(capsys):
    code, out, err = run(capsys, "check", "--quiet", ARITH)
    assert code == 0
    assert out == ""


def test_corpus_runs_green(capsys):
    code, out, err = run(capsys, "corpus")
    assert code == 0
    assert "12/12 as expected" in out
    assert err == ""


def test_corpus_takes_no_stdlib_flag(capsys):
    # the corpus always runs over the standard signature
    code, out, err = run(capsys, "corpus", "--stdlib", "core")
    assert code == 2
    assert "--stdlib" in err


def test_corpus_mismatch_exits_1(capsys, tmp_path):
    (tmp_path / "arith.lf").write_text(
        (CORPUS_DIR / "arith.lf").read_text(encoding="utf-8"),
        encoding="utf-8")
    manifest = tmp_path / "m.txt"
    manifest.write_text("arith.lf reject:KindMismatch\n")
    code, out, err = run(capsys, "corpus", "--manifest", str(manifest))
    assert code == 1
    assert "MISMATCH" in out


# ----------------------------------------------------------- exit codes

def test_missing_script_is_a_usage_error(capsys, tmp_path):
    code, out, err = run(capsys, "check", str(tmp_path / "nope.lf"))
    assert code == 2
    assert "no such script" in err


def test_missing_load_file_of_a_query_is_a_usage_error(capsys, tmp_path):
    missing = tmp_path / "nope.lf"
    code, out, err = run(capsys, "typeof", "--load", str(missing), "zero")
    assert code == 2
    assert out == ""
    assert err == f"lttw: no such script: {missing}\n"


def test_missing_manifest_is_a_usage_error(capsys, tmp_path):
    missing = tmp_path / "nope.txt"
    code, out, err = run(capsys, "corpus", "--manifest", str(missing))
    assert code == 2
    assert out == ""
    assert err == f"lttw: no such manifest: {missing}\n"


def test_load_of_a_missing_file_is_a_rejection_at_the_load(capsys,
                                                         tmp_path):
    script = tmp_path / "loads.lf"
    script.write_text('> [A : Type];\n> Load "nope.lf";\n')
    code, out, err = run(capsys, "check", "--stdlib", "none", str(script))
    assert code == 1
    assert "loads.lf:2:" in err
    assert "lttw:" not in err


# the byte 0xff, at offset 21, occurs in no UTF-8 text
NOT_UTF8 = b"> [A : Type];\n> [a : \xff];\n"


@pytest.mark.parametrize("argv", [
    ["check", "bad.lf"],
    ["typeof", "--load", "bad.lf", "zero"],
    ["corpus", "--manifest", "bad.lf"],
    ["corpus", "--manifest", "lists_bad.txt"],
], ids=["check", "typeof-load", "corpus-manifest", "corpus-entry"])
def test_a_file_that_is_not_utf8_is_a_usage_error(capsys, tmp_path, argv):
    bad = tmp_path / "bad.lf"
    bad.write_bytes(NOT_UTF8)
    (tmp_path / "lists_bad.txt").write_text("bad.lf accept\n")
    argv = [str(tmp_path / a) if a.endswith((".lf", ".txt")) else a
            for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == (f"lttw: [Errno {errno.EILSEQ}] not UTF-8 text at byte 21: "
                   f"'{bad}'\n")


def test_load_of_a_file_that_is_not_utf8_is_a_rejection_at_the_load(
        capsys, tmp_path):
    (tmp_path / "bad.lf").write_bytes(NOT_UTF8)
    script = tmp_path / "loads.lf"
    script.write_text('> [B : Type];\n> Load "bad.lf";\n')
    code, out, err = run(capsys, "check", "--stdlib", "none", str(script))
    assert code == 1
    assert err == (f"{script}:2:3: cannot Load 'bad.lf': not UTF-8 text at "
                   "byte 21\n")


def test_load_cycle_is_rejected_at_the_load_that_closes_it(capsys):
    code, out, err = run(capsys, "check", "--stdlib", "none",
                         str(FIXTURES / "cycle_a.lf"))
    assert code == 1
    assert "cycle_b.lf:3:3: Load cycle through" in err


def test_reduce_out_of_fuel_is_rejected_at_the_reduce(capsys, tmp_path):
    script = tmp_path / "loop.lf"
    script.write_text("> [N : Type];\n> [z : N];\n> [f : N -> N];\n"
                      "> rule f z = f z : N;\n> Reduce f z;\n")
    code, out, err = run(capsys, "check", "--stdlib", "none", "--fuel", "50",
                         str(script))
    assert code == 1
    assert "loop.lf:5:3: no reduction head-normalised within 50 steps" in err


def test_rejected_script_exits_1_with_diagnostic(capsys):
    code, out, err = run(capsys, "check", GATE_NEG)
    assert code == 1
    assert "kind does not match" in err
    assert out == ""


def test_rejected_term_exits_1(capsys):
    code, out, err = run(capsys, "typeof", "barForall")
    assert code == 1
    assert "unknown name" in err


# ------------------------------------------------- modes and signatures

def test_impredicative_mode_accepts_overlay_script(capsys):
    code, out, err = run(capsys, "check", "--mode", "impredicative",
                         GATE_ONLY)
    assert code == 0
    assert "TypeOf member_of_all_sets : Set Nat" in out


def test_environment_sets_no_option(capsys, monkeypatch):
    # options come from flags alone; the variable is not read
    monkeypatch.setenv("LTTW_MODE", "impredicative")
    code, out, err = run(capsys, "check", GATE_ONLY)
    assert code == 1
    assert "barForall" in err


def test_bad_flag_value_is_a_usage_error(capsys):
    code, out, err = run(capsys, "typeof", "--fuel", "plenty", "TopI")
    assert code == 2
    assert err == "lttw: fuel must be a number, got 'plenty'\n"
    code, out, err = run(capsys, "typeof", "--fuel", "0", "TopI")
    assert code == 2
    assert err == "lttw: fuel must be positive, got 0\n"
    code, out, err = run(capsys, "typeof", "--mode", "classical", "TopI")
    assert code == 2
    assert "--mode" in err


def test_help_is_not_an_error(capsys):
    code, out, err = run(capsys, "corpus", "--help")
    assert code == 0
    assert out.startswith("usage: lttw corpus") and err == ""


def test_stdlib_none_starts_empty(capsys, tmp_path):
    script = tmp_path / "own.lf"
    script.write_text("> [A : Type];\n> [a : A];\n> TypeOf a;\n")
    code, out, err = run(capsys, "check", "--stdlib", "none", str(script))
    assert code == 0
    assert out == "TypeOf a : A\n"
    code, out, err = run(capsys, "typeof", "--stdlib", "none", "TopI")
    assert code == 1


def test_stdlib_core_lacks_derived_names(capsys):
    code, out, err = run(capsys, "typeof", "--stdlib", "core", "TopI")
    assert code == 1
    code, out, err = run(capsys, "typeof", "--stdlib", "core", "Peirce")
    assert code == 0


def test_core_with_impredicative_mode_is_rejected(capsys):
    code, out, err = run(capsys, "typeof", "--stdlib", "core",
                         "--mode", "impredicative", "Peirce")
    assert code == 2
    assert "overlay" in err


def test_fuel_flag_bounds_reduction(capsys):
    code, out, err = run(capsys, "reduce", "--load", ARITH,
                         "--fuel", "40", "mult three three")
    assert code == 1
    assert "within 40 steps" in err


def test_rejection_prints_its_diagnostic(capsys):
    code, out, err = run(capsys, "check", GATE_NEG)
    assert code == 1
    assert out == ""
    assert "\n  rule: " in err
    assert "\n  expected: " in err


def _check_script(capsys, tmp_path, text):
    script = tmp_path / "probe.lf"
    script.write_text(text)
    return run(capsys, "check", str(script))


@pytest.mark.parametrize("argv, stderr", [
    (["typeof", "succ bot"],
     "<argument>:1:6: argument kind does not match the function's domain\n"
     "  rule: app-domain\n  subject: bot\n  expected: Nat\n"
     "  actual: Prop\n"),
    (["typeof", "zero zero"],
     "<argument>:1:6: application of a term whose kind is not a product\n"
     "  rule: app-fn\n  subject: zero\n  actual: Nat\n"),
    (["typeof", "succ ?"],
     "<argument>:1:6: a hole was never determined\n  rule: hole-solved\n"),
    (["typeof", "[x] x"],
     "<argument>:1:1: binder 'x' needs an annotation here\n"
     "  rule: lam-annotation\n"),
    (["check", "{script}"],
     "{script}:3:5: term does not have the required kind\n  rule: check\n"
     "  subject: bot\n  expected: Nat\n  actual: Prop\n"),
], ids=["arg-kind", "too-many-arguments", "hole", "lambda", "script-line-3"])
def test_rejection_points_at_the_node_to_blame(capsys, tmp_path, argv,
                                                stderr):
    # the span of the node an error blames is built only for the error: the
    # kernel's rejections of the explicit queries are placed by `blame`,
    # and an argument too many is rejected by the elaborator as the kernel
    # names it, at that argument
    script = tmp_path / "probe.lf"
    script.write_text("> [a : Nat];\n> Check\n>   bot : Nat;\n")
    code, out, err = run(capsys, *(a.format(script=script) for a in argv))
    assert (code, out, err) == (1, "", stderr.format(script=script))


def test_duplicate_declaration_names_its_rule(capsys, tmp_path):
    code, out, err = _check_script(capsys, tmp_path, "> [zero : Nat];\n")
    assert code == 1
    assert err.endswith("probe.lf:1:3: 'zero' is already declared\n"
                        "  rule: signature-fresh\n  subject: zero\n")


def test_duplicate_parameter_names_its_rule(capsys, tmp_path):
    code, out, err = _check_script(capsys, tmp_path,
                                   "> [g [x : Nat] [x : Nat] : Nat];\n")
    assert code == 1
    assert err.endswith("probe.lf:1:3: variable 'x' already in context\n"
                        "  rule: context-fresh\n  subject: x\n")


def test_repeated_pattern_variable_names_its_rule(capsys, tmp_path):
    code, out, err = _check_script(
        capsys, tmp_path,
        "> [f : Nat -> Nat -> Nat];\n> rule [x : Nat] f x x = x : Nat;\n")
    assert code == 1
    assert err.endswith("probe.lf:2:3: pattern variable 'x' repeats in a "
                        "position the kind system does not force\n"
                        "  rule: rewrite-linear\n  subject: x\n")


# Each signature-layer rejection of a rewrite rule, with the message it
# prints and the rule it names: a script for `lttw check` where the
# elaborator lets the rule reach the signature layer, else a rule passed to
# `declare_rewrite` over the miniature Nat signature with `f : Nat -> Nat`.
# The last entries are the elaborator's own rejections of a name or a hole.
RULE_REJECTIONS = [
    ("rewrite-arity",
     "> [f : Nat -> Nat -> Nat];\n"
     "> rule [y : Nat] f zero y = y : Nat;\n"
     "> rule f zero = [y : Nat] y : Nat -> Nat;\n",
     "rules for 'f' must all take 2 arguments"),
    ("rewrite-head-declared",
     RewriteRule((("x", NAT),), App(Const("ghost"), Var("x")), Var("x"),
                 NAT),
     "unknown rewrite head 'ghost'"),
    ("rewrite-head-opaque",
     "> [d = zero];\n> rule d = zero : Nat;\n",
     "'d' is a definition; rules need a declared constant"),
    ("rewrite-rhs-bound",
     "> [f : Nat -> Nat];\n> rule [x : Nat] [y : Nat] f x = y : Nat;\n",
     "rule right-hand side uses variables the pattern never binds: y"),
    ("rewrite-pattern-binder",
     RewriteRule((("x", NAT),), App(Const("f"), Var("y")), Var("x"), NAT),
     "pattern variable 'y' is not a rule binder"),
    ("rewrite-pattern-depth",
     "> [f : Nat -> Nat];\n"
     "> rule [x : Nat] f (succ (succ x)) = x : Nat;\n",
     "patterns nest constructors at most one level deep"),
    ("rewrite-constructor-declared",
     RewriteRule((("x", NAT),), App(Const("f"), App(Const("ghost"),
                                                    Var("x"))),
                 Var("x"), NAT),
     "unknown constructor 'ghost' in pattern"),
    ("rewrite-constructor-opaque",
     "> [d = zero];\n> [f : Nat -> Nat];\n> rule f d = zero : Nat;\n",
     "'d' unfolds, so it cannot head a pattern"),
    ("rewrite-lhs-kind",
     RewriteRule((("x", NAT),), App(Const("f"), Var("x")), Var("x"),
                 arrow(NAT, NAT)),
     "rule left-hand side does not have the ascribed kind"),
    ("rewrite-rhs-kind",
     RewriteRule((("x", NAT),), App(Const("f"), Var("x")), Const("succ"),
                 NAT),
     "rule right-hand side does not have the ascribed kind"),
    ("name-declared", "> Check ghost;\n", "unknown name 'ghost'"),
    ("hole-kind", "> Check ?;\n",
     "hole in a position whose kind is not determined"),
    ("lam-annotation", "> Check [x] x;\n",
     "binder 'x' needs an annotation here"),
    ("hole-solved", "> [f : Nat -> Nat];\n> Check f ?;\n",
     "a hole was never determined"),
    ("rewrite-head", "> rule [x : Nat] x = zero : Nat;\n",
     "rewrite left-hand side must be a constant applied to patterns"),
    ("rewrite-overlap",
     "> [f : Nat -> Nat];\n"
     "> rule [x : Nat] f x = x : Nat;\n"
     "> rule [y : Nat] f y = zero : Nat;\n",
     "rewrite rule overlaps an existing rule for 'f'"),
    ("rewrite-pattern",
     "> [f : (Nat -> Nat) -> Nat];\n> rule f ([y : Nat] y) = zero : Nat;\n",
     "pattern arguments must be variables or constructor patterns"),
    ("kind-coercion", "> Check zero : zero;\n",
     "a term used as a kind must be a type or a proposition"),
    # without its annotation the lambda is elaborated, not translated
    ("lam-kind", "> Check [x] x : Nat;\n",
     "an abstraction only has product kinds"),
    # the argument's kind is a product, the hole's domain `El ?0` is not
    ("kind-unify", "> [g : (A : Type) A -> Nat];\n> Check g ? succ;\n",
     "kinds with different shapes cannot be made equal"),
    # ?1 := ?0 from the first arguments of Q, then ?0 ~ succ ?0
    ("occurs",
     "> [Q : Nat -> Nat -> Prop];\n"
     "> [q : (n : Nat) Prf (Q n (succ n))];\n"
     "> [r : (m : Nat) Prf (Q m m) -> Nat];\n"
     "> Check r ? (q ?);\n",
     "a hole's solution mentions the hole itself"),
    # the hole outside the binder cannot be the bound `x`
    ("scope",
     "> [P : Nat -> Prop];\n"
     "> [g : (n : Nat) (Nat -> Prf (P n)) -> Nat];\n"
     "> [p : (m : Nat) Prf (P m)];\n"
     "> Check g ? ([x : Nat] p x);\n",
     "solution mentions variables not in scope at the hole: x"),
    # ?0 := zero from the first arguments of Q, then succ zero ~ zero
    ("unify-rigid",
     "> [Q : Nat -> Nat -> Prop];\n"
     "> [g : (n : Nat) Prf (Q n n) -> Nat];\n"
     "> [q : Prf (Q zero (succ zero))];\n"
     "> Check g ? q;\n",
     "terms with different rigid heads cannot be made equal"),
    # `?0 zero ~ zero` is no pattern, and nothing else solves ?0
    ("postponed",
     "> [P : Nat -> Prop];\n"
     "> [g : (h : Nat -> Nat) Prf (P (h zero)) -> Nat];\n"
     "> [p : Prf (P zero)];\n"
     "> Check g ? p;\n",
     "constraints remain that first-order unification cannot decide"),
]


@pytest.mark.parametrize("rule, probe, message", RULE_REJECTIONS,
                         ids=[r[0] for r in RULE_REJECTIONS])
def test_rewrite_rule_rejection_names_its_rule(capsys, tmp_path, rule,
                                               probe, message):
    if isinstance(probe, str):
        code, out, err = _check_script(capsys, tmp_path, probe)
        assert code == 1
        assert f": {message}\n  rule: {rule}\n" in err
        return
    sig = nat_signature()
    declare_constant(sig, "f", arrow(NAT, NAT), Fuel())
    with pytest.raises(LttwError) as info:
        declare_rewrite(sig, probe, Fuel())
    assert info.value.message == message
    assert info.value.diagnostic.rule == rule


def _rule_names(tree):
    """The rule names written as literals: the first argument of a
    `Diagnostic(...)`. A module with a Diagnostic whose rule is a variable
    may read it from a table: there the literals of its tuples that look
    like rule names (words joined by hyphens) count as well."""
    tables = False
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        arg = node.args[0] if name == "Diagnostic" else None
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            yield arg.value
        tables |= name == "Diagnostic" and isinstance(arg, ast.Name)
    for node in ast.walk(tree) if tables else ():
        for elt in node.elts if isinstance(node, ast.Tuple) else ():
            if (isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                    and re.fullmatch(r"[a-z]+(-[a-z]+)+", elt.value)):
                yield elt.value


def test_every_diagnostic_rule_name_is_tested():
    # each rule name written as a literal in src/lttw appears in tests/,
    # quoted or as a rendered `rule:` line, so a new name cannot land
    # untested
    src = Path(lttw.__file__).parent
    names = set()
    for path in src.rglob("*.py"):
        names.update(_rule_names(ast.parse(path.read_text(encoding="utf-8"))))
    assert {"check", "app-domain", "name-declared"} <= names
    assert len(names) >= 40
    tests = "".join(path.read_text(encoding="utf-8")
                    for path in Path(__file__).parent.rglob("*.py"))
    # the names this test itself writes do not count
    tests = tests.replace(inspect.getsource(
        test_every_diagnostic_rule_name_is_tested), "")
    untested = sorted(n for n in names if f'"{n}"' not in tests
                      and f"'{n}'" not in tests and f"rule: {n}" not in tests)
    assert untested == []


def test_too_deep_a_script_exits_1_without_a_traceback(capsys, tmp_path):
    # parentheses around a kind cost the parser a frame or more each;
    # around a term, where they nest as deep, they cost it none
    script = tmp_path / "deep.lf"
    script.write_text("> [N : Type];\n> [z : N];\n> [s : N -> N];\n"
                      "> Check z : " + "(" * 2000 + "N" + ")" * 2000
                      + ";\n")
    code, out, err = run(capsys, "check", "--stdlib", "none", str(script))
    assert code == 1
    assert "Traceback" not in err
    assert "deep.lf:4:3: input nests too deeply to parse" in err
    script.write_text("> [N : Type];\n> [z : N];\n> [s : N -> N];\n"
                      "> Check " + "s (" * 2000 + "z" + ")" * 2000
                      + " : N;\n")
    assert run(capsys, "check", "--stdlib", "none", "--quiet",
               str(script))[0] == 0
