"""Dump what the checker does with every command it is benchmarked on.

    python3 tools/dump_outcomes.py > outcomes.jsonl

One JSON line per command of the bundled corpus in its three shipped
configurations, each script run as `lttw corpus` runs it (up to its first
rejection, which rolls the whole script back), and of the `arith`
workload's scripts for seeds 1-3: its outcome, error class, message, span
and Diagnostic, the output lines and log records it added (as `repr`), and
the fuel it spent. A line per configuration gives the kernel-only replay
of the final log, record by record, and a line per CLI probe gives the
exit status and both streams. Run it in two checkouts and `diff` the
files: a change that should not alter behaviour leaves the diff empty. The
checker is imported from `src/` of the checkout the script lives in; only
the standard library is needed.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from lttw.checker import Checker, read_text  # noqa: E402
from lttw.cli import main as cli_main  # noqa: E402
from lttw.corpus import (  # noqa: E402
    CORPUS_DIR, MANIFEST, MANIFEST_IMPREDICATIVE, parse_manifest,
)
from lttw.errors import LttwError  # noqa: E402
from lttw.kernel import Fuel, Signature  # noqa: E402
from lttw.parser import parse_script  # noqa: E402
from lttw.printer import render  # noqa: E402
from lttw.signature import commit  # noqa: E402
from lttw.stdlib import load_standard  # noqa: E402
from perfbench.workloads import ARITH_SIZE, arith_script  # noqa: E402

CONFIGS = (
    (MANIFEST, "predicative", "prop"),
    (MANIFEST, "predicative", "type"),
    (MANIFEST_IMPREDICATIVE, "impredicative", "prop"),
)

# each command's budget, in the order the commands ran
_budgets: list[Fuel] = []
_make_elaborator = Checker._elaborator


def _metered(self):
    """Checker._elaborator, keeping the command's budget in `_budgets`."""
    el = _make_elaborator(self)
    _budgets.append(el.fuel)
    return el


def _emit(record: dict) -> None:
    # paths into the checkout read the same from every checkout
    print(json.dumps(record, sort_keys=True).replace(str(ROOT), "<root>"))


def _run(checker: Checker, cmd, where: str) -> None:
    """Run one command and dump what it did, then raise its rejection."""
    output, logged = len(checker.output), len(checker.log)
    budgets = len(_budgets)
    record = {"where": where, "outcome": "accept"}
    try:
        checker.run_command(cmd)
    except LttwError as e:
        d = e.diagnostic
        record.update(
            outcome="reject", error=type(e).__name__, message=e.message,
            span=None if e.span is None else tuple(e.span),
            diagnostic=None if d is None else [repr(d), render(d)])
        raise
    finally:
        record["output"] = checker.output[output:]
        record["log"] = [repr(r) for r in checker.log[logged:]]
        record["fuel"] = [f.limit - f.left for f in _budgets[budgets:]]
        _emit(record)


def _setup(where: str, checker: Checker) -> None:
    _emit({"where": where, "output": checker.output,
           "log": [repr(r) for r in checker.log],
           "fuel": [f.limit - f.left for f in _budgets]})


def corpus() -> None:
    for manifest, mode, prop_at in CONFIGS:
        config = f"corpus {mode} {prop_at}"
        _budgets.clear()
        checker = load_standard(mode=mode, prop_placement=prop_at)
        _setup(f"{config} setup", checker)
        for entry in parse_manifest(manifest):
            commands = parse_script(read_text(entry.path),
                                    file=str(entry.path))
            # as `lttw corpus` runs it: the script stops at its first
            # rejection, and the whole script is rolled back
            with contextlib.suppress(LttwError), checker.all_or_nothing():
                for i, cmd in enumerate(commands, 1):
                    _run(checker, cmd, f"{config} {entry.name} #{i}")
        spent = []
        sig = Signature()
        for record in checker.log:
            fuel = Fuel()
            commit(sig, record, fuel)
            spent.append(fuel.limit - fuel.left)
        _emit({"where": f"{config} replay", "fuel": spent,
               "total": sum(spent)})


def arith() -> None:
    for seed in (1, 2, 3):
        _budgets.clear()
        checker = load_standard()
        checker.run_path(CORPUS_DIR / "arith.lf")
        _setup(f"arith {seed} setup", checker)
        script, _ = arith_script(seed, *ARITH_SIZE)
        for i, cmd in enumerate(parse_script(script, file="<arith>"), 1):
            with contextlib.suppress(LttwError):
                _run(checker, cmd, f"arith {seed} #{i}")


# the command-line checks a release is tried with: argument lists, with
# the scripts they read
ARITH_LF = str(CORPUS_DIR / "arith.lf")
PROBES = (
    ["typeof", "TopI"],
    ["reduce", "--load", ARITH_LF, "plus two three"],
    ["typeof", "succ bot"],
    ["typeof", "ghost"],
    ["typeof", "EqI ? zero"],
    ["typeof", "EqI hatNat zero"],
    ["check", "--quiet", "numeral.lf"],
    ["check", "leading.lf"],
    ["check", "latin.lf"],
    ["check", "loads_latin.lf"],
)


def _probe_files(tmp: Path) -> None:
    n = 9999
    (tmp / "numeral.lf").write_text(
        "> Check " + "succ (" * n + "succ zero" + ")" * n + " : Nat;\n")
    n = 2000
    (tmp / "leading.lf").write_text(
        "> [f : Nat -> Nat -> Nat];\n> Check " + "f (" * n + "zero"
        + ") zero" * n + " : Nat;\n")
    (tmp / "latin.lf").write_bytes(b"> [A : Type];\n> [a : \xff];\n")
    (tmp / "loads_latin.lf").write_text('> Load "latin.lf";\n')


def cli() -> None:
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        _probe_files(tmp)
        for argv in PROBES:
            argv = [str(tmp / a) if a.endswith(".lf") and "/" not in a
                    else a for a in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                status = cli_main(argv)
            shown = [s.getvalue().replace(name, "<tmp>") for s in (out, err)]
            _emit({"where": "cli " + " ".join(argv).replace(name, "<tmp>"),
                   "status": status, "stdout": shown[0], "stderr": shown[1]})


if __name__ == "__main__":
    Checker._elaborator = _metered
    corpus()
    arith()
    cli()
