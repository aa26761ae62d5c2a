"""Mutation fuzzing of the corpus scripts: one token of one command changed.

    python3 tools/fuzz_scripts.py --seed 1 --count 5000

A mutant is a corpus script with one token of one of its commands deleted,
duplicated, swapped with the next token on its line, replaced by a name of
the standard signature, or preceded by a keyword or a bracket. It runs as
`lttw corpus` runs a script: on a checker that holds the standard
signature and the manifest's earlier scripts, up to its first rejection.
Only the commands from the mutated one on are run, since the ones before
it are the corpus's own, and the script is then rolled back. The mutants
are split evenly among the three configurations the corpus is checked in
(`CONFIGS`). Each command runs on both sides of tests/oracle.py's `Pair`:
the checker, and a reference whose elaborator translates nothing and
decides each kind equality without holes in place. Three properties are
checked:

- `errors`: every failure, parsing included, is an `LttwError`;
- `rollback`: a rejected command leaves the signature, the log, the
  output, the budget and the loaded files of both as they were;
- `verdicts`: the reference gives each command the checker's verdict and,
  when it is accepted, the same output lines, log records and fuel
  (`Pair.run`).

The report is one JSON object on stdout: the counts of mutants by outcome
and by the error that rejected them, of the commands run, of those that
made no hole (`translated`) and of those the checker accepts and the
reference runs out of fuel on (`reference_out_of_fuel`), and each
property's failures with the script, line and text of the mutant. The exit
status is 1 when a property fails. Only the standard library is needed;
the checker is imported from `src/` and the oracle from `tests/` of the
checkout this script lives in. tests/test_fuzz.py runs a few hundred
mutants of one seed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from lttw.checker import Checker, read_text  # noqa: E402
from lttw.corpus import (  # noqa: E402
    MANIFEST, MANIFEST_IMPREDICATIVE, parse_manifest,
)
from lttw.errors import LttwError  # noqa: E402
from lttw.parser import parse_script, tokenize  # noqa: E402
from oracle import Disagreement, Pair  # noqa: E402

# what a mutation inserts before a token: keywords and brackets
INSERTS = ("Check", "TypeOf", "Reduce", "rule", "Type", "Prop", "El", "Prf",
           "?", "->", "[", "]", "(", ")", ":", "=", ";")
OPERATORS = ("delete", "duplicate", "swap", "replace", "insert")
# (mode, where `prop` is declared): the configurations of the corpus
CONFIGS = (("predicative", "prop"), ("predicative", "type"),
           ("impredicative", "prop"))
# failures kept per property, with their mutants
SHOWN = 5


def _state(ck: Checker) -> tuple:
    return (dict(ck.sig.entries),
            {head: list(rs) for head, rs in ck.sig.rules.items()},
            list(ck.log), list(ck.output), ck.fuel, set(ck.loaded))


def _sites(text: str, file: str, commands: list, reachable: int) -> list:
    """(command index, token, next token on its line or None) for each
    token of the first `reachable` commands."""
    tokens = tokenize(text, file)
    starts = [(cmd.span.line, cmd.span.col) for cmd in commands]
    sites, k = [], 0
    for i, token in enumerate(tokens):
        while k + 1 < len(starts) and starts[k + 1] <= token[2:]:
            k += 1
        if k >= reachable:
            break
        after = tokens[i + 1] if i + 1 < len(tokens) else None
        sites.append((k, token, after if after and after[2] == token[2]
                      else None))
    return sites


def _mutate(text: str, token, after, op: str, word: str) -> str:
    """`text` with `op` applied to `token`; `word` is what a replacement
    or an insertion writes."""
    lines = text.split("\n")
    _, value, line, col = token
    row = lines[line - 1]
    start, end = col - 1, col - 1 + len(value)
    if op == "delete":
        row = row[:start] + row[end:]
    elif op == "duplicate":
        row = row[:start] + value + " " + row[start:]
    elif op == "swap":
        _, other, _, other_col = after
        other_end = other_col - 1 + len(other)
        row = (row[:start] + other + row[end:other_col - 1] + value
               + row[other_end:])
    elif op == "replace":
        row = row[:start] + word + row[end:]
    else:
        row = row[:start] + word + " " + row[start:]
    lines[line - 1] = row
    return "\n".join(lines)


def _from(text: str, span) -> str:
    """`text` from `span`'s start on, at the same lines and columns: the
    commands before it are the corpus's own, and need no parsing again."""
    lines = text.split("\n")
    row = lines[span.line - 1]
    marker = row.index(">") + 1
    lines[span.line - 1] = (row[:marker] + " " * (span.col - 1 - marker)
                            + row[span.col - 1:])
    return "\n" * (span.line - 1) + "\n".join(lines[span.line - 1:])


def _run(pair: Pair, cmd, report: dict, where: dict) -> str:
    """Run `cmd` on both sides of `pair`: "accept", the name of the
    LttwError that rejected it, or "disagreed" or "crashed" after a failed
    property."""
    before = [_state(ck) for ck in pair.checkers]
    try:
        verdict = pair.run(cmd)
    except Disagreement as e:
        _fail(report, "verdicts", where, str(e))
        return "disagreed"
    except Exception as e:  # the property under test
        _fail(report, "errors", where, f"{type(e).__name__}: {e}")
        return "crashed"
    if verdict != "accept" and [_state(ck) for ck in pair.checkers] != before:
        _fail(report, "rollback", where, verdict)
    return verdict


def _fail(report: dict, prop: str, where: dict, what: str) -> None:
    report["failed"][prop] += 1
    if len(report["failures"][prop]) < SHOWN:
        report["failures"][prop].append({**where, "what": what})


def fuzz(seed: int, count: int) -> dict:
    """Run `count` mutants drawn with `seed`, split among `CONFIGS`, and
    report as the module docstring says."""
    rng = random.Random(seed)
    report = {"seed": seed, "count": count, "outcomes": Counter(),
              "commands": 0, "translated": 0, "reference_out_of_fuel": 0,
              "failed": Counter(),
              "failures": {"errors": [], "rollback": [], "verdicts": []}}
    for i, (mode, prop_placement) in enumerate(CONFIGS):
        share = count // len(CONFIGS) + (i < count % len(CONFIGS))
        _fuzz(rng, share, mode, prop_placement, report)
    report["outcomes"] = dict(sorted(report["outcomes"].items()))
    report["failed"] = {prop: report["failed"][prop]
                        for prop in report["failures"]}
    return report


def _fuzz(rng: random.Random, count: int, mode: str, prop_placement: str,
          report: dict) -> None:
    """Run `count` mutants drawn from the corpus of `mode`, with `prop`
    at `prop_placement`, adding to `report`."""
    manifest = MANIFEST_IMPREDICATIVE if mode == "impredicative" else MANIFEST
    entries = parse_manifest(manifest)
    texts = [read_text(entry.path) for entry in entries]
    scripts = [parse_script(text, file=str(entry.path))
               for text, entry in zip(texts, entries)]
    pair = Pair(mode, prop_placement)
    pair.paths.clear()
    names = sorted(pair.checker.sig.entries)

    sites = []
    for i, (text, entry, commands) in enumerate(zip(texts, entries, scripts)):
        # a script to be rejected is run up to its first command only
        reachable = len(commands) if entry.outcome == "accept" else 1
        sites += [(i, *site) for site in _sites(text, str(entry.path),
                                                commands, reachable)]
    mutants = defaultdict(list)  # (script, command) -> [(line, text)]
    for _ in range(count):
        i, k, token, after = rng.choice(sites)
        op = rng.choice(OPERATORS if after else OPERATORS[:2] + OPERATORS[3:])
        word = rng.choice(names if op == "replace" else INSERTS)
        text = _mutate(texts[i], token, after, op, word)
        mutants[i, k].append((token[2], _from(text, scripts[i][k].span)))

    for i, (entry, commands) in enumerate(zip(entries, scripts)):
        for k, cmd in enumerate(commands):
            for line, text in mutants.get((i, k), ()):
                where = {"config": f"{mode}, prop at {prop_placement}",
                         "script": entry.name, "line": line,
                         "text": text.split("\n")[line - 1].strip()}
                _run_mutant(pair, text, str(entry.path), report, where)
            if entry.outcome != "accept":
                break
            for ck in pair.checkers:
                ck.run_command(cmd)
    report["commands"] += sum(pair.paths.values())
    report["translated"] += pair.paths["translated"]
    report["reference_out_of_fuel"] += len(pair.fuel_to_accept)


def _run_mutant(pair: Pair, text: str, file: str, report: dict,
                where: dict) -> None:
    """Run `text`, a mutant cut to start at its mutated command, to its
    first rejection on both sides of `pair`, and roll both back."""
    try:
        commands = parse_script(text, file=file)
    except LttwError:
        report["outcomes"]["unparsed"] += 1
        return
    except Exception as e:  # the property under test
        _fail(report, "errors", where, f"{type(e).__name__}: {e}")
        return
    outcome = "accept"
    with pair.rolled_back():
        for cmd in commands:
            outcome = _run(pair, cmd, report, where)
            if outcome != "accept":
                break
    report["outcomes"][outcome] += 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--count", type=int, default=1000)
    args = p.parse_args(argv)
    report = fuzz(args.seed, args.count)
    print(json.dumps(report, indent=1))
    return 1 if any(report["failed"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
