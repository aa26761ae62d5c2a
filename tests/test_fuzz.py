"""Mutants of the corpus scripts keep the checker's safety properties.

tools/fuzz_scripts.py changes one token of one command of a corpus script
and runs it on both sides of tests/oracle.py's `Pair`, the checker and the
reference elaborator, in each of the corpus's three configurations. Every
failure must be an LttwError, a rejected command must leave the session
as it was, and the reference must give each command the checker's verdict
and, on acceptance, its output, log records and fuel. The long runs are
the script's; this is one seed of it.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tools.fuzz_scripts import fuzz  # noqa: E402


def test_corpus_mutants_fail_typed_roll_back_and_agree():
    report = fuzz(seed=1, count=300)
    assert report["failures"] == {"errors": [], "rollback": [],
                                  "verdicts": []}
    assert report["reference_out_of_fuel"] == 0
    outcomes = report["outcomes"]
    assert sum(outcomes.values()) == 300
    # the mutants reach the kernel's rejections, and most commands make no
    # hole
    assert outcomes["DomainMismatch"] + outcomes["NotAProduct"] >= 50
    assert report["translated"] >= report["commands"] * 3 // 4
