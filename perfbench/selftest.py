"""Self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

For each workload it runs `run.py --tiny` once untraced and twice traced,
each in its own process and the traced ones under different hash seeds.
It asserts that every metric BENCHMARK.json names is reported with its
unit, that nothing failed and `ok_share` is 1.0, and that the per-layer
counts of the two traced runs are identical. Last, it checks that the
benchmark refuses to run, without printing a result, where the checker's
source is missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# per-layer metrics that are timings; every other one must repeat exactly
TIMED_UNITS = ("ms", "1/s")
TIMED_NAMES = ("trace.overhead_ratio",)


def bench(workload: str, trace: int, cwd: Path = ROOT, hash_seed: str = "0"):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600)


def result(workload: str, trace: int, hash_seed: str = "0") -> dict:
    proc = bench(workload, trace, hash_seed=hash_seed)
    assert proc.returncode == 0, (workload, trace, proc.stderr[-2000:])
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, out
    assert out["correct"] is True and out["failed"] == 0, out
    assert out["attempted"] >= 1, out
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in declared}, (
        workload, trace, sorted(out["metrics"]))
    for m in declared:
        assert out["metrics"][m["name"]]["unit"] == m["unit"], m
    return out["metrics"]


def main() -> int:
    for w in SPEC["workloads"]:
        name = w["name"]
        plain = result(name, 0)
        assert plain["ok_share"]["value"] == 1.0, (name, plain["ok_share"])
        first = result(name, 1, hash_seed="1")
        second = result(name, 1, hash_seed="2")
        counts = [k for k, m in first.items()
                  if m["unit"] not in TIMED_UNITS and k not in TIMED_NAMES]
        differ = {k: (first[k]["value"], second[k]["value"]) for k in counts
                  if first[k]["value"] != second[k]["value"]}
        assert not differ, (name, differ)
        print(f"{name}: ok ({len(plain)} end-to-end metrics, "
              f"{len(counts)} per-layer counts repeat)")

    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(SPEC["workloads"][0]["name"], 0, cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc
    finally:
        shutil.rmtree(bare)
    print("without the checker's source: refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
