"""Benchmark of the lttw checker: one workload per process.

    python3 perfbench/run.py --workload {corpus,replay,arith} --seed N
                             --seconds S --trace {0,1} [--tiny]

Run from the root of a checkout; the checker is imported from `src/` next
to this directory. The process sets up the workload, runs one warm-up
pass, then runs passes until `--seconds` have gone by, feeding one command
at a time; workloads whose passes consume their state set up again before
each pass. It checks every verdict, runs the deep family once, and prints
as its last line one JSON object with `correct`, `attempted`, `failed` and
`metrics`.

Timings are in seconds at reference speed (see `speed.py`): `setup_s` is
the median set-up, `pass_s` the median pass, and `cmd_p50_ms` and
`cmd_p99_ms` are percentiles over every command run in the timed passes,
less the garbage collector's pauses inside it (those count in `pass_s`;
see `workloads.Tally`).

With `--trace 0` the metrics are the end-to-end ones. With `--trace 1`
they are the per-layer ones, from a fixed number of passes run with the
tracer installed; for a given seed their counts repeat exactly. The
traced run's details and raw spans go to `.perfbench/` in the checkout.
`--tiny` shrinks the arith script and the repetitions for the self-test.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_REPS = 3      # set-ups before the first pass
MIN_PASSES = 3      # timed passes per run at least
TRACED_PASSES = 2   # passes with the tracer installed


def _import_checker():
    src = ROOT / "src"
    if not (src / "lttw" / "__init__.py").is_file():
        sys.exit(f"perfbench: no checker source at {src}")
    sys.path.insert(0, str(src))
    import lttw
    if Path(lttw.__file__).resolve().parent != src / "lttw":
        sys.exit(f"perfbench: imported lttw from {lttw.__file__}, "
                 f"not from {src}")


def _quantile(values, q: float) -> float:
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def _timed_setup(workload, speed, setups: list[float]):
    """Set up once; appends its seconds at reference speed to `setups`.
    The caller holds no earlier state, and the collector starts empty."""
    gc.collect()
    speed.settle()
    start = time.perf_counter()
    state = workload.setup()
    seconds = time.perf_counter() - start
    mark = speed.mark()
    speed.settle()
    setups.append(seconds * speed.scale(mark))
    return state


def _one_pass(workload, state, tally) -> None:
    gc.collect()
    tally.begin_pass()
    workload.run_pass(state, tally)
    tally.end_pass()


def _passes(workload, state, speed, setups, tally, seconds, min_passes):
    """Timed passes into `tally` until `seconds` are up."""
    deadline = time.perf_counter() + seconds
    while len(tally.passes) < min_passes or time.perf_counter() < deadline:
        if not workload.reusable_setup:
            state = None
            state = _timed_setup(workload, speed, setups)
        _one_pass(workload, state, tally)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _per_layer(tracer, passes: int, scale: float, overhead: float,
               collector_ms: float) -> dict:
    """Per pass; times at reference speed by the traced passes' `scale`."""
    c = {k: v / passes for k, v in tracer.counts.items()}
    ms = {k: v * 1000 * scale / passes
          for k, v in tracer.self_seconds().items()}

    def ratio(a, b):
        return a / b if b else 0.0

    out = {f"{layer}.ms": _metric(ms[layer], "ms")
           for layer in ("parser", "elaborator", "signature", "kernel",
                         "syntax", "printer")}
    out.update((k, _metric(s * 1000 * scale / passes, "ms"))
               for k, s in tracer.inclusive.items())
    # every counter is reported but the two that only feed ratios
    out.update((k, _metric(v, "count")) for k, v in c.items()
               if k not in ("elaborator.metas_solved", "syntax.free_vars.hits"))
    out["parser.tokens_per_s"] = _metric(
        ratio(c["parser.tokens"], ms["parser"] / 1000), "1/s")
    out["elaborator.metas_solved_ratio"] = _metric(
        ratio(c["elaborator.metas_solved"], c["elaborator.metas"]), "ratio")
    out["syntax.free_vars.hit_ratio"] = _metric(
        ratio(c["syntax.free_vars.hits"], c["syntax.free_vars.calls"]),
        "ratio")
    out["trace.overhead_ratio"] = _metric(overhead, "ratio")
    out["gc.ms"] = _metric(collector_ms, "ms")
    return out


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool):
    from speed import Speedometer
    from workloads import WORKLOADS, Tally, deep_family

    workload = WORKLOADS[name](seed, tiny=tiny)
    speed = Speedometer()
    setups: list[float] = []
    for _ in range(1 if tiny else SETUP_REPS):
        state = None  # let the collector free the last set-up first
        state = _timed_setup(workload, speed, setups)
    _one_pass(workload, state, Tally(speed))  # warm-up
    tally = Tally(speed)
    details = {"workload": name, "seed": seed, "trace": int(trace)}

    if trace:
        from tracer import Tracer
        tracer = Tracer()
        traced = Tally(speed)
        for _ in range(TRACED_PASSES):
            if not workload.reusable_setup:
                state = None
                state = workload.setup()
            tracer.install()
            try:
                _one_pass(workload, state, traced)
            finally:
                tracer.uninstall()
        _passes(workload, state, speed, setups, tally, seconds / 2, 1)
        overhead = (statistics.median(traced.pass_seconds())
                    / statistics.median(tally.pass_seconds()))
        scale = (sum(traced.pass_seconds())
                 / sum(traced.pass_seconds(scaled=False)))
        collector_ms = statistics.median(tally.collector_seconds()) * 1000
        metrics = _per_layer(tracer, TRACED_PASSES, scale, overhead,
                             collector_ms)
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"{name}-seed{seed}.spans"
        tracer.write_spans(spans)
        details.update(spans=str(spans.relative_to(ROOT)),
                       span_fields=tracer.span_fields,
                       span_count=len(tracer.span_start),
                       traced_pass_seconds=traced.pass_seconds(),
                       counts_per_pass={k: v / TRACED_PASSES
                                        for k, v in tracer.counts.items()})
        tally.attempted += traced.attempted
        tally.failed += traced.failed
    else:
        _passes(workload, state, speed, setups, tally, seconds,
                1 if tiny else MIN_PASSES)

    deep = deep_family()
    passes = tally.pass_seconds()
    cmd_ms = [t * 1000 for t in tally.command_seconds()]
    details.update(pass_seconds=passes,
                   raw_pass_seconds=tally.pass_seconds(scaled=False),
                   collector_seconds=tally.collector_seconds(),
                   setup_seconds=setups, probe_seconds=speed.samples,
                   commands_per_pass=len(tally.passes[0]),
                   deep_family={m: {"outcome": o, "seconds": s}
                                for m, o, s in deep})
    if not trace:
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "pass_s": _metric(statistics.median(passes), "s"),
            "cmd_p50_ms": _metric(_quantile(cmd_ms, 0.50), "ms"),
            "cmd_p99_ms": _metric(_quantile(cmd_ms, 0.99), "ms"),
            "ok_share": _metric((tally.attempted - tally.failed)
                                / tally.attempted, "ratio"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MB"),
            "deep_decided": _metric(
                sum(outcome == "accept" for _, outcome, _ in deep), "count"),
        }

    print(f"# {name} seed {seed}: {len(passes)} passes of "
          f"{len(tally.passes[0])} commands ({len(cmd_ms)} command times), "
          f"{len(setups)} set-ups")
    for member, outcome, secs in deep:
        print(f"# deep {member:<20} {outcome:<16} {secs * 1000:9.1f} ms")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(details, indent=1) + "\n", encoding="utf-8")
    # every deep member is a true statement: accepting it with another
    # output is a wrong verdict, failing on it is only undecided
    correct = (tally.failed == 0
               and all(outcome != "wrong" for _, outcome, _ in deep))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("corpus", "replay", "arith"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)
    _import_checker()
    run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    return 0


if __name__ == "__main__":
    sys.exit(main())
