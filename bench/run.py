"""Benchmark of the littlestone package, run from the root of a checkout:

    python3 bench/run.py --workload solve|strategy|play --seed N --seconds S --trace 0|1

One process, one thread.  Set-up builds the workload's inputs from the seed
(three times; the median counts).  Then passes over the workload's fixed op
list repeat until ``--seconds`` is used up (at least three passes); every
op's output is checked after its pass, untimed.  With ``--trace 0`` the last
stdout line reports the end-to-end metrics; with ``--trace 1`` untraced and
traced passes alternate and it reports the per-layer metrics of
``tracing.PER_LAYER``, medians over the traced passes, and writes the spans
of the last traced pass to ``.bench_out/``.  The package is imported from
``src/`` of the checkout; without it the run exits with code 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
MIN_PASSES = 3
PROBE_EVERY_S = 0.005  # op time between two speed probes
PROBE_NOMINAL_S = 200e-6  # probe time taken as the reference speed


def _probe_work() -> Fraction:
    table: dict[tuple[int, int, int], int] = {}
    acc = Fraction(0)
    for i in range(240):
        key = (i % 13, i % 7, i & 3)
        table[key] = table.get(key, 0) + (i * i) % 11
        if i % 8 == 0:
            acc += Fraction(i, 1 << (i % 9))
    return acc


def speed_probe() -> float:
    """Median time of three runs of a fixed piece of interpreter work.

    The work mixes tuples, dicts, ints and Fractions like the package does
    and never calls it.  ``PROBE_NOMINAL_S`` over this time is the machine's
    current speed relative to the reference: the CPU's speed on a shared
    host swings by a fifth over tens of seconds, and a pass's op times are
    scaled by its probes to remove that swing.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _probe_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def import_package() -> float:
    """Import the package from this checkout's ``src/``; seconds taken."""
    start = time.perf_counter()
    if not (SRC / "littlestone" / "__init__.py").is_file():
        print(f"error: no littlestone package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import littlestone

    if Path(littlestone.__file__).resolve().parent != SRC / "littlestone":
        print(f"error: littlestone imported from {littlestone.__file__}", file=sys.stderr)
        raise SystemExit(2)
    import tracing  # noqa: F401  (imports the package's modules)
    import workloads  # noqa: F401

    return time.perf_counter() - start


def run_pass(plan, tracer=None) -> dict:
    """Time every op of the plan once (traced if a tracer is given), then
    check the outputs.

    ``latencies`` are as measured; ``scaled`` are the same latencies at the
    reference speed, divided by the pass's median probe time over
    ``PROBE_NOMINAL_S``.  A probe runs after every ``PROBE_EVERY_S`` of op
    time, outside the ops.
    """
    gc.collect()
    latencies, probes, results = [], [], []
    since_probe = 0.0
    if tracer is not None:
        tracer.spans.clear()
        tracer.install()
    try:
        for i, op in enumerate(plan.ops):
            if tracer is not None:
                tracer.op = i
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception:  # an op that raises counts as failed; the run goes on
                result = traceback.format_exc()
            latency = time.perf_counter() - t0
            latencies.append(latency)
            results.append(result)
            since_probe += latency
            if since_probe >= PROBE_EVERY_S or i == len(plan.ops) - 1:
                probes.append(speed_probe())
                since_probe = 0.0
    finally:
        if tracer is not None:
            tracer.remove()
    bad = plan.check(results)
    for i, result in enumerate(results):
        if isinstance(result, str):
            bad[i] = "raised: " + result.strip().splitlines()[-1]
    factor = PROBE_NOMINAL_S / statistics.median(probes)
    scaled = [x * factor for x in latencies]
    return {"wall": sum(latencies), "scaled_wall": sum(scaled), "latencies": latencies,
            "scaled": scaled, "bad": bad}


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated as ``statistics.quantiles`` does."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
            spans_path: Path | None = None, size: str = "full", import_s: float = 0.0) -> dict:
    """One benchmark run; ``result`` is the object printed as the last line.

    ``workdir`` holds the run's class and tree files and is removed at the
    end; the spans of the last traced pass go to ``spans_path``.
    """
    import tracing
    import workloads

    plan_fn = workloads.WORKLOADS[workload]
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            t0 = time.perf_counter()
            plan = plan_fn(seed, workdir, size)
            setups.append(time.perf_counter() - t0)

        untraced, traced, layers = [], [], []
        tracer = tracing.Tracer()
        play_ops = {i for i, op in enumerate(plan.ops) if op.kind == "play"}
        begin = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            untraced.append(run_pass(plan))
            if trace:
                traced.append(run_pass(plan, tracer))
                layers.append(tracing.layer_metrics(tracer.spans, play_ops))
            now = time.perf_counter()
            # Stop before a round that would end past the deadline, but only
            # after MIN_PASSES rounds: the first round also pays the one-off
            # output checks, so it overstates what a round costs.
            if len(untraced) >= MIN_PASSES and now - begin + (now - round_start) > seconds:
                break
        if trace and spans_path is not None:
            tracer.write(spans_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = untraced + traced
    failed = {(p, i): why for p, r in enumerate(passes) for i, why in r["bad"].items()}
    attempted = sum(len(r["latencies"]) for r in passes)
    notes = [f"{plan.ops[i].key}: {why}" for (_, i), why in sorted(failed.items())]
    wall_s = statistics.median(r["scaled_wall"] for r in untraced)
    latencies = sorted(x for r in untraced for x in r["scaled"])
    p50, p90 = _quantile(latencies, 50), _quantile(latencies, 90)
    measured = sorted(x for r in untraced for x in r["latencies"])
    setup_s = import_s + statistics.median(setups)
    summary = {
        "workload": workload,
        "seed": seed,
        "pass_walls_s": [round(r["scaled_wall"], 4) for r in untraced],
        "traced_walls_s": [round(r["scaled_wall"], 4) for r in traced],
        "measured_pass_walls_s": [round(r["wall"], 4) for r in untraced],
        "measured_wall_s": statistics.median(r["wall"] for r in untraced),
        "measured_op_p50_ms": 1e3 * _quantile(measured, 50),
        "measured_op_p90_ms": 1e3 * _quantile(measured, 90),
        "ops_per_pass": len(plan.ops),
        "op_samples": len(latencies),
        "samples_beyond_p90": sum(1 for x in latencies if x > p90),
        "setup_runs_s": setups,
        "import_s": import_s,
    }
    if trace:
        metrics = {}
        for name, unit, _ in tracing.PER_LAYER:
            if name == "trace.overhead_ratio":
                value = statistics.median(r["scaled_wall"] for r in traced) / wall_s - 1
            else:
                value = statistics.median(m[name] for m in layers)
            metrics[name] = {"value": value, "unit": unit}
        counters = [tuple(m[c] for c in tracing.COUNTERS) for m in layers]
        if len(set(counters)) > 1:
            notes.append(f"deterministic counters changed between passes: {counters}")
        summary["counters"] = dict(zip(tracing.COUNTERS, counters[0]))
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "op_p50_ms": {"value": 1e3 * p50, "unit": "ms"},
            "op_p90_ms": {"value": 1e3 * p90, "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    return {
        "summary": summary,
        "notes": notes,
        "result": {
            "correct": not notes,
            "attempted": attempted,
            "failed": len(failed),
            "metrics": metrics,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["solve", "strategy", "play"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import_s = import_package()
    out = measure(
        args.workload, args.seed, args.seconds, bool(args.trace),
        workdir=ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}",
        spans_path=ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl",
        import_s=import_s,
    )
    report(out)
    return 0


def report(out: dict) -> None:
    """Failures on stderr; summary and metrics by name and unit on stdout,
    the result object as the last line."""
    for note in out["notes"][:20]:
        print(f"FAILED {note}", file=sys.stderr)
    for key, value in out["summary"].items():
        print(f"# {key}: {value}")
    result = out["result"]
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"failed_ratio = {result['failed'] / result['attempted']:.6g} ratio")
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
