"""Benchmark runner: one workload, one seed, end-to-end or per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fraction-chains --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` next to this directory, never from an
installed copy.  The run first executes every operation once and checks it
against the reference evaluator (warm-up), then repeats the fixed set of
operations while another pass still fits in ``--seconds``, checking every
output again.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs one untraced and one traced pass of the same set and
prints every per-layer metric; counts cover exactly one pass, so they
repeat exactly for a given seed.  The last line of standard output is the
JSON result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import CALCULUS, HOOKS, INSTANCE_KEYS, VERIFIER_PHASES, Tracer
from workloads import KNOWN_DEFECTS, OK, VERIFY_CONFIGS, WORKLOADS, WRONG, Crash

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up probes per run, spread evenly over the timed passes.
SETUP_PROBES = 24


def import_package():
    """Import ``pseudoquotients`` from this checkout's ``src/`` or exit with status 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import pseudoquotients
        import pseudoquotients.cli
        import pseudoquotients.verifier
    except ImportError as error:
        sys.exit(f"perfbench: cannot import the package from {src}: {error}")
    if src.resolve() not in Path(pseudoquotients.__file__).resolve().parents:
        sys.exit(f"perfbench: imported {pseudoquotients.__file__}, not the copy under {src}")
    return pseudoquotients


def setup_seconds(workload: str) -> float:
    """Import plus building the workload's instances, timed in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


class Tally:
    """Per-operation times and check verdicts over the measured passes."""

    def __init__(self):
        self.per_op: list[list[float]] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.unexpected = 0  # failed operations that are not known defects
        self.failures: dict[str, int] = {}


def run_pass(ops, run, workload, tally: Tally) -> list[float]:
    """Time and check every operation once; returns the times in seconds."""
    times = []
    for op in ops:
        start = time.perf_counter()
        try:
            out = run(op.args)
        except Exception as error:  # an escaped exception is a failed operation
            out = Crash(error)
        times.append(time.perf_counter() - start)
        if op.verdict is not None and out == op.reference:
            verdict = op.verdict
        else:
            verdict = workload.check(op, out)
            if op.verdict is None:
                op.reference, op.verdict = out, verdict
        tally.attempted += 1
        if verdict != OK:
            tally.failed += 1
            tally.wrong += verdict == WRONG
            tally.unexpected += verdict == WRONG or op.label not in KNOWN_DEFECTS
            tally.failures[op.label] = tally.failures.get(op.label, 0) + 1
    return times


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and that percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(workload, ops, seconds: float, tally: Tally) -> dict:
    run = workload.runner()
    run_pass(ops, run, workload, tally)  # warm-up and first full check
    setups = []
    passes_s = 0.0  # time spent in timed passes; the probes do not count
    while True:  # stop as soon as another pass like the last would overrun
        started = time.perf_counter()
        tally.per_op.append(run_pass(ops, run, workload, tally))
        last = time.perf_counter() - started
        passes_s += last
        # Set-up probes run between passes, as many as keep them in step
        # with the share of the passes done, so they spread over the run.
        while len(setups) < SETUP_PROBES * passes_s / seconds:
            setups.append(setup_seconds(workload.name))
        if passes_s + last > seconds:
            break
    while len(setups) < SETUP_PROBES:
        setups.append(setup_seconds(workload.name))
    # Each operation's time is its fastest over the passes: on a shared
    # machine other load only ever adds time, and the fastest run is the
    # least disturbed.  A pass is the sum of those times, and the percentiles
    # are taken over the fixed set of operations, whose size does not depend
    # on how many passes fitted.  Set-up takes the fastest probe, by the same
    # rule.
    op_times = [min(column) for column in zip(*tally.per_op)]
    wall = sum(op_times)
    top, percentile = tail(op_times)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"passes = {len(tally.per_op)}; operations per pass = {len(ops)}")
    print(f"op_tail_ms is p{percentile:.2f} of n = {len(op_times)} operations")
    print(f"setup_s probes = {[round(s, 4) for s in setups]}")
    return {
        "wall_s": wall,
        "ops_per_s": len(ops) / wall,
        "op_p50_ms": 1000 * statistics.median(op_times),
        "op_tail_ms": 1000 * top,
        "peak_rss_mb": rss_kb / 1024,
        "setup_s": min(setups),
    }


def per_layer(api, workload, ops, tally: Tally) -> dict:
    run = workload.runner()
    run_pass(ops, run, workload, tally)  # warm-up and first full check
    untraced = run_pass(ops, run, workload, tally)
    tracer = Tracer()
    tracer.install(api.verifier, api.cli)
    try:
        traced_ops = workload.traced(ops, tracer)
        for op, original in zip(traced_ops, ops):
            op.reference, op.verdict = original.reference, original.verdict
        traced = run_pass(traced_ops, workload.runner(tracer), workload, tally)
    finally:
        tracer.uninstall()
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, [0, 0.0])[0]

    def self_s(name):
        return totals.get(name, [0, 0.0])[1]

    metrics = {}
    for key in INSTANCE_KEYS.values():
        for hook in HOOKS:
            metrics[f"instances.{key}.{hook}.calls"] = calls(f"instances.{key}.{hook}")
            metrics[f"instances.{key}.{hook}.self_s"] = self_s(f"instances.{key}.{hook}")
        metrics[f"instances.{key}.max_operand_bits"] = tracer.max_bits.get(key, 0)
    for name in CALCULUS:
        metrics[f"core.{name}.calls"] = calls(f"core.{name}")
        metrics[f"core.{name}.self_s"] = self_s(f"core.{name}")
    for span in (*VERIFIER_PHASES.values(), "verifier.verify"):
        metrics[f"{span}.self_s"] = self_s(span)
    walls = {op.label: t for op, t in zip(ops, untraced)}
    for label, top in VERIFY_CONFIGS:
        metrics[f"verifier.{label}.wall_s"] = walls.get(f"{label}@{top}", 0.0)
    generator_calls = calls("verifier.generator")
    metrics["verifier.generator.calls"] = generator_calls
    metrics["verifier.generator.self_s"] = self_s("verifier.generator")
    metrics["verifier.distinct_generator_inputs"] = len(tracer.generator_inputs)
    metrics["verifier.useful_call_ratio"] = (
        len(tracer.generator_inputs) / generator_calls if generator_calls else 0.0
    )
    for span in ("grammar.parse", "grammar.print"):
        metrics[f"{span}.calls"] = calls(span)
        metrics[f"{span}.self_s"] = self_s(span)
    metrics["grammar.input_chars"] = tracer.counters["grammar.input_chars"]
    metrics["cli.build_parser.self_s"] = self_s("cli.build_parser")
    metrics["cli.main.self_s"] = self_s("cli.main")
    metrics["cli.output_bytes"] = tracer.counters["cli.output_bytes"]
    for code in range(4):
        metrics[f"cli.exit_code.{code}"] = tracer.counters[f"cli.exit_code.{code}"]
    metrics["trace.overhead_share"] = sum(traced) / sum(untraced) - 1
    print(f"untraced pass = {sum(untraced):.4f} s; traced pass = {sum(traced):.4f} s; spans = {len(tracer.spans)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    api = import_package()
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](api, ROOT)
    ops = workload.build(args.seed)
    tally = Tally()
    if args.trace:
        values, wanted = per_layer(api, workload, ops, tally), spec["per_layer"]
    else:
        values, wanted = end_to_end(workload, ops, args.seconds, tally), spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(
        f"failed_share = {tally.failed / tally.attempted:.6g} ({tally.failed} of {tally.attempted}; "
        f"wrong answers: {tally.wrong}; failures that are not known defects: {tally.unexpected})"
    )
    if tally.failures:
        print(f"failed operations: {json.dumps(tally.failures, sort_keys=True)}")
    result = {
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
