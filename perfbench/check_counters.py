"""Check that traced counts repeat exactly and that a second seed keeps each workload's shape.

    python3 perfbench/check_counters.py --seed 1 --other-seed 2

For every workload it makes two traced runs on ``--seed`` and flags every
exact counter (``*.calls``, ``max_operand_bits``, the verifier's generator
counts, grammar and CLI counts, ``cli.exit_code.*``) whose two values
differ.  It then makes a traced run on ``--other-seed`` and compares the
shape: operations per pass, the share of each kind of operation, and the
order of magnitude of every ``max_operand_bits``.  Exits 1 if a counter
did not repeat or the shape changed.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import pseudoquotients  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

EXACT_SUFFIXES = (".calls", ".max_operand_bits", "distinct_generator_inputs", ".input_chars", ".output_bytes")


def traced(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True, cwd=ROOT,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def is_exact(name: str) -> bool:
    return name.endswith(EXACT_SUFFIXES) or name.startswith("cli.exit_code.")


def mix(workload: str, seed: int) -> collections.Counter:
    """Operations per kind (the label without its index) in one pass."""
    ops = WORKLOADS[workload](pseudoquotients, ROOT).build(seed)
    return collections.Counter(op.label.split("#")[0].split("@")[0] for op in ops)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--other-seed", type=int, default=2)
    args = parser.parse_args()
    problems = 0
    for workload in ("verify-suite", "fraction-chains", "cli-requests"):
        first, second = traced(workload, args.seed), traced(workload, args.seed)
        exact = [name for name in first if is_exact(name)]
        differ = [name for name in exact if first[name] != second[name]]
        for name in differ:
            print(f"FLAG {workload}: {name} did not repeat: {first[name]} then {second[name]}")
        print(f"{workload}: {len(exact) - len(differ)} of {len(exact)} exact counters repeat on seed {args.seed}")
        problems += len(differ)

        other = traced(workload, args.other_seed)
        mix_a, mix_b = mix(workload, args.seed), mix(workload, args.other_seed)
        if mix_a != mix_b:
            print(f"FLAG {workload}: operation mix differs between seeds: {dict(mix_a)} vs {dict(mix_b)}")
            problems += 1
        total = sum(mix_a.values())
        shares = ", ".join(f"{kind} {count / total:.4f}" for kind, count in sorted(mix_a.items()))
        print(f"{workload}: {total} operations per pass on both seeds; shares: {shares}")
        for name in (n for n in first if n.endswith("max_operand_bits") and first[n]):
            a, b = first[name], other[name]
            same = math.floor(math.log10(a)) == math.floor(math.log10(b)) if a and b else a == b
            print(f"{workload}: {name} = {a} (seed {args.seed}) vs {b} (seed {args.other_seed})"
                  + ("" if same else "  FLAG: order of magnitude changed"))
            problems += not same
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
