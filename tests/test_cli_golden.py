"""Golden CLI corpus: stdout, stderr and exit code, byte for byte.

``golden_cli.json`` holds one entry per request.  Re-record it with

    PYTHONPATH=<src of the commit to record> python tests/test_cli_golden.py

which runs every request in :data:`REQUESTS` in-process from the
repository root and rewrites the file.
"""

import io
import json
import os
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"

# one sample request set per instance: two classes, an element, a fraction
SAMPLES = {
    "power-affine": ("pq(12; 3*x^2)", "pq(2; 1*x^1)", "2*x^3", "frac(2*x^1, 1*x^2)"),
    "affine-lattice": (
        "pq([5,0]; aff([[2,0],[0,1]],[1,0]))",
        "pq([7,1]; aff([[1,1],[0,3]],[0,-2]))",
        "aff([[1,2],[0,1]],[3,0])",
        "frac(aff([[2,0],[0,1]],[1,0]), aff([[1,1],[0,1]],[0,0]))",
    ),
    "dyadic-steps": ("pq([3,1/2]; t^2 d^1)", "pq([3]; t^0 d^1)", "t^1 d^2", "frac(d, t)"),
    "tower": ("pq((2, 5); P1^1 P3^2 F^2)", "pq((1, 3); P1)", "F P1", "frac(P2, F)"),
}

# syntax errors inside pq(...) and frac(...): offsets count from the start
# of the whole argument
NESTED_OFFSETS = (
    ("normalize", "--instance", "power-affine", "pq(3; 3*y^2)"),
    ("normalize", "--instance", "affine-lattice", "pq([1]; aff([[x]],[0]))"),
    ("normalize", "--instance", "dyadic-steps", "pq([1,2]; t^2 q^1)"),
    ("normalize", "--instance", "tower", "pq((1,2); F^1 Q^1)"),
    ("normalize", "--instance", "tower", "pq((1,2,3); F^1)"),
    ("apply", "--instance", "power-affine", "frac(2*x^1, 3*y^2)", "pq(5; x)"),
    ("apply", "--instance", "affine-lattice", "frac(aff([[1]],[0]), aff([[1]],[z]))", "pq([1]; aff([[1]],[0]))"),
    ("apply", "--instance", "dyadic-steps", "frac(t^1, t^1 q)", "pq([1]; t)"),
    ("apply", "--instance", "tower", "frac(F^1 Q, F)", "pq((1, 2); F)"),
)


def _requests():
    for name, (pq, other, element, frac) in SAMPLES.items():
        for output in ("json", "text"):
            yield ("--output", output, "normalize", "--instance", name, pq)
            yield ("--output", output, "equiv", "--instance", name, pq, other)
            yield ("--output", output, "apply", "--instance", name, element, pq)
            yield ("--output", output, "apply", "--instance", name, frac, other)
    for label in ("power-affine", "affine-lattice", "affine-lattice-2d", "dyadic-steps", "tower"):
        yield ("verify", label)
    yield ("verify", "tower", "--output", "text", "--depth", "2")
    yield ("verify", "--config", "fixtures/cancellation_fail.json")
    yield ("verify", "--config", "fixtures/tower_custom_rules.json")
    yield ("verify", "--config", "fixtures/int_domain.json")
    # syntax errors at top level, whose offsets are unchanged
    yield ("normalize", "--instance", "power-affine", "pq(12: 3*x^2)")
    yield ("apply", "--instance", "power-affine", "3*y^2", "pq(12; 3*x^2)")
    yield ("apply", "--instance", "affine-lattice", "aff([[x]],[0])", "pq([1]; aff([[1]],[0]))")
    yield ("apply", "--instance", "dyadic-steps", "t^2 q^1", "pq([1]; t)")
    yield ("apply", "--instance", "tower", "F^1 Q^1", "pq((1, 2); F)")
    yield from NESTED_OFFSETS
    # domain errors
    yield ("normalize", "--instance", "power-affine", "pq(0; 3*x^2)")
    yield ("normalize", "--instance", "affine-lattice", "pq([0,0]; aff([[1,0],[0,0]],[0,0]))")
    yield ("equiv", "--instance", "affine-lattice", "pq([5]; aff([[2]],[1]))", "pq([1,2]; aff([[1,0],[0,1]],[0,0]))")
    yield ("normalize", "--instance", "dyadic-steps", "pq([1]; t^-1)")
    yield ("normalize", "--instance", "tower", "pq((0, 5); F)")
    yield ("verify", "--config", "fixtures/no_such_config.json")
    yield ("verify",)
    # argparse lists the registered instance and preset names in order
    yield ("normalize", "--instance", "bogus", "pq(1; x)")
    yield ("verify", "bogus")


REQUESTS = list(_requests())


def run_cli(argv):
    """Run ``main`` in-process; return ``(exit code, stdout, stderr)``."""
    from pseudoquotients.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as stop:  # argparse rejects the command line
            code = stop.code
    return code, out.getvalue(), err.getvalue()


def record():
    os.environ["COLUMNS"] = "80"
    os.chdir(ROOT)
    entries = []
    for argv in REQUESTS:
        code, out, err = run_cli(argv)
        entries.append({"argv": list(argv), "code": code, "stdout": out, "stderr": err})
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")


def _golden():
    return {tuple(entry["argv"]): entry for entry in json.loads(GOLDEN.read_text("utf-8"))}


def test_corpus_covers_every_request():
    assert list(_golden()) == REQUESTS


@pytest.mark.parametrize("argv", REQUESTS, ids=" ".join)
def test_cli_matches_golden(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(ROOT)
    entry = _golden()[argv]
    assert run_cli(argv) == (entry["code"], entry["stdout"], entry["stderr"])


def test_one_process_replays_the_corpus_byte_for_byte(monkeypatch):
    """``main`` shares one parser between the requests argparse reads; nothing leaks between requests."""
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(ROOT)
    golden = _golden()
    pq = SAMPLES["tower"][0]
    rejected = ("normalize", "--instance", "bogus", "pq(1; x)")
    # a flag given after the subcommand, then the same request without it
    trailing_text = [
        (("normalize", "--instance", "tower", pq, "--output", "text"),
         golden[("--output", "text", "normalize", "--instance", "tower", pq)]),
        (("normalize", "--instance", "tower", pq),
         golden[("--output", "json", "normalize", "--instance", "tower", pq)]),
    ]
    order = REQUESTS * 2
    random.Random(14).shuffle(order)
    for index, argv in enumerate(order):
        interlude = trailing_text if index % 2 else [(rejected, golden[rejected])]
        for request, entry in [*interlude, (argv, golden[argv])]:
            assert run_cli(request) == (entry["code"], entry["stdout"], entry["stderr"]), request


if __name__ == "__main__":
    sys.exit(record())
