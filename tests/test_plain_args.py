"""The plain argv reader against argparse.

``cli._plain_args`` reads plain ``normalize``, ``equiv`` and ``apply``
command lines without argparse and gives ``None`` for every other one.
For each argv here it must give ``None`` or a namespace whose ``vars()``
equal those of ``cli._parser().parse_args(argv)``; and ``main`` must
return and print the same as it does with the reader replaced by one
that refuses everything, so that argparse reads every command line.
"""

import importlib
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import pseudoquotients
from pseudoquotients import cli
from pseudoquotients.instances import INSTANCE_NAMES

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden_cli.json"


def argparse_vars(argv):
    """``vars()`` of argparse's namespace for ``argv``, or ``None`` if it exits."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(cli._parser().parse_args(argv))
        except SystemExit:
            return None


def read(argv):
    """Whether ``_plain_args`` accepts ``argv``, after checking its namespace against argparse's."""
    plain = cli._plain_args(argv)
    if plain is not None:
        assert vars(plain) == argparse_vars(argv), argv
    return plain is not None


def run_main(argv):
    """``(exit code, stdout, stderr)`` of an in-process ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as stop:  # argparse prints help or a usage error
            code = stop.code
    return code, out.getvalue(), err.getvalue()


def assert_main_reads_as_argparse(argvs, monkeypatch):
    """``main`` gives the same on each argv with the reader as with argparse alone."""
    with_reader = [run_main(argv) for argv in argvs]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_plain_args", lambda argv: None)
        for argv, expected in zip(argvs, with_reader):
            assert run_main(argv) == expected, argv


@pytest.fixture
def fixed_help(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    monkeypatch.chdir(ROOT)  # the golden verify requests name fixture files


def test_golden_requests(fixed_help, monkeypatch):
    argvs = [entry["argv"] for entry in json.loads(GOLDEN.read_text("utf-8"))]
    accepted = [argv for argv in argvs if read(argv)]
    # every request but verify and the argparse usage error
    assert {argv[0] for argv in argvs if argv not in accepted} == {"verify", "normalize"}
    assert len(accepted) == 51
    assert_main_reads_as_argparse(argvs, monkeypatch)


def benchmark_argvs(seed):
    """The argvs of the ``cli-requests`` benchmark workload built at ``seed``."""
    perfbench = str(ROOT / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(perfbench)
    return [op.args for op in workloads.WORKLOADS["cli-requests"](pseudoquotients, ROOT).build(seed)]


@pytest.mark.parametrize("seed", [1, 2])
def test_the_reader_accepts_every_benchmark_request(seed):
    argvs = benchmark_argvs(seed)
    assert len(argvs) == 1107
    assert all(read(argv) for argv in argvs)


# (pq, other pq, element, fraction) per instance
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
# tokens a mutation inserts or writes over another with
TOKENS = (
    "-h", "--help", "--", "--inst", "--instance=tower", "--output=text", "--out", "-1", "-",
    "", " -1", "--output", "--instance", "json", "text", "tower", "bogus", "verify",
    "normalize", "pq(1; x)",
)


def plain_argv(rng):
    """A well-formed plain request: options repeated and placed anywhere after the command."""
    instance = rng.choice(INSTANCE_NAMES)
    pq, other, element, frac = SAMPLES[instance]
    command = rng.choice(("normalize", "equiv", "apply"))
    positionals = {
        "normalize": [pq],
        "equiv": [pq, other],
        "apply": [rng.choice((element, frac)), other],
    }[command]
    options = [["--instance", rng.choice(INSTANCE_NAMES)] for _ in range(rng.randrange(2))]
    options.append(["--instance", instance])
    options += [["--output", rng.choice(("json", "text"))] for _ in range(rng.randrange(3))]
    rng.shuffle(options)
    rest = [[text] for text in positionals]
    for option in options:
        rest.insert(rng.randrange(len(rest) + 1), option)
    top = [["--output", rng.choice(("json", "text"))] for _ in range(rng.randrange(3))]
    return [token for group in (*top, [command], *rest) for token in group]


def mutated(rng, argv):
    """``argv`` with one to three tokens inserted, deleted, written over, repeated or moved."""
    argv = list(argv)
    for _ in range(rng.randint(1, 3)):
        i, j = rng.randrange(len(argv) + 1), rng.randrange(len(argv))
        kind = rng.randrange(5)
        if kind == 0:
            argv.insert(i, rng.choice(TOKENS))
        elif kind == 1:
            del argv[j]
        elif kind == 2:
            argv[j] = rng.choice(TOKENS)
        elif kind == 3:
            argv.insert(i, argv[j])
        else:
            argv.insert(i, argv.pop(j))
        if not argv:
            break
    return argv


def fuzzed_argvs(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        argv = plain_argv(rng)
        yield mutated(rng, argv) if rng.random() < 0.6 else argv


def test_fuzzed_argvs_read_as_argparse_reads_them(fixed_help, monkeypatch):
    argvs = list(fuzzed_argvs(25, 4000))
    accepted = sum(read(argv) for argv in argvs)
    assert min(accepted, len(argvs) - accepted) >= 1500  # each outcome thousands of times
    assert_main_reads_as_argparse(argvs, monkeypatch)


REFUSED = {
    "help": ["normalize", "-h"],
    "top-level-help": ["--help"],
    "double-dash": ["normalize", "--instance", "tower", "--", "pq((1, 3); P1)"],
    "equals-form": ["normalize", "--instance=tower", "pq((1, 3); P1)"],
    "abbreviation": ["normalize", "--inst", "tower", "pq((1, 3); P1)"],
    "top-level-abbreviation": ["--out", "text", "normalize", "--instance", "tower", "pq((1, 3); P1)"],
    "verify": ["verify", "tower"],
    "instance-outside-choices": ["normalize", "--instance", "bogus", "pq(1; x)"],
    "output-outside-choices": ["normalize", "--instance", "tower", "--output", "xml", "pq((1, 3); P1)"],
    "no-instance": ["normalize", "pq((1, 3); P1)"],
    "instance-before-command": ["--instance", "tower", "normalize", "pq((1, 3); P1)"],
    "no-value": ["normalize", "pq((1, 3); P1)", "--instance"],
    "missing-positional": ["equiv", "--instance", "tower", "pq((1, 3); P1)"],
    "extra-positional": ["normalize", "--instance", "tower", "pq((1, 3); P1)", "pq((1, 3); P1)"],
    "dash-positional": ["normalize", "--instance", "tower", "-1"],
    "no-command": ["--output", "text"],
    "empty": [],
    "int-item": ["normalize", "--instance", "tower", 5],
    "bytes-item": ["normalize", "--instance", "tower", b"pq((1, 3); P1)"],
    "list-item": ["normalize", "--instance", ["tower"], "pq((1, 3); P1)"],
    "none-item": [None],
}


@pytest.mark.parametrize("argv", REFUSED.values(), ids=REFUSED)
def test_refused_argvs(argv):
    assert cli._plain_args(argv) is None
    assert cli._plain_args(tuple(argv)) is None


@pytest.mark.parametrize(
    "argv",
    [None, "normalize", iter(["normalize", "--instance", "tower", "pq((1, 3); P1)"]), {"normalize": 1}],
    ids=["none", "str", "iterator", "dict"],
)
def test_only_a_list_or_tuple_is_read(argv):
    assert cli._plain_args(argv) is None


def test_an_iterator_argv_still_reaches_argparse():
    argv = ["normalize", "--instance", "tower", "pq((1, 3); P1)"]
    assert run_main(iter(argv)) == run_main(argv) == run_main(tuple(argv))
    assert run_main(argv)[0] == 0


def test_main_without_argv_reads_sys_argv(monkeypatch):
    argv = ["--output", "text", "equiv", "--instance", "tower", "pq((1, 3); P1)", "pq((2, 5); F)"]
    expected = run_main(argv)
    monkeypatch.setattr(sys, "argv", ["pseudoquotients", *argv])
    assert run_main(None) == expected
    assert expected[0] == 0 and expected[1].startswith("instance: tower\n")
