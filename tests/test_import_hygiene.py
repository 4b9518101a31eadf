"""Modules load on first use: only ``verify`` imports the bounded verifier,
only the command lines that argparse reads (help, ``verify``, usage
errors) import argparse, and no request, ``verify`` included, imports
``dataclasses`` or the ``inspect`` it loads, since the value types and the
verifier's records are built by ``core.value_type``.  A plain request
loads a fixed set of the package's modules, and ``verify`` adds the
verifier alone.

Each check runs in a fresh interpreter, since this test process has
already imported both.
"""

import functools
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
VERIFIER = "pseudoquotients.verifier"


def run_child(code: str, **env):
    """Run ``code`` in a fresh interpreter and return the JSON it prints last."""
    env = {**os.environ, **env}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=20,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@functools.cache
def cli_run(argv: tuple) -> tuple:
    """``(exit code, stdout, stderr, modules loaded)`` of an in-process ``cli.main(argv)``.

    The loaded modules are those of the verifier and argparse that the
    request imported; help is wrapped at 80 columns.  Each ``argv`` runs
    in one child, whichever tests read its result.
    """
    code = f"""
        import contextlib, io, json, sys
        from pseudoquotients import cli
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main({list(argv)!r})
            except SystemExit as stop:
                code = stop.code
        loaded = [name for name in ({VERIFIER!r}, "argparse") if name in sys.modules]
        print(json.dumps([code, out.getvalue(), err.getvalue(), loaded]))
        """
    return tuple(run_child(code, COLUMNS="80"))


def cli_request(argv) -> tuple[int, bool]:
    """Exit code of an in-process ``cli.main(argv)``, and whether it loaded the verifier."""
    code, _, _, loaded = cli_run(tuple(argv))
    return code, VERIFIER in loaded


@pytest.mark.parametrize("statement", ["import pseudoquotients", "import pseudoquotients.cli"])
def test_importing_the_package_leaves_the_verifier_unloaded(statement):
    loaded = run_child(f"import json, sys\n{statement}\nprint(json.dumps({VERIFIER!r} in sys.modules))")
    assert loaded is False


PLAIN_REQUESTS = {
    "normalize": (("normalize", "--instance", "power-affine", "pq(12; 3*x^2)"), 0),
    "normalize-text": (("--output", "text", "normalize", "--instance", "tower", "pq((1,2); P1^2)"), 0),
    "equiv": (("equiv", "--instance", "affine-lattice", "pq([4]; aff([[2]],[0]))", "pq([2]; aff([[1]],[0]))"), 0),
    "apply": (("apply", "--instance", "dyadic-steps", "d^1", "pq([3]; t^0 d^1)"), 0),
    "apply-frac": (("apply", "--instance", "power-affine", "frac(2*x^1, 3*x^1)", "pq(5; 1*x^1)"), 0),
    "syntax-error": (("normalize", "--instance", "power-affine", "pq(12; "), 2),
}


@pytest.mark.parametrize("argv, code", PLAIN_REQUESTS.values(), ids=PLAIN_REQUESTS)
def test_requests_other_than_verify_leave_the_verifier_unloaded(argv, code):
    assert cli_request(argv) == (code, False)


def test_verify_loads_the_verifier():
    assert cli_request(["verify", "tower", "--depth", "2"]) == (3, True)


def test_importing_the_cli_leaves_argparse_unloaded():
    loaded = run_child("import json, sys\nimport pseudoquotients.cli\nprint(json.dumps('argparse' in sys.modules))")
    assert loaded is False


@pytest.mark.parametrize("argv, code", PLAIN_REQUESTS.values(), ids=PLAIN_REQUESTS)
def test_plain_requests_leave_argparse_unloaded(argv, code):
    assert cli_run(argv)[::3] == (code, [])


def test_verify_loads_argparse():
    assert cli_run(("verify", "tower", "--depth", "2"))[::3] == (3, [VERIFIER, "argparse"])


def test_a_plain_request_read_by_argparse_loads_it():
    argv = ("normalize", "--instance=power-affine", "pq(12; 3*x^2)")
    assert cli_run(argv)[:3] == cli_run(("normalize", "--instance", "power-affine", "pq(12; 3*x^2)"))[:3]
    assert cli_run(argv)[::3] == (0, ["argparse"])


def test_help_loads_argparse_and_prints_as_before(monkeypatch):
    from test_cli import VERIFY_HELP

    from pseudoquotients import cli

    assert cli_run(("verify", "--help")) == (0, VERIFY_HELP, "", ["argparse"])
    monkeypatch.setenv("COLUMNS", "80")
    assert cli_run(("--help",)) == (0, cli.build_parser().format_help(), "", ["argparse"])


@pytest.mark.parametrize(
    "argv", [["normalize", "--instance", "bogus", "pq(1; x)"], ["verify", "bogus"]], ids=["instance", "preset"]
)
def test_usage_errors_load_argparse_and_print_the_golden_stderr(argv):
    golden = {
        tuple(entry["argv"]): entry
        for entry in json.loads((ROOT / "tests" / "golden_cli.json").read_text("utf-8"))
    }[tuple(argv)]
    assert cli_run(tuple(argv)) == (golden["code"], golden["stdout"], golden["stderr"], ["argparse"])


# a normalize, an equiv and an apply for each instance, all of which exit 0
PER_INSTANCE = {
    "power-affine": (
        ("normalize", "pq(12; 3*x^2)"),
        ("equiv", "pq(12; 3*x^2)", "pq(4; 1*x^1)"),
        ("apply", "2*x^1", "pq(12; 3*x^2)"),
    ),
    "affine-lattice": (
        ("normalize", "pq([4]; aff([[2]],[0]))"),
        ("equiv", "pq([4]; aff([[2]],[0]))", "pq([2]; aff([[1]],[0]))"),
        ("apply", "frac(aff([[2,0],[0,1]],[1,0]), aff([[1,1],[0,1]],[0,0]))", "pq([7,1]; aff([[1,1],[0,3]],[0,-2]))"),
    ),
    "dyadic-steps": (
        ("normalize", "pq([3,1/2]; t^2 d^1)"),
        ("equiv", "pq([3]; t^0 d^1)", "pq([3,1/2]; t^2 d^1)"),
        ("apply", "d^1", "pq([3]; t^0 d^1)"),
    ),
    "tower": (
        ("normalize", "pq((1,2); P1^2)"),
        ("equiv", "pq((2, 5); P1^1 P3^2 F^2)", "pq((1, 3); P1)"),
        ("apply", "F", "pq((1,2); P1^2)"),
    ),
}
START_UP = ("dataclasses", "inspect")
# every module of the package that a plain request loads, all of them at import
PLAIN_MODULES = sorted(
    f"pseudoquotients{name}"
    for name in ("", ".cli", ".core", ".syntax", ".instances", ".instances.affine_lattice",
                 ".instances.dyadic_steps", ".instances.power_affine", ".instances.tower")
)


def loads_after(argvs) -> list:
    """``[exit code, modules of START_UP and of the package loaded so far]`` after each of ``argvs``, in one child."""
    code = f"""
        import contextlib, io, json, sys
        from pseudoquotients import cli
        def loaded():
            return sorted(name for name in sys.modules
                          if name in {START_UP!r} or name.partition(".")[0] == "pseudoquotients")
        found = [[None, loaded()]]
        for argv in {[list(argv) for argv in argvs]!r}:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            found.append([code, loaded()])
        print(json.dumps(found))
        """
    return run_child(code)


def start_up_loads(argvs) -> list:
    """``[exit code, modules of START_UP loaded so far]`` after each of ``argvs``, in one child."""
    return [[code, [name for name in names if name in START_UP]] for code, names in loads_after(argvs)]


def plain_argvs(name) -> list:
    return [(command, "--instance", name, *texts) for command, *texts in PER_INSTANCE[name]]


@pytest.mark.parametrize("name", PER_INSTANCE)
def test_plain_requests_load_neither_dataclasses_nor_inspect(name):
    assert start_up_loads(plain_argvs(name)) == [[None, []], [0, []], [0, []], [0, []]]


def test_verify_loads_neither_dataclasses_nor_inspect():
    assert start_up_loads([("verify", "tower", "--depth", "2")]) == [[None, []], [3, []]]


@pytest.mark.parametrize("name", PER_INSTANCE)
def test_plain_requests_load_exactly_the_package_modules_they_use(name):
    assert loads_after(plain_argvs(name)) == [[None, PLAIN_MODULES]] + [[0, PLAIN_MODULES]] * 3


def test_verify_adds_only_the_verifier_to_the_package_modules():
    (_, before), (code, after) = loads_after([("verify", "tower", "--depth", "2")])
    assert before == PLAIN_MODULES and code == 3
    assert after == sorted([*PLAIN_MODULES, VERIFIER])


def test_star_import_binds_every_public_name_to_its_definition():
    found = run_child(
        """
        import json
        namespace = {}
        exec("from pseudoquotients import *", namespace)
        import pseudoquotients, pseudoquotients.verifier as verifier
        print(json.dumps({
            "missing": [n for n in pseudoquotients.__all__ if n not in namespace],
            "verifier": sorted(n for n in pseudoquotients.__all__ if n in verifier.__all__),
            "same": [n for n in pseudoquotients.__all__ if n in verifier.__all__
                     and namespace[n] is getattr(verifier, n)],
        }))
        """
    )
    assert found["missing"] == []
    assert found["verifier"] == sorted(
        [
            "CancellationResult",
            "InjectivityResult",
            "OreSearchResult",
            "PRESET_NAMES",
            "Presentation",
            "VerifyReport",
            "preset",
            "presentation_from_config",
            "search_ore_witness",
            "verify",
            "verify_injectivity",
            "verify_right_cancellation",
        ]
    )
    assert sorted(found["same"]) == found["verifier"]


def test_dir_lists_every_public_name_without_loading_the_verifier():
    found = run_child(
        f"""
        import json, sys
        import pseudoquotients
        names = dir(pseudoquotients)
        print(json.dumps([sorted(set(pseudoquotients.__all__) - set(names)),
                          "verifier" in names, {VERIFIER!r} in sys.modules]))
        """
    )
    assert found == [[], True, False]


def test_preset_names_are_served_without_loading_the_verifier():
    found = run_child(
        f"""
        import json, sys
        import pseudoquotients
        names = pseudoquotients.PRESET_NAMES
        loaded = {VERIFIER!r} in sys.modules
        import pseudoquotients.verifier
        print(json.dumps([loaded, names is pseudoquotients.verifier.PRESET_NAMES]))
        """
    )
    assert found == [False, True]


def test_the_verifier_module_and_its_names_resolve_after_a_bare_import():
    found = run_child(
        f"""
        import json, sys
        import pseudoquotients
        module = pseudoquotients.verifier
        verify = pseudoquotients.verify
        print(json.dumps([module is sys.modules[{VERIFIER!r}], verify is module.verify,
                          "verify" in vars(pseudoquotients)]))
        """
    )
    assert found == [True, True, True]


def test_an_unknown_attribute_raises_the_standard_attribute_error():
    found = run_child(
        f"""
        import json, sys, types
        import pseudoquotients
        try:
            pseudoquotients.no_such_name
        except AttributeError as error:
            message = str(error)
        plain = types.ModuleType("pseudoquotients")
        try:
            plain.no_such_name
        except AttributeError as error:
            expected = str(error)
        print(json.dumps([message, expected, hasattr(pseudoquotients, "no_such_name"),
                          {VERIFIER!r} in sys.modules]))
        """
    )
    message, expected, present, loaded = found
    assert message == expected == "module 'pseudoquotients' has no attribute 'no_such_name'"
    assert present is False and loaded is False
