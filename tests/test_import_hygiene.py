"""Modules load on first use: only ``verify`` imports the bounded verifier,
and only the command lines that argparse reads (help, ``verify``, usage
errors) import argparse.

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
