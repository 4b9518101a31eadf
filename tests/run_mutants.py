"""Run the committed mutants: each one must make the tests it names fail.

    python tests/run_mutants.py [mutants.json]

Each entry of the data file (``tests/mutants.json`` by default) gives a
file of the tree, an exact ``old`` snippet that occurs in it once, the
``new`` text that replaces it, and the ids of the tests that must kill
it.  For each entry the tree is copied to a temporary directory, the one
edit is made in the copy, and the named tests run there with
``pytest -x``, so they import the mutated ``src/`` of the copy.  The
runner exits 1 if a mutant survives (its tests pass), if its tests do not
run (an unknown id, a collection error, a timeout), or if a snippet no
longer occurs exactly once, so a refactor that moves a snippet must
re-point its entry.  The file name keeps it out of Tier-1's collection.

``tests/mutants_planted.json`` holds two entries the runner must refuse:
a no-op edit (a comment dropped), which survives, and a snippet that
occurs nowhere, which is stale.  Run on it, the runner exits 1.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 60


def run_mutant(entry: dict) -> str:
    """``"killed"``, ``"SURVIVED"`` or an error for one mutant, run in a mutated copy of the tree."""
    source = (ROOT / entry["file"]).read_text(encoding="utf-8")
    found = source.count(entry["old"])
    if found != 1:
        return f"STALE: its old snippet occurs {found} times in {entry['file']}"
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache"))
        (tree / entry["file"]).write_text(source.replace(entry["old"], entry["new"]), encoding="utf-8")
        # no bytecode: a stale .pyc of the same size and second could hide the edit
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        # plugins the suite never uses stay unloaded where installed: hypothesis alone takes about 1 s
        plugins = ("cacheprovider", "hypothesispytest", "benchmark")
        command = [sys.executable, "-m", "pytest", "-x", "-q", *(f"-pno:{name}" for name in plugins), *entry["tests"]]
        try:
            done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"ERROR: its tests ran past {TIMEOUT_S} s"
    if done.returncode == 1:  # pytest: some test failed
        return "killed"
    if done.returncode == 0:
        return "SURVIVED"
    return f"ERROR: pytest exited {done.returncode}\n{(done.stdout + done.stderr).strip()}"


def main(argv: list[str]) -> int:
    data = Path(argv[0]) if argv else ROOT / "tests" / "mutants.json"
    entries = json.loads(data.read_text(encoding="utf-8"))
    killed = 0
    for entry in entries:
        start = time.perf_counter()
        outcome = run_mutant(entry)
        killed += outcome == "killed"
        print(f"{entry['id']} ({time.perf_counter() - start:.1f} s): {outcome}", flush=True)
    print(f"{killed} of {len(entries)} mutants killed")
    return 0 if killed == len(entries) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
