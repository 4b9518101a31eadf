"""Record the verify-suite golden reports from the current package.

Run from the repository root at a commit whose reports are trusted::

    python3 perfbench/record_golden.py

It writes ``perfbench/golden_verify.json``: the JSON report of every
configuration and depth that the verify-suite workload checks.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pseudoquotients  # noqa: E402
from workloads import GOLDEN, verify_presentations  # noqa: E402

reports = {}
for key, presentation in verify_presentations(pseudoquotients, HERE.parent):
    report = pseudoquotients.verify(presentation)
    if not report.validated:
        sys.exit(f"{key}: report failed re-validation; not recording it")
    reports[key] = report.to_json()
GOLDEN.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
print(f"wrote {len(reports)} reports to {GOLDEN}")
