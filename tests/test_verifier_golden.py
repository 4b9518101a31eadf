"""Golden verifier reports: ``VerifyReport.to_json()`` for every preset and depth.

``golden_verify.json`` holds one report per case in :data:`CASES`: every
preset at depths 3-6 and
``fixtures/cancellation_fail.json`` at depths 2-6.  Re-record it with

    PYTHONPATH=<src of the commit to record> python tests/test_verifier_golden.py

which builds every case from the repository root and rewrites the file.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_verify.json"
FIXTURE = ROOT / "fixtures" / "cancellation_fail.json"

DEPTHS = {
    "power-affine": range(3, 7),
    "affine-lattice": range(3, 7),
    "affine-lattice-2d": range(3, 7),
    "dyadic-steps": range(3, 7),
    "tower": range(3, 7),
    "cancellation-fail": range(2, 7),
}

CASES = [f"{label}@{depth}" for label, depths in DEPTHS.items() for depth in depths]


def presentation(case):
    from pseudoquotients import preset, presentation_from_config

    label, depth = case.rsplit("@", 1)
    if label == "cancellation-fail":
        config = json.loads(FIXTURE.read_text())
        return presentation_from_config({**config, "max_depth": int(depth)})
    return preset(label, int(depth))


def record():
    from pseudoquotients import verify

    reports = {case: verify(presentation(case)).to_json() for case in CASES}
    GOLDEN.write_text(json.dumps(reports, indent=1) + "\n", encoding="utf-8")


def _golden():
    return json.loads(GOLDEN.read_text("utf-8"))


def test_golden_covers_every_case():
    assert list(_golden()) == CASES


@pytest.mark.parametrize("case", CASES)
def test_report_matches_golden(case):
    from pseudoquotients import verify

    report = verify(presentation(case))
    assert report.validated
    assert report.to_json() == _golden()[case]


if __name__ == "__main__":
    sys.exit(record())
