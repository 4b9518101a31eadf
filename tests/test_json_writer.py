"""``cli``'s one-pass JSON writer against ``json.dumps(value, indent=2)``, its reference."""

import json
from pathlib import Path

import pytest

from pseudoquotients.cli import _json_text

ROOT = Path(__file__).resolve().parent.parent


def _payloads():
    for entry in json.loads((ROOT / "tests" / "golden_cli.json").read_text()):
        if entry["stdout"].startswith("{"):  # JSON output; text output is printed per key
            yield json.loads(entry["stdout"])
    yield from json.loads((ROOT / "perfbench" / "golden_verify.json").read_text()).values()


EDGES = [
    {}, [], (), {"a": {}}, {"a": []}, [[], {}], {"a": {"b": [[], [{}]]}}, [[[]]],
    "", "plain", 'quote " and backslash \\', "control \x00\x01\x1f\x7f\n\t\r\b\f",
    "non-ASCII é ж ٣ ３     😀", {'key "quoted" \\ é\n': "value"},
    True, False, None, [True, False, None], {"t": True, "f": False, "n": None},
    0, -1, -(10**40), 10**40, [0, -7, 12], (1, (2, [3])), {"nested": (4, 5)},
    1.5, -0.0, float("inf"), float("nan"), [1e300, 2.5],
]


def test_cli_payloads_and_verify_reports_print_the_reference_bytes():
    payloads = list(_payloads())
    assert len(payloads) > 40
    for payload in payloads:
        assert _json_text(payload) == json.dumps(payload, indent=2)


@pytest.mark.parametrize("value", EDGES, ids=repr)
def test_edge_values_print_the_reference_bytes(value):
    assert _json_text(value) == json.dumps(value, indent=2)


def test_an_int_over_the_digit_limit_raises_the_reference_error():
    value = {"scale": [1, 10**5000]}
    with pytest.raises(ValueError) as reference:
        json.dumps(value, indent=2)
    with pytest.raises(ValueError) as written:
        _json_text(value)
    assert str(written.value) == str(reference.value)
    assert "integer string conversion" in str(written.value)


def test_an_unserializable_value_raises_the_reference_error():
    value = {"a": [object()]}
    with pytest.raises(TypeError) as reference:
        json.dumps(value, indent=2)
    with pytest.raises(TypeError) as written:
        _json_text(value)
    assert str(written.value) == str(reference.value)
