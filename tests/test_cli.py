"""Command-line interface: frozen outputs, exit codes, and round-tripping."""

import json
import time
from pathlib import Path

import pytest

from pseudoquotients import cli
from pseudoquotients.cli import main
from pseudoquotients.grammar import parse_element, parse_pq

FIXTURE = str(Path(__file__).resolve().parent.parent / "fixtures" / "cancellation_fail.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


def test_normalize_power_affine(capsys):
    code, payload = run_json(
        capsys, "normalize", "--instance", "power-affine", "pq(12; 3*x^2)"
    )
    assert code == 0
    assert payload == {
        "instance": "power-affine",
        "canonical": {"radicand": "4", "index": 2, "reduced": {"radicand": "2", "index": 1}},
    }


def test_normalize_affine(capsys):
    code, payload = run_json(
        capsys, "normalize", "--instance", "affine-lattice", "pq([5]; aff([[2]],[1]))"
    )
    assert code == 0
    assert payload["canonical"] == {"vector": ["2"]}


def test_normalize_dyadic(capsys):
    code, payload = run_json(
        capsys, "normalize", "--instance", "dyadic-steps", "pq([3]; t^0 d^1)"
    )
    assert code == 0
    assert payload["canonical"] == {"scale": 1, "start": 0, "values": ["6"]}


def test_equiv_power_affine(capsys):
    code, payload = run_json(
        capsys, "equiv", "--instance", "power-affine", "pq(12; 3*x^2)", "pq(2; 1*x^1)"
    )
    assert code == 0
    assert payload["equivalent"] is True
    # the reported witness round-trips through the element parser and
    # satisfies its defining identity
    from pseudoquotients import PowerAffine, PowerAffineMap

    f_prime = parse_element("power-affine", payload["witness"]["f_prime"])
    g_prime = parse_element("power-affine", payload["witness"]["g_prime"])
    pa = PowerAffine()
    assert pa.compose(f_prime, PowerAffineMap(1, 1)) == pa.compose(g_prime, PowerAffineMap(3, 2))


def test_equiv_affine_negative(capsys):
    code, payload = run_json(
        capsys,
        "equiv",
        "--instance",
        "affine-lattice",
        "pq([5]; aff([[2]],[1]))",
        "pq([8]; aff([[3]],[1]))",
    )
    assert code == 0
    assert payload["equivalent"] is False


def test_apply_element(capsys):
    code, payload = run_json(
        capsys, "apply", "--instance", "power-affine", "2*x^1", "pq(12; 3*x^2)"
    )
    assert code == 0
    # 2 * sqrt(12/3) = 4
    assert payload["canonical"]["reduced"] == {"radicand": "4", "index": 1}
    assert parse_pq("power-affine", payload["result"])


def test_apply_fraction(capsys):
    code, payload = run_json(
        capsys, "apply", "--instance", "power-affine", "frac(2*x^1, 1*x^1)", "pq(5; 1*x^1)"
    )
    assert code == 0
    assert payload["canonical"]["reduced"] == {"radicand": "5/2", "index": 1}


def test_verify_preset_ok(capsys):
    code, payload = run_json(capsys, "verify", "dyadic-steps", "--depth", "4")
    assert code == 0
    assert payload["injectivity"]["status"] == "pass"
    assert payload["cancellation"]["status"] == "pass"
    assert payload["validated"] is True


def test_verify_fixture_exits_3(capsys):
    code, payload = run_json(capsys, "verify", "--config", FIXTURE)
    assert code == 3
    assert payload["cancellation"]["status"] == "fail"
    assert payload["validated"] is True


def test_syntax_error_exits_2(capsys):
    code, out, err = run(capsys, "normalize", "--instance", "power-affine", "pq(12: 3*x^2)")
    assert code == 2
    assert "syntax error" in err


def test_domain_error_exits_1(capsys):
    code, out, err = run(
        capsys, "normalize", "--instance", "affine-lattice", "pq([0,0]; aff([[1,0],[0,0]],[0,0]))"
    )
    assert code == 1
    assert "domain error" in err


def test_missing_config_exits_1(capsys):
    code, out, err = run(capsys, "verify", "--config", "/nonexistent.json")
    assert code == 1


def test_verify_requires_exactly_one_source(capsys):
    code, out, err = run(capsys, "verify")
    assert code == 1
    code, out, err = run(capsys, "verify", "tower", "--config", FIXTURE)
    assert code == 1


def test_text_output(capsys):
    code, out, err = run(
        capsys, "--output", "text", "normalize", "--instance", "power-affine", "pq(12; 3*x^2)"
    )
    assert code == 0
    assert "instance: power-affine" in out
    assert "radicand" in out
    # the flag is accepted after the subcommand as well
    code, out2, err = run(
        capsys, "normalize", "--instance", "power-affine", "pq(12; 3*x^2)", "--output", "text"
    )
    assert code == 0 and out2 == out


def test_console_entry_subprocess():
    import os
    import subprocess
    import sys

    # the child finds the package in this checkout, installed or not
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "pseudoquotients", "normalize", "--instance",
         "dyadic-steps", "pq([3]; t^0 d^1)"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert done.returncode == 0
    assert json.loads(done.stdout)["canonical"] == {"scale": 1, "start": 0, "values": ["6"]}
    failing = subprocess.run(
        [sys.executable, "-m", "pseudoquotients", "verify", "--config", FIXTURE],
        capture_output=True,
        text=True,
        env=env,
    )
    assert failing.returncode == 3


def test_mixed_dimensions_exit_1(capsys):
    code, out, err = run(
        capsys,
        "equiv",
        "--instance",
        "affine-lattice",
        "pq([5]; aff([[2]],[1]))",
        "pq([1,2]; aff([[1,0],[0,1]],[0,0]))",
    )
    assert code == 1


@pytest.mark.parametrize(
    "config, extra",
    [
        ({"domain": "int", "generators": [{"name": "g", "mul": "x"}], "samples": [1, 2]}, ()),
        ({"domain": "int", "generators": [{"name": "g", "add": "one"}], "samples": [1, 2]}, ()),
        ({"domain": "int", "generators": [{"name": "g", "mul": 2}], "samples": [1, "a"]}, ()),
        ({"domain": "int", "generators": [{"name": "g"}], "samples": [1, 2], "max_depth": "deep"}, ()),
        ({"preset": "tower", "tower": {"ascend_add": "x"}}, ()),
        ({"domain": "int", "generators": [{"name": "g", "even": 5, "odd": {}}], "samples": [1]}, ()),
        ([1, 2], ("--depth", "2")),
    ],
    ids=["mul", "add", "sample", "max_depth", "tower-rule", "parity-rule", "list-with-depth"],
)
def test_non_integer_config_values_exit_1(capsys, tmp_path, config, extra):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--config", str(path), *extra)
    assert (code, out) == (1, "")
    assert err.startswith("domain error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("normalize", "--instance", "tower", "pq((1,2); P1^20000)"),
        ("equiv", "--instance", "power-affine", "pq(12; 3*x^100000)", "pq(7; 2*x^3)"),
        ("normalize", "--instance", "tower", "pq((1,2); P1^1000000000000)"),
        ("normalize", "--instance", "power-affine", f"pq({'7' * 5000}; x)"),
    ],
    ids=["tower-payload", "power-affine-witness", "tower-squeeze-limit", "5000-digit-point"],
)
def test_numbers_too_large_to_print_or_parse_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("domain error:")
    assert "Traceback" not in err


def test_power_affine_powers_beyond_the_size_limit_exit_1(capsys):
    # the Ore witness would need 2^(10^12), a number of 10^12 bits
    start = time.perf_counter()
    code, out, err = run(
        capsys, "equiv", "--instance", "power-affine", "pq(2; 2*x^1)", "pq(2; 3*x^1000000000000)"
    )
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == "domain error: multiplier b^1000000000000 (b of 2 bits) has over 1048576 bits\n"


def test_misspelled_tower_rule_exits_1(capsys, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"preset": "tower", "tower": {"squeeze_mull": 3}}), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--config", str(path))
    assert (code, out) == (1, "")
    assert err == (
        "domain error: unknown tower rule 'squeeze_mull'; expected one of "
        "ascend_add, squeeze_mul, squeeze_const, squeeze_level_coeff\n"
    )


def test_other_value_errors_are_not_masked(capsys, monkeypatch):
    def broken(args):
        raise ValueError("not a digit limit")

    monkeypatch.setattr(cli, "_cmd_normalize", broken)
    with pytest.raises(ValueError, match="not a digit limit"):
        main(["normalize", "--instance", "tower", "pq((1,2); F)"])


def _int_config(**changes):
    config = {
        "domain": "int",
        "generators": [
            {"name": "a", "mul": 2},
            {"name": "b", "even": {"add": 1}, "odd": {"mul": 1}},
        ],
        "samples": [1, 2],
    }
    return {**config, **changes}


def _with_generator(entry):
    return _int_config(generators=[{"name": "a", "mul": 2}, entry])


# one config per level of the schema, each wrong in one place; the message
# names the offending key, or the level that is not a JSON object
BAD_CONFIGS = {
    "preset-key": (
        {"preset": "tower", "max_depth": 2, "label": "mine"}, "unknown config key 'label'"
    ),
    # the next two configs used to run and exit 0, the second with "a" as the identity
    "preset-rules-key": (
        {"preset": "power-affine", "tower": {"ascend_add": 2}, "label": "mine"},
        "unknown config key 'tower'; expected one of preset, max_depth\n",
    ),
    "int-key": (
        {"domain": "int", "generators": [{"name": "a", "mull": 2}, {"name": "b", "add": 1}],
         "samples": [1, 2], "max_dept": 2},
        "unknown config key 'max_dept'; expected one of "
        "preset, tower, domain, generators, samples, max_depth, label\n",
    ),
    "int-preset-key": (_int_config(tower={}), "unknown config key 'tower'"),
    "config-not-object": ([1, 2], "expected a JSON object of config keys, got list"),
    "generator-key": (_with_generator({"name": "g", "mull": 2}), "unknown generator key 'mull'"),
    "generator-mixed": (
        _with_generator({"name": "g", "mul": 2, "even": {}, "odd": {}}),
        "unknown parity generator key 'mul'",
    ),
    "generator-not-object": (
        _with_generator("g"), "expected a JSON object of generator keys, got str"
    ),
    "parity-rule-key": (
        _with_generator({"name": "g", "even": {"mul": 1, "ad": 1}, "odd": {}}),
        "unknown parity rule key 'ad'",
    ),
    "parity-rule-not-object": (
        _with_generator({"name": "g", "even": {}, "odd": [1]}),
        "expected a JSON object of parity rule keys, got list",
    ),
    # names and labels used to pass through str(): 1 and "1" collided as duplicates
    "generator-name-list": (
        _with_generator({"name": ["x"], "add": 1}),
        "generator name must be a JSON string, got ['x']",
    ),
    "generator-name-number": (
        _int_config(generators=[{"name": 1, "mul": 2}, {"name": "1", "add": 1}]),
        "generator name must be a JSON string, got 1\n",
    ),
    "label-object": (_int_config(label={"a": 1}), "label must be a JSON string, got {'a': 1}\n"),
    "tower-rule-key": (
        {"preset": "tower", "tower": {"squeeze": 3}}, "unknown tower rule 'squeeze'"
    ),
    "tower-rules-not-object": (
        {"preset": "tower", "tower": 5}, "expected a JSON object of tower rules, got int"
    ),
}


@pytest.mark.parametrize("config, message", BAD_CONFIGS.values(), ids=BAD_CONFIGS)
def test_config_keys_and_objects_are_checked_at_every_level(capsys, tmp_path, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--config", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"domain error: {message}")


@pytest.mark.parametrize(
    "argv",
    [
        ("apply", "--instance", "dyadic-steps", "t^1000000000", "pq([1]; t)"),
        ("equiv", "--instance", "dyadic-steps", "pq([1]; d^40000000 t)", "pq([1]; t)"),
        ("normalize", "--instance", "dyadic-steps", "pq([1]; d^10000000000)"),
        ("apply", "--instance", "dyadic-steps", "d^30", "pq([1]; t)"),
    ],
    ids=["shift-1e9", "refine-4e7-witness", "refine-1e10-canonical", "refine-30-image"],
)
def test_dyadic_size_limits_exit_1_as_a_subprocess(argv):
    import os
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "pseudoquotients", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=5,
    )
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("domain error:")
    assert "Traceback" not in done.stderr
