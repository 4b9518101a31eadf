"""Command-line interface: frozen outputs, exit codes, and round-tripping."""

import json
import time
from pathlib import Path

import pytest
from test_grammar import parse_element, parse_pq
from test_import_hygiene import PER_INSTANCE

from pseudoquotients import cli, create_instance
from pseudoquotients.cli import main
from pseudoquotients.verifier import PRESET_NAMES

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


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_a_preset_name_and_its_config_print_the_same_bytes(capsys, tmp_path, name):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"preset": name}), encoding="utf-8")
    by_name = run(capsys, "verify", name, "--depth", "2")
    by_config = run(capsys, "verify", "--config", str(path), "--depth", "2")
    assert by_name == by_config
    assert by_name[0] in (0, 3) and by_name[1]


def test_verify_fixture_exits_3(capsys):
    code, payload = run_json(capsys, "verify", "--config", FIXTURE)
    assert code == 3
    assert payload["cancellation"]["status"] == "fail"
    assert payload["validated"] is True


def test_syntax_error_exits_2(capsys):
    code, out, err = run(capsys, "normalize", "--instance", "power-affine", "pq(12: 3*x^2)")
    assert code == 2
    assert "syntax error" in err


NON_ASCII_DIGITS = {
    # Arabic-Indic and fullwidth digits are decimal digits to Python's int()
    "power-affine point": ("power-affine", "pq(\u0663; 2*x^1)"),
    "power-affine multiplier": ("power-affine", "pq(3; \u0662*x^1)"),
    "power-affine exponent": ("power-affine", "pq(3; 2*x^\u0661)"),
    "tower point": ("tower", "pq((\uff11, 2); P1^2 F)"),
    "tower level": ("tower", "pq((1, 2); P\uff11^2 F)"),
    "tower exponent": ("tower", "pq((1, 2); P1^\uff12 F)"),
    "affine point": ("affine-lattice", "pq([\u0663]; aff([[2]],[1]))"),
    "affine matrix": ("affine-lattice", "pq([3]; aff([[\u0662]],[1]))"),
    "dyadic numerator": ("dyadic-steps", "pq([\u0663/4]; t^1)"),
    "dyadic denominator": ("dyadic-steps", "pq([3/\u0664]; t^1)"),
    "dyadic exponent": ("dyadic-steps", "pq([3]; t^\u0662)"),
}


@pytest.mark.parametrize("name, text", NON_ASCII_DIGITS.values(), ids=NON_ASCII_DIGITS)
def test_numbers_take_ascii_digits_only(capsys, name, text):
    ascii_text = text.translate({0x0661: "1", 0x0662: "2", 0x0663: "3", 0x0664: "4",
                                 0xFF11: "1", 0xFF12: "2"})
    assert run(capsys, "normalize", "--instance", name, ascii_text)[0] == 0
    code, out, err = run(capsys, "normalize", "--instance", name, text)
    assert (code, out) == (2, "")
    assert err.startswith("syntax error: ") and err.count("\n") == 1


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


@pytest.mark.parametrize("name", PER_INSTANCE)
def test_a_plain_request_builds_its_instance_once(capsys, monkeypatch, name):
    cls = type(create_instance(name))
    create = cls.create
    builds = []
    monkeypatch.setattr(cls, "create", classmethod(lambda _, dim=1: builds.append(dim) or create(dim)))
    counts = []
    for command, *texts in PER_INSTANCE[name]:
        before = len(builds)
        assert run(capsys, command, "--instance", name, *texts)[0] == 0
        counts.append(len(builds) - before)
    # an affine request builds a second instance, of the dimension its maps carry
    assert counts == ([2, 2, 2] if name == "affine-lattice" else [1, 1, 1])


# perfbench/spans.py wraps these attributes of cli and reads the second
# argument of each parse function as the text parsed
TRACED = ("parse_pq", "parse_frac", "parse_element", "pq_text", "element_text", "canonical_json")


def test_main_reaches_the_traced_functions_through_the_cli_globals(capsys, monkeypatch):
    assert all(callable(getattr(cli, name)) for name in (*TRACED, "create_instance", "build_parser"))
    calls = []

    def counted(name):
        original = getattr(cli, name)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append((name, args, result))
            return result

        return wrapper

    for name in (*TRACED, "create_instance"):
        monkeypatch.setattr(cli, name, counted(name))
    texts = set()
    for name, requests in PER_INSTANCE.items():
        for command, *arguments in requests:
            texts.update(arguments)
            assert run(capsys, command, "--instance", name, *arguments)[0] == 0
    counts = {name: sum(called == name for called, _, _ in calls) for name in (*TRACED, "create_instance")}
    assert counts == {
        "parse_pq": 16,
        "parse_frac": 1,
        "parse_element": 3,
        "pq_text": 4,
        "element_text": 8,
        "canonical_json": 8,
        "create_instance": 15,
    }
    built = {id(result) for called, _, result in calls if called == "create_instance"}
    texts |= {text.strip() for text in texts}  # apply strips its map text
    for called, args, _ in calls:
        if called in TRACED:
            # the tracer shadows the hooks of each instance cli.create_instance returns
            assert len(args) == 2 and id(args[0]) in built, called
        if called.startswith("parse_"):
            assert args[1] in texts, called


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


# config files json.load cannot read; both used to escape as a traceback
UNREADABLE_CONFIGS = {
    "not-utf-8": (b"\xff\xfe{}", "config file is not UTF-8 text: invalid start byte at byte 0"),
    "nested-100000-deep": (b"[" * 100_000, "config file nests JSON arrays or objects too deeply"),
}


@pytest.mark.parametrize("content, message", UNREADABLE_CONFIGS.values(), ids=UNREADABLE_CONFIGS)
def test_unreadable_configs_exit_1(capsys, tmp_path, content, message):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    expected = (1, "", f"domain error: {message}\n")
    assert run(capsys, "verify", "--config", str(path)) == expected
    done = run_module("verify", "--config", str(path))
    assert (done.returncode, done.stdout, done.stderr) == expected


def count_parser_builds(capsys, monkeypatch, argv):
    """How many parsers 20 in-process runs of ``argv`` build, from a cleared cache."""
    builds = []
    original = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or original())
    cli._parser.cache_clear()
    try:
        for _ in range(20):
            assert run(capsys, *argv)[0] == 0
    finally:
        cli._parser.cache_clear()  # the next test builds from the real build_parser
    return len(builds)


def test_requests_in_one_process_build_the_parser_once(capsys, monkeypatch):
    # the "=" form is argparse's to read: _plain_args refuses it
    argv = ("normalize", "--instance=power-affine", "pq(12; 3*x^2)")
    assert cli._plain_args(argv) is None
    assert count_parser_builds(capsys, monkeypatch, argv) == 1


def test_plain_requests_build_no_parser(capsys, monkeypatch):
    argv = ("normalize", "--instance", "power-affine", "pq(12; 3*x^2)")
    assert cli._plain_args(argv) is not None
    assert count_parser_builds(capsys, monkeypatch, argv) == 0


def test_build_parser_returns_a_parser_main_does_not_share(capsys):
    argv = ("normalize", "--instance", "power-affine", "pq(12; 3*x^2)")
    before = run(capsys, *argv)
    parser = cli.build_parser()
    assert parser is not cli.build_parser() and parser is not cli._parser()
    parser.set_defaults(output="text")
    parser.prog = "changed"
    assert parser.parse_args(argv).output == "text"
    assert run(capsys, *argv) == before
    assert json.loads(before[1])["instance"] == "power-affine"
    with pytest.raises(SystemExit):
        main(["normalize", "--instance", "bogus", "pq(1; x)"])
    assert capsys.readouterr().err.startswith("usage: pseudoquotients normalize ")


VERIFY_HELP = """\
usage: pseudoquotients verify [-h] [--output {json,text}] [--config CONFIG]
                              [--depth DEPTH]
                              [{power-affine,affine-lattice,affine-lattice-2d,dyadic-steps,tower}]

positional arguments:
  {power-affine,affine-lattice,affine-lattice-2d,dyadic-steps,tower}
                        a built-in presentation

options:
  -h, --help            show this help message and exit
  --output {json,text}
  --config CONFIG       JSON presentation config file
  --depth DEPTH         word-length bound override
"""


def test_verify_choices_are_the_preset_names_defined_once(monkeypatch):
    from pseudoquotients import instances, verifier

    assert verifier.PRESET_NAMES is instances.PRESET_NAMES is PRESET_NAMES
    assert PRESET_NAMES == tuple(instances.PRESETS)
    commands = next(a for a in cli.build_parser()._actions if a.dest == "command")
    verify_parser = commands.choices["verify"]
    preset = next(a for a in verify_parser._actions if a.dest == "preset")
    assert tuple(preset.choices) == PRESET_NAMES
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    assert verify_parser.format_help() == VERIFY_HELP


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
    done = run_module(*argv)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("domain error:")
    assert "Traceback" not in done.stderr


def test_dyadic_images_past_the_cell_limit_are_compared_as_a_subprocess():
    # the witness images have 2^30 cells; no action writes them out
    argv = ("--output", "json", "equiv", "--instance", "dyadic-steps", "pq([1]; d^30 t)", "pq([1]; t)")
    done = run_module(*argv)
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["equivalent"] is False


def run_module(*argv):
    import os
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "pseudoquotients", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=5,
    )
