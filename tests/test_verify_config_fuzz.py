"""Seeded fuzzing of ``verify --config``: mutated fixtures and random configs.

Each config is written to a file and run through an in-process
``cli.main(["verify", "--config", path])``.  The configs are the bytes of
``fixtures/*.json`` with one to three bytes deleted, inserted or replaced
(invalid UTF-8 included), the parsed fixtures with one value swapped for
one from a pool of wrong values, random integer-domain and preset
configs, and a few blow-ups: deep nesting and a number of 5,000 digits.
Every run must exit 0 to 3: on 0 or 3 it prints a validated JSON report
and nothing on stderr, otherwise exactly one ``domain error:`` line and
no traceback.

A config whose ``max_depth`` is an integer above 5 is not run: the cost of
a deep search grows with the depth, and its memory budget has its own test
(``test_verifier.py``) and CI step.
"""

import contextlib
import io
import json
import random
from pathlib import Path

import pytest

from pseudoquotients import PRESET_NAMES, cli

FIXTURES = sorted((Path(__file__).resolve().parent.parent / "fixtures").glob("*.json"))
BYTES = b'{}[],:"-+.0123456789eE \t\ntrufalsnNIdomainpresetgeratorsmulddevnodx\xff\xc3\xa9'
WRONG = [None, True, False, 0, -1, 2, 1.5, -(2**70), 10**40, "", "x", "tower", [], [1, "a"], {}, {"mul": 2}]
MAX_DEPTH = 5


def mutated_bytes(rng, data: bytes) -> bytes:
    data = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(data) + 1)
        action = rng.random()
        if action < 0.35 and data:
            del data[min(i, len(data) - 1)]
        elif action < 0.7 or not data:
            data.insert(i, rng.choice(BYTES))
        else:
            data[min(i, len(data) - 1)] = rng.choice(BYTES)
    return bytes(data)


def paths(value, prefix=()):
    """The path of every value inside a parsed JSON value, the value itself first."""
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from paths(item, (*prefix, key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from paths(item, (*prefix, index))


def swapped(rng, config):
    """``config`` with one value, or the whole of it, replaced by a wrong one, or one key dropped."""
    config = json.loads(json.dumps(config))
    path = rng.choice(list(paths(config)))
    if not path:
        return rng.choice(WRONG)
    *parents, last = path
    holder = config
    for step in parents:
        holder = holder[step]
    if isinstance(holder, dict) and rng.random() < 0.25:
        del holder[last]
    else:
        holder[last] = rng.choice(WRONG)
    return config


def int_rule(rng) -> dict:
    rule = {}
    if rng.random() < 0.8:
        rule["mul"] = rng.randint(-3, 3)
    if rng.random() < 0.8:
        rule["add"] = rng.randint(-3, 3)
    return rule


def random_config(rng) -> dict:
    if rng.random() < 0.25:
        config = {"preset": rng.choice([*PRESET_NAMES, "bogus"]), "max_depth": rng.randint(0, 3)}
        if config["preset"] == "tower" and rng.random() < 0.6:
            keys = ("ascend_add", "squeeze_mul", "squeeze_const", "squeeze_level_coeff")
            config["tower"] = {key: rng.randint(-3, 3) for key in keys if rng.random() < 0.6}
        return config
    generators = []
    for index in range(rng.randint(1, 3)):
        generator = {"name": f"g{index % 2 if rng.random() < 0.1 else index}"}
        if rng.random() < 0.3:
            generator.update(even=int_rule(rng), odd=int_rule(rng))
        else:
            generator.update(int_rule(rng))
        generators.append(generator)
    config = {"domain": "int", "generators": generators,
              "samples": [rng.randint(-10, 10) for _ in range(rng.randint(1, 6))]}
    if rng.random() < 0.8:
        config["max_depth"] = rng.randint(0, MAX_DEPTH)
    if rng.random() < 0.3:
        config["label"] = rng.choice(["demo", "", 7])
    return config


def configs(seed):
    """``(source, bytes)`` of each config file to run."""
    rng = random.Random(seed)
    parsed = [(path.name, path.read_bytes()) for path in FIXTURES]
    for _ in range(400):
        name, data = rng.choice(parsed)
        yield f"bytes of {name}", mutated_bytes(rng, data)
    for _ in range(300):
        name, data = rng.choice(parsed)
        yield f"values of {name}", json.dumps(swapped(rng, json.loads(data))).encode()
    for _ in range(600):
        yield "random", json.dumps(random_config(rng)).encode()
    big = b"1" * 5000
    yield from (
        ("nested arrays", b"[" * 100_000),
        ("nested objects", b'{"a":' * 50_000),
        ("big sample", b'{"domain": "int", "generators": [{"name": "a"}], "samples": [%s, 2]}' % big),
        ("big depth", b'{"preset": "tower", "max_depth": %s}' % big),
        ("big rule", b'{"preset": "tower", "tower": {"squeeze_mul": %s}, "max_depth": 2}' % big),
    )


def too_deep(data: bytes) -> bool:
    try:
        config = json.loads(data)
    except (ValueError, RecursionError):
        return False
    depth = config.get("max_depth") if isinstance(config, dict) else None
    return type(depth) is int and depth > MAX_DEPTH


@pytest.mark.parametrize("seed", [29])
def test_fuzzed_configs_exit_cleanly_with_one_line_on_error(seed, tmp_path):
    path = tmp_path / "config.json"
    codes = {0: 0, 1: 0, 2: 0, 3: 0}
    for source, data in configs(seed):
        if too_deep(data):
            continue
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify", "--config", str(path)])
        context = (source, data, err.getvalue())
        assert code in codes, context
        codes[code] += 1
        if code in (0, 3):
            assert err.getvalue() == "", context
            assert json.loads(out.getvalue())["validated"] is True, context
        else:
            assert err.getvalue().startswith("domain error: "), context
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), context
            assert "Traceback" not in err.getvalue() and out.getvalue() == "", context
    # errors, passes and counterexamples are all reached; nothing here raises a usage error
    assert codes[2] == 0 and min(codes[0], codes[1], codes[3]) > 30, codes
