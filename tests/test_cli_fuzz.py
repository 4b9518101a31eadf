"""Seeded mutation fuzzing of the CLI's input contract.

Well-formed ``normalize``, ``equiv`` and ``apply`` requests on every
instance have one to three characters of their text arguments deleted,
inserted or replaced.  Each request must exit 0, 1 or 2; on exit 0 it
prints JSON and nothing on stderr, otherwise exactly one ``syntax error:``
or ``domain error:`` line.  Time is not gated here: outputs too large to
print (ROADMAP item 7) are that item's concern.
"""

import contextlib
import io
import json
import random

import pytest

from pseudoquotients import cli

# per instance: pseudoquotients, then elements (an apply also takes frac(element, element))
REQUESTS = {
    "power-affine": (
        ["pq(12; 3*x^2)", "pq(2; 1*x^1)", "pq(-5; x)", "pq(0; x^0)"],
        ["2*x^3", "x", "5*x^2", "1*x^1"],
    ),
    "affine-lattice": (
        [
            "pq([5,0]; aff([[2,0],[0,1]],[1,0]))",
            "pq([7,1]; aff([[1,1],[0,3]],[0,-2]))",
            "pq([1,-2,3]; aff([[2,0,0],[0,1,0],[0,0,-1]],[0,4,0]))",
            "pq([ 4 ]; aff([[3]], [1]))",
        ],
        ["aff([[1,2],[0,1]],[3,0])", "aff([[2,0],[0,1]],[1,0])", "aff([[ -1 ]],[ 2 ])"],
    ),
    "dyadic-steps": (
        ["pq([3,1/2]; t^2 d^1)", "pq([3]; t^0 d^1)", "pq([]; d)", "pq([-1/2, 0, 2]; t)"],
        ["t^1 d^2", "d", "t", "t^-1 d^0"],
    ),
    "tower": (
        ["pq((2, 5); P1^1 P3^2 F^2)", "pq((1, 3); P1)", "pq((3, -4); F)"],
        ["F P1", "P2", "F", "P1^2 F^1"],
    ),
}
ALPHABET = "()[],;/*^- 0123456789xtdFPq٣\t "
PER_INSTANCE = 1000


def _mutated(rng, text):
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(chars) + 1)
        action = rng.random()
        if action < 0.35 and chars:
            del chars[min(i, len(chars) - 1)]
        elif action < 0.7 or not chars:
            chars.insert(i, rng.choice(ALPHABET))
        else:
            chars[min(i, len(chars) - 1)] = rng.choice(ALPHABET)
    text = "".join(chars)
    # argparse reads an argument that starts with "-" as an option
    return " " + text if text.startswith("-") else text


def requests(seed):
    rng = random.Random(seed)
    for instance, (pqs, elements) in REQUESTS.items():
        for _ in range(PER_INSTANCE):
            command = rng.choice(["normalize", "equiv", "apply", "apply"])
            if command == "normalize":
                texts = [rng.choice(pqs)]
            elif command == "equiv":
                texts = [rng.choice(pqs), rng.choice(pqs)]
            elif rng.random() < 0.5:
                texts = [rng.choice(elements), rng.choice(pqs)]
            else:
                texts = [f"frac({rng.choice(elements)}, {rng.choice(elements)})", rng.choice(pqs)]
            texts = [_mutated(rng, t) if rng.random() < 0.8 else t for t in texts]
            yield [command, "--instance", instance, *texts]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("seed", [24])
def test_mutated_requests_exit_cleanly_with_one_line_on_error(seed):
    codes = {0: 0, 1: 0, 2: 0}
    for argv in requests(seed):
        code, out, err = _run(argv)
        assert code in codes, argv
        codes[code] += 1
        if code == 0:
            assert err == "", argv
            json.loads(out)
        else:
            prefix = "syntax error: " if code == 2 else "domain error: "
            assert err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
            assert "Traceback" not in err and out == "", (argv, err)
    assert min(codes.values()) > 50, codes  # every outcome is reached
