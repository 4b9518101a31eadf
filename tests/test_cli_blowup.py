"""Blow-up tokens in CLI requests.

Each in-process ``cli.main`` request below holds, in an argument, one
token of a kind that invites outsized work: a number of 4,301-20,000
digits (past CPython's int-to-str limit), an exponent of at least 10**8,
20,000 nested brackets or parentheses, ``frac(...)`` inside ``pq(...)``,
or a word of 20,000 letters.  Each request must exit 0, 1 or 2; on exit 0
it prints JSON and nothing on stderr, otherwise exactly one
``syntax error:`` or ``domain error:`` line and no traceback; and it
must finish within 2 s.  Affine maps stay at most 3-D, since a 300-D
identity map takes seconds to read on its 180 KB of text.
"""

import contextlib
import io
import json
import random
import time

import pytest

from pseudoquotients import cli

SECONDS = 2.0
DEPTH = WORD = 20_000

# per instance: each request as (command, *texts), and the letters of its words
REQUESTS = {
    "power-affine": (
        [
            ("normalize", "pq({digits}; 3*x^2)"),
            ("normalize", "pq(12; {digits}*x^2)"),
            ("normalize", "pq(12; 3*x^{exponent})"),
            ("equiv", "pq(12; 3*x^2)", "pq(-{digits}; 1*x^1)"),
            ("apply", "2*x^{exponent}", "pq(12; 3*x^2)"),
            ("apply", "frac(x, {digits}*x^1)", "pq(5; x)"),
            ("normalize", "pq({parens}; x)"),
            ("normalize", "pq(12; {brackets})"),
            ("normalize", "pq(frac(2*x^1, x); x)"),
            ("apply", "x", "pq(frac(x, x); x)"),
            ("normalize", "pq(12; {word})"),
        ],
        ("x",),
    ),
    "affine-lattice": (
        [
            ("normalize", "pq([{digits}]; aff([[2]],[0]))"),
            ("normalize", "pq([1,2]; aff([[-{digits},0],[0,1]],[0,0]))"),
            (
                "equiv",
                "pq([1,2,3]; aff([[1,0,0],[0,{digits},0],[0,0,1]],[0,0,0]))",
                "pq([1,2,3]; aff([[1,0,0],[0,1,0],[0,0,1]],[0,0,0]))",
            ),
            ("normalize", "pq([1]; aff([[2^{exponent}]],[0]))"),
            ("apply", "frac(aff([[1]],[0]), aff([[2]],[{digits}]))", "pq([1]; aff([[1]],[0]))"),
            ("normalize", "pq({brackets}; aff([[1]],[0]))"),
            ("normalize", "pq([1]; aff({brackets},[0]))"),
            ("normalize", "pq([1]; frac(aff([[1]],[0]), aff([[2]],[0])))"),
            ("apply", "aff([[1]],[0])", "pq(frac(aff([[1]],[0]), aff([[2]],[0])); aff([[1]],[0]))"),
            ("normalize", "pq([1]; {word})"),
        ],
        ("aff",),
    ),
    "dyadic-steps": (
        [
            ("normalize", "pq([{digits}/3, 1]; t)"),
            ("normalize", "pq([1/{digits}]; d)"),
            ("normalize", "pq([1]; t^{exponent} d^1)"),
            ("normalize", "pq([1]; d^{exponent})"),
            ("apply", "d^{exponent}", "pq([1]; t)"),
            ("equiv", "pq([1]; t^{digits})", "pq([1]; t)"),
            ("normalize", "pq({brackets}; t)"),
            ("normalize", "pq([1]; {parens})"),
            ("normalize", "pq(frac(t, d); t)"),
            ("normalize", "pq([1]; {word})"),
            ("apply", "{word}", "pq([1,2]; t)"),
        ],
        ("t", "d"),
    ),
    "tower": (
        [
            ("normalize", "pq(({digits}, 5); P1)"),
            ("normalize", "pq((2, -{digits}); P1)"),
            ("normalize", "pq((2, 5); P{digits})"),
            ("normalize", "pq((2, 5); P1^{exponent})"),
            ("apply", "F^{exponent}", "pq((2, 5); P1)"),
            ("equiv", "pq((2, 5); F^{exponent} P3^{exponent})", "pq((1, 3); P1)"),
            ("normalize", "pq({parens}; P1)"),
            ("normalize", "pq((2, 5); {brackets})"),
            ("normalize", "pq(frac(F, P1); P1)"),
            ("apply", "F", "pq((2, 5); frac(F, P1))"),
            ("normalize", "pq((2, 5); {word})"),
            ("apply", "{word}", "pq((2, 5); P1)"),
        ],
        ("F", "P1", "P2", "P7"),
    ),
}


def tokens(rng, letters):
    digits = str(rng.randint(1, 9)) + "".join(rng.choices("0123456789", k=rng.randint(4300, 19_999)))
    return {
        "digits": digits,
        "exponent": str(rng.randint(10**8, 10**12)),
        "brackets": "[" * DEPTH + "1" + "]" * DEPTH,
        "parens": "(" * DEPTH + "1" + ")" * DEPTH,
        "word": " ".join(rng.choices(letters, k=WORD)),
    }


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


@pytest.mark.parametrize("instance", sorted(REQUESTS))
def test_blow_up_tokens_end_cleanly_and_fast(instance):
    rng = random.Random(35)
    templates, letters = REQUESTS[instance]
    for command, *texts in templates:
        fields = tokens(rng, letters)
        argv = [command, "--instance", instance, *(text.format(**fields) for text in texts)]
        shown = [command, *texts]
        code, out, err, seconds = _run(argv)
        assert code in (0, 1, 2), (shown, code)
        if code == 0:
            assert err == "", shown
            json.loads(out)
        else:
            prefix = "syntax error: " if code == 2 else "domain error: "
            assert err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n"), (shown, err[:200])
            assert out == "", shown
        assert "Traceback" not in err, shown
        assert seconds < SECONDS, (shown, seconds)
