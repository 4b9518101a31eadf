"""The compiled list readers of ``syntax`` against the scanner they fall back to.

``read_int_list``, ``read_int_lists`` and ``read_rational_list`` accept a
well-formed list with one pattern; the scanner (``parse_bracketed`` with
``parse_int`` or ``parse_rational``) is the reference.  On every input
both give an equal value, or raise the same exception type and message.
"""

import random
import time
from fractions import Fraction

import pytest

from pseudoquotients.syntax import (
    parse_bracketed,
    parse_int,
    parse_rational,
    read_int_list,
    read_int_lists,
    read_rational_list,
)


def scan_int_list(text, offset):
    return tuple(parse_int(e, e_start) for e, e_start in parse_bracketed(text, offset))


def scan_int_lists(text, offset):
    return tuple(scan_int_list(row, row_start) for row, row_start in parse_bracketed(text, offset))


def scan_rational_list(text, offset):
    return tuple(parse_rational(e, e_start) for e, e_start in parse_bracketed(text, offset))


PAIRS = {
    "int_list": (read_int_list, scan_int_list),
    "int_lists": (read_int_lists, scan_int_lists),
    "rational_list": (read_rational_list, scan_rational_list),
}

LONG = "7" * 4301  # one digit over CPython's default int <-> str limit

FIXED = [
    "[]", "[ ]", "[\t]", " [ ] ", "[1,]", "[,1]", "[,]", "[1,,2]",
    "[1, 2)", "(1, 2]", "[1, 2", "1, 2]", "[[1, 2], [3]]", "[[1,2],[3,4]]", "[[]]", "[[], []]",
    "[[1], 2]", "[1, [2]]", "[[1], [2]", "[[1]]]", "[[1]]", "[ [ -5 , 5 ] , [ 3 ] ]",
    "[-0]", "[+1]", "[- 1]", "[1_000]", "[٣]", "[３]", "[1, ٣]", "[ 1 ,\t2\n]",
    "[1 2]", "[--1]", "[1-]", "[1/0]", "[1/2, 3]", "[1 / 2]", "[1/ 2]", "[1 /2]", "[-1/2]",
    "[1/-2]", "[1/]", "[/2]", "[1/2/3]", "[0/5]", "[-0/1]", "[2/4]", "[1/0, x]", "[x, 1/0]",
    f"[{LONG}]", f"[1, {LONG}]", f"[{LONG}, x]", f"[x, {LONG}]", f"[1/{LONG}]", f"[{LONG}/0]",
    f"[[{LONG}]]", "", " ", "[", "]", "x", "[x]", "[1.5]", "[1e3]", "[0x10]",
]

TOKENS = [
    "0", "1", "-1", "-0", "+1", "- 1", "12", "007", "1_000", "٣", "３", "1/2", "-3/4", "1/0",
    "2 / 3", "1/-2", LONG, "x", "", "1.5",
]
SPACES = ["", "", " ", "\t", " ", "  ", "\n"]


def _list(rng, depth):
    entries = []
    for _ in range(rng.randint(0, 3)):
        if depth and rng.random() < 0.6:
            entry = _list(rng, depth - 1)
        else:
            entry = rng.choice(TOKENS)
        entries.append(rng.choice(SPACES) + entry + rng.choice(SPACES))
    separator = rng.choice([",", ",", ",", ", ", ",,", ";"])
    opening, closing = rng.choice([("[", "]")] * 8 + [("[", ")"), ("(", "]"), ("[", ""), ("", "]")])
    return rng.choice(SPACES) + opening + separator.join(entries) + closing + rng.choice(SPACES)


def _mutated(rng, text):
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(chars))
        action = rng.random()
        if action < 0.4 and chars:
            del chars[min(i, len(chars) - 1)]
        elif action < 0.8:
            chars.insert(i, rng.choice("[],/- 0123456789\t ٣x"))
        elif chars:
            chars[min(i, len(chars) - 1)] = rng.choice("[](),/-19 ")
    return "".join(chars)


def corpus(seed, count):
    rng = random.Random(seed)
    texts = list(FIXED)
    while len(texts) < count:
        text = _list(rng, rng.choice([0, 0, 1, 2]))
        texts.append(_mutated(rng, text) if rng.random() < 0.3 else text)
    return texts


def outcome(read, text, offset):
    try:
        return "value", read(text, offset)
    except Exception as error:  # the type and message are what is compared
        return type(error), str(error)


@pytest.mark.parametrize("kind", PAIRS)
def test_readers_equal_the_scanner(kind):
    read, scan = PAIRS[kind]
    values = 0
    for i, text in enumerate(corpus(seed=24, count=3000)):
        offset = i % 7
        expected = outcome(scan, text, offset)
        assert outcome(read, text, offset) == expected, repr(text)
        values += expected[0] == "value"
    assert values > 100  # the corpus reaches the pattern's path, not only the errors


def test_the_patterns_accept_the_forms_the_instances_print():
    assert read_int_list(" [ -5 , 0 , 12 ] ", 0) == (-5, 0, 12)
    assert read_int_lists("[[2,0],[0,1]]", 0) == ((2, 0), (0, 1))
    assert read_rational_list("[3, 1 / 2, -4/6]", 0) == (3, Fraction(1, 2), Fraction(-2, 3))


def test_a_refused_text_is_read_in_linear_time():
    # no two \s* meet in a pattern; with "\s*(?:/\s*[0-9]+)?\s*" the rational
    # pattern backtracks quadratically: about 10 s on this text (CPython 3.11, 2-core VM)
    spaces = " " * 20_000
    for read in (read_int_list, read_int_lists, read_rational_list):
        start = time.perf_counter()
        with pytest.raises(ValueError):
            read(f"[1{spaces}1{spaces}x]", 0)
        assert time.perf_counter() - start < 1.0, read.__name__
