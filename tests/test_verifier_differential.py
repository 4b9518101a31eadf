"""Differential test: the interned verifier against the word-walking search it replaced.

The oracle below is the word-by-word search the verifier used before it
ran over interned points and word actions, copied unchanged.  Whole
reports must agree on seeded random integer-domain presentations, some of
which fail injectivity or right cancellation, and on the dyadic-steps
preset at depths 1-4.  The cancellation search is also compared on its
own on one sample and on repeated samples, which ``verify`` refuses, and
each cancellation base's first split, read off its union base's layers,
must equal the first split of the layers built on the base itself.
"""

import itertools
import random
from typing import Any

import pytest

from pseudoquotients import UsageError, preset, presentation_from_config, verifier
from pseudoquotients.verifier import (
    CancellationResult,
    InjectivityResult,
    OreSearchResult,
    Presentation,
    VerifyReport,
    Word,
    _revalidate,
)

# ----------------------------------------------------------------------
# the oracle: the word-walking search, verbatim
# ----------------------------------------------------------------------


class _Evaluator:
    """Memoized application of generator words to points."""

    def __init__(self, presentation: Presentation):
        self.actions = dict(presentation.generators)
        self.samples = presentation.sample_points
        self._memo: dict[tuple[str, Any], Any] = {}

    def step(self, name: str, point):
        key = (name, point)
        out = self._memo.get(key)
        if out is None:
            out = self.actions[name](point)
            self._memo[key] = out
        return out

    def word(self, word: Word, point):
        for name in reversed(word):  # rightmost letter acts first
            point = self.step(name, point)
        return point

    def on_points(self, word: Word, points) -> tuple:
        return tuple(self.word(word, p) for p in points)

    def signature(self, word: Word) -> tuple:
        return self.on_points(word, self.samples)


def _words_by_length(names: tuple[str, ...], max_depth: int) -> list[list[Word]]:
    table: list[list[Word]] = [[]]
    for length in range(1, max_depth + 1):
        table.append([tuple(w) for w in itertools.product(names, repeat=length)])
    return table


def verify_injectivity(presentation: Presentation) -> InjectivityResult:
    """Look for a word and two distinct samples it maps to the same point."""
    if len(set(presentation.sample_points)) < 2:
        raise UsageError("injectivity checking needs at least two distinct sample points")
    ev = _Evaluator(presentation)
    words = _words_by_length(presentation.names, presentation.max_depth)
    for length in range(1, presentation.max_depth + 1):
        for word in words[length]:
            images: dict[Any, Any] = {}
            for point in presentation.sample_points:
                image = ev.word(word, point)
                if image in images and images[image] != point:
                    return InjectivityResult(False, word, images[image], point)
                images.setdefault(image, point)
    return InjectivityResult(True)


def search_ore_witness(
    presentation: Presentation, f: Word, g: Word
) -> tuple[Word, Word] | None:
    """Find the first word pair ``(w1, w2)`` with ``w1 o g == w2 o f`` on the samples.

    Pairs are tried in order of total length, then length of ``w1``, then
    the declared generator order; ``None`` means no witness within the
    bound, which is a result rather than an error.
    """
    ev = _Evaluator(presentation)
    depth = presentation.max_depth
    words = _words_by_length(presentation.names, depth)
    base_f = ev.on_points(f, presentation.sample_points)
    base_g = ev.on_points(g, presentation.sample_points)
    # first w2 of each length for every achievable action on base_f
    first_by_sig: list[dict[tuple, Word] | None] = [None] * (depth + 1)
    for total in range(2, 2 * depth + 1):
        for len1 in range(max(1, total - depth), min(depth, total - 1) + 1):
            len2 = total - len1
            if first_by_sig[len2] is None:
                table: dict[tuple, Word] = {}
                for w2 in words[len2]:
                    table.setdefault(ev.on_points(w2, base_f), w2)
                first_by_sig[len2] = table
            for w1 in words[len1]:
                w2 = first_by_sig[len2].get(ev.on_points(w1, base_g))
                if w2 is not None:
                    return w1, w2
    return None


def verify_right_cancellation(presentation: Presentation) -> CancellationResult:
    """Look for words with ``f1 o g == f2 o g`` on samples while ``f1 != f2`` on them.

    The first counterexample in the order (total length, |f1|, |f2|, |g|,
    then word order) is returned; candidates whose sample actions already
    agree are skipped, since they are indistinguishable here anyway.
    """
    ev = _Evaluator(presentation)
    depth = presentation.max_depth
    words = _words_by_length(presentation.names, depth)
    rank: dict[Word, int] = {}
    for length in range(1, depth + 1):
        for i, w in enumerate(words[length]):
            rank[w] = i
    sample_sig = {w: ev.signature(w) for length in range(1, depth + 1) for w in words[length]}
    grouped: dict[tuple[Word, int], dict[tuple, list[Word]]] = {}

    def groups_for(g: Word, length: int) -> dict[tuple, list[Word]]:
        key = (g, length)
        table = grouped.get(key)
        if table is None:
            base = ev.on_points(g, presentation.sample_points)
            table = {}
            for w in words[length]:
                table.setdefault(ev.on_points(w, base), []).append(w)
            grouped[key] = table
        return table

    for total in range(3, 3 * depth + 1):
        for len1 in range(1, depth + 1):
            for len2 in range(1, depth + 1):
                len3 = total - len1 - len2
                if not 1 <= len3 <= depth:
                    continue
                candidates: list[tuple[int, int, int, Word, Word, Word]] = []
                for g in words[len3]:
                    base = ev.on_points(g, presentation.sample_points)
                    table = groups_for(g, len2)
                    hit = None
                    for f1 in words[len1]:
                        for f2 in table.get(ev.on_points(f1, base), ()):
                            if sample_sig[f1] != sample_sig[f2]:
                                hit = (rank[f1], rank[f2], rank[g], f1, f2, g)
                                break
                        if hit:
                            break
                    if hit:
                        candidates.append(hit)
                if candidates:
                    _, _, _, f1, f2, g = min(candidates)
                    return CancellationResult(False, f1, f2, g)
    return CancellationResult(True)


def oracle_verify(presentation: Presentation) -> VerifyReport:
    """``verify`` as it was, over the oracle's phases."""
    injectivity = verify_injectivity(presentation)
    names = presentation.names
    ore = []
    for i, f_name in enumerate(names):
        for g_name in names[i + 1 :]:
            f, g = (f_name,), (g_name,)
            found = search_ore_witness(presentation, f, g)
            if found is None:
                ore.append(OreSearchResult(f, g, None, None))
            else:
                ore.append(OreSearchResult(f, g, found[0], found[1]))
    cancellation = verify_right_cancellation(presentation)
    validated = _revalidate(presentation, injectivity, ore, cancellation)
    text = presentation.point_text
    return VerifyReport(
        label=presentation.label,
        depth_used=presentation.max_depth,
        injectivity=injectivity,
        ore=tuple(ore),
        cancellation=cancellation,
        samples_text=tuple(text(p) for p in presentation.sample_points),
        validated=validated,
        injectivity_text=() if injectivity.ok else (text(injectivity.left), text(injectivity.right)),
    )


# ----------------------------------------------------------------------
# random integer-domain presentations
# ----------------------------------------------------------------------

CASES = 200


def random_rule(rng: random.Random) -> dict:
    return {"mul": rng.choice((-2, -1, 0, 1, 1, 2, 2, 3)), "add": rng.randint(-3, 3)}


def random_config(seed: int) -> dict:
    rng = random.Random(seed)
    generators = []
    for k in range(rng.choice((2, 2, 3))):
        if rng.random() < 0.3:
            entry = {"even": random_rule(rng), "odd": random_rule(rng)}
        else:
            entry = random_rule(rng)
        generators.append({"name": "abc"[k], **entry})
    samples = rng.sample(range(-5, 6), rng.randint(2, 5))
    return {
        "domain": "int",
        "generators": generators,
        "samples": samples,
        "max_depth": rng.choice((2, 3, 4)),
    }


@pytest.mark.parametrize("seed", range(CASES))
def test_reports_match_the_word_walking_search(seed):
    presentation = presentation_from_config(random_config(seed))
    report = verifier.verify(presentation)
    assert report.to_json() == oracle_verify(presentation).to_json()
    assert report.validated
    # the Ore search on its own, for words longer than one letter
    rng = random.Random(seed)
    f, g = (tuple(rng.choices(presentation.names, k=rng.randint(1, 3))) for _ in range(2))
    assert verifier.search_ore_witness(presentation, f, g) == search_ore_witness(presentation, f, g)


@pytest.mark.parametrize("depth", range(1, 5))
def test_dyadic_preset_matches_the_word_walking_search(depth):
    # step functions held as integers over one denominator, against the same oracle
    presentation = preset("dyadic-steps", depth)
    report = verifier.verify(presentation)
    assert report.to_json() == oracle_verify(presentation).to_json()
    assert report.validated


def test_the_cases_cover_both_outcomes():
    reports = [
        verifier.verify(presentation_from_config(random_config(seed))).to_json()
        for seed in range(CASES)
    ]
    statuses = [(r["injectivity"]["status"], r["cancellation"]["status"]) for r in reports]
    assert ("fail", "pass") in statuses or ("fail", "fail") in statuses
    assert ("pass", "fail") in statuses
    assert ("pass", "pass") in statuses
    assert any("status" in entry for r in reports for entry in r["ore"])  # an Ore search that fails


# ----------------------------------------------------------------------
# the cancellation search over union bases
# ----------------------------------------------------------------------


def _with_samples(seed: int, samples) -> Presentation:
    """The generators of ``random_config(seed)`` on other samples, which ``verify`` may refuse."""
    presentation = presentation_from_config(random_config(seed))
    return Presentation(presentation.generators, tuple(samples), presentation.max_depth)


@pytest.mark.parametrize("seed", range(40))
def test_cancellation_matches_on_one_sample(seed):
    # one sample: each base's tail is one point, read through a one-index itemgetter
    presentation = _with_samples(seed, [random.Random(seed).randint(-5, 5)])
    result = verifier.verify_right_cancellation(presentation)
    assert result == verify_right_cancellation(presentation)


@pytest.mark.parametrize("seed", range(40))
def test_cancellation_matches_on_repeated_samples(seed):
    rng = random.Random(seed)
    samples = rng.sample(range(-5, 6), rng.randint(1, 3))
    samples += rng.choices(samples, k=rng.randint(1, 3))
    rng.shuffle(samples)
    presentation = _with_samples(seed, samples)
    result = verifier.verify_right_cancellation(presentation)
    assert result == verify_right_cancellation(presentation)


def test_one_and_repeated_samples_cover_both_outcomes():
    outcomes = {
        verifier.verify_right_cancellation(_with_samples(seed, samples)).ok
        for seed in range(40)
        for samples in ([seed % 11 - 5], [1, 1], [0, 2, 0])
    }
    assert outcomes == {True, False}


# each of these has a length of g whose bases are partly split-free, partly split
MIXED_SEEDS = (0, 3, 4, 5, 6, 15)


@pytest.mark.parametrize("seed", MIXED_SEEDS)
def test_cancellation_matches_with_split_and_split_free_bases_of_one_length(seed, monkeypatch):
    made = []

    class Recording(verifier._Bases):
        def __init__(self, search, length):
            super().__init__(search, length)
            made.append(self)

    monkeypatch.setattr(verifier, "_Bases", Recording)
    presentation = presentation_from_config(random_config(seed))
    result = verifier.verify_right_cancellation(presentation)
    assert any(any(b.split) and not all(b.split) for b in made)
    assert result == verify_right_cancellation(presentation)


def _direct_split(search, base, n: int, len1: int, len2: int):
    """The first ``(f1, f2)`` agreeing only past the first ``n`` ids of layers built on ``base``."""
    by_tail: dict[tuple, list] = {}
    for action, word in search.layer(base, len2).items():
        by_tail.setdefault(action[n:], []).append((action[:n], word))
    for action, f1 in search.layer(base, len1).items():
        for head, f2 in by_tail.get(action[n:], ()):
            if head != action[:n]:
                return f1, f2
    return None


LAYER_CASES = [
    *(preset(label, depth) for label, depth in (("tower", 4), ("dyadic-steps", 3))),
    *(preset(label, 3) for label in ("power-affine", "affine-lattice", "affine-lattice-2d")),
    *(presentation_from_config(random_config(seed)) for seed in range(12)),
    # with one sample a base sees fewer points than its union, so union classes merge
    *(_with_samples(seed, [seed % 11 - 5]) for seed in range(12)),
]


@pytest.mark.parametrize("index", range(len(LAYER_CASES)))
def test_projected_layers_equal_direct_layers(index):
    # each base's first split, read off its union layers through the base's
    # positions, against the split of the layers built on the base itself
    presentation = LAYER_CASES[index]
    depth = presentation.max_depth
    search, direct = verifier._Search(presentation), verifier._Search(presentation)
    n = len(search.samples)
    for len3 in range(1, depth + 1):
        bases = verifier._Bases(search, len3)
        for i, image in enumerate(bases.words):
            points = [search._points[p] for p in search.samples + image]
            base = tuple(map(direct._intern, points))
            for len1, len2 in itertools.product(range(1, depth + 1), repeat=2):
                split = bases._first_split(i, len1, len2)
                assert split == _direct_split(direct, base, n, len1, len2)
