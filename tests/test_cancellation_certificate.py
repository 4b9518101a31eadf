"""Right cancellation by certificate, against the search it skips.

``verify`` reports right cancellation as passed, without searching, when a
presentation's ``determines`` holds on its samples: two words that agree
on a determining set are one map, and every element maps a determining set
to one, so ``f1 o g == f2 o g`` on the samples forces ``f1 == f2``.

* On every preset whose samples determine, at depths 1-6, and on seeded
  random affine presentations in 1-3 D at depths 3-5, the search passes
  too, and ``verify`` gives the report of the same presentation rebuilt
  with ``determines=None``, which searches.
* Each override of ``Instance.determines`` agrees with an oracle on seeded
  random point sets, collinear, repeated, single and zero points included
  (a ``Fraction`` elimination rank for affine maps, a count of distinct
  points for power-affine, a nonzero L1 norm and the images under a grid
  of maps for dyadic-steps), and keeps its answer under every element
  drawn, the hook's second obligation.
* Every other presentation still runs the search, and its report is the
  committed one.
"""

import dataclasses
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from pseudoquotients import (
    AffineLattice,
    DyadicStepMap,
    DyadicSteps,
    PowerAffine,
    StepFunction,
    preset,
    presentation_from_config,
    verifier,
)
from pseudoquotients.core import Preset
from pseudoquotients.instances import PRESETS
from pseudoquotients.verifier import (
    CancellationResult,
    Presentation,
    presentation_from_preset,
    verify,
    verify_right_cancellation,
)

TESTS = Path(__file__).resolve().parent
FIXTURES = TESTS.parent / "fixtures"


def searched(p: Presentation) -> Presentation:
    """``p`` rebuilt through its constructor with ``determines=None``, so ``verify`` searches."""
    return Presentation(p.generators, p.sample_points, p.max_depth, p.label, p.point_text)


@pytest.fixture
def searches(monkeypatch):
    """The presentations ``verify`` hands to the cancellation search, in call order."""
    calls = []
    search = verifier.verify_right_cancellation

    def counting(presentation, **kwargs):
        calls.append(presentation)
        return search(presentation, **kwargs)

    monkeypatch.setattr(verifier, "verify_right_cancellation", counting)
    return calls


def affine_rank(points) -> int:
    """The rank of the differences from the first point, by ``Fraction`` elimination."""
    rows = [[Fraction(a - b) for a, b in zip(p, points[0])] for p in points[1:]]
    rank = 0
    for col in range(len(points[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r, row in enumerate(rows):
            if r != rank and row[col]:
                factor = row[col] / rows[rank][col]
                rows[r] = [a - factor * b for a, b in zip(row, rows[rank])]
        rank += 1
    return rank


# ----------------------------------------------------------------------
# the certificate against the search
# ----------------------------------------------------------------------

CERTIFIED = [
    (name, depth)
    for name in ("power-affine", "affine-lattice", "affine-lattice-2d", "dyadic-steps")
    for depth in range(1, 7)
]


def _same_report_without_the_search(p: Presentation, searches: list):
    assert p.determines(p.sample_points) is True
    assert verify_right_cancellation(p) == CancellationResult(True)
    searches.clear()
    certified = verify(p)
    assert searches == []
    assert certified.to_json() == verify(searched(p)).to_json()
    assert len(searches) == 1


@pytest.mark.parametrize("name, depth", CERTIFIED, ids=[f"{n}@{d}" for n, d in CERTIFIED])
def test_a_certified_preset_passes_the_search_and_reports_as_it(name, depth, searches):
    _same_report_without_the_search(preset(name, depth), searches)


@pytest.mark.parametrize("seed", range(12))
def test_a_random_affine_presentation_passes_the_search_and_reports_as_it(seed, searches):
    rng = random.Random(seed)
    dim, depth = 1 + seed % 3, 3 + seed // 3 % 3
    instance = AffineLattice(dim)
    generators = tuple((name, instance.random_element(rng)) for name in "abc"[: rng.randint(2, 3)])
    while True:  # samples that hold dim + 1 affinely independent points
        samples = tuple(instance.random_point(rng) for _ in range(rng.randint(dim + 1, dim + 3)))
        if affine_rank(samples) == dim:
            break
    p = presentation_from_preset(Preset(instance, generators, samples, depth), f"random-{seed}")
    _same_report_without_the_search(p, searches)


# ----------------------------------------------------------------------
# the hook against its oracle
# ----------------------------------------------------------------------


def affine_point_sets(rng, instance, count):
    """Random point sets: general, repeated, collinear and single."""
    dim = instance.dim
    for i in range(count):
        kind = ("general", "repeated", "collinear", "single", "general")[i % 5]
        size = rng.randint(1, dim + 3)
        if kind == "general":
            points = [instance.random_point(rng) for _ in range(size)]
        elif kind == "repeated":
            base = [instance.random_point(rng) for _ in range(rng.randint(1, dim + 1))]
            points = [rng.choice(base) for _ in range(size + dim)]
        elif kind == "collinear":
            start, step = instance.random_point(rng), instance.random_point(rng)
            points = [tuple(a + t * b for a, b in zip(start, step)) for t in rng.sample(range(-4, 5), size)]
        else:
            points = [instance.random_point(rng)]
        yield tuple(points)


@pytest.mark.parametrize("dim", [1, 2, 3, 4], ids=[f"affine-lattice-{d}d" for d in (1, 2, 3, 4)])
def test_affine_determines_agrees_with_its_oracle(dim):
    instance, rng = AffineLattice(dim), random.Random(dim)
    answers = []
    for points in affine_point_sets(rng, instance, 300):
        answer = instance.determines(points)
        assert answer is (affine_rank(points) == dim), points
        answers.append(answer)
        for _ in range(3):
            image = tuple(map(instance.action(instance.random_element(rng)), points))
            assert instance.determines(image) is answer, (points, image)
    assert instance.determines(()) is False
    assert 30 < sum(answers) < 270  # both answers are drawn


def test_power_affine_determines_agrees_with_its_oracle():
    instance, rng = PowerAffine(), random.Random(0)
    answers = []
    for _ in range(300):
        # a few small points, so that repeated and single points are frequent
        points = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
        answer = instance.determines(points)
        assert answer is (len(set(points)) >= 2), points
        answers.append(answer)
        for _ in range(3):
            image = tuple(map(instance.action(instance.random_element(rng)), points))
            assert instance.determines(image) is answer, (points, image)
    assert 30 < sum(answers) < 270  # both answers are drawn


def test_dyadic_determines_agrees_with_its_oracle():
    instance, rng = DyadicSteps(), random.Random(0)
    grid = [DyadicStepMap(m, n) for m in range(4) for n in range(3)]
    zero = StepFunction(())
    answers = []
    for _ in range(300):
        # half the points are the zero function, so sets of zeros alone are frequent
        size = rng.randint(1, 3)
        points = tuple(instance.random_point(rng) if rng.random() < 0.5 else zero for _ in range(size))
        answer = instance.determines(points)
        assert answer is any(x.l1_norm() > 0 for x in points), points
        # the maps of the grid are told apart by their images exactly when the points determine
        images = {tuple(map(instance.action(f), points)) for f in grid}
        assert (len(images) == len(grid)) is answer, points
        answers.append(answer)
        for _ in range(3):
            image = tuple(map(instance.action(instance.random_element(rng)), points))
            assert instance.determines(image) is answer, (points, image)
    assert instance.determines(()) is False
    assert 30 < sum(answers) < 270  # both answers are drawn


# ----------------------------------------------------------------------
# the presentations that keep the search
# ----------------------------------------------------------------------


def _golden_cli(argv):
    (entry,) = [e for e in json.loads((TESTS / "golden_cli.json").read_text("utf-8")) if e["argv"] == argv]
    return json.loads(entry["stdout"])


def _golden_verify(case):
    return json.loads((TESTS / "golden_verify.json").read_text("utf-8"))[case]


def _config(name, **extra):
    return presentation_from_config({**json.loads((FIXTURES / name).read_text()), **extra})


def _hand_built():
    # the strict xfail's config of tests/test_verifier.py: u(s(x)) == v(s(x)) on both samples
    return Presentation(
        generators=(
            ("u", lambda x: 2 * x if x % 2 == 0 else 5 * x),
            ("v", lambda x: 2 * x if x % 2 == 0 else 3 * x),
            ("s", lambda x: x + 1),
        ),
        sample_points=(1, 3),
        max_depth=1,
        label="hand-built",
    )


HAND_BUILT_REPORT = {
    "presentation": "hand-built",
    "depth_used": 1,
    "bounded": True,
    "samples": ["1", "3"],
    "injectivity": {"status": "pass"},
    "ore": [
        {"f": ["u"], "g": ["v"], "f_prime": ["u"], "g_prime": ["v"]},
        {"f": ["u"], "g": ["s"], "status": "not_found_within_depth"},
        {"f": ["v"], "g": ["s"], "status": "not_found_within_depth"},
    ],
    "cancellation": {"status": "fail", "f1": ["u"], "f2": ["v"], "g": ["s"]},
    "validated": True,
}
COLLINEAR = ((0, 0), (1, 1), (-1, -1), (3, 3))

# each presentation, and its committed report (None: the report of the search)
FALLBACK = {
    "tower": (lambda: preset("tower", 5), lambda: _golden_verify("tower@5")),
    "tower-custom-rules": (
        lambda: _config("tower_custom_rules.json"),
        lambda: _golden_cli(["verify", "--config", "fixtures/tower_custom_rules.json"]),
    ),
    "int-domain": (
        lambda: _config("int_domain.json"),
        lambda: _golden_cli(["verify", "--config", "fixtures/int_domain.json"]),
    ),
    "cancellation-fail": (
        lambda: _config("cancellation_fail.json", max_depth=4),
        lambda: _golden_verify("cancellation-fail@4"),
    ),
    "hand-built": (_hand_built, lambda: HAND_BUILT_REPORT),
    "collinear-preset-samples": (
        lambda: presentation_from_preset(
            PRESETS["affine-lattice-2d"]._replace(samples=COLLINEAR), "collinear", 4
        ),
        None,
    ),
    "collinear-replaced-samples": (
        lambda: dataclasses.replace(preset("affine-lattice-2d", 4), sample_points=COLLINEAR),
        None,
    ),
}


@pytest.mark.parametrize("case", FALLBACK)
def test_a_presentation_without_a_certificate_keeps_the_search(case, searches):
    build, committed = FALLBACK[case]
    p = build()
    report = verify(p).to_json()
    assert searches == [p]
    assert report == (committed() if committed else verify(searched(p)).to_json())
