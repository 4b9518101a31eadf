"""Bounded verifier: deterministic search results, presets, and the failing fixture."""

import json
from pathlib import Path

import pytest

from pseudoquotients import (
    CancellationResult,
    DomainError,
    DyadicStepMap,
    DyadicSteps,
    InjectivityResult,
    OreSearchResult,
    Presentation,
    UsageError,
    preset,
    presentation_from_config,
    search_ore_witness,
    verify,
    verify_injectivity,
    verify_right_cancellation,
    verifier,
)

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "cancellation_fail.json"


def int_presentation(gens, samples, depth):
    return Presentation(tuple(gens), tuple(samples), depth)


def test_dyadic_preset_finds_the_defining_relation():
    pres = preset("dyadic-steps", 3)
    found = search_ore_witness(pres, ("d",), ("t",))
    assert found == (("d",), ("t", "t"))
    # the witness words, read as normal forms, are exactly "refine" and "shift twice"
    dy = DyadicSteps()
    w1 = DyadicStepMap(0, 1)
    w2 = DyadicStepMap(2, 0)
    assert dy.compose(w1, DyadicStepMap(1, 0)) == dy.compose(w2, DyadicStepMap(0, 1))


def test_dyadic_preset_passes_at_depth_four():
    report = verify(preset("dyadic-steps", 4))
    assert report.injectivity.ok
    assert report.cancellation.ok
    assert report.validated
    assert not report.has_counterexample


def test_search_same_word_on_both_sides():
    pres = preset("dyadic-steps", 2)
    found = search_ore_witness(pres, ("d",), ("d",))
    assert found == (("d",), ("d",))


def test_search_commuting_generators_found_at_depth_one():
    gens = [("inc", lambda x: x + 1), ("jmp", lambda x: x + 5)]
    pres = int_presentation(gens, range(-3, 4), 2)
    assert search_ore_witness(pres, ("inc",), ("jmp",)) == (("inc",), ("jmp",))


def test_search_not_found_within_depth_then_found():
    gens = [("inc", lambda x: x + 1), ("dbl", lambda x: 2 * x)]
    shallow = int_presentation(gens, range(-4, 5), 1)
    assert search_ore_witness(shallow, ("inc",), ("dbl",)) is None
    deeper = int_presentation(gens, range(-4, 5), 2)
    # (inc inc) o dbl == dbl o inc == 2x + 2
    assert search_ore_witness(deeper, ("inc",), ("dbl",)) == (("inc", "inc"), ("dbl",))


def test_injectivity_flags_constant_generator():
    gens = [("zero", lambda x: 0)]
    result = verify_injectivity(int_presentation(gens, (1, 2), 2))
    assert not result.ok
    assert result.word == ("zero",)
    assert {result.left, result.right} == {1, 2}


def test_injectivity_failure_renders_in_report():
    config = {
        "domain": "int",
        "generators": [{"name": "zero", "mul": 0, "add": 0}],
        "samples": [1, 2],
        "max_depth": 2,
    }
    report = verify(presentation_from_config(config))
    assert report.has_counterexample and report.validated
    payload = report.to_json()
    assert payload["injectivity"]["status"] == "fail"
    assert payload["injectivity"]["word"] == ["zero"]
    # the first sample the word sends to the point, then the other
    assert (payload["injectivity"]["left"], payload["injectivity"]["right"]) == ("1", "2")
    json.dumps(payload)  # fully serializable


def test_injectivity_needs_two_samples():
    gens = [("inc", lambda x: x + 1)]
    with pytest.raises(UsageError):
        verify_injectivity(int_presentation(gens, (1,), 2))


def test_injectivity_catches_collapse_off_samples():
    # every generator is injective on the samples themselves; only the
    # two-letter word sh-then-ab merges them, via the images -2 and 2
    gens = [("sh", lambda x: x - 3), ("ab", abs)]
    shallow = verify_injectivity(int_presentation(gens, (1, 5), 1))
    assert shallow.ok
    result = verify_injectivity(int_presentation(gens, (1, 5), 2))
    assert not result.ok
    assert result.word == ("ab", "sh")
    assert {result.left, result.right} == {1, 5}


def test_cancellation_passes_for_single_generator():
    gens = [("inc", lambda x: x + 1)]
    result = verify_right_cancellation(int_presentation(gens, range(5), 3))
    assert result.ok


def test_fixture_yields_validated_counterexample():
    config = json.loads(FIXTURE.read_text())
    report = verify(presentation_from_config(config))
    assert report.injectivity.ok
    assert not report.cancellation.ok
    assert (report.cancellation.f1, report.cancellation.f2, report.cancellation.g) == (
        ("idn",),
        ("osh",),
        ("dbl",),
    )
    assert report.validated
    assert report.has_counterexample
    # independent re-check of the reported triple
    gens = {"dbl": lambda x: 2 * x, "idn": lambda x: x, "osh": lambda x: x if x % 2 == 0 else x + 2}
    samples = config["samples"]
    assert [gens["idn"](gens["dbl"](s)) for s in samples] == [
        gens["osh"](gens["dbl"](s)) for s in samples
    ]
    assert [gens["idn"](s) for s in samples] != [gens["osh"](s) for s in samples]


def test_reports_are_deterministic():
    first = verify(preset("dyadic-steps", 3)).to_json()
    second = verify(preset("dyadic-steps", 3)).to_json()
    assert first == second
    third = verify(presentation_from_config(json.loads(FIXTURE.read_text()))).to_json()
    fourth = verify(presentation_from_config(json.loads(FIXTURE.read_text()))).to_json()
    assert third == fourth


@pytest.mark.parametrize("name", ["power-affine", "affine-lattice", "affine-lattice-2d"])
def test_instance_presets_pass(name):
    report = verify(preset(name))
    assert report.injectivity.ok
    assert report.cancellation.ok
    assert all(entry.found for entry in report.ore)
    assert report.validated


@pytest.mark.parametrize("name", verifier.PRESET_NAMES)
def test_a_preset_gives_the_presentation_its_name_gives(name):
    # presentation_from_config builds every named preset through presentation_from_preset
    spec, depth = verifier.PRESETS[name], 3
    built = verifier.presentation_from_preset(spec, name, depth)
    assert (built.names, built.sample_points, built.max_depth, built.label) == (
        tuple(gen for gen, _ in spec.generators), spec.samples, depth, name,
    )
    assert verify(built).to_json() == verify(preset(name, depth)).to_json()
    assert verifier.presentation_from_preset(spec, "mine").max_depth == spec.depth


def test_affine_preset_witness_matches_closed_form():
    # search over words {a: x+1, b: 2x} reproduces the instance witness for (a, b)
    pres = preset("affine-lattice")
    assert search_ore_witness(pres, ("a",), ("b",)) == (("a", "a"), ("b",))


def test_tower_preset_is_honest_about_the_point_action():
    # On points, squeezes sitting below the ascent power are invisible:
    # P1 P2 and P2 agree on every image of F, so extensional cancellation
    # fails even though normal-form cancellation holds.  The verifier
    # must report that truthfully, with a validated counterexample.
    report = verify(preset("tower"))
    assert report.injectivity.ok
    assert not report.cancellation.ok
    assert report.validated
    by_pair = {(entry.f, entry.g): entry for entry in report.ore}
    assert by_pair[(("F",), ("P1",))].found  # the commuting square, as a witness
    assert by_pair[(("P1",), ("P2",))].found
    # (F, P2) needs the generator P3, which no finite generating set contains
    assert not by_pair[(("F",), ("P2",))].found


def test_custom_tower_rules_config():
    config = {
        "preset": "tower",
        "tower": {"ascend_add": 2, "squeeze_mul": 3},
        "max_depth": 2,
    }
    report = verify(presentation_from_config(config))
    assert report.injectivity.ok


def test_bad_tower_rules_rejected():
    config = {
        "preset": "tower",
        "tower": {"ascend_add": 1, "squeeze_mul": 2, "squeeze_level_coeff": 5},
    }
    with pytest.raises(DomainError):
        presentation_from_config(config)


def test_config_validation_errors():
    with pytest.raises(DomainError):
        presentation_from_config({"domain": "int"})
    with pytest.raises(DomainError):
        presentation_from_config({"domain": "int", "generators": [{"mul": 2}], "samples": [1]})
    with pytest.raises(DomainError):
        presentation_from_config({"preset": "no-such-thing"})
    with pytest.raises(DomainError):
        presentation_from_config(
            {"domain": "int", "generators": [{"name": "g", "even": {"mul": 2}}], "samples": [1, 2]}
        )


def test_ore_search_rejects_an_unknown_generator():
    with pytest.raises(DomainError, match="unknown generator 'zz' in Ore search word f"):
        search_ore_witness(preset("tower", 3), ("zz",), ("F",))


def test_ore_search_rejects_a_string_word():
    # a string would be read letter by letter, as the unknown generator '1'
    with pytest.raises(DomainError, match="Ore search word g must be .* got 'P1'"):
        search_ore_witness(preset("tower", 3), ("F",), "P1")


def test_ore_search_rejects_the_empty_word():
    with pytest.raises(DomainError, match=r"Ore search word f must be .* got \(\)"):
        search_ore_witness(preset("tower", 3), (), ("F",))
    with pytest.raises(DomainError, match=r"Ore search word g must be .* got \[\]"):
        search_ore_witness(preset("tower", 3), ("F",), [])


def test_ore_search_takes_lists_of_names():
    p = preset("tower", 3)
    assert search_ore_witness(p, ["F"], ["P1"]) == search_ore_witness(p, ("F",), ("P1",))


def test_report_json_shape():
    report = verify(preset("dyadic-steps", 3)).to_json()
    assert report["bounded"] is True
    assert report["depth_used"] == 3
    assert set(report) == {
        "presentation",
        "depth_used",
        "bounded",
        "samples",
        "injectivity",
        "ore",
        "cancellation",
        "validated",
    }


# ----------------------------------------------------------------------
# re-validation of forged results
# ----------------------------------------------------------------------

# z sends every point to 0, s adds one and d doubles; the samples are 1 and 2
GENUINE = {
    "injectivity": InjectivityResult(False, ("z",), 1, 2),
    "ore": (OreSearchResult(("s",), ("d",), ("s", "s"), ("d",)),),  # s s d == d s
    "cancellation": CancellationResult(False, ("d",), ("z",), ("z",)),  # d z == z z, d != z
}
FORGED = {
    "injectivity-one-point": {"injectivity": InjectivityResult(False, ("z",), 1, 1)},
    "injectivity-kept-apart": {"injectivity": InjectivityResult(False, ("s",), 1, 2)},
    "ore-sides-differ": {"ore": (OreSearchResult(("s",), ("d",), ("s",), ("s",)),)},
    "cancellation-equal-words": {"cancellation": CancellationResult(False, ("s",), ("s",), ("d",))},
    "cancellation-images-differ": {"cancellation": CancellationResult(False, ("s",), ("d",), ("s",))},
}


def _revalidated(injectivity=InjectivityResult(True), ore=(), cancellation=CancellationResult(True)) -> bool:
    generators = (("z", lambda x: 0), ("s", lambda x: x + 1), ("d", lambda x: 2 * x))
    return verifier._revalidate(Presentation(generators, (1, 2), 2), injectivity, ore, cancellation)


def test_revalidation_accepts_genuine_results():
    assert _revalidated() is True
    assert _revalidated(**GENUINE) is True


@pytest.mark.parametrize("case", FORGED)
def test_revalidation_refuses_each_forged_result(case):
    assert _revalidated(**{**GENUINE, **FORGED[case]}) is False


# ----------------------------------------------------------------------
# the shape of the cancellation search
# ----------------------------------------------------------------------


def _layer_bases(monkeypatch):
    """The bases ``verify`` builds word layers on, and the searches it makes."""
    bases, searches = set(), []

    class Recording(verifier._Search):
        def __init__(self, presentation):
            super().__init__(presentation)
            searches.append(self)

        def layer(self, base, length):
            bases.add(base)
            return super().layer(base, length)

    monkeypatch.setattr(verifier, "_Search", Recording)
    return bases, searches


def _ore_bases(search):
    return {search.act((name,), search.samples) for name in search.names}


def test_cancellation_builds_one_union_base_per_g_length(monkeypatch):
    bases, searches = _layer_bases(monkeypatch)
    p = preset("affine-lattice-2d", 6)
    # verify passes this preset by certificate, so the search runs on its own
    search = verifier._Search(p)
    # a base that splits through the depth holds a counterexample, so a pass has none
    assert verify_right_cancellation(p, _search=search).ok
    assert searches == [search]
    # the samples, and one union base for each length of g
    assert search.samples in bases
    assert len(bases) == 1 + 6
    # against one base for each of the 78 distinct actions of g on the samples
    images = set().union(*(search.layer(search.samples, n) for n in range(1, 7)))
    assert len(images) == 78


@pytest.mark.parametrize(
    "config",
    [{"preset": "tower", "max_depth": 6}, {**json.loads(FIXTURE.read_text()), "max_depth": 5}],
    ids=["tower", "cancellation-fail"],
)
def test_cancellation_builds_layers_only_on_union_bases(monkeypatch, config):
    # splitting bases read their splits off the union layers, so none gets layers of its own
    bases, searches = _layer_bases(monkeypatch)
    made = []

    class Recording(verifier._Bases):
        def __init__(self, search, length):
            super().__init__(search, length)
            made.append(self)

    monkeypatch.setattr(verifier, "_Bases", Recording)
    report = verify(presentation_from_config(config))
    assert not report.cancellation.ok
    (search,) = searches
    assert sum(sum(b.split) for b in made) > 0
    # the samples, the Ore bases, and one union base for each length of g
    assert len(made) <= config["max_depth"]
    assert bases <= {search.samples, *_ore_bases(search), *(b.union for b in made)}


# ----------------------------------------------------------------------
# the memory budget
# ----------------------------------------------------------------------

UNBOUNDED_TOWER = {"preset": "tower", "max_depth": 10**30}


def test_verify_stops_at_its_budget_naming_the_word_length(monkeypatch):
    monkeypatch.setattr(verifier, "MAX_SEARCH_BYTES", 1 << 20)
    with pytest.raises(DomainError, match=r"^verify stopped at word length \d+: .* 1 MB search budget"):
        verify(presentation_from_config(UNBOUNDED_TOWER))


def test_the_budget_counts_the_size_of_each_point(monkeypatch):
    # one generator and two samples keep a few ids a layer; the points grow
    # by 13k bits a letter, so only their sizes can reach the budget
    monkeypatch.setattr(verifier, "MAX_SEARCH_BYTES", 8 << 20)
    config = {"domain": "int", "generators": [{"name": "m", "mul": 10**4000}], "samples": [1, 2]}
    with pytest.raises(DomainError, match=r"word length \d+"):
        verify(presentation_from_config({**config, "max_depth": 10**6}))
    assert verify(presentation_from_config({**config, "max_depth": 5})).injectivity.ok


def test_unbounded_depth_exits_1_within_the_budget_under_a_memory_limit(tmp_path):
    import os
    import subprocess
    import sys

    resource = pytest.importorskip("resource")
    limit = 512 << 20  # as `ulimit -v 524288`: the budget plus the interpreter must fit
    config = tmp_path / "deep.json"
    config.write_text(json.dumps(UNBOUNDED_TOWER))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "pseudoquotients", "verify", "--config", str(config)],
        capture_output=True,
        text=True,
        env=env,
        timeout=20,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert done.returncode == 1
    assert done.stdout == ""
    (line,) = done.stderr.splitlines()
    assert line.startswith("domain error: verify stopped at word length ")
    assert "Traceback" not in done.stderr


# ----------------------------------------------------------------------
# what a counterexample proves
# ----------------------------------------------------------------------


@pytest.mark.xfail(
    strict=True,
    reason="cancellation counterexamples are checked on the samples only (ROADMAP item 1: "
    "compare words on a determining set)",
)
def test_a_cancellation_counterexample_holds_on_all_of_the_integers():
    config = {
        "domain": "int",
        "generators": [
            {"name": "u", "even": {"mul": 2}, "odd": {"mul": 5}},
            {"name": "v", "even": {"mul": 2}, "odd": {"mul": 3}},
            {"name": "s", "add": 1},
        ],
        "samples": [1, 3],
        "max_depth": 1,
    }
    presentation = presentation_from_config(config)
    report = verify(presentation)
    assert report.validated
    if not report.cancellation.ok:
        actions = dict(presentation.generators)

        def run(word, x):
            for name in reversed(word):
                x = actions[name](x)
            return x

        # every generator is integer-affine on each parity class and maps it
        # into one class, so two words agree on Z iff they agree on 0..3
        f1, f2, g = report.cancellation.f1, report.cancellation.f2, report.cancellation.g
        assert [run(f1 + g, x) for x in range(4)] == [run(f2 + g, x) for x in range(4)]
