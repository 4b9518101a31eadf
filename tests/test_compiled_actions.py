"""Compiled preset actions agree with the checked ``apply`` they replace.

A preset's generators are ``instance.action(element)`` callables that check
nothing, built once per presentation; the checked route,
``instance.apply(element, point)``, is their oracle.  They must agree on
every point a search meets, and reports built either way must be the same
text.
"""

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import pytest

from pseudoquotients import (
    PRESET_NAMES,
    DyadicStepMap,
    DyadicSteps,
    Pseudoquotient,
    StepFunction,
    UsageError,
    presentation_from_config,
    verify,
)
from pseudoquotients import verifier
from pseudoquotients.instances import PRESETS

ROOT = Path(__file__).resolve().parent.parent
CUSTOM_TOWER = json.loads((ROOT / "fixtures" / "tower_custom_rules.json").read_text())
CONFIGS = {**{name: {"preset": name} for name in PRESET_NAMES}, "tower-custom": CUSTOM_TOWER}


def checked_generators(config: dict) -> tuple:
    """The preset's generators as calls to the checked ``apply``, with their instance."""
    name = config["preset"]
    spec = PRESETS[name]
    rules = config.get(name)
    instance = spec.instance if rules is None else spec.from_rules(rules)
    return instance, tuple(
        (gen, lambda p, el=element: instance.apply(el, p)) for gen, element in spec.generators
    )


def interned_points(presentation, monkeypatch) -> list:
    """Every point that ``verify(presentation)`` interns."""
    searches = []

    class Recording(verifier._Search):
        def __init__(self, p):
            super().__init__(p)
            searches.append(self)

    monkeypatch.setattr(verifier, "_Search", Recording)
    verify(presentation)
    (search,) = searches
    return search._points


@pytest.mark.parametrize("key", sorted(CONFIGS))
def test_compiled_actions_equal_apply_on_every_interned_point(key, monkeypatch):
    config = CONFIGS[key]
    presentation = presentation_from_config({**config, "max_depth": 5})
    instance, _ = checked_generators(config)
    elements = dict(PRESETS[config["preset"]].generators)
    points = interned_points(presentation, monkeypatch)
    assert len(points) > len(presentation.sample_points)
    for gen, action in presentation.generators:
        element = elements[gen]
        for x in points:
            compiled, oracle = action(x), instance.apply(element, x)
            assert type(compiled) is type(oracle)
            assert compiled == oracle and hash(compiled) == hash(oracle)
            # a tower map that moves nothing returns its input object on both routes
            assert (compiled is x) == (oracle is x)


@pytest.mark.parametrize("depth", range(1, 7))
@pytest.mark.parametrize("key", sorted(CONFIGS))
def test_reports_match_the_checked_route(key, depth):
    config = {**CONFIGS[key], "max_depth": depth}
    compiled = presentation_from_config(config)
    _, generators = checked_generators(config)
    checked = dataclasses.replace(compiled, generators=generators)
    assert json.dumps(verify(compiled).to_json()) == json.dumps(verify(checked).to_json())


def _class_value():
    # width -1: a value of the completion, not a point on unit cells
    ds = DyadicSteps()
    return ds.canonical_value(Pseudoquotient(StepFunction((1,)), DyadicStepMap(0, 1)))


BAD_SAMPLES = {
    "power-affine": 0,
    "affine-lattice": (1, 2),
    "affine-lattice-2d": (1,),
    "dyadic-steps": _class_value(),
    "tower": (1, Fraction(1, 2)),
}


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_a_bad_preset_sample_is_refused_when_the_actions_are_compiled(name, monkeypatch):
    assert sorted(BAD_SAMPLES) == sorted(PRESET_NAMES)
    spec = PRESETS[name]
    monkeypatch.setitem(PRESETS, name, spec._replace(samples=(*spec.samples, BAD_SAMPLES[name])))
    with pytest.raises(UsageError):
        presentation_from_config({"preset": name})


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_action_checks_its_element(name):
    instance = PRESETS[name].instance
    with pytest.raises(UsageError):
        instance.action("not an element")
