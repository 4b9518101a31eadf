"""Each public name is declared once, in its own module's ``__all__``.

``instances`` re-exports the ``__all__`` of each registered action's
module, and the package re-exports ``core``, ``instances`` and the names
it serves lazily from the verifier.  So a new action is its module, one
star import and one registry entry, and no name exported before is lost.
"""

import re
import sys
from pathlib import Path

import pytest

import pseudoquotients
from pseudoquotients import INSTANCE_NAMES, core, create_instance, instances

# the exports as they stood before the lists were derived from the modules
PACKAGE_NAMES_BEFORE = [
    "AffineLattice", "AffineLatticeMap", "CancellationResult", "DomainError", "DyadicStepMap",
    "DyadicSteps", "GroupFraction", "INSTANCE_NAMES", "InjectivityResult", "Instance",
    "OreSearchResult", "OreWitness", "PRESET_NAMES", "PowerAffine", "PowerAffineMap",
    "Presentation", "Pseudoquotient", "RootValue", "StepFunction", "Tower", "TowerConfig",
    "TowerMap", "TowerPoint", "TowerValue", "UsageError", "VerifyReport", "create_instance",
    "default_tower_config", "frac_inverse", "preset", "presentation_from_config",
    "search_ore_witness", "verify", "verify_injectivity", "verify_right_cancellation",
]
INSTANCES_NAMES_BEFORE = [
    "AffineLattice", "AffineLatticeMap", "DyadicStepMap", "DyadicSteps", "INSTANCE_NAMES",
    "PRESETS", "PRESET_NAMES", "PowerAffine", "PowerAffineMap", "RootValue", "StepFunction",
    "Tower", "TowerConfig", "TowerMap", "TowerPoint", "TowerValue", "adjugate",
    "create_instance", "default_tower_config", "determinant",
]
# public in their modules already, and now re-exported by the package as well
PACKAGE_NAMES_ADDED = [
    "MAX_CELLS", "MAX_POWER_BITS", "PRESETS", "Preset", "adjugate", "bounded_power",
    "determinant", "unchecked", "value_type",
]

REGISTERED = [type(create_instance(name)) for name in INSTANCE_NAMES]


@pytest.mark.parametrize("cls", REGISTERED, ids=INSTANCE_NAMES)
def test_every_public_name_of_a_registered_module_is_re_exported(cls):
    module = sys.modules[cls.__module__]
    assert cls.__name__ in module.__all__
    for name in module.__all__:
        assert name in instances.__all__ and name in pseudoquotients.__all__
        assert getattr(instances, name) is getattr(pseudoquotients, name) is getattr(module, name)


def test_every_name_exported_before_is_still_exported_as_the_same_object():
    from pseudoquotients import verifier

    assert set(INSTANCES_NAMES_BEFORE) <= set(instances.__all__)
    assert set(PACKAGE_NAMES_BEFORE) <= set(pseudoquotients.__all__)
    assert set(pseudoquotients.__all__) == {*PACKAGE_NAMES_BEFORE, *PACKAGE_NAMES_ADDED}
    for name in pseudoquotients.__all__:
        homes = [module for module in (core, instances, verifier) if name in module.__all__]
        assert homes, name
        assert all(getattr(pseudoquotients, name) is getattr(home, name) for home in homes), name


def test_no_name_is_listed_twice():
    from pseudoquotients import verifier

    for module in (pseudoquotients, instances, verifier):
        assert len(set(module.__all__)) == len(module.__all__), module.__name__


def test_the_package_source_names_no_registered_class():
    source = Path(pseudoquotients.__file__).read_text(encoding="utf-8")
    named = [cls.__name__ for cls in REGISTERED if re.search(rf"\b{cls.__name__}\b", source)]
    assert named == []
