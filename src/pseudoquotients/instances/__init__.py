"""The four built-in actions, each feeding the generic calculus in ``core``."""

from __future__ import annotations

from ..core import DomainError, Instance, Preset
from .affine_lattice import AffineLattice, AffineLatticeMap, adjugate, determinant
from .dyadic_steps import DyadicStepMap, DyadicSteps, DyadicStepValue, StepFunction
from .power_affine import PowerAffine, PowerAffineMap, RootValue
from .tower import Tower, TowerConfig, TowerMap, TowerPoint, TowerValue, default_tower_config

__all__ = [
    "AffineLattice",
    "AffineLatticeMap",
    "DyadicStepMap",
    "DyadicSteps",
    "DyadicStepValue",
    "INSTANCE_NAMES",
    "PRESETS",
    "PowerAffine",
    "PowerAffineMap",
    "RootValue",
    "StepFunction",
    "Tower",
    "TowerConfig",
    "TowerMap",
    "TowerPoint",
    "TowerValue",
    "adjugate",
    "create_instance",
    "default_tower_config",
    "determinant",
]

_REGISTRY: dict[str, type[Instance]] = {
    cls.name: cls for cls in (PowerAffine, AffineLattice, DyadicSteps, Tower)
}
INSTANCE_NAMES = tuple(_REGISTRY)
PRESETS: dict[str, Preset] = {
    label: preset for cls in _REGISTRY.values() for label, preset in cls.presets().items()
}


def create_instance(name: str, *, dim: int = 1) -> Instance:
    """Instantiate a built-in action by its public name."""
    try:
        cls = _REGISTRY[name]
    except (KeyError, TypeError):
        raise DomainError(
            f"unknown instance {name!r}; choose one of {', '.join(INSTANCE_NAMES)}"
        ) from None
    return cls.create(dim)
