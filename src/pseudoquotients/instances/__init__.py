"""The four built-in actions, each feeding the generic calculus in ``core``."""

from __future__ import annotations

import sys

from ..core import DomainError, Instance, Preset, value_text
from .affine_lattice import *
from .dyadic_steps import *
from .power_affine import *
from .tower import *

_REGISTRY: dict[str, type[Instance]] = {
    cls.name: cls for cls in (PowerAffine, AffineLattice, DyadicSteps, Tower)
}
INSTANCE_NAMES = tuple(_REGISTRY)
PRESETS: dict[str, Preset] = {
    label: preset for cls in _REGISTRY.values() for label, preset in cls.presets().items()
}
PRESET_NAMES = tuple(PRESETS)

# Each module's ``__all__`` is the one list of its public names.
__all__ = ["INSTANCE_NAMES", "PRESETS", "PRESET_NAMES", "create_instance"]
__all__ += (name for cls in _REGISTRY.values() for name in sys.modules[cls.__module__].__all__)


def create_instance(name: str, *, dim: int = 1) -> Instance:
    """Instantiate a built-in action by its public name."""
    try:
        cls = _REGISTRY[name]
    except (KeyError, TypeError):
        raise DomainError(
            f"unknown instance {value_text(name)}; choose one of {', '.join(INSTANCE_NAMES)}"
        ) from None
    return cls.create(dim)
