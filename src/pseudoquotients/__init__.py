"""Exact pseudoquotient spaces for injective semigroup actions.

The package completes a set acted on by a semigroup of injective maps
into a space of formal solutions ``x / f`` of ``f(xi) = x``, embeds the
original points, extends each map to a bijection of the completion, and
represents the generated group as left fractions -- all with decidable,
exact equality.  Four concrete actions are built in, and a bounded
verifier spot-checks the hypotheses (injectivity, common left multiples,
right cancellation) for built-in or user-supplied presentations.
"""

from .core import (
    DomainError,
    GroupFraction,
    Instance,
    OreWitness,
    Pseudoquotient,
    UsageError,
    frac_inverse,
)
from .instances import (
    INSTANCE_NAMES,
    PRESET_NAMES,
    AffineLattice,
    AffineLatticeMap,
    DyadicStepMap,
    DyadicSteps,
    PowerAffine,
    PowerAffineMap,
    RootValue,
    StepFunction,
    Tower,
    TowerConfig,
    TowerMap,
    TowerPoint,
    TowerValue,
    create_instance,
    default_tower_config,
)

# The bounded verifier is loaded on first use (PEP 562), so a request that
# never verifies does not import it; a name it serves is cached in the
# module globals the first time it is asked for.
_VERIFIER_NAMES = frozenset(
    (
        "CancellationResult",
        "InjectivityResult",
        "OreSearchResult",
        "Presentation",
        "VerifyReport",
        "preset",
        "presentation_from_config",
        "search_ore_witness",
        "verify",
        "verify_injectivity",
        "verify_right_cancellation",
    )
)

__version__ = "0.1.0"

__all__ = [
    "AffineLattice",
    "AffineLatticeMap",
    "CancellationResult",
    "DomainError",
    "DyadicStepMap",
    "DyadicSteps",
    "GroupFraction",
    "INSTANCE_NAMES",
    "InjectivityResult",
    "Instance",
    "OreSearchResult",
    "OreWitness",
    "PRESET_NAMES",
    "PowerAffine",
    "PowerAffineMap",
    "Presentation",
    "Pseudoquotient",
    "RootValue",
    "StepFunction",
    "Tower",
    "TowerConfig",
    "TowerMap",
    "TowerPoint",
    "TowerValue",
    "UsageError",
    "VerifyReport",
    "create_instance",
    "default_tower_config",
    "frac_inverse",
    "preset",
    "presentation_from_config",
    "search_ore_witness",
    "verify",
    "verify_injectivity",
    "verify_right_cancellation",
]


def __getattr__(name: str):
    if name != "verifier" and name not in _VERIFIER_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib  # not ``from . import verifier``: its from-list check calls this hook again

    verifier = importlib.import_module(".verifier", __name__)
    if name == "verifier":
        return verifier
    value = globals()[name] = getattr(verifier, name)
    return value


def __dir__():
    return sorted({*globals(), *_VERIFIER_NAMES, "verifier"})
