"""Exact pseudoquotient spaces for injective semigroup actions.

The package completes a set acted on by a semigroup of injective maps
into a space of formal solutions ``x / f`` of ``f(xi) = x``, embeds the
original points, extends each map to a bijection of the completion, and
represents the generated group as left fractions -- all with decidable,
exact equality.  Four concrete actions are built in, and a bounded
verifier spot-checks the hypotheses (injectivity, common left multiples,
right cancellation) for built-in or user-supplied presentations.
"""

# Each module's ``__all__`` is the one list of its public names; the
# package re-exports them, as ``instances`` re-exports its actions.
from . import core, instances
from .core import *
from .instances import *

# The bounded verifier is loaded on first use (PEP 562), so a request that
# never verifies does not import it; a name it serves is cached in the
# module globals the first time it is asked for.  ``verifier.__all__``
# extends this tuple.
_VERIFIER_NAMES = (
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

__version__ = "0.1.0"

__all__ = [*core.__all__, *instances.__all__, *_VERIFIER_NAMES]


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
