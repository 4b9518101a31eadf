import random

import pytest

from test_scaled_integers import ScaledIntegers

from pseudoquotients import AffineLattice, DyadicSteps, PowerAffine, Tower

INSTANCES = {
    "power-affine": PowerAffine(),
    "affine-lattice-1d": AffineLattice(1),
    "affine-lattice-2d": AffineLattice(2),
    # 3-D runs the explicit product kernels, 4-D the n-D helpers
    "affine-lattice-3d": AffineLattice(3),
    "affine-lattice-4d": AffineLattice(4),
    "dyadic-steps": DyadicSteps(),
    "tower": Tower(),
    # test-only, with no closed form: the generic Ore route end to end
    "scaled-integers": ScaledIntegers(),
}


@pytest.fixture(params=sorted(INSTANCES), ids=sorted(INSTANCES))
def instance(request):
    return INSTANCES[request.param]


@pytest.fixture
def rng():
    return random.Random(987654321)
