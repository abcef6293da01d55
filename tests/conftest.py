import numpy as np
import pytest
from hypothesis import settings

import nodalflow as nf

# property tests draw the same examples on every run, so tier-1 results are
# reproducible; no example database is read or written
settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def space_63():
    return nf.build_space(nf.GridSpec.interval(0.0, 1.0, 63))


@pytest.fixture(scope="session")
def space_127():
    return nf.build_space(nf.GridSpec.interval(0.0, 1.0, 127))


@pytest.fixture(scope="session")
def quartic_63(space_63):
    return nf.EnergyProblem(space_63, nf.power_potential(4), 1.0)


@pytest.fixture(scope="session")
def quartic_127(space_127):
    return nf.EnergyProblem(space_127, nf.power_potential(4), 1.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
