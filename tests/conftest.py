import pytest
from hypothesis import settings

import mindisc as md

# Hypothesis's own CI profile, loaded on every run: fixed draws, no example
# database and no too_slow health check, so each run tests what CI tests
settings.load_profile("ci")


@pytest.fixture(scope="session")
def orthogonal_pair():
    return md.pure_pair(0.0)


@pytest.fixture(scope="session")
def orthogonal_projectors(orthogonal_pair):
    return md.validate_povm([s.mat for s in orthogonal_pair.states])


@pytest.fixture(scope="session")
def trine_ensemble():
    return md.trine()


@pytest.fixture(scope="session")
def trine_srm(trine_ensemble):
    return md.square_root_measurement(trine_ensemble)


@pytest.fixture(scope="session")
def single_state_problem():
    ens = md.Ensemble([1.0], (md.pure_state([1.0, 0.0]),))
    return ens, md.uniform_povm(1, 2)
