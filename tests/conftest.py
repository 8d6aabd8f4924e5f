import numpy as np
import pytest
from hypothesis import settings

from scorelink import fit_mle, load_german_credit, split_by_account_status

# Property tests draw the same examples on every run; pass
# --hypothesis-profile=default to search with fresh randomness instead.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def german():
    return load_german_credit()


@pytest.fixture(scope="session")
def subpopulations(german):
    return split_by_account_status(german)


@pytest.fixture(scope="session")
def source(subpopulations):
    return subpopulations[0]


@pytest.fixture(scope="session")
def target(subpopulations):
    return subpopulations[1]


@pytest.fixture(scope="session")
def source_fit(source):
    report = fit_mle(source)
    assert report.converged
    return report


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
