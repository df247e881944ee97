import tempfile

import numpy as np
import pytest
from hypothesis import configuration, settings

from so3embed.embedding import TABLE_GROUPS, registry_lookup

# Property tests draw the same examples on every run and keep no example
# database, so a run is reproducible.
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")

_HYPOTHESIS_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(params=TABLE_GROUPS)
def registered_spec(request):
    """One locally isometric registered spec per run, all twelve groups."""
    return registry_lookup(request.param)


def pytest_configure(config):
    config.addinivalue_line("markers", "acceptance: end-to-end acceptance checks")
    # Hypothesis still caches the literals of the modules under test on disk;
    # that cache lives in a directory removed after the session, so a run
    # writes no .hypothesis/ into the checkout.
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.stash[_HYPOTHESIS_HOME] = home
    configuration.set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    config.stash[_HYPOTHESIS_HOME].cleanup()
