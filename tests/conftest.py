import numpy as np
import pytest
from hypothesis import settings

# property tests draw the same examples on every run of the same test selection
# (hypothesis also draws literals from the loaded modules, so running one file
# alone can give other examples); eigendecompositions make per-example timings
# too uneven for a deadline
settings.register_profile("trispin", derandomize=True, deadline=None)
settings.load_profile("trispin")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
