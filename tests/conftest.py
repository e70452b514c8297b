import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from matbody import builtin_body, make_samples

# Property tests are deterministic and untimed; each test sets only its max_examples.
settings.register_profile("matbody", deadline=None, derandomize=True, database=None)
settings.load_profile("matbody")


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(987654321)


@pytest.fixture(scope="session")
def iso_body():
    return builtin_body("homogeneous_isotropic")


@pytest.fixture(scope="session")
def fgm_body():
    return builtin_body("uniform_fgm")


@pytest.fixture(scope="session")
def fgm_integrable_body():
    return builtin_body("uniform_fgm_integrable")


@pytest.fixture(scope="session")
def nonuniform_body():
    return builtin_body("nonuniform")


@pytest.fixture(scope="session")
def samples():
    return make_samples(24, seed=20240)
