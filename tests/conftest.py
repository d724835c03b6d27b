import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from qpbreed import (
    FockConfig,
    breed_step,
    default_input,
    default_target,
    enumerate_two_iterations,
    quadrature_basis,
)


@pytest.fixture(scope="session")
def cfg():
    return FockConfig()


@pytest.fixture(scope="session")
def psi0(cfg):
    return default_input(cfg)


@pytest.fixture(scope="session")
def target(cfg):
    return default_target(cfg)


@pytest.fixture(scope="session")
def basis_q(cfg):
    return quadrature_basis(cfg, "q")


@pytest.fixture(scope="session")
def basis_p(cfg):
    return quadrature_basis(cfg, "p")


@pytest.fixture(scope="session")
def first_level(cfg, psi0):
    """(probabilities, posts) of the first-iteration q measurement on two
    copies of psi0."""
    return breed_step(psi0, psi0, "q", cfg)


@pytest.fixture(scope="session")
def atlas(cfg, target):
    """Full two-iteration enumeration at the default configuration:
    (probability, fidelity, effective_squeezing) arrays indexed [q1, q2, p]."""
    return enumerate_two_iterations(cfg, target=target)


@pytest.fixture(scope="session")
def vacuum(cfg):
    state = np.zeros(cfg.dim, dtype=complex)
    state[0] = 1.0
    return state
