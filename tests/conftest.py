import pytest

from predprey import build_setup
from predprey.config import EquilibriumBlock, ModelBlock, kernels_from_model


def make_setup(n_cells: int):
    """The reference scenario, the config defaults, at ``n_cells`` cells."""
    return build_setup(kernels_from_model(ModelBlock(n_cells=n_cells)), EquilibriumBlock.u_star)


@pytest.fixture(scope="session")
def setup400():
    return make_setup(400)


@pytest.fixture(scope="session")
def setup200():
    return make_setup(200)


@pytest.fixture(scope="session")
def setup100():
    return make_setup(100)


@pytest.fixture(scope="session")
def eq400(setup400):
    return setup400.eq
