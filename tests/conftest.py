import random

import pytest

import ncalg as nc


@pytest.fixture(scope="session")
def hq():
    return nc.quaternion_algebra()


@pytest.fixture(scope="session")
def hq_float():
    return nc.quaternion_algebra(nc.FLOAT)


@pytest.fixture
def units(hq):
    """(1, i, j, k) over the exact quaternions."""
    return tuple(hq.basis(t) for t in range(4))


@pytest.fixture
def rng():
    return random.Random(0xA1B2)


@pytest.fixture
def table_builds(monkeypatch):
    """The dimensions of the sparse tables built while the test runs."""
    builds = []
    original = nc.Algebra._set_table

    def counting(self, table):
        builds.append(self.dim)
        original(self, table)

    monkeypatch.setattr(nc.Algebra, "_set_table", counting)
    return builds
