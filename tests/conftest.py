import os
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import settings

import ncalg as nc

# "ci" is deterministic (the same examples on every run, so a CI failure
# reproduces locally) and small enough for the tier-1 run.  It is selected
# by HYPOTHESIS_PROFILE, and is the default.
settings.register_profile("ci", derandomize=True, database=None, max_examples=40,
                          deadline=None, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


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
    """The dimensions of the algebras built while the test runs."""
    builds = []
    original = nc.Algebra.__init__

    def counting(self, constants, *args, **kwargs):
        builds.append(len(constants))
        original(self, constants, *args, **kwargs)

    monkeypatch.setattr(nc.Algebra, "__init__", counting)
    return builds


@pytest.fixture
def fraction_count(monkeypatch):
    """Fractions constructed through the module-level `Fraction` name of any
    ncalg module, counted from here on."""
    built = []

    class Counting(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return Fraction(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("ncalg") and getattr(module, "Fraction", None) is Fraction:
            monkeypatch.setattr(module, "Fraction", Counting)
    return built
