import numpy as np
import pytest

from fiprimes.sieve import MajorantParams


@pytest.fixture(scope="session")
def params_1e5() -> MajorantParams:
    return MajorantParams(x=10**5)


@pytest.fixture(scope="session")
def params_1e12() -> MajorantParams:
    return MajorantParams(x=10**12)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def forbid_alloc(monkeypatch):
    """A function that makes np.ones and np.zeros raise for the rest of the test.

    Capacity checks that must run before allocating are tested under it, so
    a missing check fails the test instead of allocating gigabytes.
    """
    def no_alloc(*args, **kwargs):
        raise AssertionError("allocated before the capacity check")

    def install():
        monkeypatch.setattr(np, "ones", no_alloc)
        monkeypatch.setattr(np, "zeros", no_alloc)

    return install
