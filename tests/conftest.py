import math
from functools import lru_cache

import numpy as np
import pytest

from fiprimes.primes import primes_upto
from fiprimes.sieve import MajorantParams


@lru_cache(maxsize=2)
def spf_table(limit: int) -> np.ndarray:
    """Smallest-prime-factor table for 0..limit (spf[0] = spf[1] = 0).

    The smallest prime factor of a composite n is some p <= sqrt(n), and
    p strikes n from p^2 on; striking in descending order of p leaves the
    smallest such p in place.  A prime is its own smallest factor.  Checked
    against ``factorize`` in test_primes.py.
    """
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in reversed(primes_upto(math.isqrt(limit)).tolist()):
        spf[p * p :: p] = p
    primes = primes_upto(limit)
    spf[primes] = primes
    spf.setflags(write=False)
    return spf


def spf_factorize(n: int, spf: np.ndarray) -> list[tuple[int, int]]:
    """Prime factorization of 1 <= n < len(spf) as sorted (p, exponent), read off ``spf``."""
    out = []
    while n > 1:
        p = int(spf[n])
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return out


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
