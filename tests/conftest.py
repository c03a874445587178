import math
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest

from fiprimes.buchstab import buchstab_B, rough_mask
from fiprimes.primes import fi_pairs, inner_weight_table, mangoldt_table, primes_upto, simple_sieve
from fiprimes.sieve import MajorantParams


def lambda_lambda_table(x: int) -> np.ndarray:
    """LL-table oracle: LL(n) for 0 <= n <= x, the inner weights log l times Lambda(n).

    Two arrays of x + 1 float64; ``fiprimes.ternary.wtrick_build`` reads
    the same values off the row sieve without them.
    """
    table = inner_weight_table(x, math.log)
    table *= mangoldt_table(x)
    return table


def fi_decompositions_by_isqrt(n: int, ls) -> list[tuple[int, int]]:
    """Oracle of ``fi_decompositions(n, ls)`` as (k, l) pairs: one
    ``math.isqrt`` per l of the increasing ``ls``, up to the first l^2 >= n."""
    out = []
    for l in ls:
        rem = n - l * l
        if rem < 1:
            break
        k = math.isqrt(rem)
        if k * k == rem:
            out.append((k, l))
    return out


def euler_H(p_limit: int) -> tuple[float, float]:
    """Partial product of H = 2 prod_p (1 - chi(p)/((p-1)(p-chi(p)))), p odd prime.

    Returns (value, tail_bound).  The log of each omitted factor is at most
    2/p^2 in absolute value, so the tail is below 2/p_limit.  The oracle of
    ``fiprimes.local.reference_H``, the product to 10^6.
    """
    if p_limit < 3:
        raise ValueError("p_limit must be >= 3")
    ps = primes_upto(p_limit).astype(np.float64)
    ps = ps[ps >= 3]
    cs = np.where(ps % 4 == 1, 1.0, -1.0)
    factors = 1.0 - cs / ((ps - 1.0) * (ps - cs))
    value = 2.0 * float(np.prod(factors))
    tail = value * math.expm1(2.0 / p_limit)
    return value, tail


def sieve_blocks(x: int):
    """The blocks of ``fi_pairs(x)`` cut by parity: even k for odd l, every k
    for l = 2, no empty block.  The rows of ``_prime_power_rows`` are these
    blocks without the even k of l = 2, whose n are even and > 2."""
    for l, ns in fi_pairs(x):
        if l != 2:
            ns = ns[1::2]
            if not len(ns):
                continue
        yield l, ns


def prime_power_logs(x: int) -> dict[int, float]:
    """{p^j: log p} for the prime powers p^j <= x with j >= 2, by repeated
    multiplication of each prime up to sqrt(x)."""
    out = {}
    for p in primes_upto(math.isqrt(x)).tolist():
        pj = p * p
        while pj <= x:
            out[pj] = math.log(p)
            pj *= p
    return out


def fi_weighted_count_by_sieve(x: int) -> float:
    """Oracle: ``fi_weighted_count(x).value`` by membership in ``simple_sieve(x)``.

    The same blocks, adds and order as the product, with primality read
    from one byte per integer instead of the row sieve, and the prime
    powers of each block looked up in ``prime_power_logs(x)``, so the two
    agree bit for bit.
    """
    is_p = simple_sieve(x)
    pp = prime_power_logs(x)
    pp_keys = np.array(sorted(pp), dtype=np.int64)
    pp_vals = np.array([pp[n] for n in pp_keys.tolist()])
    total = 0.0
    for l, ns in sieve_blocks(x):
        prime_part = np.log(ns[is_p[ns]].astype(np.float64)).sum()
        pos = np.minimum(np.searchsorted(ns, pp_keys), len(ns) - 1)
        pp_part = pp_vals[ns[pos] == pp_keys].sum()
        total += math.log(l) * (prime_part + pp_part)
    return total


def fi_primes_by_sieve(limit: int) -> np.ndarray:
    """Oracle for the FI-prime table: every pair of ``fi_pairs``, parity not
    used, marked in a bitmap where ``simple_sieve(limit)`` says prime."""
    is_p = simple_sieve(limit)
    hits = np.zeros(limit + 1, dtype=bool)
    for _, ns in fi_pairs(limit):
        hits[ns[is_p[ns]]] = True
    return np.flatnonzero(hits)


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


def c3_midpoint_rows(xi1: float, xi: float, n: int) -> float:
    """Oracle for ``constants._c3_midpoint``: the midpoint rule row by row.

    For each b1 it evaluates the integrand on the whole (n - i) x n
    rectangle of (b2, b3) with b2 >= b1 and zeroes the cells with b2 > b3
    by a mask; the product's triangle kernel must match it bit for bit.
    """
    h = (xi - xi1) / n
    mids = xi1 + (np.arange(n) + 0.5) * h
    total = 0.0
    for i in range(n):
        b1 = mids[i]
        b2 = mids[i:, None]
        b3 = mids[None, :]
        u = (1.0 - b1 - b2 - b3) / b1
        vals = np.where(b2 <= b3, 1.0, 0.0)
        vals *= buchstab_B(u) / (b1 * b1 * b2 * b3)
        total += float(vals.sum())
    return total * h**3


def buchstab_identity_violations(limit: int, z: float, w: float) -> int:
    """Number of n <= limit that violate the exact Buchstab identity (0 expected):

        rho(n, z) = rho(n, w) + sum_{z < p <= w, p | n} [P-(n/p) >= p].

    The cofactor condition is "no prime factor below p" (>= p rather than
    > p); with a strict cutoff the term at p would miss n divisible by p^2
    and the identity would fail, e.g. at n = 25.  The right side is summed
    as integers, so a cofactor counted twice shows up as a violation rather
    than being absorbed by a boolean or.
    """
    lhs = rough_mask(limit, z)
    rhs = rough_mask(limit, w).astype(np.int64)
    for p in primes_upto(min(int(w), limit)).tolist():
        if p > z:
            rhs[p::p] += rough_mask(limit // p, p - 1)[1:]
    return int(np.count_nonzero(lhs != rhs))


def switching_sides(primes: list[int], z: float, z1: float) -> tuple[int, int]:
    """Twice each side of the switching inequality at the squarefree l with these prime factors:

        rho(l, z) <= rho(l, z1) - 1/2 sum_{z1 <= p < z, l = p m} rho(m, z1)
                     + 1/2 sum_{z1 <= p1 < p2 < p3 < z, l = p1 p2 p3 m} rho(m, p1),

    doubled so that both sides are integers.  With r mid-range factors and a
    z-rough cofactor the right side is 1, 1/2, 0, 0, 1/2, 3/2 for r = 0..5.
    """
    lhs2 = 0 if any(p <= z for p in primes) else 2
    rhs2 = 0 if any(p <= z1 for p in primes) else 2
    mids = sorted(p for p in primes if z1 <= p < z)
    for p in mids:
        rhs2 -= 0 if any(q <= z1 for q in primes if q != p) else 1
    for tri in combinations(mids, 3):
        rhs2 += all(q > tri[0] for q in primes if q not in tri)
    return lhs2, rhs2


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
    """A function that makes np.ones, np.zeros, np.empty and np.concatenate
    raise for the rest of the test.

    Capacity checks that must run before allocating are tested under it, so
    a missing check fails the test instead of allocating gigabytes.
    """
    def no_alloc(*args, **kwargs):
        raise AssertionError("allocated before the capacity check")

    def install():
        for name in ("ones", "zeros", "empty", "concatenate"):
            monkeypatch.setattr(np, name, no_alloc)

    return install
