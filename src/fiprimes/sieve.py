"""Combinatorial beta-sieve weights and the FI-prime majorant.

The beta-sieve of level D and sifting range P keeps the Moebius weight
mu(d) on squarefree d = p1 > p2 > ... > pn (all in P) whose prefixes satisfy

    p1 ... pm * pm^beta < D   for every odd m   (upper sieve)
    p1 ... pm * pm^beta < D   for every even m  (lower sieve)

beta = 2 is the linear sieve, beta = 10 a fundamental-lemma sieve.  The
composed sieve multiplies a beta=10 stage over the small primes P(z0) with a
beta=2 stage over P(z, z0), and satisfies the sandwich

    theta_minus(n) <= [no prime factor of n in the sifted range] <= theta_plus(n).

The majorant for the weight LL is assembled from three weights on the inner
variable l (upper sieve, switched lower sieve over one mid-range prime, and
a rough-number term over three mid-range primes), an outer sieve Omega, and
an explicit error term E supported on prime powers with small base and on l
with a large repeated prime factor.  Pointwise LL(n) <= Lambda_plus(n, x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

import numpy as np

from .buchstab import rough_indicator
from .constants import DELTA0, XI, XI1
from .primes import (
    check_bytes,
    distinct_prime_factors,
    factorize,
    fi_decompositions,
    fi_pairs,
    mangoldt,
    mangoldt_table,
)


@dataclass(frozen=True)
class MajorantParams:
    """The majorant's levels and ranges at scale x, from ``XI``, ``XI1`` and ``DELTA0``.

    The orderings z0 < z1 < z and z1 < D1 hold only for astronomically large
    x; at desk scales z0 typically exceeds z1 and the beta=2 stage of the
    inner sieve is trivial.  Construction therefore validates only x >= 16.
    """

    x: int

    def __post_init__(self) -> None:
        if self.x < 16:
            raise ValueError("x must be >= 16")

    @property
    def z(self) -> float:
        return self.x ** (XI / 2)

    @property
    def z1(self) -> float:
        return self.x ** (XI1 / 2)

    @property
    def z0(self) -> float:
        return math.exp(math.log(self.x) ** (1.0 / 3.0))

    @property
    def D0(self) -> float:
        return math.exp(math.log(self.x) ** (2.0 / 3.0))

    @property
    def D1(self) -> float:
        return self.x ** (1.0 / 3.0 - DELTA0)

    @property
    def omega_level(self) -> float:
        return self.x ** (0.5 - DELTA0)

    @property
    def omega_range(self) -> float:
        return self.x ** (0.5 - 2.0 * DELTA0)

    @property
    def log_sqrt_x(self) -> float:
        return 0.5 * math.log(self.x)


def _prefix_ok(m: int, prod: int, p: int, beta: float, level: float, sign: int) -> bool:
    """Condition on the m-th prefix when appending prime p (prod includes p)."""
    constrained = (m % 2 == 1) if sign > 0 else (m % 2 == 0)
    if not constrained:
        return True
    return prod * p**beta < level


def _chain(ps_desc: tuple[int, ...], D: float, beta: float, sign: int) -> Iterator[tuple[int, int]]:
    """Yield (d, mu(d)) for each d the beta-sieve of level D keeps, depth-first.

    d runs over the products of decreasing chains of ps_desc (sorted in
    decreasing order) whose prefixes all pass ``_prefix_ok``; d = 1 comes first.
    """

    def rec(start: int, depth: int, prod: int, mu: int) -> Iterator[tuple[int, int]]:
        yield prod, mu
        for j in range(start, len(ps_desc)):
            p = ps_desc[j]
            if _prefix_ok(depth + 1, prod * p, p, beta, D, sign):
                yield from rec(j + 1, depth + 1, prod * p, -mu)

    return rec(0, 0, 1, 1)


def composed_theta_factored(
    prime_factors: Iterable[int],
    D: float,
    D0: float,
    z: float,
    z0: float,
    sign: int,
) -> int:
    """Composed sieve value from the distinct prime factors of n."""
    ps = sorted(set(prime_factors), reverse=True)
    stage1 = tuple(p for p in ps if p <= z0)
    stage2 = tuple(p for p in ps if z0 < p <= z)
    t1 = sum(mu for _, mu in _chain(stage1, D0, 10, sign))
    t2 = sum(mu for _, mu in _chain(stage2, D, 2, sign))
    return t1 * t2


def composed_theta(n: int, params: MajorantParams, sign: int) -> int:
    """theta_pm(n) for the inner-variable sieve (level D1, ranges z1/z0)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return composed_theta_factored(
        distinct_prime_factors(n), params.D1, params.D0, params.z1, params.z0, sign
    )


# ---------------------------------------------------------------------------
# majorant assembly


class MajorantEvaluator:
    """Caches the inner weights w1, w2, w3 and error parts per l <= sqrt(x)."""

    def __init__(self, params: MajorantParams):
        self.params = params
        self._w: dict[int, tuple[float, float, float, float]] = {}

    def weights_with_error(self, l: int) -> tuple[float, float, float, float]:
        cached = self._w.get(l)
        if cached is not None:
            return cached
        p = self.params
        logsx = p.log_sqrt_x
        facs = factorize(l)
        primes = [q for q, _ in facs]

        w1 = logsx * composed_theta_factored(primes, p.D1, p.D0, p.z1, p.z0, +1)

        w2 = 0.0
        mids = [q for q in set(primes) if p.z1 <= q < p.z]
        for q in mids:
            w2 -= 0.5 * logsx * composed_theta_factored(
                distinct_prime_factors(l // q), p.D1 / q, p.D0, p.z1, p.z0, -1
            )

        w3 = 0.0
        for q1, q2, q3 in combinations(sorted(mids), 3):
            if rough_indicator(l // (q1 * q2 * q3), q1):
                w3 += 0.5 * logsx

        lam_l = math.log(facs[0][0]) if len(facs) == 1 else 0.0  # Lambda(l)
        e1 = lam_l if (len(facs) == 1 and facs[0][0] <= p.z) else 0.0
        e2 = e1
        if any(e > 1 and q > p.z1 for q, e in facs):
            e2 = e1 + max(0.0, lam_l - (w1 + w2 + w3) - e1)

        result = (w1, w2, w3, e2)
        self._w[l] = result
        return result

    def omega_outer(self, n: int) -> float:
        """Outer upper sieve Omega(n, x) = theta_plus(n; level x^(1/2-d0)) log x."""
        p = self.params
        theta = composed_theta_factored(
            distinct_prime_factors(n), p.omega_level, p.D0, p.omega_range, p.z0, +1
        )
        return theta * math.log(p.x)

    def e3(self, n: int) -> float:
        facs = factorize(n)
        if len(facs) == 1 and facs[0][0] <= self.params.omega_range:
            return math.log(facs[0][0])  # Lambda(n)
        return 0.0

    def lambda_plus(self, n: int) -> float:
        """The pointwise majorant Lambda_plus(n, x) >= LL(n)."""
        if n > self.params.x:
            raise ValueError("n must be <= x")
        s1 = s2 = s3 = se2 = 0.0
        # the inner variable l runs over all integers, not only primes; with the
        # temporaries of fi_decompositions, 33 bytes per l (tracemalloc at 1e12)
        check_bytes(33 * math.isqrt(n - 1) + 8192, f"majorant at {n}")
        for d in fi_decompositions(n, np.arange(1, math.isqrt(n - 1) + 1)):
            w1, w2, w3, e2 = self.weights_with_error(d.l)
            s1 += w1
            s2 += w2
            s3 += w3
            se2 += e2
        lam = mangoldt(n)
        total = lam * (s1 + s2)
        if s3:
            total += (self.omega_outer(n) + self.e3(n)) * s3
        total += lam * se2
        return total


@dataclass(frozen=True)
class MajorantTable:
    """Bulk arrays over n <= x: the majorant and its components."""

    lam_plus: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    s3: np.ndarray
    error: np.ndarray


def majorant_table(x: int) -> MajorantTable:
    """Vectorised Lambda_plus over all n <= x via (k, l) pair iteration.

    Six float64 tables of x + 1 stay alive (s1, s2 and s3 are rows of one
    block with the error sum) and the Mangoldt table and sum temporaries
    come and go: 58 bytes per integer are checked before allocating
    (tracemalloc peak: 57.96 at x = 10^5, 56.87 at 10^6, 56.60 at 10^7).
    """
    check_bytes(58 * (x + 1), f"majorant table to {x}")
    ev = MajorantEvaluator(MajorantParams(x=x))
    s1, s2, s3, se2 = sums = np.zeros((4, x + 1))
    # the majorant's inner variable l runs over all integers, not only primes
    for l, ns in fi_pairs(x, range(1, math.isqrt(x - 1) + 1)):
        for s, w in zip(sums, ev.weights_with_error(l)):
            if w:
                s[ns] += w
    lam = mangoldt_table(x)
    lam_plus = lam * (s1 + s2 + se2)
    error = lam * se2
    if np.any(s3):
        idx = np.flatnonzero(s3)
        e3 = np.array([ev.e3(int(n)) for n in idx])
        lam_plus[idx] += (np.array([ev.omega_outer(int(n)) for n in idx]) + e3) * s3[idx]
        error[idx] += e3 * s3[idx]
    return MajorantTable(lam_plus=lam_plus, s1=s1, s2=s2, s3=s3, error=error)
