"""The Buchstab function and counts of rough numbers.

B(u) solves the delayed differential equation (u B(u))' = B(u - 1) with
B(u) = 0 below 1 and B(u) = 1/u on [1, 2].  Equivalently, on each interval
[k, k+1] with integer k >= 2,

    B(u) = (k B(k) + integral_k^u B(v - 1) dv) / u,

which gives the closed form (1 + log(u - 1))/u on [2, 3] and is continued
numerically beyond 3 on a fixed grid.  Everywhere 0 <= B(u) <= 1, and
B(u) <= (1 + log 2)/3 once u >= 3.

An integer is z-rough when all its prime factors exceed z (so 1 is rough
vacuously, indicator rho(n, z)).  Counts of z-rough n <= T are predicted by
integrating B(t, z) = B(log t / log z)/log z, and rho obeys the exact
combinatorial identity rho(n, z) = rho(n, w) + sum_{z < p <= w} rho(n/p, p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .primes import check_bytes, factorize, primes_upto
from .quadrature import adaptive_simpson

UPPER_PLATEAU = (1.0 + math.log(2.0)) / 3.0


def _closed_form(u: float) -> float:
    if u < 1.0:
        return 0.0
    if u <= 2.0:
        return 1.0 / u
    return (1.0 + math.log(u - 1.0)) / u


@dataclass
class BuchstabInterpolant:
    """Grid continuation of B(u) on [3, u_max] with step ``h``."""

    u_max: float = 10.0
    h: float = 1e-4
    values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.u_max < 3.0:
            raise ValueError("u_max must be >= 3")
        n = int(round((self.u_max - 3.0) / self.h))
        self.u_max = 3.0 + n * self.h
        vals = np.zeros(n + 1)
        vals[0] = _closed_form(3.0)
        # integrate (u B(u))' = B(u-1) with the trapezoid rule; grid knots
        # sit exactly on the integer kinks, so each panel is smooth
        g_prev = self._lookup_shifted(3.0, vals)
        acc = 3.0 * vals[0]
        for j in range(1, n + 1):
            u = 3.0 + j * self.h
            g_cur = self._lookup_shifted(u, vals)
            acc += 0.5 * self.h * (g_prev + g_cur)
            vals[j] = acc / u
            g_prev = g_cur
        self.values = vals

    def _lookup_shifted(self, u: float, vals: np.ndarray) -> float:
        v = u - 1.0
        if v < 3.0 - 1e-12:
            return _closed_form(v)
        j = (v - 3.0) / self.h
        idx = int(round(j))
        if abs(j - idx) < 1e-9:
            return float(vals[idx])
        lo = int(math.floor(j))
        t = j - lo
        return float((1.0 - t) * vals[lo] + t * vals[lo + 1])

    def eval(self, u: float) -> float:
        if u < 3.0:
            return _closed_form(u)
        if u > self.u_max + 1e-12:
            raise ValueError(f"u={u} beyond u_max={self.u_max}; build a larger table")
        j = (min(u, self.u_max) - 3.0) / self.h
        lo = min(int(math.floor(j)), len(self.values) - 2)
        t = j - lo
        return float((1.0 - t) * self.values[lo] + t * self.values[lo + 1])


@lru_cache(maxsize=4)
def default_interpolant(u_max: float = 10.0, h: float = 1e-4) -> BuchstabInterpolant:
    return BuchstabInterpolant(u_max=u_max, h=h)


def buchstab_B(u: float, interpolant: Optional[BuchstabInterpolant] = None) -> float:
    """B(u): exact piecewise forms below 3, grid continuation beyond."""
    if not math.isfinite(u):
        raise ValueError("u must be finite")
    if u < 3.0:
        return _closed_form(u)
    interp = interpolant or default_interpolant()
    return interp.eval(u)


def rough_indicator(n: int, z: float) -> int:
    """1 iff every prime factor of n exceeds z (vacuous for n = 1), by trial division.

    Prime factors are integers, so "every prime factor >= p" for an integer
    p is ``rough_indicator(n, p - 1)``.  ``rough_mask`` is the bulk form.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return 0 if any(p <= z for p, _ in factorize(n)) else 1


def rough_mask(limit: int, z: float) -> np.ndarray:
    """Fresh bool array with mask[n] == rough_indicator(n, z) for 0 < n <= limit.

    mask[0] is False.  Built by striking the multiples of every prime
    p <= z; primes above the limit strike nothing.  Raises CapacityError,
    before allocating, when its limit + 1 bytes exceed the table budget.
    """
    if limit < 0:
        raise ValueError("limit must be >= 0")
    check_bytes(limit + 1, f"rough mask to {limit}")
    mask = np.ones(limit + 1, dtype=bool)
    mask[0] = False
    for p in primes_upto(int(max(0.0, min(z, limit)))).tolist():
        mask[p::p] = False
    return mask


@dataclass(frozen=True)
class RoughCount:
    exact: int
    predicted: float
    reliable: bool


def rough_count(T: int, z: float) -> RoughCount:
    """Exact count of z-rough n <= T next to the integral prediction.

    The prediction integrates B(t, z) = B(log t/log z)/log z over (0, T],
    splitting at the kink points t = z^j.  It is flagged unreliable when
    z < T^0.1 (outside the validity range of the approximation); the exact
    count is returned regardless.
    """
    if not (2 <= z <= T):
        raise ValueError("need 2 <= z <= T")
    exact = int(np.count_nonzero(rough_mask(T, z)))

    log_z = math.log(z)
    u_top = math.log(T) / log_z
    interp = default_interpolant() if u_top <= 10.0 else default_interpolant(u_max=math.ceil(u_top) + 1.0)
    predicted = 0.0
    lo = 1.0
    while lo < u_top - 1e-12:
        hi = min(math.floor(lo + 1.0), u_top)
        val, _ = adaptive_simpson(
            lambda u: buchstab_B(u, interp) * math.exp(u * log_z), lo, hi, tol=1e-9 * T
        )
        predicted += val
        lo = hi
    reliable = z >= T**0.1
    return RoughCount(exact=exact, predicted=predicted, reliable=reliable)


def buchstab_identity_check(n: int, z: float, w: float) -> bool:
    """Exact check of rho(n, z) = rho(n, w) + sum_{z < p <= w, p | n} [P-(n/p) >= p].

    The cofactor condition is "no prime factor below p" (>= p rather than
    > p); with a strict cutoff the term at p would miss n divisible by p^2
    and the identity would fail, e.g. at n = 25.  In this form it is an
    exact combinatorial identity for every n >= 1.
    """
    if not z < w:
        raise ValueError("need z < w")
    lhs = rough_indicator(n, z)
    rhs = rough_indicator(n, w)
    for p, _ in factorize(n):
        if z < p <= w:
            rhs += rough_indicator(n // p, p - 1)
    return lhs == rhs


def buchstab_identity_scan(limit: int, z: float, w: float) -> int:
    """Number of n <= limit violating the identity (0 expected); bulk version.

    The right side is summed as integers, so a cofactor counted twice shows
    up as a violation rather than being absorbed by a boolean or.  Raises
    CapacityError, before allocating, when its 10 (limit + 1) bytes exceed
    the table budget: lhs, the int64 rhs and rough_mask(limit, w) before
    its cast (later masks are shorter, and += casts them in buffers).
    """
    if not z < w:
        raise ValueError("need z < w")
    check_bytes(10 * (limit + 1), f"Buchstab identity scan to {limit}")
    lhs = rough_mask(limit, z)
    rhs = rough_mask(limit, w).astype(np.int64)
    for p in primes_upto(min(int(w), limit)).tolist():
        if p > z:
            rhs[p::p] += rough_mask(limit // p, p - 1)[1:]
    return int(np.count_nonzero(lhs != rhs))
