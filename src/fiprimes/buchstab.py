"""The Buchstab function and counts of rough numbers.

B(u) solves the delayed differential equation (u B(u))' = B(u - 1) with
B(u) = 0 below 1 and B(u) = 1/u on [1, 2].  Equivalently, on each interval
[k, k+1] with integer k >= 2,

    B(u) = (k B(k) + integral_k^u B(v - 1) dv) / u,

which gives the closed form (1 + log(u - 1))/u on [2, 3] and is continued
numerically beyond 3 on one shared, read-only grid table, first built to
u = 10 and rebuilt to ceil(u) + 1 for a u past its end (a longer table has
the shorter as its prefix, so no value changes).  Everywhere
0 <= B(u) <= 1, and B(u) <= (1 + log 2)/3 once u >= 3.

An integer is z-rough when all its prime factors exceed z (so 1 is rough
vacuously, indicator rho(n, z)).  Counts of z-rough n <= T are predicted by
integrating B(t, z) = B(log t / log z)/log z, and rho obeys the exact
combinatorial identity rho(n, z) = rho(n, w) + sum_{z < p <= w} rho(n/p, p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .primes import SEGMENT_BYTES, _pi_bound, _sieve_odd, check_bytes, factorize, primes_upto
from .quadrature import adaptive_simpson

UPPER_PLATEAU = (1.0 + math.log(2.0)) / 3.0


def _closed_form(u: float) -> float:
    if u < 1.0:
        return 0.0
    if u <= 2.0:
        return 1.0 / u
    return (1.0 + math.log(u - 1.0)) / u


# B on the grid 3 + j H; the knots fall on the integer kinks of B
H = 1e-4
_STEPS = 10_000  # knots per unit of u
_BLOCK = 1_000  # knots per block of the march, a divisor of _STEPS; small blocks keep temporaries small
_values: Optional[np.ndarray] = None


def _march(u_end: int) -> np.ndarray:
    """Read-only B on [3, u_end]: the trapezoid rule for (u B(u))' = B(u - 1).

    Block by block, B(u - 1) comes from the closed forms on [3, 4] and from
    the table one unit back after that; the running integral is carried
    through cumsum, which adds in order like a loop.
    """
    n = (u_end - 3) * _STEPS + 1
    check_bytes(8 * n, f"Buchstab table to u = {u_end}")
    vals = np.empty(n)
    vals[0] = _closed_form(3.0)
    acc = 3.0 * vals[0]
    for start in range(0, n - 1, _BLOCK):
        j = np.arange(start, start + _BLOCK + 1)
        u = 3.0 + j * H
        g = vals[j - _STEPS] if start >= _STEPS else np.array([_closed_form(v) for v in (u - 1.0).tolist()])
        sums = np.cumsum(np.concatenate(([acc], 0.5 * H * (g[:-1] + g[1:]))))
        vals[j[1:]] = sums[1:] / u[1:]
        acc = sums[-1]
    vals.flags.writeable = False
    return vals


def _table(u: float) -> np.ndarray:
    """The shared table, built to u = 10 and rebuilt to ceil(u) + 1 for a u past its end."""
    global _values
    if _values is None or u > 3.0 + (len(_values) - 1) * H:
        _values = _march(10 if u <= 10.0 else math.ceil(u) + 1)
    return _values


def default_interpolant() -> None:
    """Build the shared table (to u = 10) ahead of the first B(u) call."""
    _table(3.0)


def buchstab_B(u: float | np.ndarray) -> float | np.ndarray:
    """B(u) for a float or an ndarray: closed forms below 3, the shared table beyond.

    Raises CapacityError when the table that u needs exceeds the byte budget.
    """
    if isinstance(u, np.ndarray):
        if not np.isfinite(u).all():
            raise ValueError("u must be finite")
        out = np.zeros_like(u, dtype=float)
        band1 = (u >= 1.0) & (u <= 2.0)
        out[band1] = 1.0 / u[band1]
        band2 = (u > 2.0) & (u < 3.0)
        out[band2] = (1.0 + np.log(u[band2] - 1.0)) / u[band2]
        high = u >= 3.0
        if high.any():
            vals = _table(float(u[high].max()))
            j = (u[high] - 3.0) / H
            lo = np.minimum(np.floor(j).astype(np.intp), len(vals) - 2)
            t = j - lo
            out[high] = (1.0 - t) * vals[lo] + t * vals[lo + 1]
        return out
    if not math.isfinite(u):
        raise ValueError("u must be finite")
    if u < 3.0:
        return _closed_form(u)
    vals = _table(u)
    j = (u - 3.0) / H
    lo = min(int(math.floor(j)), len(vals) - 2)
    t = j - lo
    return float((1.0 - t) * vals[lo] + t * vals[lo + 1])


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

    mask[0] is False, the even n are rough only for z < 2 (or NaN) and the
    odd n come from ``_strike_odd``, whose kernel strikes the strided odd
    slots through one segment buffer.  Raises CapacityError, before
    allocating, past ``_check_rough_bytes`` with limit + 1 bytes of flags
    and that segment, min(2^20, (limit + 1) / 2) bytes.
    """
    if limit < 0:
        raise ValueError("limit must be >= 0")
    _check_rough_bytes(limit + 1 + min(SEGMENT_BYTES, (limit + 1) // 2), limit, z)
    mask = np.full(limit + 1, not z >= 2)
    _strike_odd(mask[1::2], z)
    mask[0] = False
    return mask


def _check_rough_bytes(nbytes: int, limit: int, z: float) -> None:
    """The budget of nbytes for flags, 2 per integer to min(z, limit) for the cached sieve and
    its segment, 64 per prime there (two int64 arrays, then the cached one and a list of
    ints; at most ``_pi_bound`` primes), and 4 KB."""
    top = int(max(0.0, min(z, limit)))
    check_bytes(nbytes + 2 * (top + 1) + 64 * _pi_bound(top) + 4096, f"rough mask to {limit}")


def _strike_odd(odd: np.ndarray, z: float) -> np.ndarray:
    """odd[i] = rough_indicator(2 i + 1, z), returned: the survivors of the
    one odd-only kernel, ``primes._sieve_odd``, over the odd primes
    p <= min(z, sqrt N), N = 2 len(odd) - 1, with each odd prime p <= z then
    struck at p >> 1.  Exact: an odd composite n <= N with a prime factor
    <= z has its least one, p0 <= min(z, sqrt N), and n >= p0^2, where the
    kernel strikes it; index 0, the number 1, stays rough.
    """
    top = 2 * len(odd) - 1  # N, or -1 for no entries
    ps = primes_upto(int(max(0.0, min(z, top))))[1:]
    _sieve_odd(odd, ps[ps <= math.isqrt(max(top, 0))].tolist())
    odd[ps >> 1] = False
    return odd


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
    count is returned regardless.  Raises CapacityError, before allocating,
    past the budget of ``_check_rough_bytes``; the shared B table checks its own.
    """
    if not (2 <= z <= T):
        raise ValueError("need 2 <= z <= T")
    # z >= 2 leaves only odd n rough: the odd half of a mask, and 16 KB for the
    # prediction's quadrature (at most 40 nested calls of about 16 floats)
    _check_rough_bytes((T + 1) // 2 + (1 << 14), T, z)
    exact = int(np.count_nonzero(_strike_odd(np.empty((T + 1) // 2, dtype=bool), z)))

    log_z = math.log(z)
    u_top = math.log(T) / log_z
    predicted = 0.0
    lo = 1.0
    while lo < u_top - 1e-12:
        hi = min(math.floor(lo + 1.0), u_top)
        val, _ = adaptive_simpson(
            lambda u: buchstab_B(u) * math.exp(u * log_z), lo, hi, tol=1e-9 * T
        )
        predicted += val
        lo = hi
    reliable = z >= T**0.1
    return RoughCount(exact=exact, predicted=predicted, reliable=reliable)
