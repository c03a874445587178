"""Prime sieving and the weighted count of primes of the form k^2 + (prime)^2.

A prime p with p = k^2 + l^2, k >= 1 an integer and l prime, is called an
FI prime here.  The weight carried through the whole package is

    LL(n) = Lambda(n) * sum_{n = k^2 + l^2, k >= 1, l prime} log l,

where Lambda is the von Mangoldt function.  Summing LL(n) over n <= x is done
by visiting (k, l) pairs directly instead of factoring every n, which keeps
the work near-linear in x.  The expected mean value of LL is governed by the
Euler product H computed in :mod:`fiprimes.local`.

Convention: the representation count is over ordered pairs with k >= 1 and l
prime, so e.g. 13 = 2^2 + 3^2 = 3^2 + 2^2 contributes both (k,l) = (2,3) and
(3,2).  Under this convention sum_{n<=x} LL(n) ~ (H/2) x; the factor 1/2
against H x is the calibrated pair-convention multiplier (a sum over k of
both signs would give H x).

Every prime table comes from one segmented sieve of Eratosthenes over odd
numbers only (the design of primesieve and of Oliveira e Silva, Herzog and
Pardi, Math. Comp. 83, 2014).  It indexes the odd number 2i + 1 by i and
marks odd composites in one fixed-size segment buffer at a time, starting
each base prime at its first odd multiple in the segment.  ``simple_sieve``
and ``sieve_range`` both run on it and add the single even prime 2 by hand.
"""

from __future__ import annotations

import itertools
import math
import os
import tempfile
import zlib
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator, Optional

import numpy as np


class CapacityError(ValueError):
    """A request exceeds the configured memory/size caps."""


MAX_SEGMENT = 1 << 27          # largest (lo, hi] window sieve_range accepts
MAX_BASE = 10**8               # largest allowed sqrt(hi)
MAX_COUNT_X = 2 * 10**9        # cap for fi_weighted_count
MAX_TABLE_BYTES = 2 * 10**9    # budget for the arrays of one bulk table


def check_bytes(nbytes: int, what: str) -> None:
    """Raise CapacityError when a table's byte estimate exceeds MAX_TABLE_BYTES.

    Call it before allocating, so an oversized request fails cleanly
    instead of with a numpy allocation error or by exhausting memory.
    """
    if nbytes > MAX_TABLE_BYTES:
        raise CapacityError(f"{what} needs {nbytes} bytes, over the budget of {MAX_TABLE_BYTES}")


# Odd numbers per segment of the sieve kernel (one byte each).  Medians of
# five simple_sieve(10**8) runs on a 2-core Xeon VM with 2 MiB of L2 per
# core: 1.05 s at 2^15, 0.68 s at 2^16, 0.44 s at 2^17, 0.28 s at 2^18,
# 0.23 s at 2^19, 0.19 s at 2^20, 0.23 s at 2^21, 0.26 s at 2^22.  Smaller
# segments pay the Python loop over base primes once per segment too often;
# 2^20 is the largest size whose segment still sits well inside L2.
SEGMENT_BYTES = 1 << 20

# Calibrated pair-convention multiplier: sum_{n<=x} LL(n) ~ R * H * x under
# the ordered (k >= 1, l prime) convention.  Empirically the ratio sits at
# 0.486 by x = 1e7 and 0.491 by 4e7.  A k-over-both-signs convention would
# give R = 1.
CONVENTION_MULTIPLIER = 0.5

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=32)
def simple_sieve(limit: int) -> np.ndarray:
    """Read-only boolean primality array of length limit+1 (index = integer).

    The odd slots ``is_prime[1::2]`` are filled by the segmented odd-only
    sieve one ``SEGMENT_BYTES`` segment at a time (2^20 odd numbers, sized to
    stay in a per-core L2 cache; see the constant for the sweep), and
    ``is_prime[2]`` is set by hand.  Exactness: the result is the same
    boolean array as the plain all-integers sieve of Eratosthenes, element
    for element; only the order in which composites are struck out changes.
    Peak memory is this array plus one segment and the base primes up to
    sqrt(limit).
    """
    if limit < 0:
        raise ValueError("limit must be >= 0")
    is_prime = np.zeros(limit + 1, dtype=bool)
    _sieve_odd(is_prime[1::2], 0)
    if limit >= 2:
        is_prime[2] = True
    is_prime.setflags(write=False)
    return is_prime


@lru_cache(maxsize=32)
def primes_upto(limit: int) -> np.ndarray:
    """Sorted array of primes <= limit."""
    primes = np.flatnonzero(simple_sieve(limit)).astype(np.int64)
    primes.setflags(write=False)
    return primes


@lru_cache(maxsize=8)
def spf_table(limit: int) -> np.ndarray:
    """Smallest-prime-factor table for 0..limit (spf[0] = spf[1] = 0).

    The smallest prime factor of a composite n is some p <= sqrt(n), and
    p strikes n from p^2 on; striking in descending order of p leaves the
    smallest such p in place.  A prime is its own smallest factor.
    """
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in reversed(primes_upto(math.isqrt(limit)).tolist()):
        spf[p * p :: p] = p
    primes = primes_upto(limit)
    spf[primes] = primes
    spf.setflags(write=False)
    return spf


def factorize(n: int, spf: Optional[np.ndarray] = None) -> list[tuple[int, int]]:
    """Prime factorization as a sorted list of (p, exponent)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out: list[tuple[int, int]] = []
    if spf is not None and n < len(spf):
        while n > 1:
            p = int(spf[n])
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        return out
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def distinct_prime_factors(n: int, spf: Optional[np.ndarray] = None) -> list[int]:
    return [p for p, _ in factorize(n, spf)]


def euler_phi(n: int) -> int:
    out = n
    for p, _ in factorize(n):
        out = out // p * (p - 1)
    return out


def is_prime_int(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # the smallest strong pseudoprimes to bases (2, 3, 5) and (2, 3, 5, 7)
    k = 3 if n < 25_326_001 else 4 if n < 3_215_031_751 else len(_MR_WITNESSES)
    for a in _MR_WITNESSES[:k]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def mangoldt(n: int) -> float:
    """Von Mangoldt Lambda(n): log p if n = p^j, else 0."""
    if n < 2:
        return 0.0
    if is_prime_int(n):
        return math.log(n)
    for j in range(2, n.bit_length() + 1):
        r = round(n ** (1.0 / j))
        for cand in (r - 1, r, r + 1):
            if cand >= 2 and cand**j == n and is_prime_int(cand):
                return math.log(cand)
    return 0.0


def mangoldt_table(x: int) -> np.ndarray:
    """Array of Lambda(n) for 0 <= n <= x."""
    lam = np.zeros(x + 1, dtype=np.float64)
    pr = primes_upto(x) if x >= 2 else np.array([], dtype=np.int64)
    lam[pr] = np.log(pr.astype(np.float64))
    for pk, lp in prime_power_map(x).items():
        lam[pk] = lp
    return lam


def prime_power_map(x: int) -> dict[int, float]:
    """{p^j: log p} for prime powers p^j <= x with j >= 2."""
    out: dict[int, float] = {}
    for p in primes_upto(math.isqrt(x)):
        p = int(p)
        lp = math.log(p)
        pk = p * p
        while pk <= x:
            out[pk] = lp
            pk *= p
    return out


# ---------------------------------------------------------------------------
# segmented sieving


@dataclass(frozen=True)
class PrimeTable:
    """Primality bitset over the half-open interval (lo, hi].

    bits[i] corresponds to n = lo + 1 + i.
    """

    lo: int
    hi: int
    bits: np.ndarray

    def contains(self, n: int) -> bool:
        if not (self.lo < n <= self.hi):
            raise ValueError(f"{n} outside ({self.lo}, {self.hi}]")
        return bool(self.bits[n - self.lo - 1])

    def primes(self) -> np.ndarray:
        return np.flatnonzero(self.bits) + self.lo + 1

    def count(self) -> int:
        return int(self.bits.sum())


def sieve_range(lo: int, hi: int, max_segment: int = MAX_SEGMENT) -> PrimeTable:
    """Primality bitset for the interval (lo, hi], from the segmented sieve.

    Memory is O(sqrt(hi) + (hi - lo)); a CapacityError is raised when either
    the window or the base sieve would exceed the configured caps.
    """
    if not (0 <= lo < hi):
        raise ValueError(f"need 0 <= lo < hi, got ({lo}, {hi})")
    if hi - lo > max_segment:
        raise CapacityError(f"segment length {hi - lo} exceeds cap {max_segment}")
    root = math.isqrt(hi)
    if root > MAX_BASE:
        raise CapacityError(f"base sieve bound {root} exceeds cap {MAX_BASE}")
    bits = np.zeros(hi - lo, dtype=bool)
    # bits[i] is n = lo + 1 + i, so the odd n sit at bits[lo & 1 :: 2]
    first_odd = lo & 1
    _sieve_odd(bits[first_odd::2], (lo + first_odd) // 2)
    if lo < 2 <= hi:
        bits[2 - lo - 1] = True
    return PrimeTable(lo=lo, hi=hi, bits=bits)


def _sieve_odd(out: np.ndarray, first: int) -> None:
    """Set out[j] to whether the odd number 2 (first + j) + 1 is prime.

    Odd indices [first, first + len(out)) are sieved in one reused buffer of
    ``SEGMENT_BYTES`` entries, segment by segment.  The odd multiples of an
    odd prime p are the indices i = (p - 1) / 2 (mod p), so p strikes a slice
    of step p from the index of p^2 or, in a segment that starts past p^2,
    from its first odd multiple there.  That start costs one modulo, no more
    than carrying it over from the previous segment would, so nothing is
    carried.  Base primes come in increasing order, so the loop stops at the
    first one whose square lies beyond the segment.
    """
    end = first + len(out)
    if end <= first:
        return
    ps = _odd_primes_upto(math.isqrt(2 * end - 1))
    seg = np.empty(min(SEGMENT_BYTES, end - first), dtype=bool)
    for lo in range(first, end, SEGMENT_BYTES):
        hi = min(lo + SEGMENT_BYTES, end)
        buf = seg[: hi - lo]
        buf[:] = True
        for p in ps:
            i = p * p >> 1
            if i >= hi:
                break
            if i < lo:
                i = lo + ((p >> 1) - lo) % p
            buf[i - lo :: p] = False
        out[lo - first : hi - first] = buf
    if first == 0:
        out[0] = False  # 1 is not prime


def _odd_primes_upto(limit: int) -> list[int]:
    """Odd primes <= limit (limit >= 1), in increasing order: the base primes.

    limit is sqrt of a window's top, so one unsegmented odd-only pass over a
    (limit + 1) / 2-byte bytearray is enough; the odd prime 2i + 1 strikes
    from 2i(i + 1), the index of its square.  A bytearray and no recursion
    keep the fixed per-call cost low, which dominates the many small sieves
    (limit + 1 up to a few thousand) that ``fi_decompositions`` asks for;
    numpy arrays here, or a recursive kernel call, made those calls 1.5 to 2
    times slower.
    """
    n = (limit + 1) // 2
    flags = bytearray([1]) * n
    flags[0] = 0  # 1 is not prime
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if flags[i]:
            sq = 2 * i * (i + 1)
            flags[sq :: 2 * i + 1] = bytes(len(range(sq, n, 2 * i + 1)))
    return list(itertools.compress(range(1, limit + 1, 2), flags))


# ---------------------------------------------------------------------------
# FI decompositions and the LL weight


@dataclass(frozen=True)
class FiDecomposition:
    """A representation n = k^2 + l^2 with k >= 1 and l prime."""

    k: int
    l: int


def fi_decompositions(n: int, ls: Optional[Iterable[int]] = None) -> list[FiDecomposition]:
    """All (k, l) with k >= 1, l in ``ls``, k^2 + l^2 = n, in the order of ``ls``.

    ``ls`` holds increasing Python ints, since the loop ends at the first l
    with l^2 >= n.  As in ``fi_pairs`` it defaults to the primes, so the
    result is the FI decompositions of n sorted by l.
    """
    return list(_iter_fi_decompositions(n, ls))


def _iter_fi_decompositions(n: int, ls: Optional[Iterable[int]] = None) -> Iterator[FiDecomposition]:
    """The loop behind ``fi_decompositions``, lazily, so a caller can stop at the first."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if ls is None:
        # a table whose limit is the power of two >= sqrt(n - 1), so that the
        # roots of many n share a few cached tables; rem < 1 ends the loop
        # there.  tolist() costs less than one int() per visited l.
        ls = primes_upto(1 << (math.isqrt(n - 1) - 1).bit_length()).tolist()
    for l in ls:
        rem = n - l * l
        if rem < 1:
            return
        k = math.isqrt(rem)
        if k * k == rem:
            yield FiDecomposition(k=k, l=l)


def is_fi_prime(p: int) -> bool:
    """True iff p is prime and has a representation k^2 + l^2, l prime, k >= 1."""
    if p < 5 or not is_prime_int(p):
        return False
    return next(_iter_fi_decompositions(p), None) is not None


def lambda_lambda(n: int) -> float:
    """LL(n) = Lambda(n) * sum over decompositions of log l."""
    if n < 1:
        raise ValueError("n must be >= 1")
    lam = mangoldt(n)
    if lam == 0.0:
        return 0.0
    s = sum(math.log(d.l) for d in fi_decompositions(n))
    return lam * s


def fi_pairs(x: int, ls: Optional[Iterable[int]] = None) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (l, ns) with ns = k^2 + l^2 for k = 1..isqrt(x - l^2), per l in ``ls``.

    ``ls`` defaults to the primes <= isqrt(x - 1), so the blocks hold every
    n = k^2 + l^2 <= x with k >= 1 and l prime, once per pair, in increasing
    l.  An l with no k >= 1 yields nothing.  Within a block ns is strictly
    increasing, so ``table[ns] += w`` adds w exactly once to each entry.
    Every pair sum over n <= x (LL, FI primes, the Type I inner weights,
    the sieve majorant) is a reduction over these blocks.

    Parity: an odd k with an odd l gives an even n > 2, which is neither a
    prime nor a prime power.  ``fi_weighted_count`` and the FI-prime table
    look only at those, so they read just the even k of each odd-l block
    through ``_prime_power_blocks`` (l = 2 keeps every k: 8 = 2^2 + 2^2
    carries Lambda(8)).  Every other consumer, ``lambda_lambda_table``
    included, visits all pairs.
    """
    if ls is None:
        ls = primes_upto(math.isqrt(x - 1)) if x >= 5 else ()
    for l in ls:
        l = int(l)
        if l * l >= x:
            continue
        ks = np.arange(1, math.isqrt(x - l * l) + 1, dtype=np.int64)
        yield l, ks * ks + l * l


def _prime_power_blocks(x: int) -> Iterator[tuple[int, np.ndarray]]:
    """``fi_pairs(x)`` cut by its parity rule: even k only for odd l, no empty block."""
    for l, ns in fi_pairs(x):
        if l != 2:
            ns = ns[1::2]
            if not len(ns):
                continue
        yield l, ns


def lambda_lambda_table(x: int) -> np.ndarray:
    """Array of LL(n) for 0 <= n <= x, built by pair iteration."""
    inner = np.zeros(x + 1, dtype=np.float64)
    for l, ns in fi_pairs(x):
        inner[ns] += math.log(l)
    inner *= mangoldt_table(x)
    return inner


@dataclass(frozen=True)
class FiCountResult:
    value: float
    h: float
    hx: float
    ratio: float


def fi_weighted_count(x: int) -> FiCountResult:
    """sum_{n <= x} LL(n), visiting (k, l) pairs rather than every n.

    Also reports the ratio against H*x.  Under the k >= 1 ordered-pair
    convention the ratio stabilises near 1/2.
    """
    from .local import reference_H

    if x < 2:
        raise ValueError("x must be >= 2")
    if x > MAX_COUNT_X:
        raise CapacityError(f"x={x} exceeds cap {MAX_COUNT_X}")
    is_p = simple_sieve(x)
    pps = prime_power_map(x)
    pp_keys = np.array(sorted(pps), dtype=np.int64)
    pp_vals = np.array([pps[int(k)] for k in pp_keys], dtype=np.float64)
    total = 0.0
    for l, ns in _prime_power_blocks(x):
        prime_part = np.log(ns[is_p[ns]].astype(np.float64)).sum()
        # search the few prime powers among the block, not the block among
        # them; both ascend, so the matches add up in the same order
        pos = np.minimum(np.searchsorted(ns, pp_keys), len(ns) - 1)
        pp_part = pp_vals[ns[pos] == pp_keys].sum()
        total += math.log(l) * (prime_part + pp_part)
    h = reference_H()
    return FiCountResult(value=total, h=h, hx=h * x, ratio=total / (h * x))


def fi_weighted_count_bruteforce(x: int) -> float:
    """Oracle: sum LL(n) by iterating n and decomposing each one."""
    lam = mangoldt_table(x)
    total = 0.0
    for n in range(5, x + 1):
        if lam[n] == 0.0:
            continue
        s = sum(math.log(d.l) for d in fi_decompositions(n))
        if s:
            total += lam[n] * s
    return total


# ---------------------------------------------------------------------------
# FI prime tables with a binary disk cache
#
# File format: one ASCII header line "fi-cache v3 <limit> <count> <crc32>",
# then count little-endian int64 primes.  count and crc32 cover the body after
# the header, so a torn or edited file is rejected instead of loading as a
# different table.  Any other header, the v2 text format included, is stale.

CACHE_HEADER = "fi-cache v3"
CACHE_ENV = "FI_CACHE_DIR"


def fi_primes_upto(limit: int, cache_dir: Optional[str | Path] = None) -> np.ndarray:
    """Sorted array of all FI primes <= limit.

    When a cache directory is given (or set via the FI_CACHE_DIR environment
    variable) the table is loaded from disk if a valid cache with a
    sufficient limit exists, and regenerated otherwise.
    """
    if limit < 5:
        return np.array([], dtype=np.int64)
    directory = cache_dir or os.environ.get(CACHE_ENV)
    if directory is not None:
        path = Path(directory) / "fi-primes.txt"
        cached = _load_cache(path)
        if cached is not None:
            cache_limit, arr = cached
            if cache_limit >= limit:
                return arr[arr <= limit]
        arr = _compute_fi_primes(limit)
        _write_cache(path, limit, arr)
        return arr
    return _compute_fi_primes(limit)


def _compute_fi_primes(limit: int) -> np.ndarray:
    # the sieve and the hits bitmap, one byte per integer each
    check_bytes(2 * (limit + 1), f"FI-prime table to {limit}")
    is_p = simple_sieve(limit)
    hits = np.zeros(limit + 1, dtype=bool)
    for _, ns in _prime_power_blocks(limit):
        hits[ns[is_p[ns]]] = True
    return np.flatnonzero(hits).astype(np.int64)


def _load_cache(path: Path) -> Optional[tuple[int, np.ndarray]]:
    try:
        data = path.read_bytes()
    except OSError:
        return None
    head, _, body = data.partition(b"\n")
    try:
        fields = head.decode("ascii").split()
        if len(fields) != 5 or " ".join(fields[:2]) != CACHE_HEADER:
            return None
        cache_limit, count, crc = (int(f) for f in fields[2:])
    except ValueError:
        return None
    if len(body) != 8 * count or zlib.crc32(body) != crc:
        return None
    arr = np.frombuffer(body, dtype="<i8")
    if len(arr) and (np.any(np.diff(arr) <= 0) or arr[-1] > cache_limit or arr[0] < 5):
        return None
    return cache_limit, arr


def _write_cache(path: Path, limit: int, arr: np.ndarray) -> None:
    """Write the table under a temporary name, then rename it over ``path``.

    Readers see the old file or the new one, never a partial one.  There is
    no fsync: a file torn by a crash fails its count or CRC and is rebuilt.
    """
    body = arr.astype("<i8", copy=False).tobytes()
    header = f"{CACHE_HEADER} {limit} {len(arr)} {zlib.crc32(body)}\n".encode("ascii")
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header + body)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise
