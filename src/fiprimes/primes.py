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

Prime tables up to x come from ``simple_sieve``, one segmented sieve of
Eratosthenes over odd numbers only (the design of primesieve and of Oliveira
e Silva, Herzog and Pardi, Math. Comp. 83, 2014).  It indexes the odd number
2i + 1 by i and marks odd composites in one fixed-size segment buffer at a
time, starting each base prime at its first odd multiple in the segment; the
single even prime 2 is added by hand.

The FI primes, ``fi_weighted_count`` and the W-tricked sequence need the
primes n = k^2 + l^2 only, and take them from a sieve of each row l
instead (``_prime_power_rows``): an odd prime q divides k^2 + l^2 only at
the two roots k = +-s l of -1 mod q, or at q = l | k.  This is the line
sieve of the quadratic sieve (Pomerance, 1985) on the Gaussian primes
k + l i (Fouvry and Iwaniec, "Gaussian primes", Acta Arith. 79, 1997); it
needs ``simple_sieve`` only up to sqrt(x) and no array that grows with x.
The prime powers among the n come from Z[i] (``_prime_power_pairs``).
Beyond the tables, ``is_prime_int`` (deterministic Miller-Rabin) and
``factorize`` (trial division) answer for one n at a time.
"""

from __future__ import annotations

import itertools
import math
import os
import tempfile
import weakref
import zlib
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional

import numpy as np


class CapacityError(ValueError):
    """A request exceeds the configured memory/size caps."""


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

# Pairs per batch of rows in the row sieve (``_prime_power_rows``), one flag
# byte each.  In-process medians of fi_weighted_count(10**8) (five runs) and
# (4 * 10**8) (three) on the VM above: 0.38 / 1.18 s at 2^19, 0.38 / 1.28 s
# at 2^20, 0.39 / 1.17 s at 2^21, 0.40 / 1.27 s at 2^22, 0.42 / 1.47 s at
# 2^23; the FI-prime table follows the same curve.  Past 2^21 the flags
# leave L2 and the strikes slow down; below, nothing is gained, and each
# batch holds less memory.
ROW_BATCH = 1 << 20

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
    _sieve_odd(is_prime[1::2])
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


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization as a sorted list of (p, exponent), by trial division."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out: list[tuple[int, int]] = []
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


def distinct_prime_factors(n: int) -> list[int]:
    return [p for p, _ in factorize(n)]


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
    keys, logs = _prime_power_arrays(x)
    lam[keys] = logs
    return lam


def _prime_power_arrays(x: int) -> tuple[np.ndarray, np.ndarray]:
    """The prime powers p^j <= x with j >= 2 in increasing order, and log p for each."""
    ps = primes_upto(math.isqrt(x))
    logs = np.array([math.log(p) for p in ps.tolist()], dtype=np.float64)
    # powers[j - 2] = the p^j <= x; they belong to a prefix of the ascending ps
    powers = [ps * ps]
    while len(powers[-1]):
        pk = powers[-1] * ps[: len(powers[-1])]
        powers.append(pk[pk <= x])
    keys = np.concatenate(powers)
    order = np.argsort(keys)
    return keys[order], np.concatenate([logs[: len(pk)] for pk in powers])[order]


# ---------------------------------------------------------------------------
# segmented sieving


def _sieve_odd(out: np.ndarray) -> None:
    """Set out[i] to whether the odd number 2 i + 1 is prime.

    The odd indices are sieved in one reused buffer of ``SEGMENT_BYTES``
    entries, segment by segment.  The odd multiples of an odd prime p are
    the indices i = (p - 1) / 2 (mod p), so p strikes a slice of step p from
    the index of p^2 or, in a segment that starts past p^2, from its first
    odd multiple there.  That start costs one modulo, no more than carrying
    it over from the previous segment would, so nothing is carried.  Base
    primes come in increasing order, so the loop stops at the first one
    whose square lies beyond the segment.
    """
    end = len(out)
    if end == 0:
        return
    ps = _odd_primes_upto(math.isqrt(2 * end - 1))
    seg = np.empty(min(SEGMENT_BYTES, end), dtype=bool)
    for lo in range(0, end, SEGMENT_BYTES):
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
        out[lo:hi] = buf
    out[0] = False  # 1 is not prime


def _odd_primes_upto(limit: int) -> list[int]:
    """Odd primes <= limit (limit >= 1), in increasing order: the base primes.

    limit is sqrt of the sieve's top, so one unsegmented odd-only pass over a
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
    if n < 1:
        raise ValueError("n must be >= 1")
    if ls is None:
        # a table whose limit is the power of two >= sqrt(n - 1), so that the
        # roots of many n share a few cached tables; rem < 1 ends the loop
        # there.  tolist() costs less than one int() per visited l.
        ls = primes_upto(1 << (math.isqrt(n - 1) - 1).bit_length()).tolist()
    out = []
    for l in ls:
        rem = n - l * l
        if rem < 1:
            break
        k = math.isqrt(rem)
        if k * k == rem:
            out.append(FiDecomposition(k=k, l=l))
    return out


def is_fi_prime(p: int) -> bool:
    """True iff p is prime and has a representation k^2 + l^2, l prime, k >= 1.

    A prime p = 1 (mod 4) is a^2 + b^2 with a > b > 0 in exactly one way,
    so it is an FI prime iff a or b is prime.  A prime p = 3 (mod 4) is no
    sum of two squares, and 2 = 1 + 1 has no prime part.
    """
    if p % 4 != 1 or not is_prime_int(p):
        return False
    a, b = _two_squares(p)
    return is_prime_int(a) or is_prime_int(b)


def _two_squares(p: int) -> tuple[int, int]:
    """(a, b), a >= b >= 1, with a^2 + b^2 = p, for p = 2 or a prime p = 1 (4):
    a is the first remainder below sqrt(p) of Euclid's algorithm on p and a
    root of s^2 = -1 (mod p) (s = 1 for p = 2); Brillhart, Math. Comp. 26, 1972."""
    root = math.isqrt(p)
    a, b = p, _sqrt_minus_one(p)
    while b > root:
        a, b = b, a % b
    return b, math.isqrt(p - b * b)


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

    ``inner_weight_table`` and the sieve majorant reduce over these blocks.
    """
    if ls is None:
        ls = primes_upto(math.isqrt(x - 1)) if x >= 5 else ()
    for l in ls:
        l = int(l)
        if l * l >= x:
            continue
        ks = np.arange(1, math.isqrt(x - l * l) + 1, dtype=np.int64)
        yield l, ks * ks + l * l


def _prime_power_rows(x: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (l, primes): the primes k^2 + l^2 <= x of row l, ascending, over
    the even k >= 2 if l is odd (n is even and > 2 at odd k) and every k >= 1
    if l = 2.  Rows come in increasing l; a row may hold no prime.

    Exactness: an odd prime q divides n = k^2 + l^2 only if q = 1 (4) and
    k = +-s l (mod q) with s^2 = -1 (mod q), or if q = l and q | k (for
    q = 3 (4), -1 is not a square mod q, so q | n forces q | k and q | l).
    So each row is sieved by its two residues per prime q = 1 (4) up to
    sqrt(x), by l itself, and, in the l = 2 row, by 2 at the even k.  That
    strikes every composite n and also n = q itself, so the n <= sqrt(x)
    are re-read from ``simple_sieve(isqrt(x))``.  No array grows with x:
    rows are sieved ``ROW_BATCH`` pairs at a time.
    """
    ls, lens = _row_lengths(x)
    if not ls:
        return
    root = math.isqrt(x)
    small = simple_sieve(root)
    qs = [q for q in _odd_primes_upto(root) if q % 4 == 1]
    # s / 2 (mod q): row l strikes k = 2 (j + 1) = +-s l, i.e. j = +-l s / 2 - 1
    halves = [_sqrt_minus_one(q) * (q + 1) // 2 % q for q in qs]
    for a, b in _runs(lens, ROW_BATCH):
        flags = _sieve_rows(ls[a:b], lens[a:b], qs, halves)
        start = 0
        for l, n in zip(ls[a:b], lens[a:b]):
            step = 1 if l == 2 else 2
            row = flags[start : start + n]
            start += n
            if l * l < root:
                ks = np.arange(step, math.isqrt(root - l * l) + 1, step, dtype=np.int64)
                row[: len(ks)] = small[ks * ks + l * l]
            ks = step * (np.flatnonzero(row) + 1)  # index j holds k = step (j + 1)
            yield l, ks * ks + l * l


def _prime_power_pairs(x: int, keys: np.ndarray) -> dict[int, np.ndarray]:
    """{l: the positions of the p^j = k^2 + l^2 of row l of ``_prime_power_rows(x)``
    in ``keys`` (from ``_prime_power_arrays(x)``), ascending}, in increasing l.

    Z[i] factors uniquely.  A p = 3 (4) stays prime there, so p^j = u^2 + v^2
    only with u v = 0.  For p = 2 or 1 (4), p = a^2 + b^2 = pi conj(pi) with
    pi = a + b i, and a z of norm p^j is a unit times pi^i conj(pi)^(j - i),
    that is p^i conj(pi)^(j - 2i) with i <= j / 2, or its conjugate; units
    and conjugates only swap and negate the parts.  So the u, v >= 0 are
    p^i (|Re pi^m|, |Im pi^m|), m = j - 2i, in both orders.  Those with
    k >= 1 and l prime lie in the rows: k is even for odd l and odd p^j, and
    for p = 2 odd k and l give 2 (mod 8); l = 2 gives 8."""
    small = simple_sieve(math.isqrt(x))
    at = {n: i for i, n in enumerate(keys.tolist())}
    hits = set()  # (l, position in keys)
    ps = primes_upto(math.isqrt(x))
    for p in ps[ps % 4 != 3].tolist():
        a, b = _two_squares(p)
        w = [(1, 0), (a, b)]  # the parts of pi^m, m = 0, 1, ...
        j, pj = 2, p * p
        while pj <= x:
            re, im = w[-1]
            w.append((re * a - im * b, re * b + im * a))
            for i in range(j // 2 + 1):
                u, v = (p**i * abs(t) for t in w[j - 2 * i])
                hits.update((l, at[pj]) for k, l in ((u, v), (v, u)) if k and small[l])
            j, pj = j + 1, pj * p
    rows = itertools.groupby(sorted(hits), key=lambda hit: hit[0])
    return {l: np.array([i for _, i in hit], dtype=np.int64) for l, hit in rows}


def _row_lengths(x: int) -> tuple[list[int], list[int]]:
    """The rows of ``_prime_power_rows(x)``: each l and its number of kept k.

    Plain lists, no numpy, so a byte estimate can read them before anything
    is allocated.
    """
    if x < 5:
        return [], []
    ls, lens = [2], [math.isqrt(x - 4)]
    for l in _odd_primes_upto(math.isqrt(x - 1)):
        n = math.isqrt(x - l * l) // 2
        if not n:
            break
        ls.append(l)
        lens.append(n)
    return ls, lens


def _row_sieve_bytes(x: int) -> tuple[int, int]:
    """(pairs, bytes): the pairs ``_prime_power_rows(x)`` sieves, and a bound
    on the bytes it holds at once, computed without allocating.

    A batch has at most max(ROW_BATCH, sqrt x) pairs.  Per pair: the flags
    of two batches (the last batch's are held while the next is sieved)
    and the int64 strikes of q = 5 at 2/5 of the pairs, 5.2 bytes, taken as
    6.  Per row: 2 more strikes and about 16 int64.  Per integer up to
    sqrt x: one row's k and primes, a consumer's temporaries, and the base
    sieve, below 64 bytes.  With tracemalloc at 1e5 to 2e9, the peak of
    ``fi_weighted_count`` was 0.64 to 0.81 of this bound.
    """
    ls, lens = _row_lengths(x)
    pairs = sum(lens)
    root = math.isqrt(x)
    batch = min(pairs, max(ROW_BATCH, root))
    return pairs, 6 * batch + 160 * len(ls) + 64 * (root + 1)


def _sqrt_minus_one(q: int) -> int:
    """An s with s^2 = -1 (mod q), for a prime q = 1 (4): c^((q-1)/4) for a non-residue c."""
    c = 2
    while q % 8 != 5 and pow(c, (q - 1) // 2, q) != q - 1:  # 2 is one for q = 5 (8)
        c += 1
    return pow(c, (q - 1) // 4, q)


def _strike(flags: np.ndarray, first: np.ndarray, counts: np.ndarray, step: np.ndarray) -> None:
    """Set flags[first + step i] = False for 0 <= i < counts, entry by entry.

    The indices are the running sum of the steps between neighbours.  A
    function of its own, so that a group's index array is freed before the
    next group builds its own.
    """
    hit = counts > 0
    first, c, step = first[hit], counts[hit], step[hit]
    idx = np.repeat(step, c)
    idx[np.cumsum(c) - c] = first - np.concatenate(([0], (first + step * (c - 1))[:-1]))
    flags[np.cumsum(idx, out=idx)] = False


def _runs(costs: list[int], cap: int) -> Iterator[tuple[int, int]]:
    """Cut range(len(costs)) into runs [a, b) of total cost <= cap, or of one item."""
    a = 0
    while a < len(costs):
        b, total = a + 1, costs[a]
        while b < len(costs) and total + costs[b] <= cap:
            total += costs[b]
            b += 1
        yield a, b
        a = b


def _sieve_rows(ls: list[int], lens: list[int], qs: list[int], halves: list[int]) -> np.ndarray:
    """The rows' flags, concatenated: False where n is even, l | k, or a
    prime q in ``qs`` divides n (n = q included).

    Row i holds k = 2 (j + 1) at index j, or k = j + 1 for l = 2.  Each q
    strikes two residues j of every row, at j, j + q, ... below its length.
    The q are taken in groups, so that one ragged index array strikes a
    whole group: a group's strikes number at most 2 len(flags) / q + 2 per
    row for each of its q, and these bounds add up to at most a sixteenth
    of the batch, unless the group is a single q.
    """
    lens_a = np.array(lens, dtype=np.int64)
    off = np.cumsum(lens_a) - lens_a
    size = int(lens_a.sum())
    flags = np.ones(size, dtype=bool)
    for l, o, n in zip(ls, off.tolist(), lens):
        if l == 2:
            flags[o + 1 : o + n : 2] = False  # even k, even n
        else:
            flags[o + l - 1 : o + n : l] = False  # l | k, l^2 | n
    # in the l = 2 row, k = j + 1 = +-2 s is j = +-4 s / 2 - 1: the l = 4 case
    lv = np.array([4 if l == 2 else l for l in ls], dtype=np.int64)
    off2 = np.concatenate((off, off))
    lens2 = np.concatenate((lens_a, lens_a))
    bounds = [2 * size // q + 2 * len(ls) for q in qs]
    for a, b in _runs(bounds, size // 16):
        q = np.array(qs[a:b], dtype=np.int64)[:, None]
        t = lv * np.array(halves[a:b], dtype=np.int64)[:, None] % q
        j = np.hstack(((t - 1) % q, q - 1 - t))
        _strike(flags, off2 + j, (lens2 - j + q - 1) // q, np.broadcast_to(q, j.shape))
    return flags


def inner_weight_table(x: int, omega: Callable[[int], float]) -> np.ndarray:
    """S_omega(m) = sum_{m = k^2 + l^2, k >= 1, l prime} omega(l) for m <= x.

    Each block adds omega(l) in increasing l, so the entries are the sums in
    the order of ``fi_decompositions``.
    """
    table = np.zeros(x + 1, dtype=np.float64)
    for l, ns in fi_pairs(x):
        w = omega(l)
        if w != 0.0:
            table[ns] += w
    return table


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
    check_bytes(_row_sieve_bytes(x)[1], f"weighted count to {x}")
    pp_keys, pp_vals = _prime_power_arrays(x)
    pp_rows = _prime_power_pairs(x, pp_keys)
    total = 0.0
    for l, primes in _prime_power_rows(x):
        prime_part = np.log(primes.astype(np.float64)).sum()
        pp_part = pp_vals[pp_rows[l]].sum() if l in pp_rows else 0.0
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

# The tables ``_load_cache`` built and checked, by id: see ``check_fi_residues``.
_CACHE_ROOTS: weakref.WeakValueDictionary[int, np.ndarray] = weakref.WeakValueDictionary()


def fi_primes_upto(limit: int, cache_dir: Optional[str | Path] = None) -> np.ndarray:
    """Sorted array of all FI primes <= limit.

    When a cache directory is given (or set via the FI_CACHE_DIR environment
    variable), a valid cache with a sufficient limit answers with a
    read-only view of its table; otherwise the table is computed and cached.
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
                return arr[: np.searchsorted(arr, limit, side="right")]
        arr = _compute_fi_primes(limit)
        _write_cache(path, limit, arr)
        return arr
    return _compute_fi_primes(limit)


def _compute_fi_primes(limit: int) -> np.ndarray:
    """The primes of the rows of ``_prime_power_rows(limit)``, sorted, each once.

    A prime with several representations is hit once per row; after the
    sort, a neighbour compare keeps the first of each run.
    """
    pairs, nbytes = _row_sieve_bytes(limit)
    # at most one hit per pair: the rows' hits and their concatenation (8 + 8
    # bytes each), then the neighbour mask and the result (1 + 8)
    check_bytes(nbytes + 17 * pairs, f"FI-prime table to {limit}")
    parts = [primes for _, primes in _prime_power_rows(limit)]
    hits = np.concatenate(parts)
    del parts
    hits.sort()
    keep = np.empty(len(hits), dtype=bool)
    keep[0] = True
    np.not_equal(hits[1:], hits[:-1], out=keep[1:])
    return hits[keep]


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
    # arr[1:] <= arr[:-1] is a bool temporary, 1 byte per entry, where
    # np.diff would hold 8
    if len(arr) and (np.any(arr[1:] <= arr[:-1]) or arr[-1] > cache_limit or arr[0] < 5):
        return None
    if _bad_residue(arr) is not None:
        return None
    _CACHE_ROOTS[id(arr)] = arr
    return cache_limit, arr


def check_fi_residues(fi: np.ndarray) -> None:
    """FI primes are 1 (mod 4); any other entry of ``fi`` raises ValueError.

    ``_load_cache`` checks every entry of the tables it builds on ``bytes``,
    which numpy makes neither writable nor the base of a writable view.  A
    view of one, both aligned and both of the load's dtype, starts and steps
    on the 8-byte entries, so it needs no scan; one at a 4-byte offset, or of
    another dtype, reads bytes the load never checked as entries.  The table's
    own dtype is no proof: it can be reassigned in place.  Every other table,
    also an unpickled one (writable, on ``bytes``), is scanned in full,
    O(len(fi)), on every call.
    """
    root = fi
    while isinstance(root.base, np.ndarray):
        root = root.base
    if _CACHE_ROOTS.get(id(root)) is root and fi.dtype == root.dtype == "<i8":
        if fi.flags.aligned and root.flags.aligned:
            return
    bad = _bad_residue(fi)
    if bad is not None:
        raise ValueError(f"FI primes are 1 (mod 4); got {bad}")


def _bad_residue(fi: np.ndarray) -> Optional[int]:
    """The first entry of ``fi`` that is not 1 (mod 4), or None.  Each residue
    goes into one byte: 2 bytes of temporaries per entry, where
    ``(fi & 3) != 1`` holds 9 for an int64 table."""
    low = np.bitwise_and(fi, 3, out=np.empty(fi.shape, np.uint8), casting="unsafe")
    bad = low != 1
    return int(fi[bad][0]) if bad.any() else None


def _write_cache(path: Path, limit: int, arr: np.ndarray) -> None:
    """Write the table under a temporary name, then rename it over ``path``.

    Readers see the old file or the new one, never a partial one.  There is
    no fsync: a file torn by a crash fails its count or CRC and is rebuilt.
    The CRC and the write read the table's own buffer (an int64 table on a
    little-endian machine is not copied), and the header is written first.
    """
    body = np.ascontiguousarray(arr, dtype="<i8")
    header = f"{CACHE_HEADER} {limit} {len(arr)} {zlib.crc32(body)}\n".encode("ascii")
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            fh.write(body)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise
