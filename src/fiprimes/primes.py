"""Prime sieving and the weighted count of primes of the form k^2 + (prime)^2.

A prime p with p = k^2 + l^2, k >= 1 an integer and l prime, is called an
FI prime here.  The weight carried through the whole package is

    LL(n) = Lambda(n) * sum_{n = k^2 + l^2, k >= 1, l prime} log l,

where Lambda is the von Mangoldt function.  Summing LL(n) over n <= x is done
by visiting (k, l) pairs directly instead of factoring every n, which keeps
the work near-linear in x.  The expected mean value of LL is governed by the
Euler product H (``REFERENCE_H``) of the local factors in :mod:`fiprimes.local`.

Convention: the representation count is over ordered pairs with k >= 1 and l
prime, so e.g. 13 = 2^2 + 3^2 = 3^2 + 2^2 contributes both (k,l) = (2,3) and
(3,2).  Under this convention sum_{n<=x} LL(n) ~ (H/2) x; the factor 1/2
against H x is the calibrated pair-convention multiplier (a sum over k of
both signs would give H x).

Prime tables up to x come from ``simple_sieve`` over one odd-only sieve
kernel, ``_sieve_odd``, segmented as in primesieve and in Oliveira e Silva,
Herzog and Pardi (Math. Comp. 83, 2014).  It indexes the odd number 2i + 1
by i and strikes each base prime p from p^2, one fixed-size segment at a
time; the base primes are the cached ``primes_upto(isqrt(x))``, and the
single even prime 2 is added by hand.  The same kernel, over the primes up
to z, gives the z-rough numbers of :mod:`fiprimes.buchstab`.

The FI primes, ``fi_weighted_count`` and the W-tricked sequence need the
n = k^2 + l^2 with Lambda(n) > 0 only, and take them from a sieve of each
row l instead (``_prime_power_rows``): an odd prime q divides k^2 + l^2 only
at the two roots k = +-s l of -1 mod q, or at q = l | k.  This is the line
sieve of the quadratic sieve (Pomerance, 1985) on the Gaussian primes
k + l i (Fouvry and Iwaniec, "Gaussian primes", Acta Arith. 79, 1997); it
needs ``simple_sieve`` only up to sqrt(x) and no array that grows with x.
Rows are sieved together as one (rows, width) block of flags: a q below a
sixteenth of the width strikes through a strided view of the block, and the
larger q, most of them, through a few lists of int64 columns (``_sieve_rows``).
Each row also yields its prime powers, with log p, from Z[i] (``_prime_power_pairs``).
Beyond the tables, ``is_prime_int`` (deterministic Miller-Rabin) and
``factorize`` (trial division) answer for one n at a time.
"""

from __future__ import annotations

import bisect
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

# Cells per block of the row sieve (``_prime_power_rows``), one flag byte
# each: a batch of rows is sieved as one (rows, width) block, of the width of
# its first, longest row.  In-process medians of five runs of
# fi_weighted_count(10**8) / (4 * 10**8) on the VM above: 127 / 504 ms at
# 2^17, 93 / 318 at 2^18, 80 / 264 at 2^19, 86 / 251 at 2^20, 93 / 284 at
# 2^21, 94 / 297 at 2^22, 106 / 311 at 2^23.  Smaller blocks pay the loop
# over the q once per batch too often; past 2^20 the block and a group's
# columns leave L2.
ROW_BATCH = 1 << 20

# Calibrated pair-convention multiplier: sum_{n<=x} LL(n) ~ R * H * x under
# the ordered (k >= 1, l prime) convention.  Empirically the ratio sits at
# 0.486 by x = 1e7 and 0.491 by 4e7.  A k-over-both-signs convention would
# give R = 1.
CONVENTION_MULTIPLIER = 0.5

# H = 2 prod_p (1 - chi(p)/((p-1)(p-chi(p)))), odd p <= 10^6 (relative tail
# below 2e-6: each omitted factor's log is at most 2/p^2); pinned bit for bit
# to the oracle ``euler_H`` of tests/conftest.py.
REFERENCE_H = 2.1564103448531142

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PRODUCT = math.prod(_MR_WITNESSES)
# the smallest strong pseudoprimes to the first 1, 2, 3 and 4 witnesses: below
# each, that many witnesses decide (Pomerance, Selfridge and Wagstaff, 1980)
_MR_BOUNDS = (2047, 1_373_653, 25_326_001, 3_215_031_751)


@lru_cache(maxsize=32)
def simple_sieve(limit: int) -> np.ndarray:
    """Read-only boolean primality array of length limit+1 (index = integer).

    The odd slots ``is_prime[1::2]`` come from the odd-only kernel
    ``_sieve_odd``, its base primes the odd ones of the cached
    ``primes_upto(isqrt(limit))`` (the recursion ends once isqrt(limit) < 3);
    index 1 is then set to False and index 2 to True.  Exactness: the result
    is the same boolean array as the plain all-integers sieve of Eratosthenes,
    element for element; only the order in which composites are struck out
    changes.
    Peak memory is this array plus one segment and the base primes up to
    sqrt(limit), which ``_sieve_bytes`` bounds before anything is allocated.
    """
    if limit < 0:
        raise ValueError("limit must be >= 0")
    check_bytes(_sieve_bytes(limit), f"prime sieve to {limit}")
    root = math.isqrt(limit)
    ps = primes_upto(root)[1:].tolist() if root >= 3 else []
    is_prime = np.zeros(limit + 1, dtype=bool)
    _sieve_odd(is_prime[1::2], ps)
    is_prime[1:2] = False  # 1 is not prime
    if limit >= 2:
        is_prime[2] = True
    is_prime.setflags(write=False)
    return is_prime


@lru_cache(maxsize=32)
def primes_upto(limit: int) -> np.ndarray:
    """Sorted array of primes <= limit: the sieve's bytes and 8 per prime are checked first."""
    check_bytes(_sieve_bytes(limit) + 8 * _pi_bound(limit), f"primes to {limit}")
    primes = np.flatnonzero(simple_sieve(limit)).astype(np.int64, copy=False)
    primes.setflags(write=False)
    return primes


def _pi_bound(x: int) -> int:
    """An upper bound on the number of primes <= x: 1.26 x / log x (Rosser and Schoenfeld, 1962)."""
    return math.ceil(1.26 * x / math.log(max(x, 2)))


def _sieve_bytes(limit: int) -> int:
    """A bound on the bytes ``simple_sieve(limit)`` holds: its array, one
    segment, the base primes to sqrt(limit) (the cached ``primes_upto(root)``:
    root + 1 flag bytes, 8 bytes a prime, and their list of Python ints, all
    under 64 bytes a prime), and 4 KB."""
    root = math.isqrt(limit)
    return limit + 1 + min(SEGMENT_BYTES, (limit + 1) // 2) + root + 1 + 64 * _pi_bound(root) + 4096


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
    """Deterministic Miller-Rabin, exact for all n < 3.3e24 (``_miller_rabin``)."""
    return _miller_rabin(n) is not None


def _miller_rabin(n: int) -> Optional[int]:
    """None unless n is prime, and then a root of -1 mod n, or 0.  Trial
    division by the witnesses is one gcd with their product, n - 1 = d 2^r
    is split at its lowest set bit, and below each bound of ``_MR_BOUNDS``
    only a prefix of the witnesses is tried.  A chain that reaches n - 1
    after a squaring has just squared a root of -1, as does the chain of
    every witness that is a non-residue of a prime n = 1 (4)."""
    if n < 2:
        return None
    if math.gcd(n, _MR_PRODUCT) != 1:
        return 0 if n in _MR_WITNESSES else None
    d, root = n - 1, 0
    r = (d & -d).bit_length() - 1
    d >>= r
    k = bisect.bisect_right(_MR_BOUNDS, n) + 1 if n < _MR_BOUNDS[-1] else len(_MR_WITNESSES)
    for a in _MR_WITNESSES[:k]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x, y = x * x % n, x
            if x == n - 1:
                root = y
                break
        else:
            return None
    return root


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
    """Array of Lambda(n) for 0 <= n <= x.

    A prime's log is ``np.log``, where ``mangoldt`` takes ``math.log``: the
    two differ in the last bit at 44 of the 664,579 primes below 10^7, so
    bulk and scalar Lambda agree within 2^-52 relative, not bit for bit.
    8 bytes an entry, the primes to x (``primes_upto``'s estimate) and 16
    bytes a prime for their float64 copy and logs are checked before
    allocating (tracemalloc peak at x = 10^3 to 10^7: 0.77 to 0.97 of the
    estimate with the prime tables to build, 0.59 to 0.83 with them cached).
    """
    check_bytes(8 * (x + 1) + _sieve_bytes(x) + 24 * _pi_bound(x), f"Mangoldt table to {x}")
    lam = np.zeros(x + 1, dtype=np.float64)
    pr = primes_upto(x) if x >= 2 else np.array([], dtype=np.int64)
    lam[pr] = np.log(pr.astype(np.float64))
    for p in primes_upto(math.isqrt(x)).tolist():
        pj = p * p
        while pj <= x:
            lam[pj] = math.log(p)
            pj *= p
    return lam


# ---------------------------------------------------------------------------
# segmented sieving


def _sieve_odd(out: np.ndarray, ps: list[int]) -> None:
    """The one odd-only sieve kernel: out[i] = True, then False wherever the
    odd number 2 i + 1 is p m, m >= p odd, for a p in ``ps`` (odd primes,
    increasing, each <= sqrt(2 len(out) - 1)).

    Over every odd prime to that root the survivors are 1 and the odd primes
    (``simple_sieve``); over those up to z, the z-rough odd numbers and the
    odd primes up to z (``buchstab._strike_odd``).  The odd multiples of p
    are the indices i = (p - 1) / 2 (mod p), so p strikes a slice of step p
    from the index of p^2 or, in a segment that starts past p^2, from its
    first odd multiple there: one modulo, no more than carrying it over from
    the previous segment would cost.  The loop stops at the first p whose
    square lies past the segment.  A contiguous ``out`` is struck in place,
    ``SEGMENT_BYTES`` at a time; a strided view goes through one segment
    buffer, as striking it in place was slower.
    """
    end = len(out)
    seg = None if out.flags.contiguous else np.empty(min(SEGMENT_BYTES, end), dtype=bool)
    for lo in range(0, end, SEGMENT_BYTES):
        hi = min(lo + SEGMENT_BYTES, end)
        buf = out[lo:hi] if seg is None else seg[: hi - lo]
        buf[:] = True
        for p in ps:
            i = p * p >> 1
            if i >= hi:
                break
            if i < lo:
                i = lo + ((p >> 1) - lo) % p
            buf[i - lo :: p] = False
        if seg is not None:
            out[lo:hi] = buf


# ---------------------------------------------------------------------------
# FI decompositions and the LL weight


@dataclass(frozen=True)
class FiDecomposition:
    """A representation n = k^2 + l^2 with k >= 1 and l prime."""

    k: int
    l: int


def fi_decompositions(n: int, ls: Optional[Iterable[int]] = None) -> list[FiDecomposition]:
    """All (k, l) with k >= 1, l in ``ls``, k^2 + l^2 = n, in the order of ``ls``.

    ``ls`` holds increasing integers, of which the l with l^2 < n are read;
    as in ``fi_pairs`` it defaults to the primes, giving the FI
    decompositions of n sorted by l.  One numpy pass keeps the l where
    k = rint(sqrt(n - l^2)) has k^2 == n - l^2 in int64.  Exact for
    n <= 2^62 (larger n raise ValueError): every square fits int64, and the
    float root of a square rem = k^2 is within 1.5 * 2^-53 k < 2^-21 of k
    (rem rounded to a float, then the root), so rint gives k.
    """
    if not 1 <= n <= 1 << 62:
        raise ValueError(f"need 1 <= n <= 2^62, got {n}")
    root = math.isqrt(n - 1)
    if ls is None:
        # a table whose limit is the power of two >= sqrt(n - 1), so that the
        # roots of many n share a few cached tables
        ls = primes_upto(1 << (root - 1).bit_length())
    l = np.asarray(ls, dtype=np.int64)
    l = l[: np.searchsorted(l, root, side="right")]
    rem = n - l * l
    k = np.rint(np.sqrt(rem)).astype(np.int64)
    hit = k * k == rem
    return [FiDecomposition(k=kk, l=ll) for kk, ll in zip(k[hit].tolist(), l[hit].tolist())]


def is_fi_prime(p: int) -> bool:
    """True iff p is prime and has a representation k^2 + l^2, l prime, k >= 1.

    A prime p = 1 (mod 4) is a^2 + b^2 with a > b > 0 in exactly one way,
    so it is an FI prime iff a or b is prime (``_two_squares`` starts from the
    root of -1 that the test of p passed, if any).  A prime p = 3 (mod 4) is
    no sum of two squares, and 2 = 1 + 1 has no prime part.
    """
    if p % 4 != 1 or (root := _miller_rabin(p)) is None:
        return False
    a, b = _two_squares(p, root)
    return is_prime_int(a) or is_prime_int(b)


def _two_squares(p: int, s: int = 0) -> tuple[int, int]:
    """(a, b), a >= b >= 1, with a^2 + b^2 = p, for p = 2 or a prime p = 1 (4):
    a is the first remainder below sqrt(p) of Euclid's algorithm on p and
    either root s of s^2 = -1 (mod p), ``_sqrt_minus_one(p)`` if s = 0 is
    given (s = 1 for p = 2); Brillhart, Math. Comp. 26, 1972."""
    root = math.isqrt(p)
    a, b = p, s or _sqrt_minus_one(p)
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


def _prime_power_rows(x: int) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (l, primes, powers, logs): the primes k^2 + l^2 <= x of row l,
    ascending, over the even k >= 2 if l is odd and the odd k >= 1 if l = 2
    (at the other k, n is even and > 2), then its p^j (j >= 2, any k >= 1)
    and log p for each (``_prime_power_pairs``).  Rows come in increasing l.

    Exactness: an odd prime q divides n = k^2 + l^2 only if q = 1 (4) and
    k = +-s l (mod q) with s^2 = -1 (mod q), or if q = l and q | k (for
    q = 3 (4), -1 is not a square mod q, so q | n forces q | k and q | l).
    So each row is sieved by its two residues per prime q = 1 (4) up to
    sqrt(x) and by l itself (``_sieve_rows``).  That strikes every composite
    n and also n = q itself, so the n <= sqrt(x) are re-read from
    ``simple_sieve(isqrt(x))``.  No array grows with x: the rows are sieved
    in blocks of at most ``ROW_BATCH`` cells, and each row is read up to its
    length, never the padding after it.
    """
    ls, lens = _row_lengths(x)
    if not ls:
        return
    root = math.isqrt(x)
    small = simple_sieve(root)
    qs = [q for q in primes_upto(root).tolist() if q % 4 == 1]
    roots = [_sqrt_minus_one(q) for q in qs]
    # s / 2 (mod q): k = 2 j + c = +-s l is j = +-l s / 2 - c / 2
    halves = [s * (q + 1) // 2 % q for q, s in zip(qs, roots)]
    powers = _prime_power_pairs(x, [2, *qs], [1, *roots])
    no_powers = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
    for a, b in _row_batches(lens):
        block = _sieve_rows(ls[a:b], lens[a:b], qs, halves)
        for l, n, row in zip(ls[a:b], lens[a:b], block):
            c = 1 if l == 2 else 2  # column j holds k = 2 j + c
            row = row[:n]
            if l * l < root:
                ks = np.arange(c, math.isqrt(root - l * l) + 1, 2, dtype=np.int64)
                row[: len(ks)] = small[ks * ks + l * l]
            ks = 2 * np.flatnonzero(row) + c
            yield l, ks * ks + l * l, *powers.get(l, no_powers)


def _prime_power_pairs(x: int, ps: list[int], roots: list[int]) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """{l: (powers, logs)} in increasing l: the prime powers p^j = k^2 + l^2
    <= x with j >= 2, k >= 1 and l prime, ascending, and log p for each.
    ``ps`` holds the primes p <= sqrt(x) with p = 2 or 1 (4), and ``roots``
    a root of -1 mod each (1 for p = 2), which ``_two_squares`` starts from.

    Z[i] factors uniquely.  A p = 3 (4) stays prime there, so p^j = u^2 + v^2
    only with u v = 0.  For p = 2 or 1 (4), p = a^2 + b^2 = pi conj(pi) with
    pi = a + b i, and a z of norm p^j is a unit times pi^i conj(pi)^(j - i),
    that is p^i conj(pi)^(j - 2i) with i <= j / 2, or its conjugate; units
    and conjugates only swap and negate the parts.  So the u, v >= 0 are
    p^i (|Re pi^m|, |Im pi^m|), m = j - 2i, in both orders.  Those with
    k >= 1 and l prime lie in the rows: k is even for odd l and odd p^j, and
    for p = 2 odd k and l give 2 (mod 8); l = 2 gives 8 (k = 2)."""
    small = simple_sieve(math.isqrt(x))
    hits = set()  # (l, p^j, p)
    for p, s in zip(ps, roots):
        a, b = _two_squares(p, s)
        w = [(1, 0), (a, b)]  # the parts of pi^m, m = 0, 1, ...
        j, pj = 2, p * p
        while pj <= x:
            re, im = w[-1]
            w.append((re * a - im * b, re * b + im * a))
            for i in range((j + 1) // 2):  # i = j / 2 gives p^i (1, 0): no pair
                u, v = (p**i * abs(t) for t in w[j - 2 * i])
                hits.update((l, pj, p) for k, l in ((u, v), (v, u)) if k and small[l])
            j, pj = j + 1, pj * p
    rows = {}
    for l, row in itertools.groupby(sorted(hits), key=lambda hit: hit[0]):
        _, powers, bases = zip(*row)
        rows[l] = np.array(powers, dtype=np.int64), np.array([math.log(p) for p in bases])
    return rows


def _row_lengths(x: int) -> tuple[list[int], list[int]]:
    """The rows of ``_prime_power_rows(x)``: each l and its number of kept k,
    which does not increase along the rows.  The odd l come from the cached
    ``primes_upto(isqrt(x))`` that the row sieve reads for its q too; the
    first l with no even k ends the rows.
    """
    if x < 5:
        return [], []
    ls, lens = [2], [(math.isqrt(x - 4) + 1) // 2]
    for l in primes_upto(math.isqrt(x))[1:].tolist():
        n = math.isqrt(x - l * l) // 2
        if not n:
            break
        ls.append(l)
        lens.append(n)
    return ls, lens


def _row_sieve_bytes(x: int) -> tuple[int, int]:
    """(pairs, bytes): the pairs ``_prime_power_rows(x)`` sieves, and a bound
    on the bytes it holds at once, computed without allocating.

    Per cell of the largest block of ``_sieve_rows``, the spare column
    included: its flag, the previous block's (held while the next is
    sieved), and the int64 columns and residues of one group of q, at most
    1.5 bytes (the columns of a group are at most a sixteenth of the cells);
    4 bytes in all.  Per row, 480 bytes: a group of a single q that is
    larger (up to 32 columns a row), the residue arrays of one q, the index
    arrays and the row lists.  Per integer up to sqrt x: one row's k and
    primes, a consumer's temporaries, and the base sieve, below 64 bytes;
    checked first, as it also bounds ``_row_lengths``.  8 KB for the fixed
    Python objects of a pass.  With tracemalloc at 1e3 to 2e9, the peak of
    ``fi_weighted_count`` was 0.53 to 0.82 of this bound.
    """
    root = 64 * (math.isqrt(x) + 1)
    check_bytes(root, f"row sieve to {x}")
    ls, lens = _row_lengths(x)
    cells = max(((b - a) * (lens[a] + 1) for a, b in _row_batches(lens)), default=0)
    return sum(lens), 4 * cells + 480 * len(ls) + root + 8192


def _sqrt_minus_one(q: int) -> int:
    """An s with s^2 = -1 (mod q), for a prime q = 1 (4): s = c^((q-1)/4) for
    the least non-residue c, the first c >= 2 whose s squares to
    c^((q-1)/2) = -1 (c = 2 for q = 5 (8)); one pow per candidate."""
    c = 2
    while (s := pow(c, (q - 1) // 4, q)) * s % q != q - 1:
        c += 1
    return s


def _row_batches(lens: list[int]) -> Iterator[tuple[int, int]]:
    """Cut the rows into batches [a, b) whose block, b - a rows of the width
    lens[a] (the lengths do not increase), has at most ROW_BATCH cells, or
    into single rows."""
    a = 0
    while a < len(lens):
        b = min(len(lens), a + max(1, ROW_BATCH // lens[a]))
        yield a, b
        a = b


def _sieve_rows(ls: list[int], lens: list[int], qs: list[int], halves: list[int]) -> np.ndarray:
    """The rows' flags as a (rows, W) block, W = lens[0]: False where l | k
    or a prime q in ``qs`` divides n (n = q included).

    Row l holds k = 2 j + c at column j < its length, c = 2 for odd l and
    c = 1 for l = 2; the cells past the length are padding, which no reader
    reads, so strikes may land there.  Each q strikes, in each row, the
    columns j + i q from the two residues j < q of k = +-s l (``residues``;
    -c / 2 is q - 1, or (q - 1) / 2 for l = 2).  With m = W // q, the
    columns j + i q, i < m, are all below m q <= W, and i = m is the one
    column that may not be; the block has a spare column W, not returned,
    which takes each column past W, so no strike needs a mask:

    - q <= W / 16: one assignment to the view of the first m q columns as
      (rows, m, q) strikes column j of each of a row's m runs of q, and the
      column m q + j, or W, is struck on its own;
    - q > W / 16, so m < 16 (m = 0 once q > W): the m + 1 columns of each
      residue are listed as int64, for a run of q with the same m whose
      lists hold at most a sixteenth of the block's cells, or for one q.

    The view pays a numpy call per q; the lists pay 8 bytes a strike, and
    serve every q above W / 16 in a few calls.  At 1e8 and 4e8, cuts at
    W / 8 and W / 32 were slower.
    """
    R, W = len(ls), lens[0]
    block = np.ones((R, W + 1), dtype=bool)  # column W takes the strikes past the width
    for row, l in zip(block, ls):
        if l != 2:
            row[l - 1 :: l] = False  # l | k, l^2 | n
    flat = block.reshape(-1)
    rows = np.arange(R)
    off = rows * (W + 1)
    lv = np.array(ls, dtype=np.int64)

    def residues(q, h):
        """The two columns j < q that q strikes in each row."""
        u, e = lv * h % q, np.where(lv == 2, (q - 1) // 2, q - 1)  # e = -c / 2
        return np.stack(((e + u) % q, (e - u) % q))

    i = bisect.bisect_right(qs, W // 16)
    for q, h in zip(qs[:i], halves[:i]):
        j, end = residues(q, h), W - W % q
        block[:, :end].reshape(R, -1, q)[rows, :, j] = False
        flat[off + np.minimum(end + j, W)] = False
    while i < len(qs):
        m = W // qs[i]
        last = bisect.bisect_right(qs, W // m) if m else len(qs)  # the q with this m
        b = min(last, i + max(1, W // (32 * (m + 1))))  # 2 (m + 1) R columns a q
        q = np.array(qs[i:b], dtype=np.int64)[:, None]
        cols = residues(q, np.array(halves[i:b], dtype=np.int64)[:, None])
        cols = cols + q * np.arange(m + 1)[:, None, None, None]
        np.minimum(cols, W, out=cols)
        cols += off
        flat[cols] = False
        i = b
    return block[:, :W]


def inner_weight_table(x: int, omega: Callable[[int], float]) -> np.ndarray:
    """S_omega(m) = sum_{m = k^2 + l^2, k >= 1, l prime} omega(l) for m <= x.

    Each block adds omega(l) in increasing l, so the entries are the sums in
    the order of ``fi_pairs``.  8 bytes an entry, the primes to sqrt(x) and
    64 bytes per integer up to sqrt(x) for one block's k, n and scatter
    temporaries are checked before allocating (tracemalloc peak at x = 10^3
    to 10^7: 0.78 to 0.999 of the estimate, the table itself the most).
    """
    root = math.isqrt(x)
    check_bytes(8 * (x + 1) + _sieve_bytes(root) + 8 * _pi_bound(root) + 64 * (root + 1),
                f"inner-weight table to {x}")
    table = np.zeros(x + 1, dtype=np.float64)
    for l, ns in fi_pairs(x):
        w = omega(l)
        if w != 0.0:
            table[ns] += w
    return table


@dataclass(frozen=True)
class FiCountResult:
    value: float
    ratio: float


def fi_weighted_count(x: int) -> FiCountResult:
    """sum_{n <= x} LL(n), visiting (k, l) pairs rather than every n.

    Also reports the ratio against H*x.  Under the k >= 1 ordered-pair
    convention the ratio stabilises near 1/2.
    """
    if x < 2:
        raise ValueError("x must be >= 2")
    check_bytes(_row_sieve_bytes(x)[1], f"weighted count to {x}")
    total = 0.0
    for l, primes, _, logs in _prime_power_rows(x):
        total += math.log(l) * (np.log(primes.astype(np.float64)).sum() + logs.sum())
    return FiCountResult(value=total, ratio=total / (REFERENCE_H * x))


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
    sort, a neighbour compare keeps the first of each run.  The hits are
    counted against the budget as each row's are added, so an oversized
    table raises CapacityError before the concatenation.
    """
    nbytes = _row_sieve_bytes(limit)[1]
    check_bytes(nbytes, f"FI-prime table to {limit}")
    parts, count = [], 0
    for _, primes, _, _ in _prime_power_rows(limit):
        count += len(primes)
        # per hit: 8 bytes in the rows, then 16 with their concatenation,
        # then 17 with the neighbour mask and the result in place of the rows
        check_bytes(nbytes + 17 * count, f"FI-prime table to {limit}")
        parts.append(primes)
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
