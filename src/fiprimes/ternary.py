"""Desk-scale verification of the ternary statement and 3AP search.

Every FI prime is 1 mod 4, so a sum of three of them is 3 mod 4; the scans
here confirm that beyond a small threshold every x = 3 (4) in range is such
a sum, enumerate the exceptions, and list three-term arithmetic progressions
inside the FI primes.  The scan indexes an FI prime p = 4i + 1 by i, so a
sum of two FI primes is 4m + 2 and a sum of three is 4m + 3 with m the sum
of their indices.  The exception scan to X builds bit-packed bitmaps only,
over about X/4 indices: the FI bitmap gives the two-sum bitmap, and that
the three-sum bitmap.  The witnesses keep first parts: a sweep of the FI
primes in increasing order against the two-sum bitmap gives each x its
smallest p1, since had x - p1 = a + b with a < p1, a would have resolved x
earlier; the same sweep against the FI bitmap gives each two-sum its
smallest part, and gathering that at x - p1 gives p2: the witness of the
point query ``find_representation``, which binary-searches the sorted table.

The W-tricked sequence normalises LL on a residue class b mod W so its mean
is 1, and the L^q moments of its exponential sum are estimated on a dense
frequency grid (at least 4N points, validated by an exact Parseval identity
at q = 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .local import reference_H, xi
from .primes import (
    CONVENTION_MULTIPLIER,
    _prime_power_arrays,
    _prime_power_pairs,
    _prime_power_rows,
    _row_sieve_bytes,
    check_bytes,
    check_fi_residues,
    euler_phi,
    fi_primes_upto,
    is_fi_prime,
    primes_upto,
)


@dataclass(frozen=True)
class RepresentationWitness:
    x: int
    p1: int
    p2: int
    p3: int

    def validate(self) -> bool:
        ps = (self.p1, self.p2, self.p3)
        return (
            self.p1 <= self.p2 <= self.p3
            and sum(ps) == self.x
            and self.x % 4 == 3
            and all(is_fi_prime(p) for p in ps)
        )


def find_representation(x: int, table: np.ndarray, table_limit: int) -> Optional[RepresentationWitness]:
    """Smallest witness (p1, p2, p3) with p1 <= p2 <= p3 summing to x, if any.

    ``table`` is sorted and covers [2, table_limit], table_limit >= x.  An entry <= x (the
    only ones read) that is not 1 (mod 4) raises ValueError.  x != 3 (4) gives None.
    """
    if x < 3:
        raise ValueError("x must be >= 3")
    if table_limit < x:
        raise ValueError(f"table covers only [2, {table_limit}] < x = {x}")
    if x % 4 != 3:
        return None
    fi = table[: table.searchsorted(x, side="right")]
    check_fi_residues(fi)
    return _smallest_witness(x, fi)


def _smallest_witness(x: int, fi: np.ndarray) -> Optional[RepresentationWitness]:
    """The search behind ``find_representation`` for x = 3 (4).

    ``fi`` is sorted and holds every FI prime <= x.  For each p1 in
    increasing order, the candidates p2 >= p1 are read in chunks of 64,
    then 4 times more each time, and x - p1 - p2 is looked up in ``fi`` by
    binary search, until the first hit or a chunk past (x - p1)/2, so the
    work grows with the witness's p2, not with x.  A first hit past
    (x - p1)/2 would have p3 < p2, and so would every later one: the next
    p1 is tried.
    """
    n = len(fi)
    for i in range(n):
        p1 = int(fi[i])
        if 3 * p1 > x:
            break
        t = x - p1
        lo, chunk = i, 64
        while lo < n:
            cands = fi[lo : lo + chunk]
            rest = t - cands
            hits = fi.take(fi.searchsorted(rest), mode="clip") == rest
            j = int(hits.argmax())
            if hits[j]:
                p2 = int(cands[j])
                if 2 * p2 <= t:
                    return RepresentationWitness(x=x, p1=p1, p2=p2, p3=t - p2)
                break
            if 2 * int(cands[-1]) > t:
                break
            lo, chunk = lo + chunk, 4 * chunk
    return None


def scan_exceptions(X: int, cache_dir: Optional[str | Path] = None) -> np.ndarray:
    """All x = 3 (4), x <= X, that are not a sum of three FI primes.

    ``_covered`` on the FI bitmap of the n = (X + 1) // 4 indices (k = 2)
    gives the two-sum bitmap, and on that (k = 3) the m with 4m + 3 a sum of
    three; only the exceptions are unpacked.  3 bytes an index and 16 KB are
    checked before the FI table is loaded, so X stops near 2.67e9 (tracemalloc
    peak per index, cache hit, X = 10^4 to 10^8: 5.20, 2.97, 2.02, 1.84, 1.75).
    """
    bits, parts, n = _fi_bitmap(X, cache_dir, 3)
    return 4 * np.sort(_set_bits(~_covered(parts, _covered(parts, bits, n, 2), n, 3))) + 3


def smallest_witnesses(X: int, cache_dir: Optional[str | Path] = None) -> tuple[np.ndarray, np.ndarray]:
    """(p1, p2) of ``find_representation(x)`` for every x = 4m + 3 <= X, indexed by m.

    Both are 0 where x is an exception; p3 = x - p1 - p2.  ``_covered``,
    recording first parts, against the FI bitmap gives each two-sum its
    smallest part, and against the two-sum bitmap each x its smallest p1;
    p2 is the smallest part of x - p1, gathered from the first sweep.  Every
    split x - p1 = a + b has a, b >= p1, since p1 is the smallest element of
    any representation of x, so p1 <= p2 <= p3 holds without being imposed.
    34 bytes an index and 16 KB are checked before the FI table is loaded
    (tracemalloc, cache hit, per index at 10^4 to 10^7: 33.9, 32.9, 32.6, 32.5).
    """
    bits, parts, n = _fi_bitmap(X, cache_dir, 34)
    s2, i1 = (np.full(n, -1, dtype=np.int32 if n < 2**31 else np.int64) for _ in range(2))
    _covered(parts, _covered(parts, bits, n, 2, s2), n, 3, i1)
    # x - p1 = 4 (m - i1) + 2; where i1 = -1, m - i1 may be n
    i2 = np.where(i1 >= 0, s2[np.minimum(np.arange(n, dtype=s2.dtype) - i1, n - 1)], -1)
    del s2
    # p = 4i + 1 and 0 for i = -1, one array at a time
    return tuple(np.maximum(4 * i.astype(np.int64) + 1, 0) for i in (i1, i2))


def _fi_bitmap(X: int, cache_dir: Optional[str | Path], per_index: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(bits, parts, n): the indices (p - 1) / 4 < n = (X + 1) // 4 of
    ``fi_primes_upto(X, cache_dir)`` as a bitmap (bit t at bit t & 7 of byte
    t >> 3, padded to whole 64-bit words) and ascending, loaded once
    ``per_index`` bytes an index and 16 KB for a pass's objects are checked."""
    if X < 3:
        raise ValueError("X must be >= 3")
    n = (X + 1) // 4
    check_bytes(per_index * n + 16384, f"ternary scan to {X}")
    parts = fi_primes_upto(X, cache_dir) >> 2
    parts = parts[parts < n]
    bits = np.zeros(-(-n // 64) * 8, dtype=np.uint8)
    np.bitwise_or.at(bits, parts >> 3, np.left_shift(1, parts & 7).astype(np.uint8))
    return bits, parts, n


def _set_bits(bits: np.ndarray) -> np.ndarray:
    """A bitmap's set bits, unordered: each non-zero word's lowest, then its next."""
    at = np.flatnonzero(bits.view("<u8"))
    w, found, at = bits.view("<u8")[at], [at[:0]], 64 * at - 1  # frexp numbers bit b as b + 1
    while len(at):
        found.append(at + np.frexp(w & -w)[1])
        w &= w - 1  # clears the lowest set bit
        at, w = at[w != 0], w[w != 0]
    return np.concatenate(found)


def _covered(parts: np.ndarray, table: np.ndarray, n: int, k: int, first: Optional[np.ndarray] = None) -> np.ndarray:
    """Bitmap of the t in [0, n) with table bit t - s set for some s in
    ``parts`` (ascending) with k s <= t, padding set, for ``table`` the
    bitmap of ``parts`` (k = 2) or its two-sum bitmap (k = 3).  Given
    ``first`` (n entries of -1), each t's smallest such s is also recorded.

    That s has k s <= t unasked: were t = s + u, u < (k - 1) s, the smallest
    part a < s of u would reach t first (t - a = s, or b + s).  So part
    s = 8a + r ORs the table's bit-shifted copy r into the bitmap from byte
    a, over n/8 bytes, and lists the bits it sets first to record them.
    Under n/1024 open 64-bit words (checked every 8 parts), ``_first_parts``
    serves their open targets, as int32 (int64 from 2^31), from the next part.
    """
    nb = len(table)
    shifted = np.zeros((8, nb + 8), dtype=np.uint8)  # bit 64 + t of row r is table bit t - r
    for r in range(8):
        np.left_shift(table, r, out=shifted[r, 8:])
        shifted[r, 9:] |= table[:-1] >> (8 - r)
    covered = np.zeros(nb, dtype=np.uint8)
    covered.view("<u8")[-1:] = (-1 << (n % 64 or 64)) % 2**64  # no target from n on
    for j, s in enumerate(map(int, parts)):
        if j % 8 == 0 and 1024 * np.count_nonzero(~covered.view(np.uint64)) < n:
            break
        a = s >> 3 & ~7  # from the word that holds bit s
        row = shifted[s & 7, 8 + a - (s >> 3) : 8 + nb - (s >> 3)]
        if first is not None:
            first[8 * a + _set_bits(row & ~covered[a:])] = s
        covered[a:] |= row
    else:
        return covered
    targets = np.sort(_set_bits(~covered)).astype(np.int32 if n < 2**31 else np.int64)
    found = _first_parts(targets, parts[j:], table, k)
    if first is not None:
        first[targets] = found
    np.bitwise_or.at(covered, targets >> 3, np.left_shift(found >= 0, targets & 7).astype(np.uint8))
    return covered


def _first_parts(targets: np.ndarray, parts: np.ndarray, table: np.ndarray, k: int) -> np.ndarray:
    """For each entry t of ``targets`` (ascending), the smallest s in
    ``parts`` (ascending) with k s <= t and bit t - s of ``table``, or -1.

    Each step reads only the open targets, with their positions, and drops
    those below k s, since no later part can serve them.  Its cost has no a
    priori bound: a target t that no part serves is read for every part up
    to t / k.  For k = 2 on the FI bitmap to X = 10^7 and 10^8, 30 indices
    are no two-sum (the largest 4m + 2 is 7,118), and the largest smallest
    part is p = 63,901 and 107,197 (33,721 at 10^6).
    """
    first = np.full(len(targets), -1, dtype=targets.dtype)
    at = np.arange(len(targets), dtype=targets.dtype)
    for s in map(int, parts):
        lo = np.searchsorted(targets, k * s)
        targets, at = targets[lo:], at[lo:]
        if not len(targets):
            break
        i = targets - s
        miss = (table[i >> 3] >> (i & 7) & 1) == 0
        first[at[~miss]] = s
        targets, at = targets[miss], at[miss]
    return first


def scan_exceptions_direct(X: int) -> np.ndarray:
    """Independent strategy: the per-x witness search on every x (for cross-validation)."""
    fi = fi_primes_upto(X)
    out = [x for x in range(3, X + 1, 4) if _smallest_witness(x, fi) is None]
    return np.array(out, dtype=np.int64)


def find_3aps(X: int) -> list[tuple[int, int, int]]:
    """All 3-term APs (p, p + d, p + 2d), d > 0, inside the FI primes <= X.

    For each p, the middle terms run over the FI primes in (p, (X + p) / 2],
    so every third term is at most X and one byte per integer to X marks
    the set.  The APs are counted before the output list is built, which
    holds a tuple of three ints per AP: 160 bytes per AP are checked
    (tracemalloc peak beyond the X + 1 table: 147.5 bytes per AP at
    X = 10^5, 145.5 at 10^6, with the 8 bytes of each counted middle term).
    """
    if X < 5:
        raise ValueError("X must be >= 5")
    check_bytes(X + 1, f"3AP membership table to {X}")
    fi = fi_primes_upto(X)
    in_set = np.zeros(X + 1, dtype=bool)
    in_set[fi] = True
    ends = np.searchsorted(fi, (X + fi) // 2, side="right")
    hits = []  # (p, the middle terms of its APs)
    for i, (p, end) in enumerate(zip(fi.tolist(), ends.tolist())):
        mids = fi[i + 1 : end]
        mids = mids[in_set[2 * mids - p]]
        if len(mids):
            hits.append((p, mids))
    count = sum(len(mids) for _, mids in hits)
    check_bytes(X + 1 + 160 * count, f"{count} 3APs to {X}")
    return [(p, mid, 2 * mid - p) for p, mids in hits for mid in mids.tolist()]


# ---------------------------------------------------------------------------
# W-tricked sequences


def w_from_threshold(x: int, w_override: Optional[float] = None) -> tuple[float, int]:
    """w = 0.1 log log x and W = 2 prod_{p <= w} p (w overridable)."""
    w = w_override if w_override is not None else 0.1 * math.log(math.log(x))
    W = 2
    for p in primes_upto(max(2, int(w))):
        if p <= w:
            W *= int(p)
    return w, W


@dataclass(frozen=True)
class WTrickedSequence:
    x: int
    w: float
    W: int
    b: int
    N: int
    values: np.ndarray  # values[n] for 1 <= n <= N; index 0 unused

    @property
    def mean(self) -> float:
        return float(self.values[1:].sum() / self.N)


def wtrick_build(x: int, b: int, w_override: Optional[float] = None) -> WTrickedSequence:
    """Normalised W-tricked LL sequence on the class b mod W.

    values(n) = phi(W) / (Xi(W, b) W R H) * LL(W n + b) for n <= N = x // W,
    where R is the calibrated pair-convention multiplier of LL against H x
    (1/2 here); with it the empirical mean tends to 1.  Admissibility:
    gcd(b, W) = 1 and b = 1 (4).

    LL(m) is non-zero only at prime powers m, and m = W n + b is odd, so the
    rows of ``_prime_power_rows`` hold every pair that counts.  Each row adds
    log l at the class's primes, and each row of ``_prime_power_pairs`` at
    its prime powers p^j (j >= 2), in increasing l: the order of the
    inner-weight table ``sum log l``.  Lambda(m) and the scale then multiply
    the slots hit, each listed once, by its first row; no other array has
    N + 1 entries.
    """
    w, W = w_from_threshold(x, w_override)
    if not (1 <= b <= W):
        raise ValueError("need 1 <= b <= W")
    if math.gcd(b, W) != 1 or b % 4 != 1:
        raise ValueError(f"b={b} is not admissible for W={W}")
    xi_wb = xi(W, b)
    if xi_wb == 0:
        raise ValueError(f"Xi({W}, {b}) = 0; the class carries no mass")
    N = x // W
    top = W * N + b
    pairs, nbytes = _row_sieve_bytes(top)
    # values, then per slot (at most one per n, or per pair) its index, m,
    # Lambda and two products
    check_bytes(nbytes + 8 * (N + 1) + 40 * min(N + 1, pairs), f"W-tricked sequence to {x}")
    scale = euler_phi(W) / (float(xi_wb) * W * CONVENTION_MULTIPLIER * reference_H())
    pp_keys, pp_vals = _prime_power_arrays(top)
    pp_sums = np.zeros(len(pp_keys), dtype=np.float64)
    for l, at in _prime_power_pairs(top, pp_keys).items():
        pp_sums[at] += math.log(l)
    values = np.zeros(N + 1, dtype=np.float64)
    firsts = [np.zeros(0, dtype=np.int64)]  # each slot once, in the first row to hit it
    for l, primes in _prime_power_rows(top):
        slots = (primes[primes % W == b] - b) // W
        firsts.append(slots[values[slots] == 0.0])
        values[slots] += math.log(l)
    slots = np.concatenate(firsts)
    del firsts
    values[slots] = scale * (values[slots] * np.log((W * slots + b).astype(np.float64)))
    values[0] = 0.0  # m = b is n = 0, outside the sequence
    pp_in = (pp_keys % W == b) & (pp_keys > b)
    values[(pp_keys[pp_in] - b) // W] = scale * (pp_sums[pp_in] * pp_vals[pp_in])
    return WTrickedSequence(x=x, w=w, W=W, b=b, N=N, values=values)


def check_lq_grid(grid: int) -> None:
    """Raise CapacityError when ``lq_moment``'s grid, at 40 bytes a point, is over the budget."""
    check_bytes(40 * grid, f"L^q grid of {grid} points")


def lq_moment(seq: WTrickedSequence, q: float, grid: int) -> float:
    """Grid estimate of int_0^1 |sum f(n) e(gamma n)|^q dgamma, over N^(q-1).

    The integrand oscillates at scale 1/N, so the grid must be >= 4N.  The
    grid, its complex FFT and the |.| and power temporaries peak at 40 bytes
    per grid point (tracemalloc: 80.1 MB at x = 10^6, grid 2 * 10^6; 800.1 MB
    at x = 10^7, grid 2 * 10^7), which is checked before allocating.
    """
    if not 2.0 <= q < 3.0:
        raise ValueError("need 2 <= q < 3")
    if grid < 4 * seq.N:
        raise ValueError("grid too coarse; need grid >= 4 N")
    check_lq_grid(grid)
    f = np.zeros(grid, dtype=np.float64)
    f[1 : seq.N + 1] = seq.values[1:]
    spectrum = np.abs(np.fft.fft(f))
    moment = float(np.mean(spectrum**q))
    return moment / seq.N ** (q - 1.0)
