"""Desk-scale verification of the ternary statement and 3AP search.

Every FI prime is 1 mod 4, so a sum of three of them is 3 mod 4; the scans
here confirm that beyond a small threshold every x = 3 (4) in range is such
a sum, enumerate the exceptions, and list three-term arithmetic progressions
inside the FI primes.  The scan indexes an FI prime p = 4i + 1 by i, so a
sum of two FI primes is 4m + 2 and a sum of three is 4m + 3 with m the sum
of their indices.  The scan to X computes the two-sum indicator on about
X/4 indices with one exact FFT convolution, then sweeps p1 over the FI
primes in increasing order, resolving every open x with x - p1 a two-sum.
The first p1 that resolves x is the smallest element of a representation:
had x - p1 = a + b with a < p1, then a would have resolved x earlier.  A
second sweep over p2 gives each x the same witness as the point query
``find_representation``, which binary-searches the sorted table instead.

The W-tricked sequence normalises LL on a residue class b mod W so its mean
is 1, and the L^q moments of its exponential sum are estimated on a dense
frequency grid (at least 4N points, validated by an exact Parseval identity
at q = 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .local import reference_H, xi
from .primes import (
    CONVENTION_MULTIPLIER,
    check_bytes,
    euler_phi,
    fi_primes_upto,
    is_fi_prime,
    lambda_lambda_table,
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


def find_representation(
    x: int,
    table: Optional[np.ndarray] = None,
    table_limit: Optional[int] = None,
) -> Optional[RepresentationWitness]:
    """Smallest witness (p1, p2, p3) with p1 <= p2 <= p3 summing to x, if any.

    A caller-supplied ``table`` must be sorted and cover [2, x]; pass its
    limit so coverage can be validated.  Only x = 3 (4) can be a sum of three
    FI primes, so any other x gives None.
    """
    if x < 3:
        raise ValueError("x must be >= 3")
    if table is not None and table_limit is not None and table_limit < x:
        raise ValueError(f"table covers only [2, {table_limit}] < x = {x}")
    if x % 4 != 3:
        return None
    fi = table if table is not None else fi_primes_upto(x)
    fi = fi[: np.searchsorted(fi, x, side="right")]
    _check_residues(fi)
    return _smallest_witness(x, fi)


def _smallest_witness(x: int, fi: np.ndarray) -> Optional[RepresentationWitness]:
    """The search behind ``find_representation`` for x = 3 (4).

    ``fi`` is sorted and holds every FI prime <= x.  For each p1 in
    increasing order, the candidates p2 in [p1, (x - p1)/2] are read in
    chunks of 64, then 4 times more each time, and x - p1 - p2 is looked up
    in ``fi`` by binary search, so the work grows with the witness's p2,
    not with x.
    """
    n = len(fi)
    for i in range(n):
        p1 = int(fi[i])
        if 3 * p1 > x:
            break
        t = x - p1
        # p2 <= t/2 keeps p2 <= p3
        hi = int(np.searchsorted(fi, t // 2, side="right"))
        lo, chunk = i, 64
        while lo < hi:
            cands = fi[lo : min(lo + chunk, hi)]
            rest = t - cands
            hits = fi[np.minimum(np.searchsorted(fi, rest), n - 1)] == rest
            if hits.any():
                p2 = int(cands[hits.argmax()])
                return RepresentationWitness(x=x, p1=p1, p2=p2, p3=t - p2)
            lo, chunk = lo + chunk, 4 * chunk
    return None


def scan_exceptions(X: int, fi: Optional[np.ndarray] = None) -> np.ndarray:
    """All x = 3 (4), x <= X, that are not a sum of three FI primes.

    With M = (X - 3) // 4, the FI primes p <= 4M + 1 give a 0/1 indicator on
    their index (p - 1) / 4 in [0, M].  One exact 0/1 convolution marks the
    indices m with 4m + 2 a sum of two FI primes; the smallest-element
    sweep (``_first_parts``) then finds the x = 4m + 3 that stay
    unresolved.  A caller-supplied ``fi`` must hold only 1 (mod 4) entries;
    anything else raises ValueError.
    """
    _, i1 = _smallest_p1(X, fi)
    return 4 * np.flatnonzero(i1 < 0) + 3


def smallest_witnesses(X: int, fi: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """(p1, p2) of ``find_representation(x)`` for every x = 4m + 3 <= X, indexed by m.

    Both are 0 where x is an exception; p3 = x - p1 - p2.  The p1 come from
    the sweep of ``scan_exceptions``.  For each p1, a second sweep over p2
    in increasing order against the FI bitmap finds the smallest p2 with
    x - p1 - p2 an FI prime.  Every split x - p1 = a + b has a, b >= p1,
    since p1 is the smallest element of any representation of x, and a
    partner below p2 would have been hit first; so p1 <= p2 <= p3 holds
    without being imposed.
    """
    in_fi, i1 = _smallest_p1(X, fi)
    idx = np.flatnonzero(in_fi)
    i2 = np.full(len(i1), -1, dtype=np.int64)
    for s in np.unique(i1[i1 >= 0]).tolist():
        ts = np.flatnonzero(i1 == s) - s  # x - p1 = 4t + 2
        i2[ts + s] = _first_parts(ts, idx[np.searchsorted(idx, s) :], in_fi, 2)[ts]
    found = i1 >= 0
    return np.where(found, 4 * i1 + 1, 0), np.where(found, 4 * i2 + 1, 0)


def _smallest_p1(X: int, fi: Optional[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(in_fi, i1): the FI bitmap on [0, M] and, for each m, the index of
    the smallest p1 in any representation of 4m + 3 (-1 if there is none).

    The sweep visits the FI indices i in increasing order and resolves
    every open m with two[m - i].  The first hit is the smallest element of
    a representation: if 4m + 3 - p = a + b with a < p, then a would have
    hit earlier.  Only p <= x/3, i.e. m >= 3i, can be a smallest element.
    """
    if X < 3:
        raise ValueError("X must be >= 3")
    M = (X - 3) // 4
    size = 1 << (2 * M).bit_length()  # >= 2M + 1: no wrap-around onto [0, M]
    # in_fi and two, then the larger of two phases that never overlap: the
    # FFTs (padded float64 input, spectrum, output and pocketfft's work
    # buffers; peak RSS grows by 31 bytes per point at size 2^23 and 2^25),
    # or the sweeps' arrays and temporaries (at most 10 int64 of M + 1)
    check_bytes(2 * (M + 1) + max(32 * size, 80 * (M + 1)), f"ternary scan to {X}")
    if fi is None:
        fi = fi_primes_upto(X)
    _check_residues(fi)
    idx = fi >> 2
    in_fi = np.zeros(M + 1, dtype=bool)
    in_fi[idx[idx <= M]] = True
    two = _sumset_indicator(in_fi, M, size)
    return in_fi, _first_parts(np.arange(M + 1), np.flatnonzero(in_fi), two, 3)


def _first_parts(targets: np.ndarray, parts: np.ndarray, table: np.ndarray, k: int) -> np.ndarray:
    """first[t], for each t in ``targets``: the smallest s in ``parts`` with
    k s <= t and table[t - s], or -1 if there is none.

    ``targets`` (not empty) and ``parts`` are sorted ascending; ``first``
    has length max(targets) + 1 and is -1 off the targets.  Each step reads
    only the targets still open, and drops those below k s, since no later
    part can serve them; the loop ends when none is left.
    """
    first = np.full(int(targets[-1]) + 1, -1, dtype=np.int64)
    for s in parts.tolist():
        targets = targets[np.searchsorted(targets, k * s) :]
        if not len(targets):
            break
        hit = table[targets - s]
        first[targets[hit]] = s
        targets = targets[~hit]
    return first


def _check_residues(fi: np.ndarray) -> None:
    """FI primes are 1 (mod 4); any other entry raises ValueError."""
    bad = (fi & 3) != 1
    if np.any(bad):
        raise ValueError(f"FI primes are 1 (mod 4); got {int(fi[bad][0])}")


def _sumset_indicator(a: np.ndarray, m: int, size: int) -> np.ndarray:
    """Bool indicator of {i + j : a[i] = a[j] = 1}, truncated to [0, m].

    ``a`` is a bool array of length m + 1 and ``size`` >= 2m + 1 the FFT
    length.  Exactness: every entry of the true convolution is an integer
    count of at most sum a <= len(fi).  A float64 FFT convolution of length
    ``size`` errs by about eps * log2(size) * |a|^2 (squared 2-norm, which
    is sum a), so at most eps * log2(size) * len(fi), about 5e-10 at X = 1e7 (the measured margin
    there is 6e-11), far below 1/4.  Rounding therefore recovers every
    count; the margin is checked on every call and a violation raises
    AssertionError.
    """
    fa = np.fft.rfft(a, size)
    fa *= fa
    conv = np.fft.irfft(fa, size)[: m + 1]
    del fa
    err = conv - np.rint(conv)
    margin = float(np.abs(err, out=err).max())
    if not margin < 0.25:
        raise AssertionError(f"FFT rounding margin {margin} >= 1/4 at size {size}")
    return conv > 0.5


def scan_exceptions_direct(X: int) -> np.ndarray:
    """Independent strategy: the per-x witness search on every x (for cross-validation)."""
    fi = fi_primes_upto(X)
    out = [x for x in range(3, X + 1, 4) if _smallest_witness(x, fi) is None]
    return np.array(out, dtype=np.int64)


def find_3aps(X: int) -> list[tuple[int, int, int]]:
    """All 3-term APs (p, p + d, p + 2d), d > 0, inside the FI primes <= X."""
    if X < 5:
        raise ValueError("X must be >= 5")
    fi = fi_primes_upto(X)
    in_set = np.zeros(2 * X + 1, dtype=bool)
    in_set[fi] = True
    out: list[tuple[int, int, int]] = []
    for i, p in enumerate(fi):
        p = int(p)
        mids = fi[i + 1 :]
        thirds = 2 * mids - p
        ok = (thirds <= X) & in_set[thirds]
        for mid, third in zip(mids[ok], thirds[ok]):
            out.append((p, int(mid), int(third)))
    out.sort()
    return out


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
    ll = lambda_lambda_table(W * N + b)
    scale = euler_phi(W) / (float(xi_wb) * W * CONVENTION_MULTIPLIER * reference_H())
    values = np.zeros(N + 1, dtype=np.float64)
    values[1:] = scale * ll[W + b :: W]
    return WTrickedSequence(x=x, w=w, W=W, b=b, N=N, values=values)


def lq_moment(seq: WTrickedSequence, q: float, grid: int) -> float:
    """Grid estimate of int_0^1 |sum f(n) e(gamma n)|^q dgamma, over N^(q-1).

    The integrand oscillates at scale 1/N, so the grid must be >= 4N.
    """
    if not 2.0 <= q < 3.0:
        raise ValueError("need 2 <= q < 3")
    if grid < 4 * seq.N:
        raise ValueError("grid too coarse; need grid >= 4 N")
    f = np.zeros(grid, dtype=np.float64)
    f[1 : seq.N + 1] = seq.values[1:]
    spectrum = np.abs(np.fft.fft(f))
    moment = float(np.mean(spectrum**q))
    return moment / seq.N ** (q - 1.0)
