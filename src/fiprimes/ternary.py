"""Desk-scale verification of the ternary statement and 3AP search.

Every FI prime is 1 mod 4, so a sum of three of them is 3 mod 4; the scans
here confirm that beyond a small threshold every x = 3 (4) in range is such
a sum, enumerate the exceptions, and list three-term arithmetic progressions
inside the FI primes.  The scan and the witness search index an FI prime
p = 4i + 1 by i, so a sum of two FI primes is 4m + 2 and a sum of three is
4m + 3 with m the sum of their indices: the scan to X convolves 0/1 arrays
of about X/4 float64 entries, and a witness search for x keeps an x/4-entry
bitmap.

The W-tricked sequence normalises LL on a residue class b mod W so its mean
is 1, and the L^q moments of its exponential sum are estimated on a dense
frequency grid (at least 4N points, validated by an exact Parseval identity
at q = 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .local import reference_H, xi
from .primes import (
    CONVENTION_MULTIPLIER,
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
    return _smallest_witness(x, fi, _fi_bitmap(fi, x))


def _fi_bitmap(fi: np.ndarray, limit: int) -> np.ndarray:
    """in_fi[i] is True iff 4i + 1 is in ``fi`` (which must be <= limit), i <= (limit-1)/4."""
    in_fi = np.zeros((limit - 1) // 4 + 1, dtype=bool)
    in_fi[_fi_index(fi)] = True
    return in_fi


def _smallest_witness(
    x: int, fi: np.ndarray, in_fi: np.ndarray
) -> Optional[RepresentationWitness]:
    """The search behind ``find_representation`` for x = 3 (4).

    ``fi`` is sorted and holds every FI prime <= x (larger ones are never
    reached); ``in_fi`` is ``_fi_bitmap`` for a limit >= x.  A caller
    scanning many x builds the bitmap once and passes it to every call.
    """
    for i, p1 in enumerate(fi):
        p1 = int(p1)
        if 3 * p1 > x:
            break
        t = x - p1
        # p2 <= t/2 keeps p2 <= p3
        cands = fi[i : np.searchsorted(fi, t // 2, side="right")]
        rest = t - cands
        hits = in_fi[rest >> 2]  # rest = 1 (4), so rest >> 2 is its index
        if np.any(hits):
            p2 = int(cands[np.argmax(hits)])
            return RepresentationWitness(x=x, p1=p1, p2=p2, p3=t - p2)
    return None


def scan_exceptions(X: int, fi: Optional[np.ndarray] = None) -> np.ndarray:
    """All x = 3 (4), x <= X, that are not a sum of three FI primes.

    With M = (X - 3) // 4, the FI primes p <= 4M + 1 give a 0/1 indicator on
    their index (p - 1) / 4 in [0, M].  Two exact 0/1 convolutions then mark
    the indices m with 4m + 2 a sum of two FI primes, and then those with
    4m + 3 a sum of three.  A caller-supplied ``fi`` must hold only
    1 (mod 4) entries; anything else raises ValueError.
    """
    if X < 3:
        raise ValueError("X must be >= 3")
    if fi is None:
        fi = fi_primes_upto(X)
    M = (X - 3) // 4
    idx = _fi_index(fi)
    ind = np.zeros(M + 1, dtype=np.float64)
    ind[idx[idx <= M]] = 1.0
    two = _exact_bool_convolution(ind, ind, M)
    three = _exact_bool_convolution(two, ind, M)
    return 4 * np.flatnonzero(three == 0) + 3


def _fi_index(fi: np.ndarray) -> np.ndarray:
    """Index i of each FI prime p = 4i + 1; other residues raise ValueError."""
    bad = (fi & 3) != 1
    if np.any(bad):
        raise ValueError(f"FI primes are 1 (mod 4); got {int(fi[bad][0])}")
    return fi >> 2


def _exact_bool_convolution(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """Indicator of {i + j : a[i] = b[j] = 1}, truncated to [0, m].

    Exactness: a and b are 0/1, so every entry of the true convolution is an
    integer count of at most min(sum a, sum b) <= len(fi).  A float64 FFT
    convolution of length ``size`` errs by about eps * log2(size) * |a| |b|
    (2-norms), here at most eps * log2(size) * len(fi), about 5e-10 at
    X = 1e7 (the measured margin there is 6e-11), far below 1/4.  Rounding
    therefore recovers every count; the margin is checked on every call and
    a violation raises AssertionError.
    """
    n = len(a) + len(b) - 1
    size = 1 << (n - 1).bit_length()
    fa = np.fft.rfft(a, size)
    fb = fa if b is a else np.fft.rfft(b, size)
    conv = np.fft.irfft(fa * fb, size)[: m + 1]
    counts = np.rint(conv)
    margin = float(np.abs(conv - counts).max())
    if not margin < 0.25:
        raise AssertionError(f"FFT rounding margin {margin} >= 1/4 at size {size}")
    return (counts >= 1).astype(np.float64)


def scan_exceptions_direct(X: int) -> np.ndarray:
    """Independent strategy: the per-x witness search on every x (for cross-validation)."""
    fi = fi_primes_upto(X)
    in_fi = _fi_bitmap(fi, X)
    out = [x for x in range(3, X + 1, 4) if _smallest_witness(x, fi, in_fi) is None]
    return np.array(out, dtype=np.int64)


def find_3aps(
    X: int, subset_filter: Optional[Callable[[int], bool]] = None
) -> list[tuple[int, int, int]]:
    """All 3-term APs (p, p + d, p + 2d), d > 0, inside the FI primes <= X."""
    if X < 5:
        raise ValueError("X must be >= 5")
    fi = fi_primes_upto(X)
    if subset_filter is not None:
        fi = np.array([p for p in fi if subset_filter(int(p))], dtype=np.int64)
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


def wtrick_build(
    x: int,
    b: int,
    w_override: Optional[float] = None,
    W_override: Optional[int] = None,
) -> WTrickedSequence:
    """Normalised W-tricked LL sequence on the class b mod W.

    values(n) = phi(W) / (Xi(W, b) W R H) * LL(W n + b) for n <= N = x // W,
    where R is the calibrated pair-convention multiplier of LL against H x
    (1/2 here); with it the empirical mean tends to 1.  Admissibility:
    gcd(b, W) = 1 and b = 1 (4).  W_override forces an explicit even modulus
    (for probing classes outside the 2 prod_{p <= w} p family).
    """
    if W_override is not None:
        if W_override < 2 or W_override % 2:
            raise ValueError("W_override must be even and >= 2")
        w, W = float("nan"), W_override
    else:
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
