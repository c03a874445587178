"""Exponential sums, arc classification, and the bilinear-sum kernels.

Covers the geometric sum S0, weighted sums over a W-tricked progression,
linear (Type I) sums over FI-decomposed multiples, the bilinear lattice sum
by a walk over a reduced basis (with the direct annulus filter as its
oracle), min-sums against the classical rational bound, and the
combinatorial dissection of a sifted sum into linear and bilinear parts with
an explicit remainder band.
"""

from __future__ import annotations

import bisect
import cmath
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from .buchstab import rough_mask
from .gaussian import GaussianInt
from .lattice import (
    LatticeBasis,
    StarLattice,
    annulus_lattice_points,
    annulus_points_bruteforce,
    reduced_basis,
)
from .primes import inner_weight_table, primes_upto

ARC_EXPONENT_FULL = 1e5   # makes the major arcs cover [0, 1] at any feasible x
ARC_EXPONENT_DESK = 2.0   # nontrivial partition at desk scale


def e_of(t: float) -> complex:
    """e(t) = exp(2 pi i t)."""
    return cmath.exp(2j * math.pi * t)


def s0(gamma: float, N: int) -> complex:
    """S0(gamma, N) = sum_{n <= N} e(gamma n), in closed form."""
    if N < 0:
        raise ValueError("N must be >= 0")
    if N == 0:
        return 0j
    frac = gamma - round(gamma)
    if abs(frac) < 1e-15:
        return complex(N)
    q = e_of(gamma)
    return q * (e_of(gamma * N) - 1.0) / (q - 1.0)


def fractional_distance(t: float) -> float:
    """||t||: distance from t to the nearest integer."""
    return abs(t - round(t))


def weighted_expsum(
    f: Union[Callable[[int], float], Sequence[float], np.ndarray],
    gamma: float,
    T: int,
    W: int = 1,
    b: int = 1,
) -> complex:
    """S(gamma, T) = sum_{n <= T} f(W n + b) e(gamma n), evaluated directly."""
    if T < 0:
        raise ValueError("T must be >= 0")
    if not 1 <= b <= W:
        raise ValueError("need 1 <= b <= W")
    ns = np.arange(1, T + 1, dtype=np.int64)
    if callable(f):
        vals = np.array([f(int(W * n + b)) for n in ns], dtype=np.float64)
    else:
        arr = np.asarray(f)
        vals = arr[W * ns + b]
    phases = np.exp(2j * np.pi * gamma * ns)
    return complex(np.sum(vals * phases))


# ---------------------------------------------------------------------------
# arc classification


@dataclass(frozen=True)
class Arc:
    q: int
    a: int

    @property
    def center(self) -> float:
        return self.a / self.q


@dataclass(frozen=True)
class ArcDecomposition:
    """Major arcs around rationals a/q with q <= (log x)^exponent."""

    x: int
    exponent: float = ARC_EXPONENT_DESK

    @property
    def q_bound(self) -> int:
        # (log x)^exponent, saturating: with the asymptotic exponent the
        # bound dwarfs any desk x and the q = 1 arc already covers [0, 1]
        log_val = self.exponent * math.log(math.log(self.x))
        if log_val > 62 * math.log(2.0):
            return 1 << 62
        return max(1, int(math.log(self.x) ** self.exponent))

    @property
    def radius(self) -> float:
        log_val = self.exponent * math.log(math.log(self.x)) - math.log(self.x)
        if log_val > 700.0:
            return math.inf
        return math.exp(log_val)

    def _farey(self) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """``_farey_table(q_bound)`` if the arcs are disjoint and it fits its budget, else None.

        Two distinct reduced fractions of order Q are at least 1/Q^2 apart.
        A point that passes ``abs(g - a / q) <= radius`` lies within
        radius + 2^-52 of the exact a/q (the rounding of a / q and of the
        difference), so while 2 (radius + 2^-50) Q^2 < 1 no point passes for
        two fractions.  Rounding is monotone, so a fraction that passes is
        one of the point's two sorted neighbours, and it is the one the scan
        finds: the scan's nearest a at that q is the same a.
        """
        Q = self.q_bound
        disjoint = 2.0 * (self.radius + 2.0**-50) * Q * Q < 1.0
        # the build holds at most five int64 arrays over the Q (Q + 1) candidates
        if not disjoint or 40 * Q * (Q + 1) > FAREY_MAX_BYTES:
            return None
        return _farey_table(Q)

    def classify(self, gamma: float) -> Optional[Arc]:
        """Containing major arc; None if minor.

        The two Farey neighbours of gamma when the arcs are disjoint, else
        the scan over every q (``_classify_scan``, the oracle).
        """
        g = gamma % 1.0
        table = self._farey()
        if table is None:
            return self._classify_scan(g)
        centers, qs, nums = table
        i = bisect.bisect_left(centers, g)
        for j in (i - 1, i):
            if 0 <= j < len(centers) and abs(g - float(centers[j])) <= self.radius:
                q = int(qs[j])
                return Arc(q=q, a=int(nums[j]) % q)
        if math.isnan(g):
            raise ValueError("cannot classify NaN")
        return None

    def _classify_scan(self, g: float) -> Optional[Arc]:
        """Scan denominators upward: the first q whose nearest a/q is reduced and within radius."""
        for q in range(1, self.q_bound + 1):
            a = round(g * q)
            if abs(g - a / q) > self.radius:
                continue
            if q == 1:
                return Arc(q=1, a=0)
            if math.gcd(a % q, q) == 1:
                return Arc(q=q, a=a % q)
        return None

    def classify_grid(self, gammas: np.ndarray) -> np.ndarray:
        """Vectorised classification: the containing q per point, 0 if minor."""
        g = np.asarray(gammas, dtype=np.float64) % 1.0
        table = self._farey()
        if table is None:
            return self._classify_grid_scan(g)
        centers, qs, _ = table
        i = np.searchsorted(centers, g)
        out = np.zeros(len(g), dtype=np.int64)
        for j in (np.maximum(i - 1, 0), np.minimum(i, len(centers) - 1)):
            near = np.abs(g - centers[j]) <= self.radius
            out[near] = qs[j[near]]
        return out

    def _classify_grid_scan(self, g: np.ndarray) -> np.ndarray:
        """The scan of ``_classify_scan`` per point, stopping once every point has its q."""
        out = np.zeros(len(g), dtype=np.int64)
        for q in range(1, self.q_bound + 1):
            a = np.rint(g * q)
            near = np.abs(g - a / q) <= self.radius
            if q > 1:
                aa = a.astype(np.int64) % q
                near &= np.gcd(aa, q) == 1
            out = np.where((out == 0) & near, q, out)
            if out.all():  # with ARC_EXPONENT_FULL, q = 1 takes every point
                break
        return out


FAREY_MAX_BYTES = 64 << 20  # above this the arc classifiers scan every q


@lru_cache(maxsize=4)
def _farey_table(Q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every reduced a/q with 1 <= q <= Q and 0 <= a <= q, sorted by value.

    Returns read-only (centers, qs, nums) with centers[i] = nums[i] / qs[i],
    the correctly rounded float that the scan's ``a / q`` also gives.
    1/1 is kept beside 0/1 because ``gamma % 1.0`` can round up to 1.0.
    """
    qs, nums = np.divmod(np.arange(Q * (Q + 1), dtype=np.int64), Q + 1)
    qs += 1
    keep = (nums <= qs) & (np.gcd(nums, qs) == 1)
    qs, nums = qs[keep], nums[keep]
    centers = nums / qs
    order = np.argsort(centers)
    table = (centers[order], qs[order], nums[order])
    for arr in table:
        arr.setflags(write=False)
    return table


# ---------------------------------------------------------------------------
# Type I sums


def type1_sum(
    gamma: float,
    D_I: int,
    omega: Callable[[int], float],
    W: int,
    b: int,
    x: int,
    phase: str = "n",
) -> float:
    """R_omega(D_I) = sum_{d <= D_I} |sum_{dn <= x, dn = b (W)} S_omega(dn) e(gamma n)|.

    phase="n" applies e(gamma n) to the cofactor; phase="dn" applies
    e(gamma d n) to the full product (both shapes occur in practice and
    neither is canonical, so the choice is explicit).
    """
    if D_I < 0:
        raise ValueError("D_I must be >= 0")
    if x > 10**8:
        raise ValueError("x beyond the desk cap 10^8")
    if phase not in ("n", "dn"):
        raise ValueError("phase must be 'n' or 'dn'")
    table = inner_weight_table(x, omega)
    total = 0.0
    for d in range(1, D_I + 1):
        ms = np.arange(d, x + 1, d, dtype=np.int64)
        keep = ms % W == b % W
        ms = ms[keep]
        if len(ms) == 0:
            continue
        ns = ms // d
        mult = ns * d if phase == "dn" else ns
        phases = np.exp(2j * np.pi * gamma * mult)
        total += abs(np.sum(table[ms] * phases))
    return total


# ---------------------------------------------------------------------------
# Type II lattice sums


def _norm_sum(gamma_xi: float, points: Sequence[GaussianInt]) -> tuple[complex, dict[int, int]]:
    """sum of e(xi |m|^2) over ``points``, with the count of each squared norm.

    The terms are combined per norm, in sorted-norm order, so two routes that
    find the same multiset of norms give the same sum bit for bit.
    """
    counts = Counter(m.norm() for m in points)
    value = sum(cnt * e_of(gamma_xi * nrm) for nrm, cnt in sorted(counts.items()))
    return value, counts


@dataclass(frozen=True)
class LatticeSumResult:
    value: complex
    norm_counts: dict[int, int]
    gamma_xi: float
    lat: StarLattice
    M: int
    M_hi: int

    @cached_property
    def value_direct(self) -> complex:
        """The same sum by the direct-filter oracle, computed on first read.

        Lazy so that checks which compare the routes (the benchmark's lattice
        check reads this field) pay for the oracle outside the timed call.
        """
        return type2_lattice_sum_bruteforce(self.gamma_xi, self.lat, self.M, self.M_hi)


def type2_lattice_sum(
    gamma_xi: float, lat: StarLattice, M: int, M_hi: int, basis: Optional[LatticeBasis] = None
) -> LatticeSumResult:
    """sum over lattice points m with M < |m|^2 <= M_hi of e(xi |m|^2), by the basis walk.

    The walk touches O(points) lattice vectors, where the direct filter of
    ``type2_lattice_sum_bruteforce`` scans the whole annulus.
    """
    basis = basis or reduced_basis(lat)
    value, counts = _norm_sum(gamma_xi, annulus_lattice_points(lat, basis, M, M_hi).points)
    return LatticeSumResult(value, counts, gamma_xi, lat, M, M_hi)


def type2_lattice_sum_bruteforce(gamma_xi: float, lat: StarLattice, M: int, M_hi: int) -> complex:
    """Oracle: the lattice sum over the plain annulus filtered by lattice membership."""
    return _norm_sum(gamma_xi, annulus_points_bruteforce(lat, M, M_hi))[0]


# ---------------------------------------------------------------------------
# min-sums


def min_sum(
    gamma: Union[float, Fraction],
    J: int,
    K: float,
    multiplier: int = 1,
) -> float:
    """sum_{0 < j <= J} min(K, ||multiplier * gamma * j||^{-1})."""
    if J < 1 or K <= 0:
        raise ValueError("need J >= 1 and K > 0")
    g = _as_exact_rational(gamma)
    if g is not None:
        num, den = g.numerator * multiplier, g.denominator
        js = np.arange(1, J + 1, dtype=np.int64)
        r = (js * (num % den)) % den
        r = np.minimum(r, den - r)
        vals = np.where(r == 0, K, np.minimum(K, den / np.maximum(r, 1)))
        return float(vals.sum())
    js = np.arange(1, J + 1, dtype=np.float64)
    t = multiplier * float(gamma) * js
    dist = np.abs(t - np.round(t))
    vals = np.where(dist < 1e-15, K, np.minimum(K, 1.0 / np.maximum(dist, 1e-300)))
    return float(vals.sum())


def _as_exact_rational(gamma: Union[float, Fraction]) -> Optional[Fraction]:
    if isinstance(gamma, Fraction):
        return gamma
    # floats indistinguishable from a tiny-denominator rational would
    # underflow ||.||; route them through the exact path
    for q in range(1, 101):
        a = round(gamma * q)
        if abs(gamma - a / q) < 1e-15:
            return Fraction(a, q)
    return None


def min_sum_bound(a: int, q: int, J: int, K: float) -> float:
    """Classical bound (J/q + 1)(K + q log q) for gamma = a/q, (a, q) = 1."""
    if q < 1 or math.gcd(a, q) != 1:
        raise ValueError("need q >= 1 and (a, q) = 1")
    return (J / q + 1.0) * (K + q * math.log(q) if q > 1 else K)


# ---------------------------------------------------------------------------
# combinatorial dissection into Type I/II parts

DFI_CALIBRATED_C = 1.0  # pinned on the reference instance; see tests


@dataclass(frozen=True)
class DfiParts:
    total: complex
    type1_part: complex
    type2_parts: list[complex]
    sieved_tail: complex
    residual: complex
    residual_bound: float


def dfi_decompose(
    c: Union[Mapping[int, complex], np.ndarray, Sequence[complex]],
    z: float,
    U1: float,
    U2: float,
    D_I: float,
    K: int,
) -> DfiParts:
    """Split S(C, z) = sum_n rho(n, z) c(n) into linear and bilinear parts.

    Computes, exactly at desk scale,

        S(C, z) - sum_{U2 <= p < q < z} S(C_pq, p)
            = sum_{d | P(z), d < D_I, <=1 prime factor >= U1} mu(d) |C_d|
              + sum_{0 <= k < K} sum_{y_{k+1} <= p < y_k < q < z} S(C_pq, y_k)
              + residual,

    with y_k = U2 (U1/U2)^(k/K), and checks the residual against
    X G(z)^2 (2^(-log(D_I/z)/log U1) + c K^{-1} log U2), G(z) built from the
    measured divisor densities of |c|.
    """
    if not (3 <= K and K <= U1 < U2 < z < D_I):
        raise ValueError("need 3 <= K <= U1 < U2 < z < D_I")
    arr = _coerce_support(c)
    n_max = len(arr) - 1
    if n_max > 10**6:
        raise ValueError("support exceeds the enumeration cap 10^6")
    absarr = np.abs(arr)
    X = float(absarr[1:].sum())

    def rough_multiples_sum(m: int, cut: float) -> complex:
        """sum of c(m j) over j <= n_max / m with j cut-rough."""
        return arr[m::m][rough_mask(n_max // m, cut)[1:]].sum()

    total = rough_multiples_sum(1, z)

    # Type I part: d | P(z) squarefree, d < D_I, at most one prime factor >= U1
    zp = [int(p) for p in primes_upto(min(int(z), n_max)) if p <= z]
    type1 = 0j

    def rec(start: int, prod: int, mu: int, big: int) -> None:
        nonlocal type1
        type1 += mu * arr[prod::prod].sum()
        for j in range(start, len(zp)):
            p = zp[j]
            if prod * p >= D_I or prod * p > n_max:
                continue
            nbig = big + (1 if p >= U1 else 0)
            if nbig > 1:
                continue
            rec(j + 1, prod * p, -mu, nbig)

    rec(0, 1, 1, 0)

    # Type II bands
    ys = [U2 * (U1 / U2) ** (k / K) for k in range(K + 1)]
    bands: list[complex] = []
    for k in range(K):
        y_hi, y_lo = ys[k], ys[k + 1]
        part = 0j
        for p in zp:
            if not (y_lo <= p < y_hi):
                continue
            for q in zp:
                if y_hi < q < z and p * q <= n_max:
                    part += rough_multiples_sum(p * q, y_hi)
        bands.append(part)

    # leftover double sum
    tail = 0j
    for ip, p in enumerate(zp):
        if not (U2 <= p < z):
            continue
        for q in zp[ip + 1 :]:
            if q < z and p * q <= n_max:
                tail += rough_multiples_sum(p * q, p)

    residual = total - tail - type1 - sum(bands)
    G = 1.0
    for p in zp:
        if p < z and X > 0:
            G *= 1.0 + float(absarr[p::p].sum()) / X
    bound = (
        X
        * G
        * G
        * (2.0 ** (-math.log(D_I / z) / math.log(U1)) + DFI_CALIBRATED_C * math.log(U2) / K)
    )
    return DfiParts(
        total=total,
        type1_part=type1,
        type2_parts=bands,
        sieved_tail=tail,
        residual=residual,
        residual_bound=bound,
    )


def _coerce_support(
    c: Union[Mapping[int, complex], np.ndarray, Sequence[complex]]
) -> np.ndarray:
    if isinstance(c, Mapping):
        if not c:
            return np.zeros(1, dtype=np.complex128)
        n_max = max(c)
        arr = np.zeros(n_max + 1, dtype=np.complex128)
        for n, v in c.items():
            if n < 1:
                raise ValueError("support must be positive integers")
            arr[n] = v
        return arr
    arr = np.asarray(c, dtype=np.complex128)
    return arr
