"""Two-dimensional lattices in Z[i] cut out by star-product divisibility.

Gamma(l1, d1, l2, d2) = {m in Z[i] : d_j | m * l_j} for primitive l_j and
squarefree d_j.  Its index in Z[i] is

    Delta = d1 d2 / gcd(d1, d2, |Im(l1 conj(l2))|):

per prime p dividing both d's the two linear conditions mod p coincide
exactly when p | Im(l1 conj(l2)) (contribution p), and otherwise force
m = 0 mod p (contribution p^2).

A reduced basis (b1, b2) realises the successive minima; it is built from a
per-prime solution vector via CRT and Lagrange-Gauss reduction.  The annulus
M < |m|^2 <= M_hi is enumerated row-by-row in the basis coordinates, with
the direct annulus filter as the matching oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gaussian import GaussianInt, enumerate_annulus, imag_product, is_primitive, star
from .primes import factorize


@dataclass(frozen=True)
class StarLattice:
    l1: GaussianInt
    d1: int
    l2: GaussianInt
    d2: int
    delta: int

    def contains(self, m: GaussianInt) -> bool:
        return star(m, self.l1) % self.d1 == 0 and star(m, self.l2) % self.d2 == 0


def lattice_new(l1: GaussianInt, d1: int, l2: GaussianInt, d2: int) -> StarLattice:
    """Validated lattice with its discriminant."""
    for l in (l1, l2):
        if l.is_zero() or not is_primitive(l):
            raise ValueError(f"{l} is not primitive")
    for d in (d1, d2):
        if d < 1 or any(e > 1 for _, e in factorize(d)):
            raise ValueError(f"{d} is not a squarefree positive integer")
    g = math.gcd(math.gcd(d1, d2), abs(imag_product(l1, l2)))
    delta = d1 * d2 // g
    return StarLattice(l1=l1, d1=d1, l2=l2, d2=d2, delta=delta)


@dataclass(frozen=True)
class LatticeBasis:
    b1: GaussianInt
    b2: GaussianInt

    @property
    def det(self) -> int:
        return abs(self.b1.re * self.b2.im - self.b1.im * self.b2.re)


def _hnf_from_generators(gens: list[tuple[int, int]]) -> tuple[tuple[int, int], tuple[int, int]]:
    """Basis of the rank-2 lattice spanned by ``gens`` (Euclid on 2nd coords)."""
    rows = [g for g in gens if g != (0, 0)]
    while True:
        nz = [r for r in rows if r[1] != 0]
        if len(nz) <= 1:
            break
        nz.sort(key=lambda r: abs(r[1]))
        pivot = nz[0]
        new_rows = [pivot]
        for r in rows:
            if r is pivot:
                continue
            if r[1] != 0:
                q = r[1] // pivot[1]
                r = (r[0] - q * pivot[0], r[1] - q * pivot[1])
            if r != (0, 0):
                new_rows.append(r)
        rows = new_rows
    second = next(r for r in rows if r[1] != 0)
    firsts = [abs(r[0]) for r in rows if r[1] == 0 and r[0] != 0]
    a = 0
    for v in firsts:
        a = math.gcd(a, v)
    if a == 0:
        raise ValueError("generators do not span a rank-2 lattice")
    return (a, 0), second


def _initial_basis(lat: StarLattice) -> tuple[tuple[int, int], tuple[int, int]]:
    """Generators from per-prime solution sets, scaled by CRT cofactors.

    At each prime p | delta the local solutions are either the line through
    w_p = (im l, -re l) mod p (one divisibility condition, or two coinciding
    ones) or p Z^2 (two independent conditions).  Scaling a local generator
    by delta / p^{v_p(delta)} keeps it inside every other local condition,
    so together with delta Z^2 these span the lattice exactly.
    """
    delta = lat.delta
    support = sorted({p for p, _ in factorize(lat.d1)} | {p for p, _ in factorize(lat.d2)})
    im12 = imag_product(lat.l1, lat.l2)
    gens: list[tuple[int, int]] = [(delta, 0), (0, delta)]
    for p in support:
        in1 = lat.d1 % p == 0
        in2 = lat.d2 % p == 0
        if in1 and in2 and im12 % p != 0:
            s = delta // p  # local solutions p Z^2; v_p(delta) = 2
            gens.append((s, 0))
            gens.append((0, s))
        else:
            l = lat.l1 if in1 else lat.l2
            w = (l.im % p, (-l.re) % p)
            r = delta // p
            gens.append((r * w[0], r * w[1]))
    return _hnf_from_generators(gens)


def _canonical(v: tuple[int, int]) -> tuple[int, int]:
    """Sign normalisation: lexicographically smallest of v and -v is fixed by
    requiring re > 0, or re = 0 and im > 0."""
    if v[0] < 0 or (v[0] == 0 and v[1] < 0):
        return (-v[0], -v[1])
    return v


def reduced_basis(lat: StarLattice) -> LatticeBasis:
    """Lagrange-Gauss reduction to the successive-minima basis.

    Ties between equal-norm vectors are broken lexicographically in
    (re, im) after sign normalisation.
    """
    u, v = _initial_basis(lat)

    def norm(w: tuple[int, int]) -> int:
        return w[0] * w[0] + w[1] * w[1]

    def dot(a: tuple[int, int], b: tuple[int, int]) -> int:
        return a[0] * b[0] + a[1] * b[1]

    if norm(u) > norm(v):
        u, v = v, u
    while True:
        # round(dot/norm) with exact integer arithmetic
        n_u = norm(u)
        mu = (2 * dot(u, v) + n_u) // (2 * n_u)
        v = (v[0] - mu * u[0], v[1] - mu * u[1])
        if norm(v) < norm(u):
            u, v = v, u
        else:
            break
    u, v = _canonical(u), _canonical(v)
    if norm(u) == norm(v) and v < u:
        u, v = v, u
    b1 = GaussianInt(*u)
    b2 = GaussianInt(*v)
    basis = LatticeBasis(b1=b1, b2=b2)
    assert basis.det == lat.delta
    return basis


def shortest_vector_bruteforce(lat: StarLattice) -> GaussianInt:
    """Exhaustive shortest nonzero vector (oracle, delta <= 10^4)."""
    if lat.delta > 10**4:
        raise ValueError("brute-force search capped at delta <= 10^4")
    radius = int(math.isqrt(int(2 * lat.delta / math.sqrt(3.0))) + 2)
    best: Optional[GaussianInt] = None
    for m in enumerate_annulus(0, radius * radius):
        if lat.contains(m):
            cand = GaussianInt(*_canonical((m.re, m.im)))
            if best is None or (cand.norm(), cand.re, cand.im) < (best.norm(), best.re, best.im):
                best = cand
    assert best is not None
    return best


@dataclass(frozen=True)
class AnnulusPoints:
    points: list[GaussianInt]
    l1_rows: dict[int, list[tuple[int, int]]]


def annulus_lattice_points(
    lat: StarLattice, basis: LatticeBasis, M: int, M_hi: int
) -> AnnulusPoints:
    """Lattice points with M < |m|^2 <= M_hi, row by row in lambda2.

    Returns the points (lambda2 ascending, then lambda1 ascending) and, for
    each lambda2 that occurs, its lambda1 intervals.
    """
    if not M < M_hi:
        raise ValueError("need M < M_hi")
    b1, b2 = basis.b1, basis.b2
    A = b1.norm()
    Bc = star(b1, b2)
    C = b2.norm()
    # |l1 b1 + l2 b2|^2 = A l1^2 + 2 Bc l1 l2 + C l2^2 >= l2^2 (AC - Bc^2)/A
    disc = A * C - Bc * Bc
    lam2_bound = math.isqrt(M_hi * A // disc) + 2
    points: list[GaussianInt] = []
    l1_rows: dict[int, list[tuple[int, int]]] = {}
    for lam2 in range(-lam2_bound, lam2_bound + 1):
        # quadratic in lam1: A x^2 + 2 Bc lam2 x + C lam2^2 in (M, M_hi]
        outer = _quad_range(A, 2 * Bc * lam2, C * lam2 * lam2 - M_hi)
        if outer is None:
            continue
        inner = _quad_range(A, 2 * Bc * lam2, C * lam2 * lam2 - M)
        intervals = _subtract_interval(outer, inner)
        if not intervals:
            continue
        l1_rows[lam2] = intervals
        for lo, hi in intervals:
            for lam1 in range(lo, hi + 1):
                points.append(
                    GaussianInt(
                        lam1 * b1.re + lam2 * b2.re, lam1 * b1.im + lam2 * b2.im
                    )
                )
    return AnnulusPoints(points=points, l1_rows=l1_rows)


def _quad_range(a: int, b: int, c: int) -> Optional[tuple[int, int]]:
    """Integer x with a x^2 + b x + c <= 0 (a > 0), as a closed interval.

    Endpoints come from isqrt of the discriminant and are corrected by at
    most a couple of exact predicate checks, so the search is bounded even
    when no integer lies between the real roots.
    """
    disc = b * b - 4 * a * c
    if disc < 0:
        return None
    s = math.isqrt(disc)
    lo = (-b - s) // (2 * a) - 1
    hi = (-b + s) // (2 * a) + 1
    while lo <= hi and a * lo * lo + b * lo + c > 0:
        lo += 1
    while hi >= lo and a * hi * hi + b * hi + c > 0:
        hi -= 1
    if lo > hi:
        return None
    return lo, hi


def _subtract_interval(
    outer: tuple[int, int], inner: Optional[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Integer points in ``outer`` but not in ``inner``."""
    if inner is None:
        return [outer]
    out = []
    if outer[0] <= inner[0] - 1:
        out.append((outer[0], inner[0] - 1))
    if inner[1] + 1 <= outer[1]:
        out.append((inner[1] + 1, outer[1]))
    return out


def annulus_points_bruteforce(lat: StarLattice, M: int, M_hi: int) -> list[GaussianInt]:
    """Oracle: filter the plain annulus through lattice membership."""
    return [m for m in enumerate_annulus(M, M_hi) if lat.contains(m)]


def index_bruteforce(lat: StarLattice) -> int:
    """Points of the lattice in a fundamental delta x delta square.

    The lattice is periodic mod delta, so this count equals delta^2 / index;
    the discriminant formula predicts exactly delta points.
    """
    d = lat.delta
    res = np.arange(d, dtype=np.int64)
    re = res[:, None]
    im = res[None, :]
    ok1 = (re * lat.l1.re + im * lat.l1.im) % lat.d1 == 0
    ok2 = (re * lat.l2.re + im * lat.l2.im) % lat.d2 == 0
    return int(np.count_nonzero(ok1 & ok2))
