"""Exact Gaussian-integer primitives.

Everything downstream that steps into Z[i] (lattices, bilinear sums) is built
on three operations: the star product m*l = Re(m conj(l)), the primitivity
test gcd(re, im) = 1, and deterministic enumeration of the annulus
M < |m|^2 <= M_hi.  Values are plain Python integers, so arithmetic is exact
at any size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True, order=True)
class GaussianInt:
    """An element of Z[i] with real part ``re`` and imaginary part ``im``."""

    re: int
    im: int

    def norm(self) -> int:
        """Squared modulus re^2 + im^2."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __repr__(self) -> str:
        return f"GaussianInt({self.re}, {self.im})"


def star(m: GaussianInt, l: GaussianInt) -> int:
    """Star product m*l = Re(m conj(l)) = re(m) re(l) + im(m) im(l).

    Bilinear and symmetric; star(m, m) is the squared norm.
    """
    return m.re * l.re + m.im * l.im


def imag_product(m: GaussianInt, l: GaussianInt) -> int:
    """Im(m conj(l)) = im(m) re(l) - re(m) im(l)."""
    return m.im * l.re - m.re * l.im


def is_primitive(m: GaussianInt) -> bool:
    """True iff gcd(|re|, |im|) = 1, with the gcd(0, n) = n convention.

    Raises ValueError for m = 0, which has no meaningful primitivity.
    """
    if m.is_zero():
        raise ValueError("primitivity is undefined for 0")
    return math.gcd(abs(m.re), abs(m.im)) == 1


def enumerate_annulus(M: int, M_hi: int) -> Iterator[GaussianInt]:
    """Yield every nonzero m in Z[i] with M < norm(m) <= M_hi, each once.

    All four quadrants are covered; the order is lexicographic in (re, im),
    which keeps downstream output reproducible.  Requires 0 <= M < M_hi.
    """
    if not (0 <= M < M_hi):
        raise ValueError(f"need 0 <= M < M_hi, got ({M}, {M_hi})")
    r_max = math.isqrt(M_hi)
    for re in range(-r_max, r_max + 1):
        hi2 = M_hi - re * re
        if hi2 < 0:
            continue
        im_hi = math.isqrt(hi2)
        lo2 = M - re * re
        if lo2 < 0:
            # the full segment qualifies, except the origin
            for im in range(-im_hi, im_hi + 1):
                if re != 0 or im != 0:
                    yield GaussianInt(re, im)
        else:
            im_lo = math.isqrt(lo2) + 1  # least im with im^2 > lo2
            if im_lo > im_hi:
                continue
            for im in range(-im_hi, -im_lo + 1):
                yield GaussianInt(re, im)
            for im in range(im_lo, im_hi + 1):
                yield GaussianInt(re, im)
