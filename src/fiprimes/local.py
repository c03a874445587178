"""Local densities of FI primes in residue classes.

The character chi is the nontrivial character mod 4.  The density weight

    Xi(q, a) = psi'(q)/phi(q) * sum_{c mod q, (c,q)=1} rho_c(q, a)

for (a, q) = 1 (and 0 otherwise) measures the bias of the FI-prime weight LL
toward the class a mod q, normalised so that sum_{a mod q} Xi(q, a) = phi(q).
Here rho_c(q, a) counts k mod q with k^2 + c^2 = a (q), and

    psi'(q) = prod_{p | q} (1 - chi(p)/(p-1))^(-1).

Xi is multiplicative in q, q-periodic in a, and blind to prime powers:
Xi(p^r, a) = Xi(p, a) for odd p, Xi(2^r, a) = Xi(4, a) for r >= 2.  All of
this is exact rational arithmetic; floats appear only in the infinite
products (psi, H), which carry explicit tail bounds.

At an odd prime p not dividing a no table is needed.  The square counts are
#{k mod p : k^2 = t (p)} = 1 + (t|p), and sum_{c mod p} ((c^2 - a)/p) = -1
(Ireland and Rosen, A Classical Introduction to Modern Number Theory, ch. 8);
with ((-1)/p) = chi(p) this gives

    sum_{c=1}^{p-1} rho_c(p, a) = p - 1 - chi(p) - (a|p),

and since psi'(p)/phi(p) = 1/(p - 1 - chi(p)),

    Xi(p, a) = 1 - (a|p) / (p - 1 - chi(p)).

Note: Xi(4, 1) = 2 here.  All FI primes are 1 mod 4, so the class 1 mod 4
holds the entire mass and the mean-one normalisation forces the value 2; the
value is also what the defining formula yields.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .primes import REFERENCE_H, euler_phi, factorize


def chi(n: int) -> int:
    """Nontrivial character mod 4: 0 on evens, +1 on 1 (4), -1 on 3 (4)."""
    if n % 2 == 0:
        return 0
    return 1 if n % 4 == 1 else -1


def psi_prime(q: int) -> Fraction:
    """psi'(q) = prod_{p|q} (1 - chi(p)/(p-1))^(-1), exact."""
    if q < 1:
        raise ValueError("q must be >= 1")
    out = Fraction(1)
    for p, _ in factorize(q):
        c = chi(p)
        if c:
            out *= Fraction(p - 1, p - 1 - c)
    return out


def reference_H() -> float:
    """H = 2 prod_p (1 - chi(p)/((p-1)(p-chi(p)))), odd p <= 10^6: ``primes.REFERENCE_H``."""
    return REFERENCE_H


def xi(q: int, a: int) -> Fraction:
    """Exact Xi(q, a), assembled multiplicatively from prime(-power) moduli.

    At an odd prime p not dividing a, Xi(p, a) = 1 - (a|p) / (p - 1 - chi(p)),
    with the Legendre symbol (a|p) from Euler's criterion: see the module
    docstring.  ``xi_bruteforce`` evaluates the defining sum directly and
    serves as the oracle for this fast path.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    a %= q
    if q == 1:
        return Fraction(1)
    if math.gcd(a, q) != 1:
        return Fraction(0)
    out = Fraction(1)
    for p, e in factorize(q):
        if p == 2:
            # Xi(2, a) = 1; Xi(2^r, a) = Xi(4, a) is 2 on a = 1 (4) and 0 off it
            if e > 1:
                out *= 2 if a % 4 == 1 else 0
        else:
            d = p - 1 - chi(p)
            leg = 1 if pow(a, (p - 1) // 2, p) == 1 else -1
            out *= Fraction(d - leg, d)
        if out == 0:
            return out
    return out


def xi_bruteforce(q: int, a: int) -> Fraction:
    """Xi(q, a) straight from its defining sum, for q <= 10^4."""
    if q < 1:
        raise ValueError("q must be >= 1")
    if q > 10**4:
        raise ValueError("brute-force path is capped at q <= 10^4")
    a %= q
    if q == 1:
        return Fraction(1)
    if math.gcd(a, q) != 1:
        return Fraction(0)
    total = coprime_rho_row(q)[a]
    return psi_prime(q) / euler_phi(q) * int(total)


@lru_cache(maxsize=64)
def coprime_rho_row(q: int) -> np.ndarray:
    """T[a] = sum over coprime c of rho_c(q, a), for every a mod q.

    Computed as a circular convolution of the square counts
    sq[t] = #{k mod q : k^2 = t (q)} with the multiset {c^2 mod q : (c, q) = 1}.  Both are tables of nonnegative
    integer counts whose entries sum to at most q, so every exact T[a] is
    an integer <= q^2 <= 10^8 for the q <= 10^4 that ``xi_bruteforce``
    allows, and the float64 FFT error (of order eps * log2(q) * q^2) is far
    below 1/4.  Rounding is therefore exact; the margin max|c - rint(c)| <
    1/4 is checked on every call and an AssertionError is raised if it fails.
    The row is read-only because the cache hands it to every caller.
    """
    ks = np.arange(q, dtype=np.int64)
    sq = np.bincount((ks * ks) % q, minlength=q).astype(np.float64)
    coprime = np.gcd(ks, q) == 1
    mult = np.bincount((ks[coprime] ** 2) % q, minlength=q).astype(np.float64)
    conv = np.fft.irfft(np.fft.rfft(sq) * np.fft.rfft(mult), n=q)
    out = np.rint(conv)
    margin = float(np.max(np.abs(conv - out)))
    if not margin < 0.25:
        raise AssertionError(f"FFT rounding margin {margin:.3g} >= 1/4 in coprime_rho_row({q})")
    row = out.astype(np.int64)
    row.setflags(write=False)
    return row
