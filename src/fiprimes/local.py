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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Literal

import numpy as np

from .primes import euler_phi, factorize, primes_upto


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


def psi0(r: int) -> Fraction:
    """Multiplicative psi0, supported on squarefree r; psi0(p) = chi(p)/(p-1-chi(p))."""
    if r < 1:
        raise ValueError("r must be >= 1")
    out = Fraction(1)
    for p, e in factorize(r):
        if e > 1:
            return Fraction(0)
        out *= Fraction(chi(p), p - 1 - chi(p))
    return out


def rho_density(l: int, q: int, a: int) -> int:
    """rho_l(q, a) = #{k mod q : k^2 + l^2 = a (q)}, by direct count."""
    if q < 1:
        raise ValueError("q must be >= 1")
    t = (a - l * l) % q
    ks = np.arange(q, dtype=np.int64)
    return int(np.count_nonzero((ks * ks) % q == t))


def euler_H(p_limit: int) -> tuple[float, float]:
    """Partial product of H = 2 prod_p (1 - chi(p)/((p-1)(p-chi(p)))).

    Returns (value, tail_bound).  The log of each omitted factor is at most
    2/p^2 in absolute value, so the tail is below 2/p_limit.
    """
    if p_limit < 3:
        raise ValueError("p_limit must be >= 3")
    ps = primes_upto(p_limit).astype(np.float64)
    ps = ps[ps >= 3]
    cs = np.where(ps % 4 == 1, 1.0, -1.0)
    factors = 1.0 - cs / ((ps - 1.0) * (ps - cs))
    value = 2.0 * float(np.prod(factors))
    tail = value * math.expm1(2.0 / p_limit)
    return value, tail


@lru_cache(maxsize=1)
def reference_H() -> float:
    """H truncated at the primes <= 10^6 (relative tail about 2e-6, see ``euler_H``)."""
    return euler_H(10**6)[0]


@dataclass(frozen=True)
class PsiFactors:
    psi_l: float
    psi_l_tail: float
    psi_prime_q: Fraction
    psi0_table: dict


def psi_factors(l: int, q: int, cutoff: int = 10**6, tol: float = 1e-4) -> PsiFactors:
    """psi(l), psi'(q), and the psi0 values on the squarefree divisors of q.

    psi(l) = prod_{p not dividing l} (1 - chi(p)/(p-1)) is evaluated through
    the absolutely convergent product for H (the direct product converges
    only conditionally): psi(l) = (2 H / pi) * psi'(l).  The reported tail is
    inherited from the H truncation at ``cutoff``; a ValueError is raised if
    it exceeds ``tol``.
    """
    if l < 1 or q < 1:
        raise ValueError("l and q must be >= 1")
    h, h_tail = euler_H(cutoff)
    rel_tail = h_tail / h
    psi_l = (2.0 * h / math.pi) * float(psi_prime(l))
    tail = abs(psi_l) * rel_tail
    if tail > tol:
        raise ValueError(f"cutoff {cutoff} gives tail {tail:.2e} > tol {tol:.2e}")
    table = {1: Fraction(1)}
    sq_free_part = 1
    for p, _ in factorize(q):
        sq_free_part *= p
    for r in _divisors(sq_free_part):
        table[r] = psi0(r)
    return PsiFactors(psi_l=psi_l, psi_l_tail=tail, psi_prime_q=psi_prime(q), psi0_table=table)


def _divisors(n: int) -> list[int]:
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


# ---------------------------------------------------------------------------
# Xi(q, a): the multiplicative fast path and the brute-force oracle


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


# ---------------------------------------------------------------------------
# bias search


@dataclass(frozen=True)
class XiExtreme:
    q: int
    a: int
    xi_value: Fraction


def xi_extremes(Q: int, direction: Literal["small", "large"]) -> XiExtreme:
    """Exhibit moduli where Xi strays far from 1, by greedy prime products.

    direction="large" accumulates 4 and then primes p = 3 (4) ascending,
    picking the residue maximising Xi at each prime; direction="small" uses
    primes p = 1 (4) and minimising residues.  A demonstration of growth,
    not an optimizer.
    """
    if Q < 2:
        raise ValueError("Q must be >= 2")
    residues: list[tuple[int, int]] = []  # (modulus, residue)
    q = 1
    if direction == "large" and 4 <= Q:
        q = 4
        residues.append((4, 1))
    want = 3 if direction == "large" else 1
    for p in primes_upto(Q):
        p = int(p)
        if p % 4 != want:
            continue
        if q * p > Q:
            break
        vals = [(xi(p, a), a) for a in range(1, p)]
        if direction == "large":
            best = max(vals, key=lambda t: (t[0], -t[1]))
        else:
            best = min(vals, key=lambda t: (t[0], t[1]))
        residues.append((p, best[1]))
        q *= p
    a = _crt(residues) if residues else 1
    return XiExtreme(q=q, a=a, xi_value=xi(q, a))


def _crt(residues: list[tuple[int, int]]) -> int:
    m, r = 1, 0
    for mod, res in residues:
        try:
            inv = pow(m, -1, mod)
        except ValueError:
            raise ValueError("moduli must be coprime") from None
        r = r + m * ((res - r) * inv % mod)
        m *= mod
    return r % m
