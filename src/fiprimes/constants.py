"""The three density-bound integrals and the headline constant alpha_plus.

With xi = XI, xi1 = XI1, delta0 = DELTA0 and a = 2/3 - 2 delta0:

    c1 = (2/a) (1 + int_2^(a/xi1 - 1) log(t-1)/t dt)
    c2 = - int_(xi1)^(xi) log((a - t)/xi1 - 1) / (t (a - t)) dt
    c3 = (2/(1 - 2 delta0)) * int over xi1 <= b1 <= b2 <= b3 <= xi of
             B((1 - b1 - b2 - b3)/b1) / (b1^2 b2 b3)

and alpha_plus = c1 + c2 + c3 < 2.9739, comfortably below 3 * 0.999.
B is ``buchstab.buchstab_B``, evaluated on whole midpoint grids; its
argument reaches 3, where the Buchstab table takes over from the closed
forms, only for xi1 <= 1/6.

c3's midpoint rule evaluates the integrand only on the ordered cells
b2 <= b3 and pads the rest of each b1-row with zeros: every cell keeps its
per-element expression and each row hands the same zero-padded array to
numpy's sum, so the values equal those of the masked-rectangle loop bit for
bit.  ``alpha_plus`` keeps its 8 most recently used results: they are
frozen, so sharing them is safe, and 8 entries bound the cache.

The printed form of the c1 integrand elsewhere reads (log t - 1)/t; the
linear-sieve function F(s) on [3, 5] requires log(t-1)/t, which is what is
implemented here (the two differ by more than 0.1 in the final constant and
only the latter is consistent with F(3) continuity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .buchstab import buchstab_B
from .quadrature import adaptive_simpson

# the paper's sieve parameters, read by the majorant and the constants alike
XI = 0.265
XI1 = 0.183
DELTA0 = 1e-7

ALPHA_MINUS = 0.999
ALPHA_PLUS_BOUND = 2.9739
ALPHA_PLUS_FLOOR = 2.85


class BandViolation(AssertionError):
    """A computed constant left its certified band."""


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    grid: int


def c1_bound(xi1: float = XI1, delta0: float = DELTA0) -> QuadratureResult:
    """(2/a)(1 + int_2^(s-1) log(t-1)/t dt) with s = a/xi1, a = 2/3 - 2 delta0."""
    if not 0.0 < xi1 < 2.0 / 3.0:
        raise ValueError("need 0 < xi1 < 2/3")
    a = 2.0 / 3.0 - 2.0 * delta0
    s = a / xi1
    if s <= 3.0:
        return QuadratureResult(value=2.0 / a, error_estimate=0.0, grid=0)
    integral, err = adaptive_simpson(lambda t: math.log(t - 1.0) / t, 2.0, s - 1.0, 1e-12)
    return QuadratureResult(value=(2.0 / a) * (1.0 + integral), error_estimate=err, grid=0)


def c2_bound(
    xi1: float = XI1, xi: float = XI, delta0: float = DELTA0
) -> QuadratureResult:
    """Negative of int_(xi1)^(xi) log((a-t)/xi1 - 1)/(t (a-t)) dt."""
    a = 2.0 / 3.0 - 2.0 * delta0
    if not xi1 < xi:
        raise ValueError("need xi1 < xi")
    if not xi < a - xi1:
        raise ValueError("log argument would go negative; need xi < 2/3 - 2 delta0 - xi1")

    def integrand(t: float) -> float:
        return math.log((a - t) / xi1 - 1.0) / (t * (a - t))

    integral, err = adaptive_simpson(integrand, xi1, xi, 1e-12)
    return QuadratureResult(value=-integral, error_estimate=err, grid=0)


def _c3_midpoint(xi1: float, xi: float, n: int) -> float:
    """Midpoint rule over the ordered box xi1 <= b1 <= b2 <= b3 <= xi.

    For each b1 = mids[i], the integrand is evaluated only on the cells
    i <= j <= k of (b2, b3); in the row-major ``np.triu_indices(n)`` those
    cells are the contiguous tail from row i.  They are scattered into a
    zeroed n*n buffer whose cells with j > k stay zero, and ``buf[i*n:]``
    is summed: the same zero-padded (n - i) x n array, element for element,
    as a rectangle masked by b2 <= b3, so numpy's pairwise sum adds in the
    same order and the result is bit-identical to the masked rectangle
    (``tests/conftest.py::c3_midpoint_rows``) at a third of the B calls.
    """
    h = (xi - xi1) / n
    mids = xi1 + (np.arange(n) + 0.5) * h
    j, k = np.triu_indices(n)
    b2_all, b3_all, cells = mids[j], mids[k], j * n + k
    buf = np.zeros(n * n)
    total = 0.0
    for i in range(n):
        start = i * n - i * (i - 1) // 2  # cells of rows 0..i-1 of the triangle
        b1, b2, b3 = mids[i], b2_all[start:], b3_all[start:]
        u = (1.0 - b1 - b2 - b3) / b1
        buf[cells[start:]] = buchstab_B(u) / (b1 * b1 * b2 * b3)
        total += float(buf[i * n :].sum())
    return total * h**3


def c3_bound(
    xi1: float = XI1,
    xi: float = XI,
    delta0: float = DELTA0,
    tol: float = 1e-5,
    start_grid: int = 32,
    max_grid: int = 2048,
) -> QuadratureResult:
    """Triple integral over the ordered simplex, midpoint + Richardson.

    The integrand argument stays below (1 - 3 xi1)/xi1 < 3 at the standard
    parameters, so closed forms of B suffice; for xi1 <= 1/6 it reaches 3
    and B comes from the shared Buchstab table.
    """
    if not xi1 < xi:
        raise ValueError("need xi1 < xi")
    scale = 2.0 / (1.0 - 2.0 * delta0)
    n = start_grid
    raw_prev = _c3_midpoint(xi1, xi, n)
    rich_prev = None
    while n < max_grid:
        n *= 2
        raw = _c3_midpoint(xi1, xi, n)
        rich = 2.0 * raw - raw_prev
        if rich_prev is not None and abs(rich - rich_prev) < tol:
            return QuadratureResult(
                value=scale * rich, error_estimate=abs(rich - rich_prev), grid=n
            )
        raw_prev, rich_prev = raw, rich
    return QuadratureResult(
        value=scale * rich_prev if rich_prev is not None else scale * raw_prev,
        error_estimate=float("nan"),
        grid=n,
    )


@dataclass(frozen=True)
class AlphaPlusResult:
    c1: QuadratureResult
    c2: QuadratureResult
    c3: QuadratureResult
    value: float


@lru_cache(maxsize=8)
def alpha_plus(xi1: float = XI1, xi: float = XI, delta0: float = DELTA0) -> AlphaPlusResult:
    """c1 + c2 + c3 at the given parameters, band-checked.

    Raises BandViolation if the total leaves [2.85, 2.9739] or fails to stay
    under 3 * 0.999; either indicates a quadrature or transcription bug.
    A result is frozen, so repeated arguments share it from a cache of 8
    entries (under 3 KB each, tracemalloc); a BandViolation is raised on
    every call and never cached.
    """
    r1 = c1_bound(xi1, delta0)
    r2 = c2_bound(xi1, xi, delta0)
    r3 = c3_bound(xi1, xi, delta0)
    value = r1.value + r2.value + r3.value
    if not value <= ALPHA_PLUS_BOUND:
        raise BandViolation(f"alpha_plus = {value} > {ALPHA_PLUS_BOUND}")
    if not value >= ALPHA_PLUS_FLOOR:
        raise BandViolation(f"alpha_plus = {value} < {ALPHA_PLUS_FLOOR}")
    if not value < 3.0 * ALPHA_MINUS:
        raise BandViolation(f"alpha_plus = {value} >= 3 * {ALPHA_MINUS}")
    return AlphaPlusResult(c1=r1, c2=r2, c3=r3, value=value)
