"""Adaptive Simpson quadrature."""

from __future__ import annotations

import math
from typing import Callable

_MAX_DEPTH = 40  # bisection depth at which a subinterval is accepted regardless of tol


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
) -> tuple[float, float]:
    """Adaptive Simpson integration of f over [a, b].

    Returns (value, error_estimate).  The estimate is the accumulated
    Richardson residual, conservative for smooth integrands.  A NaN bound or
    integrand value raises ValueError: it never converges, and would recurse
    to the full depth in every branch.
    """
    if a == b:
        return 0.0, 0.0
    if a > b:
        v, e = adaptive_simpson(f, b, a, tol)
        return -v, e

    def simpson(fa: float, fm: float, fb: float, h: float) -> float:
        return h / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(x0, x2, f0, f2, whole, depth, tol):
        x1 = 0.5 * (x0 + x2)
        fl = f(0.5 * (x0 + x1))
        fr = f(0.5 * (x1 + x2))
        f1 = f(x1)
        left = simpson(f0, fl, f1, x1 - x0)
        right = simpson(f1, fr, f2, x2 - x1)
        err = (left + right - whole) / 15.0
        if depth >= _MAX_DEPTH or abs(err) < tol:
            return left + right + err, abs(err)
        if math.isnan(err):
            raise ValueError(f"NaN in the integral over [{x0}, {x2}]")
        lv, le = recurse(x0, x1, f0, f1, left, depth + 1, tol / 2.0)
        rv, re_ = recurse(x1, x2, f1, f2, right, depth + 1, tol / 2.0)
        return lv + rv, le + re_

    fa, fb = f(a), f(b)
    whole = simpson(fa, f(0.5 * (a + b)), fb, b - a)
    return recurse(a, b, fa, fb, whole, 0, tol)
