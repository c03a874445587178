import math

import numpy as np
import pytest

from fiprimes import buchstab as B, primes
from fiprimes.primes import factorize
from fiprimes.quadrature import adaptive_simpson


def test_closed_forms():
    assert B.buchstab_B(0.5) == 0.0
    assert B.buchstab_B(1.5) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert B.buchstab_B(2.5) == pytest.approx((1 + math.log(1.5)) / 2.5, abs=1e-15)
    assert B.buchstab_B(2.0) == 0.5


def test_closed_form_on_2_3_matches_recursion():
    # independent oracle: integrate the recursion from k = 2
    def oracle(u):
        val, _ = adaptive_simpson(lambda v: 1.0 / (v - 1.0), 2.0, u, 1e-13)
        return (2 * 0.5 + val) / u

    for u in (2.1, 2.5, 2.9):
        assert B.buchstab_B(u) == pytest.approx(oracle(u), abs=1e-10)


def test_continuity_at_two_and_three():
    assert B.buchstab_B(2.0 + 1e-10) == pytest.approx(0.5, abs=1e-9)
    assert B.buchstab_B(3.0) == pytest.approx((1 + math.log(2)) / 3, abs=1e-10)
    assert B.buchstab_B(3.0 + 1e-9) == pytest.approx((1 + math.log(2)) / 3, abs=1e-7)


def test_range_and_plateau():
    for u in np.linspace(0, 10, 2000):
        v = B.buchstab_B(float(u))
        assert 0.0 <= v <= 1.0
    for u in np.linspace(3, 10, 1000):
        assert B.buchstab_B(float(u)) <= B.UPPER_PLATEAU + 1e-12


def test_limit_value():
    # B tends to exp(-euler_gamma) = 0.561459...
    assert B.buchstab_B(10.0) == pytest.approx(math.exp(-0.5772156649015329), abs=1e-4)


def test_beyond_table_raises():
    interp = B.BuchstabInterpolant(u_max=5.0, h=1e-3)
    with pytest.raises(ValueError):
        interp.eval(7.0)


def test_derivative_relation():
    # (u B(u))' = B(u-1), i.e. B'(u) = (B(u-1) - B(u))/u; finite differences
    # are compared at the O(1) scale of B itself
    rng = np.random.default_rng(17)
    pts = []
    while len(pts) < 100:
        u = float(rng.uniform(2.05, 5.95))
        if min(abs(u - k) for k in range(2, 7)) > 0.03:
            pts.append(u)
    h = 1e-3
    for u in pts:
        fd = (B.buchstab_B(u + h) - B.buchstab_B(u - h)) / (2 * h)
        exact = (B.buchstab_B(u - 1) - B.buchstab_B(u)) / u
        assert abs(fd - exact) < 1e-4, u


def test_derivative_bound():
    # |d/dt B(t,z)| <= 1/(t log t log z) away from t = z, z^2
    z = 20.0
    logz = math.log(z)
    for t in np.linspace(25, 5000, 300):
        if abs(t - z) < 1.0 or abs(t - z * z) < 1.0:
            continue
        f = lambda tt: B.buchstab_B(math.log(tt) / logz) / logz
        d = (f(t + 1e-4) - f(t - 1e-4)) / 2e-4
        bound = 1.0 / (t * math.log(t) * logz)
        assert abs(d) <= bound * (1 + 1e-6), t


def test_grid_halving():
    coarse = B.BuchstabInterpolant(u_max=6.0, h=2e-4)
    fine = B.BuchstabInterpolant(u_max=6.0, h=1e-4)
    for u in np.linspace(3.0, 6.0, 301):
        assert abs(coarse.eval(float(u)) - fine.eval(float(u))) < 1e-6


def test_rough_indicator():
    assert B.rough_indicator(7, 5) == 1
    assert B.rough_indicator(15, 4) == 0
    assert B.rough_indicator(1, 100) == 1
    assert B.rough_indicator(49, 7) == 0  # 7 > z required strictly
    # trial division and the bulk mask against an oracle
    for z in (-1, 0, 1, 1.5, 2, 2.5, 3, 6.9, 7, 30, 1999, 2000, 5000, math.inf):
        mask = B.rough_mask(2000, z)
        assert mask.dtype == bool and len(mask) == 2001 and not mask[0]
        for n in range(1, 2001):
            expected = int(all(n % d for d in range(2, math.floor(min(n, z)) + 1)))
            assert B.rough_indicator(n, z) == mask[n] == expected, (n, z)
    # "every prime factor >= p" for a prime p is rough_indicator(m, p - 1)
    for p in (2, 3, 7, 31):
        mask = B.rough_mask(2000, p - 1)
        for m in range(1, 2001):
            expected = int(all(q >= p for q, _ in factorize(m)))
            assert B.rough_indicator(m, p - 1) == mask[m] == expected, (m, p)
    # limits 0 and 1, a fresh array each call
    assert B.rough_mask(0, 5).tolist() == [False]
    assert B.rough_mask(1, 5).tolist() == [False, True]
    a = B.rough_mask(10, 3)
    a[:] = False
    assert B.rough_mask(10, 3).tolist() == [False, True] + [False] * 3 + [True, False, True] + [False] * 3
    with pytest.raises(ValueError):
        B.rough_mask(-1, 5)


def test_rough_mask_over_the_byte_budget_raises_before_allocating(monkeypatch, forbid_alloc):
    # one byte per integer 0..limit
    monkeypatch.setattr(primes, "MAX_TABLE_BYTES", 1000)
    assert len(B.rough_mask(999, 5)) == 1000
    with pytest.raises(primes.CapacityError):
        B.rough_mask(1000, 5)
    monkeypatch.undo()
    forbid_alloc()
    with pytest.raises(primes.CapacityError):
        B.rough_count(10**10, 1000)


def test_identity_scan_over_the_byte_budget_raises_before_allocating(monkeypatch, forbid_alloc):
    # lhs, the int64 rhs and one mask: 10 (limit + 1) bytes
    monkeypatch.setattr(primes, "MAX_TABLE_BYTES", 10_000)
    assert B.buchstab_identity_scan(999, 3, 50) == 0
    forbid_alloc()
    with pytest.raises(primes.CapacityError):
        B.buchstab_identity_scan(1000, 3, 50)  # rough_mask's 1001 bytes would pass


def test_rough_count_examples():
    rc = B.rough_count(100, 10)
    assert rc.exact == 22
    rc2 = B.rough_count(1000, 1000)
    assert rc2.exact == 1
    assert rc2.predicted == pytest.approx(0.0, abs=1e-9)


def test_rough_count_midscale():
    rc = B.rough_count(10**6, 10**3)
    assert rc.exact == 78331
    assert rc.reliable
    assert abs(rc.exact / rc.predicted - 1.0) < 0.02


def test_rough_count_unreliable_flag():
    rc = B.rough_count(10**6, 2)  # z < T^0.1, outside prediction validity
    assert not rc.reliable
    assert rc.exact == 500000  # 2-rough means odd


def test_buchstab_identity_examples():
    assert B.buchstab_identity_check(30, 2, 5)
    assert B.buchstab_identity_check(1, 2, 100)
    assert B.buchstab_identity_check(25, 3, 50)


def test_buchstab_identity_exhaustive():
    assert B.buchstab_identity_scan(10**4, 3.0, 50.0) == 0
