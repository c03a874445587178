import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from fiprimes import buchstab as B, primes
from fiprimes.primes import factorize
from fiprimes.quadrature import adaptive_simpson

from conftest import buchstab_identity_violations
from test_primes import SEGMENT_EDGES, eratosthenes


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


def test_table_past_the_byte_budget_raises_before_allocating(monkeypatch, forbid_alloc):
    # 8 bytes per grid point; a fresh table to u = 10 has 70,001 of them
    monkeypatch.setattr(B, "_values", None)
    monkeypatch.setattr(primes, "MAX_TABLE_BYTES", 8 * 70_001)
    assert B.buchstab_B(10.0) == pytest.approx(0.5614594835, abs=1e-9)
    forbid_alloc()
    monkeypatch.setattr(np, "empty", lambda *a, **k: pytest.fail("allocated before the check"))
    for u in (10.5, 1e300):
        with pytest.raises(primes.CapacityError):
            B.buchstab_B(u)
        with pytest.raises(primes.CapacityError):
            B.buchstab_B(np.array([2.0, u]))
    for u in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            B.buchstab_B(u)
        with pytest.raises(ValueError):
            B.buchstab_B(np.array([5.0, u]))


def test_derivative_relation():
    # (u B(u))' = B(u-1), i.e. B'(u) = (B(u-1) - B(u))/u; finite differences
    # are compared at the O(1) scale of B itself
    rng = np.random.default_rng(17)
    pts = []
    while len(pts) < 200:
        u = float(rng.uniform(2.05, 29.95))
        if min(abs(u - k) for k in range(2, 31)) > 0.03:
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


def test_table_against_recursion_on_3_4():
    # independent oracle: integrate the recursion from k = 3 with the
    # closed form on [2, 3] under the integral
    b3 = B.buchstab_B(3.0)
    for u in np.linspace(3.0, 4.0, 41)[1:]:
        val, _ = adaptive_simpson(lambda v: (1.0 + math.log(v - 2.0)) / (v - 1.0), 3.0, u, 1e-13)
        assert abs(B.buchstab_B(float(u)) - (3.0 * b3 + val) / u) < 1e-8, u


def test_table_is_pinned_and_read_only():
    # sha1 of the first 70,001 knots, as the scalar trapezoid loop built them
    B.default_interpolant()
    vals = B._table(10.0)
    assert hashlib.sha1(vals[:70_001].tobytes()).hexdigest() == "7e4abe375ca6abfd8cddd4339b17f7455b8a563b"
    assert not vals.flags.writeable
    with pytest.raises(ValueError):
        vals[0] = 0.0


def test_values_past_10_are_pinned():
    # pinned values past the first table's end at 10
    assert B.buchstab_B(12.0) == 0.5614594835169276
    assert B.buchstab_B(20.5) == 0.5614594835150969
    assert B.buchstab_B(31.0) == 0.5614594835148597
    # growing the table kept every earlier value
    grown = B._table(31.0)
    assert len(grown) >= 280_001
    assert np.array_equal(grown[:70_001], B._march(10))


def test_array_form_matches_scalar_form():
    us = np.concatenate([np.random.default_rng(5).uniform(-1.0, 31.0, 4998),
                         [0.0, 1.0, 2.0, 3.0, 4.0, 10.0, 31.0]]).reshape(-1, 7)
    arr = B.buchstab_B(us)
    assert arr.shape == us.shape
    for u, a in zip(us.ravel().tolist(), arr.ravel().tolist()):
        s = B.buchstab_B(u)
        if u >= 3.0:
            assert a == s, u
        else:
            assert abs(a - s) <= 2 * math.ulp(s), u


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
    # one byte per integer 0..limit, a segment of 500 for the odd slots, 2
    # per integer to z = 5 and 64 for each of its at most 4 primes, and
    # 4,096 fixed: 5,864 bytes at limit 999
    monkeypatch.setattr(primes, "MAX_TABLE_BYTES", 5864)
    assert len(B.rough_mask(999, 5)) == 1000
    with pytest.raises(primes.CapacityError):
        B.rough_mask(1000, 5)
    monkeypatch.undo()
    forbid_alloc()
    with pytest.raises(primes.CapacityError):
        B.rough_count(10**10, 1000)


def test_rough_mask_byte_estimate_bounds_the_peaks(monkeypatch):
    # the mask, the sieve to min(z, limit) and its primes, measured with the
    # prime caches cleared: 0.995, 0.998 and 0.995 of the bytes checked
    checked = []
    monkeypatch.setattr(B, "check_bytes", lambda nbytes, what: checked.append(nbytes))
    for limit, z in ((10**6, 10**6), (4 * 10**6, 4 * 10**6), (10**6, 10**3)):
        primes.simple_sieve.cache_clear()
        primes.primes_upto.cache_clear()
        tracemalloc.start()
        try:
            B.rough_mask(limit, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= checked[-1], (limit, z, peak, checked[-1])


@pytest.mark.parametrize("limit", range(4))
@pytest.mark.parametrize("z", [-1.0, 0.0, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, math.inf, math.nan])
def test_rough_mask_edges_match_the_indicator(limit, z):
    # z < 2 leaves the even n rough, z >= 2 strikes them; z >= limit strikes every prime
    expected = [False] + [bool(B.rough_indicator(n, z)) for n in range(1, limit + 1)]
    assert B.rough_mask(limit, z).tolist() == expected


def rough_oracle(limit, z):
    """Oracle: mask[n] for 0 <= n <= limit by the all-integers sieve, which
    strikes every multiple of each prime p <= z (0 struck, 1 kept)."""
    mask = np.ones(limit + 1, dtype=bool)
    mask[0] = False
    for p in np.flatnonzero(eratosthenes(min(z, limit))).tolist():
        mask[p::p] = False
    return mask


def test_rough_mask_and_count_at_segment_edges():
    # the kernel's strided path (rough_mask) and contiguous path (rough_count)
    # at 2k * 2^20 +- 2 integers, k whole segments of odd numbers; z = sqrt
    # and sqrt + 1 straddle the last base prime, z = limit strikes every prime
    for limit in SEGMENT_EDGES:
        root = math.isqrt(limit)
        for z in [2, 3, 1000, root, root + 1] + [limit] * (limit == SEGMENT_EDGES[0]):
            expected = rough_oracle(limit, z)
            assert np.array_equal(B.rough_mask(limit, z), expected), (limit, z)
            assert B.rough_count(limit, z).exact == np.count_nonzero(expected), (limit, z)


@pytest.mark.parametrize("T", [2, 3, 4, 5, 9, 10, 97, 1000])
def test_rough_count_matches_the_indicator(T):
    for z in (2, 2.5, 3, math.sqrt(T), T - 0.5, T):
        if 2 <= z <= T:
            assert B.rough_count(T, z).exact == sum(B.rough_indicator(n, z) for n in range(1, T + 1)), z


def test_rough_count_byte_estimate_bounds_the_peaks(monkeypatch):
    # the odd half of a mask, the sieve to min(z, T) and its primes, and the
    # quadrature, with the prime caches cleared and the shared B table built
    # (it has its own check): 0.31 to 0.96 of the bytes checked
    B.buchstab_B(30.0)
    checked = []
    monkeypatch.setattr(B, "check_bytes", lambda nbytes, what: checked.append(nbytes))
    for T, z in ((999, 2), (10**4, 2), (10**6, 2), (10**6, 10**3), (10**6, 10**6)):
        primes.simple_sieve.cache_clear()
        primes.primes_upto.cache_clear()
        tracemalloc.start()
        try:
            B.rough_count(T, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= checked[-1], (T, z, peak, checked[-1])


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
    # every n <= limit; n = 25 is the case a strict cofactor cutoff would miss
    assert buchstab_identity_violations(30, 2, 5) == 0
    assert buchstab_identity_violations(1, 2, 100) == 0
    assert buchstab_identity_violations(25, 3, 50) == 0


def test_buchstab_identity_exhaustive():
    assert buchstab_identity_violations(10**4, 3.0, 50.0) == 0
