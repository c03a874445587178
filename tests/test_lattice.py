import math
import random
import tracemalloc

import numpy as np
import pytest

from fiprimes import lattice as LM
from fiprimes.gaussian import GaussianInt, enumerate_annulus
from fiprimes.primes import CapacityError, factorize

SQUAREFREE = [1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 21, 22, 26, 30, 33, 35]


def random_instances(count, seed, delta_cap=500):
    rnd = random.Random(seed)
    out = []
    while len(out) < count:
        l1 = GaussianInt(rnd.randint(-9, 9), rnd.randint(-9, 9))
        l2 = GaussianInt(rnd.randint(-9, 9), rnd.randint(-9, 9))
        if l1.is_zero() or l2.is_zero():
            continue
        if math.gcd(abs(l1.re), abs(l1.im)) != 1 or math.gcd(abs(l2.re), abs(l2.im)) != 1:
            continue
        lat = LM.lattice_new(l1, rnd.choice(SQUAREFREE), l2, rnd.choice(SQUAREFREE))
        if lat.delta <= delta_cap:
            out.append(lat)
    return out


def test_discriminant_examples():
    assert LM.lattice_new(GaussianInt(1, 1), 6, GaussianInt(2, 1), 10).delta == 60
    assert LM.lattice_new(GaussianInt(1, 1), 2, GaussianInt(1, 3), 2).delta == 2
    assert LM.lattice_new(GaussianInt(3, 4), 1, GaussianInt(2, 1), 1).delta == 1


def test_lattice_validation():
    with pytest.raises(ValueError):
        LM.lattice_new(GaussianInt(2, 4), 3, GaussianInt(1, 0), 1)
    with pytest.raises(ValueError):
        LM.lattice_new(GaussianInt(1, 1), 4, GaussianInt(1, 0), 1)  # 4 not squarefree


def test_trivial_basis():
    lat = LM.lattice_new(GaussianInt(3, 4), 1, GaussianInt(2, 1), 1)
    basis = LM.reduced_basis(lat)
    assert basis.b1 == GaussianInt(0, 1) or basis.b1 == GaussianInt(1, 0)
    assert basis.det == 1
    assert basis.b1.norm() == basis.b2.norm() == 1


def test_checkerboard_basis():
    # membership 2 | re + im; shortest vectors have norm 2
    lat = LM.lattice_new(GaussianInt(1, 1), 2, GaussianInt(1, 0), 1)
    assert lat.delta == 2
    basis = LM.reduced_basis(lat)
    assert basis.b1.norm() == 2 and basis.b2.norm() == 2
    assert basis.det == 2


def test_index_matches_discriminant():
    for lat in random_instances(120, seed=101):
        assert LM.index_bruteforce(lat) == lat.delta


def test_reduction_invariants():
    for lat in random_instances(150, seed=202):
        basis = LM.reduced_basis(lat)
        assert basis.det == lat.delta
        assert lat.contains(basis.b1) and lat.contains(basis.b2)
        assert basis.b1.norm() <= basis.b2.norm()
        assert basis.b1.norm() <= (4.0 / 3.0) * lat.delta  # Hermite, slack 4/3
        prod = math.sqrt(basis.b1.norm() * basis.b2.norm())
        assert lat.delta / 2 <= prod <= 2 * lat.delta
        assert basis.b1 == LM.shortest_vector_bruteforce(lat)


def neg(l):
    return GaussianInt(-l.re, -l.im)


# 47#, the product of the primes to 47: d1 and d2 share 2, 3 and 5, where the
# two conditions coincide (Im(l1 conj l2) = -90)
BIG = LM.lattice_new(GaussianInt(7, 3), 200560490130, GaussianInt(37, 3), 91975710)


def test_hermite_basis_closed_form():
    assert BIG.delta == 614889782588491410
    for lat in random_instances(300, seed=707) + [BIG]:
        (A, zero), (B, C) = LM._hermite_basis(lat)
        assert zero == 0 and A * C == lat.delta and 0 <= B < A, lat
        assert lat.contains(GaussianInt(A, 0)) and lat.contains(GaussianInt(B, C)), lat
        for p in {p for d in (lat.d1, lat.d2) for p, _ in factorize(d)}:
            if A % p == 0:
                assert not lat.contains(GaussianInt(A // p, 0)), (lat, p)
    assert LM.reduced_basis(BIG).det == BIG.delta


def descriptions(lat):
    """The same lattice written four ways: as given, with l1 or l2 negated,
    and with the two conditions swapped."""
    l1, d1, l2, d2 = lat.l1, lat.d1, lat.l2, lat.d2
    for args in ((l1, d1, l2, d2), (neg(l1), d1, l2, d2), (l1, d1, neg(l2), d2), (l2, d2, l1, d1)):
        yield LM.lattice_new(*args)


def test_basis_is_a_function_of_the_lattice():
    for lat in random_instances(150, seed=808):
        basis = LM.reduced_basis(lat)
        assert all(LM.reduced_basis(other) == basis for other in descriptions(lat)), lat


@pytest.mark.parametrize("l1, d1, l2, d2, b1, b2", [
    ((8, 1), 6, (-1, -8), 2, (2, 2), (2, -4)),
    ((-7, 5), 3, (-5, 4), 3, (1, -1), (1, 2)),
], ids=["delta-12", "delta-3"])
def test_ties_of_b2_with_b2_plus_or_minus_b1_pick_one_basis(l1, d1, l2, d2, b1, b2):
    # here b2 and b2 +- b1 have the same norm, and the pick once followed the
    # path of the Euclid that built the first basis
    expected = LM.LatticeBasis(GaussianInt(*b1), GaussianInt(*b2))
    lat = LM.lattice_new(GaussianInt(*l1), d1, GaussianInt(*l2), d2)
    for other in descriptions(lat):
        assert LM.reduced_basis(other) == expected, other


def canonical_basis_bruteforce(lat):
    """Oracle of ``reduced_basis``: over every lattice vector with re > 0, or
    re = 0 < im, and norm <= 2 delta^2 (past the (4/3) delta^2 that bounds
    |b2|^2), b1 is the least by (norm, re, im) and b2 the least with
    |det(b1, b2)| = delta."""
    r = math.isqrt(2 * lat.delta**2)
    x, y = (a.ravel() for a in np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1)))
    n = x * x + y * y
    keep = ((x > 0) | ((x == 0) & (y > 0))) & (n <= 2 * lat.delta**2)
    keep &= (x * lat.l1.re + y * lat.l1.im) % lat.d1 == 0
    keep &= (x * lat.l2.re + y * lat.l2.im) % lat.d2 == 0
    order = np.lexsort((y[keep], x[keep], n[keep]))
    x, y = x[keep][order], y[keep][order]
    b1 = GaussianInt(int(x[0]), int(y[0]))
    j = np.flatnonzero(np.abs(b1.re * y - b1.im * x) == lat.delta)[0]
    return LM.LatticeBasis(b1, GaussianInt(int(x[j]), int(y[j])))


def test_reduced_basis_is_the_canonical_pick():
    for lat in random_instances(300, seed=909, delta_cap=60):
        assert LM.reduced_basis(lat) == canonical_basis_bruteforce(lat), lat


def test_annulus_against_direct_filter():
    for lat in random_instances(60, seed=303):
        basis = LM.reduced_basis(lat)
        M, M_hi = lat.delta, 20 * lat.delta
        rows = LM.annulus_lattice_points(lat, basis, M, M_hi)
        direct = LM.annulus_points_bruteforce(lat, M, M_hi)
        assert sorted((g.re, g.im) for g in rows.points) == sorted(
            (g.re, g.im) for g in direct
        )
        for m in rows.points:
            assert M < m.norm() <= M_hi and lat.contains(m)


def test_annulus_byte_estimate_bounds_the_peaks(monkeypatch):
    # the points and their rows: 0.57, 0.49 and 0.56 of the bytes checked
    checked = []
    monkeypatch.setattr(LM, "check_bytes", lambda nbytes, what: checked.append(nbytes))
    for (l1, d1, l2, d2), M, M_hi in ((((1, 0), 1, (0, 1), 1), 0, 5000),
                                      (((1, 1), 2, (1, 3), 2), 5000, 10000),
                                      (((1, 1), 6, (2, 1), 10), 60, 60000)):
        lat = LM.lattice_new(GaussianInt(*l1), d1, GaussianInt(*l2), d2)
        basis = LM.reduced_basis(lat)
        tracemalloc.start()
        try:
            LM.annulus_lattice_points(lat, basis, M, M_hi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= checked[-1], (lat, M, M_hi, peak, checked[-1])


def test_annulus_over_the_byte_budget_raises_before_the_walk(monkeypatch):
    def no_walk(*args):
        raise AssertionError("walked the rows before the capacity check")

    monkeypatch.setattr(LM, "_quad_range", no_walk)
    lat = LM.lattice_new(GaussianInt(1, 0), 1, GaussianInt(0, 1), 1)
    with pytest.raises(CapacityError, match=r"^lattice points in \(0, 10000000000\] needs "):
        LM.annulus_lattice_points(lat, LM.reduced_basis(lat), 0, 10**10)


def test_annulus_full_lattice_is_gauss_circle():
    lat = LM.lattice_new(GaussianInt(1, 0), 1, GaussianInt(0, 1), 1)
    basis = LM.reduced_basis(lat)
    rows = LM.annulus_lattice_points(lat, basis, 0, 100)
    assert len(rows.points) == len(list(enumerate_annulus(0, 100)))


def test_row_counts_bounded_by_disk_center_row():
    # every annulus row is no longer than the lambda2 = 0 row of the full
    # disk, up to 2 (the literal center-row bound fails for annuli: a row
    # tangent to the inner hole beats the split central row)
    for lat in random_instances(60, seed=404):
        basis = LM.reduced_basis(lat)
        M, M_hi = lat.delta, 16 * lat.delta
        rows = LM.annulus_lattice_points(lat, basis, M, M_hi)
        disk = LM.annulus_lattice_points(lat, basis, 0, M_hi)
        center = sum(hi - lo + 1 for lo, hi in disk.l1_rows.get(0, []))
        for lam2, ivs in rows.l1_rows.items():
            assert sum(hi - lo + 1 for lo, hi in ivs) <= center + 2, (lat, lam2)


def test_l2_band():
    # |L2| <= (4/sqrt(3)) sqrt(M_hi)/|b2| + 2; the 4/sqrt(3) is the provable
    # constant for a Lagrange-reduced basis
    for lat in random_instances(80, seed=505):
        basis = LM.reduced_basis(lat)
        for mult in (4, 16, 64):
            M_hi = mult * lat.delta
            rows = LM.annulus_lattice_points(lat, basis, M_hi // 2, M_hi)
            bound = (4.0 / math.sqrt(3.0)) * math.sqrt(M_hi / basis.b2.norm()) + 2.0
            assert len(rows.l1_rows) <= bound


def test_point_count_band():
    # for |b2|^2 < M the annulus (M, 2M] holds between M/(8 delta) and
    # 8 M / delta points
    checked = 0
    for lat in random_instances(100, seed=606):
        basis = LM.reduced_basis(lat)
        M = 16 * lat.delta
        if basis.b2.norm() >= M:
            continue
        rows = LM.annulus_lattice_points(lat, basis, M, 2 * M)
        ratio = len(rows.points) / (M / lat.delta)
        assert 1.0 / 8.0 <= ratio <= 8.0, lat
        checked += 1
    assert checked >= 50


def test_star_divisor_sum_band():
    # sum tau(|v1 * v2|) over annulus pairs is at most C V^2 log(V^2), with
    # C fixed on the V = 100 run and verified at V = 1000
    import numpy as np

    def star_tau_sum(V):
        pts = np.array([(g.re, g.im) for g in enumerate_annulus(V, 2 * V)], dtype=np.int64)
        lim = 8 * V + 10
        tau = np.zeros(lim + 1, dtype=np.int64)
        for d in range(1, lim + 1):
            tau[d::d] += 1
        total = 0
        for a, b in pts:
            s = np.abs(pts[:, 0] * a + pts[:, 1] * b)
            s = s[s > 0]
            total += int(tau[s].sum())
        return total

    s100 = star_tau_sum(100)
    c_fixed = s100 / (100**2 * math.log(100**2))
    assert c_fixed == pytest.approx(6.913, abs=0.01)
    s1000 = star_tau_sum(1000)
    assert s1000 <= c_fixed * 1000**2 * math.log(1000**2)
