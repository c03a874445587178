import math
import random

import pytest

from fiprimes import lattice as LM
from fiprimes.gaussian import GaussianInt, enumerate_annulus

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
        sv = LM.shortest_vector_bruteforce(lat)
        assert basis.b1.norm() == sv.norm()


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
