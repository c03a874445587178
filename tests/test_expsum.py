import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fiprimes import expsum as E
from fiprimes.gaussian import GaussianInt, enumerate_annulus
from fiprimes import lattice as LM
from fiprimes.lattice import lattice_new
from fiprimes.primes import fi_decompositions, inner_weight_table, lambda_lambda_table


def test_s0_examples():
    assert E.s0(0.0, 7) == 7
    assert abs(E.s0(0.5, 4)) < 1e-12
    assert abs(E.s0(1.0 / 3.0, 3)) < 1e-12


def test_s0_matches_direct():
    rng = np.random.default_rng(3)
    for g in rng.uniform(0, 1, 50):
        N = int(rng.integers(1, 200))
        direct = sum(E.e_of(g * n) for n in range(1, N + 1))
        assert E.s0(float(g), N) == pytest.approx(direct, abs=1e-9)


def test_s0_bound(rng):
    for g in rng.uniform(0, 1, 10**4):
        v = abs(E.s0(float(g), 300))
        dist = E.fractional_distance(float(g))
        bound = 300 if dist == 0 else min(300.0, 1.0 / (2.0 * dist))
        assert v <= bound + 1e-9


def test_weighted_expsum_constant():
    assert E.weighted_expsum(lambda n: 1.0, 0.0, 25) == pytest.approx(25.0)


def test_weighted_expsum_unrolls_progression():
    ll = lambda_lambda_table(4000)
    got = E.weighted_expsum(ll, 0.0, 1999, 2, 1)
    expected = sum(ll[m] for m in range(3, 4000, 2))
    assert got.real == pytest.approx(expected, rel=1e-12)


def test_weighted_expsum_ll_damping_at_third():
    x = 10**5
    ll = lambda_lambda_table(x)
    N = (x - 1) // 2
    s_zero = E.weighted_expsum(ll, 0.0, N, 2, 1)
    s_third = E.weighted_expsum(ll, 1.0 / 3.0, N, 2, 1)
    assert abs(s_third) / abs(s_zero) < 0.75


def test_arc_classification():
    arcs = E.ArcDecomposition(x=10**8, exponent=2.0)
    assert arcs.q_bound == 339
    assert 2 * arcs.radius * arcs.q_bound**2 < 1.0  # arcs are disjoint
    assert arcs.classify(1.0 / 3.0) == E.Arc(q=3, a=1)
    assert arcs.classify(0.9999999999) == E.Arc(q=1, a=0)
    assert arcs.classify(1e-9) == E.Arc(q=1, a=0)
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    assert arcs.classify(golden) is None


def test_arc_grid_vector_scalar_agree():
    arcs = E.ArcDecomposition(x=10**8, exponent=2.0)
    gs = np.arange(2000) / 2000.0
    qm = arcs.classify_grid(gs)
    for i in range(0, 2000, 17):
        scalar = arcs.classify(float(gs[i]))
        assert (scalar is not None) == (qm[i] > 0)
        if scalar is not None:
            assert scalar.q == qm[i]


def test_arc_full_exponent_covers_everything():
    arcs = E.ArcDecomposition(x=10**6, exponent=E.ARC_EXPONENT_FULL)
    assert arcs.radius > 1.0  # the major arcs swallow [0, 1] at desk x


def test_arc_grid_million_points_all_classified():
    arcs = E.ArcDecomposition(x=10**8, exponent=2.0)
    gs = np.arange(10**6) / 10**6
    qs = arcs.classify_grid(gs)
    assert len(qs) == 10**6
    frac_major = float((qs > 0).mean())
    assert 0.1 < frac_major < 0.5  # a nontrivial partition
    # rationals with small denominators land on their own arc
    assert qs[0] == 1
    assert qs[500000] == 2  # gamma = 1/2
    assert qs[333333] == 3  # nearest rational to 0.333333 within radius is 1/3


def test_arc_farey_table_matches_scan_at_1e8():
    arcs = E.ArcDecomposition(x=10**8, exponent=2.0)
    centers, qs, nums = arcs._farey()  # disjoint arcs: the table path is taken
    assert len(centers) == 35059
    assert np.all(np.diff(centers) > 0)
    assert (qs[-1], nums[-1]) == (1, 1)
    r = arcs.radius
    rng = np.random.default_rng(20261017)
    planted = centers[rng.integers(0, len(centers), 20000)] + rng.uniform(-4, 4, 20000) * r
    # the last point inside each arc end and the first outside are among these
    ends = np.concatenate([centers + r, centers - r])
    gs = np.concatenate([rng.uniform(0, 1, 20000), planted, np.nextafter(ends, -np.inf), ends,
                         np.nextafter(ends, np.inf), [-1e-20, -0.0, 1.0, 2.5, -0.75]])
    fast = arcs.classify_grid(gs)
    assert np.array_equal(fast, arcs._classify_grid_scan(gs % 1.0))
    assert 0.3 < float((fast > 0).mean()) < 0.7  # both outcomes are exercised
    # g = r lies exactly on the edge of the 0/1 arc: abs(r - 0.0) == r
    for g in [*gs[::40].tolist(), r, 1.0 - r]:
        assert arcs.classify(g) == arcs._classify_scan(g % 1.0), g.hex()
    assert arcs.classify(r) == E.Arc(q=1, a=0)
    assert arcs.classify(-1e-20) == E.Arc(q=1, a=0)  # -1e-20 % 1.0 == 1.0, the 1/1 entry


def test_arc_farey_table_is_read_only():
    for arr in E.ArcDecomposition(x=10**8)._farey():
        with pytest.raises(ValueError):
            arr[0] = 0


def test_arc_overlapping_or_oversized_tables_fall_back_to_scan(monkeypatch):
    small = E.ArcDecomposition(x=10**3)
    assert 2 * small.radius * small.q_bound**2 >= 1.0
    assert small._farey() is None
    full = E.ArcDecomposition(x=10**6, exponent=E.ARC_EXPONENT_FULL)
    assert full._farey() is None
    assert full.classify(0.3) == E.Arc(1, 0)
    gs = np.linspace(0.0, 1.0, 2001)
    assert np.array_equal(full.classify_grid(gs), np.ones(len(gs), dtype=np.int64))
    assert small.classify_grid(gs)[1000] == 2  # 1/2
    assert small.classify(0.5) == E.Arc(q=2, a=1)
    big = E.ArcDecomposition(x=10**8)
    want = big.classify_grid(gs)
    monkeypatch.setattr(E, "FAREY_MAX_BYTES", 0)
    assert big._farey() is None
    assert np.array_equal(big.classify_grid(gs), want)
    assert big.classify(1.0 / 3.0) == E.Arc(q=3, a=1)


def test_type1_zero_frequency_counts_representations():
    x = 5000
    v = E.type1_sum(0.0, 1, lambda l: 1.0, 1, 1, x)
    brute = sum(len(fi_decompositions(n)) for n in range(1, x + 1))
    assert v == pytest.approx(brute, rel=1e-12)


def _omega(l):
    return math.log(l) if l % 3 else 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=3000))
def test_inner_weight_table_matches_decompositions(x):
    table = inner_weight_table(x, _omega)
    assert len(table) == x + 1
    # both sum omega(l) in increasing l, so the results are equal exactly
    expected = [0.0] + [sum(_omega(d.l) for d in fi_decompositions(n)) for n in range(1, x + 1)]
    assert table.tolist() == expected


def test_type1_empty():
    assert E.type1_sum(0.25, 0, lambda l: 1.0, 1, 1, 1000) == 0.0


def test_type1_phase_variants_differ():
    a = E.type1_sum(0.37, 20, lambda l: 1.0, 1, 1, 20000, phase="n")
    b = E.type1_sum(0.37, 20, lambda l: 1.0, 1, 1, 20000, phase="dn")
    assert a != b


def test_type1_minor_arc_smaller():
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    v_half = E.type1_sum(0.5, 100, lambda l: 1.0, 1, 1, 10**6)
    v_gold = E.type1_sum(golden, 100, lambda l: 1.0, 1, 1, 10**6)
    assert v_half > 2.0 * v_gold


def test_type2_lattice_sum_zero_frequency():
    lat = lattice_new(GaussianInt(1, 1), 2, GaussianInt(1, 3), 2)
    res = E.type2_lattice_sum(0.0, lat, 4, 64)
    assert res.value == pytest.approx(sum(res.norm_counts.values()))


def test_type2_alternating_full_lattice():
    lat = lattice_new(GaussianInt(1, 0), 1, GaussianInt(0, 1), 1)
    res = E.type2_lattice_sum(0.5, lat, 0, 50)
    direct = sum((-1) ** m.norm() for m in enumerate_annulus(0, 50))
    assert res.value == pytest.approx(direct, abs=1e-9)


def test_type2_dual_routes_bitwise():
    import random

    rnd = random.Random(9)
    done = 0
    while done < 25:
        l1 = GaussianInt(rnd.randint(-9, 9), rnd.randint(-9, 9))
        l2 = GaussianInt(rnd.randint(-9, 9), rnd.randint(-9, 9))
        if l1.is_zero() or l2.is_zero():
            continue
        if math.gcd(abs(l1.re), abs(l1.im)) != 1 or math.gcd(abs(l2.re), abs(l2.im)) != 1:
            continue
        lat = lattice_new(l1, rnd.choice([1, 2, 3, 5, 6, 7]), l2, rnd.choice([1, 2, 3, 5, 6, 7]))
        res = E.type2_lattice_sum(rnd.random(), lat, 2 * lat.delta, 40 * lat.delta)
        assert res.value == res.value_direct  # identical, not merely close
        done += 1


def test_type2_lattice_sum_never_calls_the_oracle(monkeypatch):
    lat = lattice_new(GaussianInt(1, 1), 2, GaussianInt(1, 3), 2)
    oracle = E.type2_lattice_sum_bruteforce

    def forbidden(*args):
        raise AssertionError("the direct filter ran inside type2_lattice_sum")

    with monkeypatch.context() as m:
        m.setattr(E, "annulus_points_bruteforce", forbidden)
        m.setattr(LM, "annulus_points_bruteforce", forbidden)
        m.setattr(E, "type2_lattice_sum_bruteforce", forbidden)
        res = E.type2_lattice_sum(0.37, lat, 2 * lat.delta, 40 * lat.delta)
    assert res.norm_counts

    # value_direct runs the oracle on its first read only
    calls = []
    monkeypatch.setattr(E, "type2_lattice_sum_bruteforce",
                        lambda *args: calls.append(args) or oracle(*args))
    assert res.value_direct == res.value
    assert res.value_direct == res.value
    assert calls == [(0.37, lat, 2 * lat.delta, 40 * lat.delta)]


def test_type2_basis_route_faster_at_large_delta():
    lat = lattice_new(GaussianInt(3, 4), 105, GaussianInt(2, 7), 110)
    assert lat.delta == 11550
    M, M_hi = 40 * lat.delta, 80 * lat.delta
    basis = LM.reduced_basis(lat)
    t0 = time.perf_counter()
    walk = LM.annulus_lattice_points(lat, basis, M, M_hi).points
    t1 = time.perf_counter()
    direct = LM.annulus_points_bruteforce(lat, M, M_hi)
    t2 = time.perf_counter()
    assert sorted(m.norm() for m in walk) == sorted(m.norm() for m in direct)
    assert t1 - t0 < t2 - t1


def test_min_sum_examples():
    assert E.min_sum(Fraction(1, 2), 4, 10.0) == pytest.approx(24.0)
    assert E.min_sum(Fraction(1, 3), 1, 5.0) == pytest.approx(3.0)
    assert E.min_sum(Fraction(1, 3), 1, 2.0) == pytest.approx(2.0)
    J = 8
    g = Fraction(1, 2 * J)
    direct = sum(min(100.0, 1.0 / abs(float(g * j) - round(g * j))) for j in range(1, J + 1))
    assert E.min_sum(g, J, 100.0) == pytest.approx(direct)


def test_min_sum_float_near_rational_uses_exact_path():
    # 1/3 as a float is within 1e-15 of the rational; no underflow blowup
    v = E.min_sum(1.0 / 3.0, 9, 1e6)
    assert v == E.min_sum(Fraction(1, 3), 9, 1e6)


def test_min_sum_multiplier():
    assert E.min_sum(Fraction(1, 4), 4, 50.0, multiplier=2) == pytest.approx(
        E.min_sum(Fraction(1, 2), 4, 50.0, multiplier=1)
    )


def test_min_sum_against_classical_bound():
    import random

    rnd = random.Random(12)
    for _ in range(150):
        q = rnd.randint(1, 1000)
        choices = [a for a in range(1, q + 1) if math.gcd(a, q) == 1]
        a = rnd.choice(choices)
        J = rnd.choice([10, 100, 1000, 10**4, 10**5])
        K = rnd.choice([1.0, 10.0, 100.0, 1000.0])
        v = E.min_sum(Fraction(a, q), J, K)
        assert v <= 8.0 * E.min_sum_bound(a, q, J, K)


def test_dfi_reference_instance():
    c = np.zeros(101, dtype=np.complex128)
    c[1:] = 1.0
    parts = E.dfi_decompose(c, z=11.0, U1=3.0, U2=5.0, D_I=50.0, K=3)
    # exact bookkeeping on the reference instance, frozen values
    assert (parts.total, parts.type1_part, parts.sieved_tail) == (21, 11, 1)
    assert parts.residual == (
        parts.total - parts.sieved_tail - parts.type1_part - sum(parts.type2_parts)
    )
    assert abs(parts.residual) == 6
    assert abs(parts.residual) <= parts.residual_bound


def _dfi_rough_parts_oracle(c, z, U1, U2, K):
    """S(C, z), the Type II bands and the sieved tail by scalar rough_indicator loops."""
    from fiprimes.buchstab import rough_indicator as rho
    from fiprimes.primes import primes_upto

    n_max = len(c) - 1
    zp = [int(p) for p in primes_upto(int(z)) if p <= z]

    def S(m, cut):
        return sum(c[m * j] for j in range(1, n_max // m + 1) if rho(j, cut))

    ys = [U2 * (U1 / U2) ** (k / K) for k in range(K + 1)]
    bands = [
        sum(S(p * q, ys[k]) for p in zp if ys[k + 1] <= p < ys[k] for q in zp if ys[k] < q < z)
        for k in range(K)
    ]
    tail = sum(S(p * q, p) for p in zp if U2 <= p < z for q in zp if p < q < z)
    return S(1, z), bands, tail


@pytest.mark.parametrize(
    "z, U1, U2, D_I, K", [(11.0, 3.0, 5.0, 50.0, 3), (50.0, 5.0, 20.0, 300.0, 4)]
)
def test_dfi_rough_parts_match_scalar_loops(z, U1, U2, D_I, K):
    rng = np.random.default_rng(20261017)
    c = rng.normal(size=3001) + 1j * rng.normal(size=3001)
    c[0] = 0
    parts = E.dfi_decompose(c, z=z, U1=U1, U2=U2, D_I=D_I, K=K)
    total, bands, tail = _dfi_rough_parts_oracle(c, z, U1, U2, K)
    # only the summation order differs, so errors scale with the mass sum |c|
    tol = 1e-9 * float(np.abs(c).sum())
    assert abs(parts.total - total) <= tol
    assert abs(parts.sieved_tail - tail) <= tol
    assert len(parts.type2_parts) == K
    assert all(abs(got - want) <= tol for got, want in zip(parts.type2_parts, bands))
    assert abs(parts.total) > 1.0 and abs(parts.sieved_tail) > 1.0
    assert sum(abs(b) > 1.0 for b in parts.type2_parts) >= 1


def test_dfi_primes_above_z():
    from fiprimes.primes import primes_upto

    c = {int(p): 1.0 + 0j for p in primes_upto(400) if p > 11}
    parts = E.dfi_decompose(c, z=11.0, U1=3.0, U2=5.0, D_I=50.0, K=3)
    assert parts.total == pytest.approx(sum(c.values()))
    assert all(abs(b) < 1e-12 for b in parts.type2_parts)
    assert abs(parts.sieved_tail) < 1e-12


def test_dfi_ll_weighted_instance():
    x = 10**5
    ll = lambda_lambda_table(x)
    ns = np.arange(x + 1)
    c = ll * np.exp(2j * np.pi * 0.1234 * ns)
    parts = E.dfi_decompose(c, z=50.0, U1=5.0, U2=20.0, D_I=300.0, K=4)
    assert abs(parts.residual) <= parts.residual_bound


def test_dfi_validates_parameters():
    c = np.ones(50, dtype=np.complex128)
    with pytest.raises(ValueError):
        E.dfi_decompose(c, z=5.0, U1=3.0, U2=4.0, D_I=4.5, K=2)  # K < 3
