import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from conftest import euler_H
from fiprimes import local as L
from fiprimes.primes import euler_phi, factorize, primes_upto


def test_chi():
    assert L.chi(5) == 1
    assert L.chi(7) == -1
    assert L.chi(6) == 0
    assert [L.chi(n) for n in range(1, 9)] == [1, 0, -1, 0, 1, 0, -1, 0]


def test_psi_prime_examples():
    assert L.psi_prime(3) == Fraction(2, 3)
    assert L.psi_prime(2) == Fraction(1)
    assert L.psi_prime(15) == Fraction(8, 9)


def test_psi_prime_is_psi0_divisor_sum():
    # psi0 is multiplicative, supported on squarefree r, with psi0(p) = chi(p)/(p-1-chi(p))
    for l in (1, 2, 3, 5, 6, 15, 30, 105, 210):
        ps = [p for p, _ in factorize(l)]
        psi0 = [Fraction(L.chi(p), p - 1 - L.chi(p)) for p in ps]
        divisor_sum = sum(math.prod(c) for k in range(len(ps) + 1) for c in combinations(psi0, k))
        assert L.psi_prime(l) == divisor_sum


def test_xi_pinned_values():
    assert L.xi(2, 1) == 1
    assert L.xi(4, 3) == 0
    assert L.xi(3, 1) == Fraction(2, 3)
    assert L.xi(3, 2) == Fraction(4, 3)


def test_xi_4_1_is_two_by_definition():
    # the class 1 mod 4 carries all the FI mass, so the mean-one
    # normalisation forces Xi(4,1) = phi(4) = 2; the defining sum agrees
    assert L.xi(4, 1) == 2
    assert L.xi_bruteforce(4, 1) == 2


def test_xi_zero_off_coprime():
    assert L.xi(6, 3) == 0
    assert L.xi(10, 5) == 0


def test_xi_matches_bruteforce_small():
    for q in range(1, 300):
        row = L.coprime_rho_row(q)
        pp = L.psi_prime(q)
        from fiprimes.primes import euler_phi

        phi = euler_phi(q)
        for a in range(q):
            fast = L.xi(q, a)
            if math.gcd(a, q) != 1:
                assert fast == 0
            else:
                assert fast == pp * int(row[a]) / phi, (q, a)


def test_coprime_rho_row_against_direct_double_loop():
    # validates the FFT-convolution oracle itself against the raw count
    for q in (2, 3, 4, 8, 12, 30, 45, 97, 128, 210):
        row = L.coprime_rho_row(q)
        ks = np.arange(q, dtype=np.int64)
        for a in range(q):
            direct = sum(
                np.count_nonzero((ks * ks + c * c - a) % q == 0)
                for c in range(1, q + 1) if math.gcd(c, q) == 1
            )
            assert int(row[a]) == direct, (q, a)


def test_xi_matches_bruteforce_at_benchmark_q():
    # the largest q the analytic benchmark stream draws is 4999
    for q in (4995, 4996, 4997, 4998, 4999):
        for a in range(q):
            assert L.xi(q, a) == L.xi_bruteforce(q, a), (q, a)


def test_xi_closed_form_matches_bruteforce_at_odd_primes():
    # 1 - (a|p)/(p - 1 - chi(p)) against the defining sum, p = 1 and 3 mod 4
    for p in primes_upto(1000).tolist()[1:]:
        for a in range(p):
            assert L.xi(p, a) == L.xi_bruteforce(p, a), (p, a)


def test_xi_closed_form_matches_defining_sum_at_prime_powers():
    # xi_bruteforce's defining sum, also past its cap of 10^4 (37^3 = 50653);
    # coprime_rho_row checks its FFT rounding margin on every call
    for p in primes_upto(40).tolist()[1:]:
        for q in (p**2, p**3):
            row = L.coprime_rho_row(q)
            weight = L.psi_prime(q) / euler_phi(q)
            for a in range(q):
                want = weight * int(row[a]) if a % p else 0
                assert L.xi(q, a) == want, (q, a)


def test_coprime_rho_row_is_p_minus_1_minus_chi_minus_legendre():
    # sum_{c=1}^{p-1} rho_c(p, a) = p - 1 - chi(p) - (a|p) for p not dividing a,
    # with (a|p) read off the set of squares mod p
    for p in primes_upto(5000).tolist()[1:]:
        a = np.arange(1, p, dtype=np.int64)
        is_square = np.zeros(p, dtype=bool)
        is_square[(a * a) % p] = True
        legendre = np.where(is_square[a], 1, -1)
        row = L.coprime_rho_row(p)
        assert np.array_equal(row[1:], p - 1 - L.chi(p) - legendre), p


def test_cached_rows_are_read_only():
    with pytest.raises(ValueError):
        L.coprime_rho_row(45)[7] = 0
    assert L.xi_bruteforce(45, 7) == Fraction(8, 9)


def test_xi_power_blind():
    for p in (3, 5, 7):
        for a in (1, 2, p - 1):
            base = L.xi(p, a)
            for r in (2, 3, 4):
                assert L.xi(p**r, a) == base
    for r in (2, 3, 4, 5):
        assert L.xi(2**r, 1) == L.xi(4, 1)
        assert L.xi(2**r, 3) == L.xi(4, 3)


def test_xi_periodic():
    for q in (7, 12, 45):
        for a in range(q):
            assert L.xi(q, a) == L.xi(q, a + q) == L.xi(q, a - q)


def test_xi_mean_one_at_primes():
    from fiprimes.primes import primes_upto

    for p in primes_upto(100):
        p = int(p)
        total = sum(L.xi(p, a) for a in range(1, p))
        assert total == p - 1, p


def test_euler_H_partial_products():
    v3, _ = euler_H(3)
    assert v3 == pytest.approx(2.25, abs=1e-15)
    v5, _ = euler_H(5)
    assert v5 == pytest.approx(2.109375, abs=1e-15)


def test_euler_H_converged():
    v, tail = euler_H(10**7)
    assert tail < 1e-6
    assert v == pytest.approx(2.15641034, abs=5e-7)  # repository reference H


def test_reference_H_is_the_product_to_1e6():
    assert L.reference_H() == euler_H(10**6)[0]


def test_euler_H_tail_shrinks():
    v6, t6 = euler_H(10**6)
    v7, t7 = euler_H(10**7)
    assert abs(v7 - v6) <= t6
    assert t7 < t6
