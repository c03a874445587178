import math
from fractions import Fraction

import numpy as np
import pytest

from fiprimes import primes as P, sieve as S
from fiprimes.primes import (
    distinct_prime_factors,
    factorize,
    mangoldt,
    primes_upto,
)

from conftest import lambda_lambda_table, spf_factorize, spf_table


def test_beta_weights_example():
    plus, minus = S.beta_sieve_weights(10, 2, [2, 3, 5, 7])
    assert plus.weights == {1: 1, 2: -1}
    assert minus.weights == {1: 1, 2: -1, 3: -1, 5: -1, 7: -1}


def test_beta_weights_invariants():
    plus, minus = S.beta_sieve_weights(10**4, 2, [int(p) for p in primes_upto(49)])
    for ws in (plus, minus):
        assert ws.weights[1] == 1
        for d, lam in ws.weights.items():
            assert abs(lam) <= 1
            assert d <= ws.level
            facs = distinct_prime_factors(d)
            assert all(p in ws.prime_range for p in facs)
            assert math.prod(facs) == d  # squarefree


def test_beta_weights_cap():
    with pytest.raises(ValueError):
        S.beta_sieve_weights(10**6, 2, [int(p) for p in primes_upto(200)], cap=50)


def test_upper_sieve_dominates_indicator():
    plus, _ = S.beta_sieve_weights(10**4, 2, [int(p) for p in primes_upto(49)])
    prod_p = math.prod(int(p) for p in primes_upto(49))
    for n in range(1, 10**5 + 1, 7):
        ind = 1 if math.gcd(n, prod_p) == 1 else 0
        assert plus.theta(n) >= ind


@pytest.mark.parametrize("sign", [+1, -1])
def test_chain_evaluation_matches_materialised_weights(sign):
    # z0 = 1 leaves stage 1 empty, so the composed value is the beta = 2 sieve alone
    ps = [int(p) for p in primes_upto(49)]
    weights = S.beta_sieve_weights(1e4, 2, ps)[0 if sign > 0 else 1]
    for n in range(1, 20001):
        got = S.composed_theta_factored(distinct_prime_factors(n), 1e4, 10.0, 49, 1, sign)
        assert got == weights.theta(n), n


def test_majorant_params_fixed_values(params_1e5):
    p = params_1e5
    assert p.xi == 0.265 and p.xi1 == 0.183 and p.delta0 == 1e-7
    assert p.z == pytest.approx((10**5) ** (0.265 / 2), rel=1e-14)
    assert p.z1 < p.z < p.D1 < p.omega_range < p.omega_level < 10**5


def test_composed_theta_trivial_cases(params_1e5):
    # primes above every sifting range see only d = 1
    assert S.composed_theta(99991, params_1e5, +1) == 1
    assert S.composed_theta(99991, params_1e5, -1) == 1
    assert S.composed_theta(1, params_1e5, +1) == 1
    assert S.composed_theta(1, params_1e5, -1) == 1


@pytest.mark.parametrize("x", [10**4, 10**5])
def test_sandwich_exhaustive(x):
    p = S.MajorantParams(x=x)
    spf = spf_table(2 * 10**4)
    bound = max(p.z1, p.z0)
    for n in range(1, 2 * 10**4 + 1):
        facs = [q for q, _ in spf_factorize(n, spf)]
        tp = S.composed_theta_factored(facs, p.D1, p.D0, p.z1, p.z0, +1)
        tm = S.composed_theta_factored(facs, p.D1, p.D0, p.z1, p.z0, -1)
        ind = 0 if any(q <= bound for q in facs) else 1
        assert tm <= ind <= tp, (x, n)


def test_linear_sieve_values():
    g = S.EULER_GAMMA
    assert S.linear_sieve_f(2.0) == 0.0
    assert S.linear_sieve_F(2.0) == pytest.approx(math.exp(g), rel=1e-12)
    assert S.linear_sieve_F(3.0) == pytest.approx(2 * math.exp(g) / 3, rel=1e-12)
    # continuity of F at s = 3
    assert S.linear_sieve_F(3.0 + 1e-9) == pytest.approx(S.linear_sieve_F(3.0), abs=1e-8)
    with pytest.raises(ValueError):
        S.linear_sieve_F(0.5)
    with pytest.raises(ValueError):
        S.linear_sieve_f(4.5)


def test_linear_sieve_F_feeds_c1():
    # F(s)/(xi1 e^gamma) at s = (2/3 - 2 delta0)/xi1 must reproduce c1
    from fiprimes.constants import c1_bound

    delta0 = 1e-7
    s = (2.0 / 3.0 - 2 * delta0) / 0.183
    lhs = S.linear_sieve_F(s) / (0.183 * math.exp(S.EULER_GAMMA))
    assert lhs == pytest.approx(c1_bound(0.183, delta0).value, rel=1e-9)


def test_pan_r_case_table(params_1e12):
    # constructed l with exactly r mid-range primes and a z-rough cofactor;
    # z1 = 12.53, z = 38.90 at x = 1e12
    mids = [13, 17, 19, 23, 29]
    rough = 104729  # prime above z
    expected = {0: Fraction(1), 1: Fraction(1, 2), 2: Fraction(0), 3: Fraction(0),
                4: Fraction(1, 2), 5: Fraction(3, 2)}
    for r in range(6):
        l = rough * math.prod(mids[:r])
        res = S.pan_inequality_check(l, params_1e12)
        assert res.mid_factor_count == r
        assert res.rhs == expected[r], r
        assert res.holds


def test_pan_requires_squarefree(params_1e12):
    with pytest.raises(ValueError):
        S.pan_inequality_check(4 * 104729, params_1e12)


def test_pan_kills_small_factor(params_1e12):
    res = S.pan_inequality_check(2 * 13 * 104729, params_1e12)
    assert res.lhs == 0 and res.rhs == 0 and res.holds


def test_pan_exhaustive_smallrange(params_1e12):
    spf = spf_table(20000)
    for l in range(1, 20000):
        if any(e > 1 for _, e in spf_factorize(l, spf)):
            continue
        assert S.pan_inequality_check(l, params_1e12).holds, l


def test_r_at_most_five():
    # 6 xi1 > 1: six mid-range factors cannot fit below sqrt(x)
    assert 6 * 0.183 > 1.0


def test_majorant_weight_signs(params_1e5):
    ev = S.MajorantEvaluator(params_1e5)
    for l in range(1, 317):
        w1, w2, w3, e2 = ev.weights_with_error(l)
        assert w1 >= 0.0
        assert w3 >= 0.0
        assert e2 >= 0.0
        assert w1 + w2 + w3 + e2 >= mangoldt(l) - 1e-12, l


def test_majorant_weight_divisor_bound(params_1e5):
    # |w1(l)| <= C tau(l) log x with C pinned by exhaustive scan
    ev = S.MajorantEvaluator(params_1e5)
    logx = math.log(params_1e5.x)
    worst = 0.0
    for l in range(1, 317):
        tau = math.prod(e + 1 for _, e in factorize(l)) if l > 1 else 1
        w1 = ev.weights_with_error(l)[0]
        worst = max(worst, abs(w1) / (tau * logx))
    assert worst <= 0.5  # scan gives 1/2: theta_plus = 1 and w1 = log sqrt(x)


def test_majorization_exhaustive_small():
    x = 2 * 10**4
    params = S.MajorantParams(x=x)
    table = S.majorant_table(x, params)
    ll = lambda_lambda_table(x)
    assert not np.any(ll > table.lam_plus + 1e-9)


def test_majorant_table_over_the_byte_budget_raises_before_allocating(monkeypatch, forbid_alloc):
    x = 10**4
    monkeypatch.setattr(P, "MAX_TABLE_BYTES", 58 * (x + 1))
    S.majorant_table(x)  # 58 bytes per integer fit
    monkeypatch.setattr(P, "MAX_TABLE_BYTES", 58 * (x + 1) - 1)
    forbid_alloc()
    with pytest.raises(P.CapacityError, match=f"majorant table to {x} needs"):
        S.majorant_table(x)


def test_majorant_error_sum_band():
    for x in (10**5, 10**6):
        table = S.majorant_table(x, S.MajorantParams(x=x))
        assert np.abs(table.error).sum() <= x**0.95


def test_omega_outer_upper_bound(params_1e5):
    ev = S.MajorantEvaluator(params_1e5)
    for n in (99991, 99989, 2, 9, 100000):
        assert ev.omega_outer(n) >= 0.0
        assert ev.omega_outer(n) + ev.e3(n) >= mangoldt(n) - 1e-12, n


def test_error_patch_inactive_at_desk_scale(params_1e5):
    # the square-divisor correction in E2 never has to fire here, so the
    # majorization result rests on the sieve chain alone
    ev = S.MajorantEvaluator(params_1e5)
    for l in range(1, 317):
        w1, w2, w3, e2 = ev.weights_with_error(l)
        facs = factorize(l)
        lam = mangoldt(l)
        e1 = lam if (len(facs) == 1 and facs[0][0] <= params_1e5.z) else 0.0
        assert e2 == pytest.approx(e1, abs=1e-12), l


def test_lower_sieve_goes_negative(params_1e5):
    # theta_minus is a genuine signed sum, not a clamped indicator
    assert S.composed_theta(2 * 3 * 5 * 7, params_1e5, -1) < 0
