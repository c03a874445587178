import math
import tracemalloc

import numpy as np
import pytest

from fiprimes import constants as C, primes as P, sieve as S
from fiprimes.primes import (
    distinct_prime_factors,
    factorize,
    mangoldt,
    primes_upto,
)

from conftest import lambda_lambda_table, spf_factorize, spf_table, switching_sides


def beta2_weights(D: float, sign: int, p_max: int = 49) -> dict[int, int]:
    """The beta = 2 sieve's map d -> mu(d) over the primes <= p_max, materialised from its chain."""
    return dict(S._chain(tuple(reversed(primes_upto(p_max).tolist())), D, 2, sign))


def theta(weights: dict[int, int], n: int) -> int:
    return sum(w for d, w in weights.items() if n % d == 0)


def test_beta_weights_example():
    assert beta2_weights(10, +1, 7) == {1: 1, 2: -1}
    assert beta2_weights(10, -1, 7) == {1: 1, 2: -1, 3: -1, 5: -1, 7: -1}


def test_beta_weights_invariants():
    for sign in (+1, -1):
        weights = beta2_weights(10**4, sign)
        assert weights[1] == 1
        for d, lam in weights.items():
            assert abs(lam) <= 1
            assert d <= 10**4
            facs = distinct_prime_factors(d)
            assert all(p <= 49 for p in facs)
            assert math.prod(facs) == d  # squarefree


def test_upper_sieve_dominates_indicator():
    plus = beta2_weights(10**4, +1)
    prod_p = math.prod(int(p) for p in primes_upto(49))
    for n in range(1, 10**5 + 1, 7):
        ind = 1 if math.gcd(n, prod_p) == 1 else 0
        assert theta(plus, n) >= ind


@pytest.mark.parametrize("sign", [+1, -1])
def test_chain_evaluation_matches_materialised_weights(sign):
    # z0 = 1 leaves stage 1 empty, so the composed value is the beta = 2 sieve alone
    weights = beta2_weights(1e4, sign)
    for n in range(1, 20001):
        got = S.composed_theta_factored(distinct_prime_factors(n), 1e4, 10.0, 49, 1, sign)
        assert got == theta(weights, n), n


def test_majorant_params_fixed_values(params_1e5):
    p = params_1e5
    assert (C.XI, C.XI1, C.DELTA0) == (0.265, 0.183, 1e-7)
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


def test_pan_r_case_table(params_1e12):
    # constructed l with exactly r mid-range primes and a z-rough cofactor;
    # z1 = 12.53, z = 38.90 at x = 1e12; both sides doubled
    mids = [13, 17, 19, 23, 29]
    rough = 104729  # prime above z
    for r, expected2 in enumerate([2, 1, 0, 0, 1, 3]):
        lhs2, rhs2 = switching_sides([*mids[:r], rough], params_1e12.z, params_1e12.z1)
        assert rhs2 == expected2, r
        assert lhs2 <= rhs2


def test_pan_kills_small_factor(params_1e12):
    assert switching_sides([2, 13, 104729], params_1e12.z, params_1e12.z1) == (0, 0)


def test_pan_exhaustive_smallrange(params_1e12):
    spf = spf_table(20000)
    for l in range(1, 20000):
        facs = spf_factorize(l, spf)
        if any(e > 1 for _, e in facs):
            continue
        lhs2, rhs2 = switching_sides([p for p, _ in facs], params_1e12.z, params_1e12.z1)
        assert lhs2 <= rhs2, l


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
    table = S.majorant_table(x)
    ll = lambda_lambda_table(x)
    assert not np.any(ll > table.lam_plus + 1e-9)


def test_majorant_table_outer_sieve_branch(monkeypatch):
    # XI = 0.35 at x = 1e5 gives z1 ~ 2.87 and z ~ 7.5, so l = 105 = 3 * 5 * 7
    # carries w3 and the branch for s3 != 0 runs (at 298 n, 2 of them with e3 != 0)
    monkeypatch.setattr(S, "XI", 0.35)
    x = 10**5
    table = S.majorant_table(x)
    idx = np.flatnonzero(table.s3)
    assert len(idx) > 0
    ev = S.MajorantEvaluator(S.MajorantParams(x=x))
    for n in idx.tolist():
        assert table.lam_plus[n] == pytest.approx(ev.lambda_plus(n), rel=1e-12, abs=0.0), n
    assert not np.any(lambda_lambda_table(x)[idx] > table.lam_plus[idx])


def test_majorant_table_over_the_byte_budget_raises_before_allocating(monkeypatch, forbid_alloc):
    x = 10**4
    monkeypatch.setattr(P, "MAX_TABLE_BYTES", 58 * (x + 1))
    S.majorant_table(x)  # 58 bytes per integer fit
    monkeypatch.setattr(P, "MAX_TABLE_BYTES", 58 * (x + 1) - 1)
    forbid_alloc()
    with pytest.raises(P.CapacityError, match=f"majorant table to {x} needs"):
        S.majorant_table(x)


def test_lambda_plus_byte_estimate_bounds_the_peaks(monkeypatch, params_1e12):
    checked = []
    monkeypatch.setattr(S, "check_bytes", lambda nbytes, what: checked.append(nbytes))
    ev = S.MajorantEvaluator(params_1e12)
    for n in (97, 999983, 10**10 + 19, 10**12 - 11):
        tracemalloc.start()
        try:
            ev.lambda_plus(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= checked[-1], (n, peak, checked[-1])


def test_lambda_plus_over_the_byte_budget_raises_before_allocating(monkeypatch, params_1e12):
    n = 10**12 - 11
    need = 33 * math.isqrt(n - 1) + 8192
    monkeypatch.setattr(P, "MAX_TABLE_BYTES", need)
    ev = S.MajorantEvaluator(params_1e12)
    assert ev.lambda_plus(n) >= 0.0
    monkeypatch.setattr(P, "MAX_TABLE_BYTES", need - 1)
    monkeypatch.setattr(np, "arange", lambda *a, **k: pytest.fail("allocated before the check"))
    with pytest.raises(P.CapacityError, match=f"majorant at {n} needs"):
        ev.lambda_plus(n)


def test_majorant_error_sum_band():
    for x in (10**5, 10**6):
        table = S.majorant_table(x)
        assert np.abs(table.error).sum() <= x**0.95


def test_omega_outer_upper_bound(params_1e5):
    ev = S.MajorantEvaluator(params_1e5)
    for n in (99991, 99989, 2, 9, 100000):
        assert ev.omega_outer(n) >= 0.0
        assert ev.omega_outer(n) + ev.e3(n) >= mangoldt(n) - 1e-12, n


def test_lambda_from_the_factorisation_is_mangoldt(params_1e12):
    # e3 and the error weights read Lambda off factorize; at 1e12 every
    # prime power below 20000 has its base under omega_range, and z1 < 20000
    ev = S.MajorantEvaluator(params_1e12)
    assert params_1e12.omega_range > 20000 > params_1e12.z1
    for n in range(1, 20000):
        assert ev.e3(n) == mangoldt(n), n
        facs = factorize(n)
        if not any(e > 1 and q > params_1e12.z1 for q, e in facs):
            e1 = mangoldt(n) if len(facs) == 1 and facs[0][0] <= params_1e12.z else 0.0
            assert ev.weights_with_error(n)[3] == e1, n


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
