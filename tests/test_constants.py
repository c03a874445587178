import math

import pytest

from fiprimes import constants as C
from fiprimes.quadrature import adaptive_simpson


def test_c1_degenerate_branch():
    # s = 2 <= 3: no integral, value 2/(2/3) = 3
    res = C.c1_bound(xi1=1.0 / 3.0, delta0=0.0)
    assert res.value == pytest.approx(3.0, abs=1e-14)


def test_c1_at_standard_parameters():
    res = C.c1_bound()
    assert res.value == pytest.approx(3.2151271283, abs=1e-8)
    assert res.error_estimate < 1e-8


def test_c1_typo_regression():
    # the variant integrand (log t - 1)/t lands more than 0.1 away; only
    # log(t-1)/t continues F(s) correctly past s = 3
    a = 2.0 / 3.0 - 2e-7
    s = a / 0.183
    wrong_integral, _ = adaptive_simpson(lambda t: (math.log(t) - 1.0) / t, 2.0, s - 1.0, 1e-12)
    wrong = (2.0 / a) * (1.0 + wrong_integral)
    assert wrong == pytest.approx(2.8599465, abs=1e-6)
    assert abs(C.c1_bound().value - wrong) > 0.1


def test_c2_empty_interval():
    res = C.c2_bound(xi1=0.183, xi=0.183 + 1e-12)
    assert res.value == pytest.approx(0.0, abs=1e-9)


def test_c2_at_standard_parameters():
    res = C.c2_bound()
    assert -0.31 < res.value < -0.27
    assert res.value == pytest.approx(-0.2923776174, abs=1e-8)


def test_c2_integrand_endpoint():
    a = 2.0 / 3.0 - 2e-7
    t = 0.183
    val = math.log((a - t) / 0.183 - 1.0) / (t * (a - t))
    assert val == pytest.approx(5.61, abs=0.01)


def test_c2_domain_error():
    with pytest.raises(ValueError):
        C.c2_bound(xi1=0.183, xi=0.62)


def test_c3_zero_volume():
    res = C.c3_bound(xi1=0.2, xi=0.2 + 1e-9)
    assert abs(res.value) < 1e-9


def test_c3_at_standard_parameters():
    res = C.c3_bound()
    assert 0.01 < res.value < 0.09
    assert res.grid >= 64


def test_c3_against_reduction_oracle():
    """Independent route: the (b2, b3) block integrates in closed form.

    For fixed b1 and w = b2 + b3 the inner integral of 1/(b2 b3) over
    max(b1, w - xi) <= b2 <= w/2 is (1/w) log((w - a)/a), leaving a smooth
    2-d integral split at the kink lines.
    """
    xi1, xi = 0.183, 0.265

    def bu(u):
        if u < 1:
            return 0.0
        if u <= 2:
            return 1.0 / u
        return (1 + math.log(u - 1)) / u

    def inner(b1):
        def g(w):
            a = max(b1, w - xi)
            if a >= w / 2:
                return 0.0
            return bu((1 - b1 - w) / b1) * math.log((w - a) / a) / w

        pts = sorted({2 * b1, 2 * xi, 1 - 2 * b1, 1 - 3 * b1, b1 + xi})
        knots = [2 * b1] + [p for p in pts if 2 * b1 < p < 2 * xi] + [2 * xi]
        total = 0.0
        for lo, hi in zip(knots, knots[1:]):
            v, _ = adaptive_simpson(g, lo, hi, 1e-13)
            total += v
        return total / b1**2

    cand = [(1 - 2 * xi) / 2, 0.2, (1 - 2 * xi) / 3, 0.25, (1 - xi) / 3, (1 - xi) / 4, 1 / 6]
    knots = sorted({xi1, xi} | {c for c in cand if xi1 < c < xi})
    oracle = 0.0
    for lo, hi in zip(knots, knots[1:]):
        v, _ = adaptive_simpson(inner, lo, hi, 1e-12)
        oracle += v
    oracle *= 2.0 / (1.0 - 2e-7)
    assert oracle == pytest.approx(0.0511201100, abs=1e-8)
    assert C.c3_bound().value == pytest.approx(oracle, abs=3e-5)


def test_c3_grid_stability():
    coarse = C.c3_bound(start_grid=64, max_grid=256, tol=1e-5)
    fine = C.c3_bound(start_grid=128, max_grid=512, tol=1e-5)
    assert abs(coarse.value - fine.value) < 1e-5 * 3


def test_alpha_plus_band():
    res = C.alpha_plus()
    assert res.value <= C.ALPHA_PLUS_BOUND
    assert res.value >= C.ALPHA_PLUS_FLOOR
    assert res.value < 3.0 * C.ALPHA_MINUS
    assert res.margin_to_three_alpha_minus > 0.02


def test_alpha_plus_monotonicity_probe():
    # each constant moves by less than 0.2 from xi1 = 0.183 to 0.193, but
    # their sum leaves the band there, so alpha_plus itself refuses it
    for c_bound in (C.c1_bound, C.c2_bound, C.c3_bound):
        assert abs(c_bound(xi1=0.193).value - c_bound(xi1=0.183).value) < 0.2
    with pytest.raises(C.BandViolation):
        C.alpha_plus(xi1=0.193)


def test_alpha_plus_band_violation_raises():
    with pytest.raises(C.BandViolation):
        C.alpha_plus(xi1=0.16)


def test_adaptive_simpson_polynomial():
    v, err = adaptive_simpson(lambda t: t**3 - 2 * t, 0.0, 2.0, 1e-12)
    assert v == pytest.approx(0.0, abs=1e-10)
    v2, _ = adaptive_simpson(math.exp, 0.0, 1.0, 1e-12)
    assert v2 == pytest.approx(math.e - 1.0, rel=1e-10)
