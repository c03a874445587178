import numpy as np
import pytest
from hypothesis import given, strategies as st

from fiprimes.gaussian import GaussianInt, enumerate_annulus, is_primitive, star

coord = st.integers(min_value=-10**6, max_value=10**6)
gauss = st.builds(GaussianInt, coord, coord)


def test_star_examples():
    assert star(GaussianInt(3, 4), GaussianInt(2, 1)) == 10
    m = GaussianInt(-7, 12)
    assert star(m, m) == m.norm()
    assert star(GaussianInt(1, 0), GaussianInt(0, 1)) == 0


@given(gauss, gauss)
def test_star_symmetry(m, l):
    assert star(m, l) == star(l, m)


def test_star_symmetry_bulk(rng):
    coords = rng.integers(-10**6, 10**6, size=(10**4, 4))
    for a, b, c, d in coords:
        m, l = GaussianInt(int(a), int(b)), GaussianInt(int(c), int(d))
        assert star(m, l) == star(l, m)


@given(gauss, gauss, gauss)
def test_star_bilinear(m, l1, l2):
    l_sum = GaussianInt(l1.re + l2.re, l1.im + l2.im)
    assert star(m, l_sum) == star(m, l1) + star(m, l2)


def test_primitivity():
    assert is_primitive(GaussianInt(1, 1))
    assert not is_primitive(GaussianInt(2, 4))
    assert not is_primitive(GaussianInt(5, 0))
    assert is_primitive(GaussianInt(0, 1))
    with pytest.raises(ValueError):
        is_primitive(GaussianInt(0, 0))


def test_annulus_units():
    pts = sorted((g.re, g.im) for g in enumerate_annulus(0, 1))
    assert pts == [(-1, 0), (0, -1), (0, 1), (1, 0)]


def test_annulus_small():
    assert len(list(enumerate_annulus(0, 2))) == 8
    pts = sorted((g.re, g.im) for g in enumerate_annulus(4, 5))
    assert pts == [(-2, -1), (-2, 1), (-1, -2), (-1, 2), (1, -2), (1, 2), (2, -1), (2, 1)]


def test_annulus_no_duplicates_and_bounds():
    seen = set()
    for g in enumerate_annulus(10, 200):
        assert 10 < g.norm() <= 200
        assert (g.re, g.im) not in seen
        seen.add((g.re, g.im))


def test_annulus_deterministic_order():
    pts = [(g.re, g.im) for g in enumerate_annulus(3, 30)]
    assert pts == sorted(pts)


def r2_by_divisors(limit: int) -> np.ndarray:
    """Sum-of-two-squares counts via the divisor formula r2 = 4 (d1 - d3)."""
    d1 = np.zeros(limit + 1, dtype=np.int64)
    d3 = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1, 4):
        d1[d::d] += 1
    for d in range(3, limit + 1, 4):
        d3[d::d] += 1
    return 4 * (d1 - d3)


def test_gauss_circle_against_divisor_formula():
    limit = 10**4
    counts = np.zeros(limit + 1, dtype=np.int64)
    for g in enumerate_annulus(0, limit):
        counts[g.norm()] += 1
    expected = r2_by_divisors(limit)
    assert np.array_equal(counts[1:], expected[1:])


def test_annulus_rejects_bad_range():
    with pytest.raises(ValueError):
        list(enumerate_annulus(5, 5))
    with pytest.raises(ValueError):
        list(enumerate_annulus(-1, 5))
