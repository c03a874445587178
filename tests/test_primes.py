import math
import os
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fiprimes import primes as P

from conftest import (
    fi_decompositions_by_isqrt,
    fi_primes_by_sieve,
    fi_weighted_count_by_sieve,
    lambda_lambda_table,
    prime_power_logs,
    sieve_blocks,
    spf_table,
)


def eratosthenes(limit):
    """Oracle: the plain all-integers sieve, one pass per prime."""
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[: min(2, limit + 1)] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return is_prime


# integers covered by k whole segments of odd numbers, +-2 on each side
SEGMENT_EDGES = [2 * k * P.SEGMENT_BYTES + d for k in (1, 2, 3) for d in (-2, -1, 0, 1, 2)]


def test_simple_sieve_against_oracle():
    for limit in list(range(301)) + SEGMENT_EDGES:
        assert np.array_equal(P.simple_sieve(limit), eratosthenes(limit)), limit


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=5 * 10**6))
def test_simple_sieve_random_limits(limit):
    assert np.array_equal(P.simple_sieve(limit), eratosthenes(limit))


def test_simple_sieve_read_only():
    with pytest.raises(ValueError):
        P.simple_sieve(100)[7] = False


def test_simple_sieve_at_benchmark_size():
    # bypass the lru cache so the 100 MB array is freed after the test
    assert P.simple_sieve.__wrapped__(10**8).sum() == 5_761_455


def window_sieve(lo, hi):
    """Oracle: is_prime[n - lo] for lo <= n < hi, by the plain sieve of Eratosthenes on the window.

    Each prime p <= sqrt(hi) strikes its multiples in the window from
    max(p^2, the first multiple >= lo).
    """
    is_prime = np.ones(hi - lo, dtype=bool)
    is_prime[: max(0, 2 - lo)] = False
    ps = np.flatnonzero(eratosthenes(math.isqrt(hi - 1)))
    first = np.maximum(ps * ps, -(-lo // ps) * ps) - lo
    keep = first < hi - lo
    for p, i in zip(ps[keep].tolist(), first[keep].tolist()):
        is_prime[i::p] = False
    return is_prime


def test_window_sieve_oracle_matches_simple_sieve(rng):
    top = 10**6 + 200
    windows = [(0, 1), (0, 2), (1, 3), (2, 3), (0, 30), (10**6, 10**6 + 100)]
    windows += [(int(lo), int(lo) + 1000) for lo in rng.integers(0, top - 1000, size=20)]
    for lo, hi in windows:
        assert np.array_equal(window_sieve(lo, hi), P.simple_sieve(top)[lo:hi]), (lo, hi)


def test_is_prime_int_near_1e12(rng):
    # 10^4 random integers up to 10^12, in batches sharing a window
    for _ in range(100):
        lo = int(rng.integers(1, 10**12 - 1000))
        is_prime = window_sieve(lo, lo + 1000)
        for n in rng.integers(lo, lo + 1000, size=100):
            assert P.is_prime_int(int(n)) == is_prime[n - lo], n


def test_is_prime_int_against_sieve():
    is_p = P.simple_sieve(10**6)
    assert [P.is_prime_int(n) for n in range(10**6 + 1)] == is_p.tolist()


def test_is_prime_int_at_the_witness_prefix_bounds():
    # the smallest strong pseudoprimes to bases {2}, {2, 3}, {2, 3, 5} and
    # {2, 3, 5, 7}: a prefix used one step past its bound would call them prime
    assert P._MR_BOUNDS == (2047, 1_373_653, 25_326_001, 3_215_031_751)
    for bound in P._MR_BOUNDS:
        assert not P.is_prime_int(bound)
        is_prime = window_sieve(bound - 999, bound + 1001)
        for n in range(bound - 999, bound + 1001):
            assert P.is_prime_int(n) == is_prime[n - bound + 999], n


# strong pseudoprimes to base 2 (2047), to bases 2, 3 (1,373,653), to 2, 3, 5
# (25,326,001) and to 2, 3, 5, 7 (3,215,031,751), and Carmichael numbers
@pytest.mark.parametrize("n", [2047, 1_373_653, 25_326_001, 3_215_031_751, 561, 41_041, 825_265, 321_197_185])
def test_is_prime_int_refuses_pseudoprimes_and_carmichael_numbers(n):
    assert P.factorize(n)[0][0] < n
    assert not P.is_prime_int(n)


def test_is_prime_int_on_powers_of_two_plus_or_minus_one():
    # 2^k - 1 is prime for the Mersenne exponents k below 64, and 2^k + 1 for
    # k = 0 and the Fermat primes 2^(2^i) + 1, i <= 4
    mersenne = {2, 3, 5, 7, 13, 17, 19, 31, 61}
    fermat = {0, 1, 2, 4, 8, 16}
    for k in range(65):
        assert P.is_prime_int(2**k - 1) == (k in mersenne), k
        assert P.is_prime_int(2**k + 1) == (k in fermat), k
        if k <= 32:
            for n in (2**k - 1, 2**k + 1):
                assert P.is_prime_int(n) == (n > 1 and P.factorize(n) == [(n, 1)]), n


def test_is_prime_int_at_and_below_the_witnesses():
    # every n <= 37 takes the gcd with the witnesses' product, or is 0 or 1
    assert [n for n in range(38) if P.is_prime_int(n)] == list(P._MR_WITNESSES)


def test_sqrt_minus_one_matches_the_two_pow_definition():
    def two_pow(q):
        c = 2
        while q % 8 != 5 and pow(c, (q - 1) // 2, q) != q - 1:
            c += 1
        return pow(c, (q - 1) // 4, q)

    qs = [q for q in P.primes_upto(2**20).tolist() if q % 4 == 1]
    assert len(qs) == 40_952
    assert [P._sqrt_minus_one(q) for q in qs] == [two_pow(q) for q in qs]


def test_miller_rabin_roots_start_two_squares(rng):
    # every prime p = 1 (4) below 2e5 and 2,000 drawn below 1e12: a root r
    # from the test squares to -1 and gives the pair of _sqrt_minus_one's
    roots = [(p, P._miller_rabin(p)) for p in P.primes_upto(2 * 10**5).tolist() if p % 4 == 1]
    drawn = 0
    while drawn < 2000:
        n = 4 * int(rng.integers(10**11, 25 * 10**10)) + 1
        if (r := P._miller_rabin(n)) is not None:
            roots.append((n, r))
            drawn += 1
    for p, r in roots:
        if r:
            assert r * r % p == p - 1, p
            assert sorted(P._two_squares(p, r)) == sorted(P._two_squares(p)), p
    # a non-residue witness gives a root, so the fallback is rare
    assert sum(r > 0 for _, r in roots) > 0.9 * len(roots)


def test_two_squares_falls_back_when_no_witness_gives_a_root(monkeypatch):
    # past the witnesses, the first prime p whose every witness has a^d = +-1,
    # and the next prime with a root: only p takes _sqrt_minus_one
    ps = [q for q in range(41, 10**4, 4) if P._miller_rabin(q) is not None]
    p = next(q for q in ps if P._miller_rabin(q) == 0)
    q = next(q for q in ps if q > p and P._miller_rabin(q))
    calls, real = [], P._sqrt_minus_one
    monkeypatch.setattr(P, "_sqrt_minus_one", lambda q: calls.append(q) or real(q))
    for n in (p, q):
        a = next(a for a in range(math.isqrt(n), 0, -1) if math.isqrt(n - a * a) ** 2 == n - a * a)
        assert P.is_fi_prime(n) == (P.is_prime_int(a) or P.is_prime_int(math.isqrt(n - a * a))), n
    assert calls == [p]


def test_fi_decompositions_examples():
    assert [(d.k, d.l) for d in P.fi_decompositions(13)] == [(3, 2), (2, 3)]
    assert P.fi_decompositions(17) == []
    assert P.fi_decompositions(4) == []
    assert [(d.k, d.l) for d in P.fi_decompositions(8)] == [(2, 2)]


@st.composite
def near_sums_of_two_squares(draw):
    """(n, ls): n within 2 of k^2 + l^2 for some l in the increasing ``ls``,
    at scales up to the bound 2^62."""
    top = draw(st.sampled_from([2**20, 2**52, 2**53, 2**62]))
    l = draw(st.integers(1, math.isqrt(top) // 2))
    k = draw(st.integers(1, math.isqrt(top - l * l)))
    n = min(max(k * k + l * l + draw(st.integers(-2, 2)), 1), 2**62)
    others = draw(st.lists(st.integers(1, math.isqrt(n) + 1), max_size=20))
    return n, sorted({l, l + 1, *others})


@settings(max_examples=300, deadline=None)
@given(near_sums_of_two_squares())
@example((2**52 - 1, [1, 2, 3]))
@example((2**52 + 1, [1, 2, 3]))  # (2^26)^2 + 1
@example((2**52 + 4, [1, 2, 3]))  # (2^26)^2 + 2^2
@example(((2**26 - 1) ** 2 + 9, [1, 2, 3, 4]))
@example((2**53 + 1, list(range(1, 3000))))
@example((2**54 + 25, [2, 3, 5]))  # (2^27)^2 + 5^2, past 2^53
@example(((2**31 - 1) ** 2 + 9, [1, 2, 3, 2**16]))  # k^2 just below 2^62
@example((2**62, [1, 2, 3, 2**31 - 1, 2**31]))
def test_fi_decompositions_match_the_isqrt_loop(case):
    n, ls = case
    got = [(d.k, d.l) for d in P.fi_decompositions(n, ls)]
    assert got == fi_decompositions_by_isqrt(n, ls)
    assert got == [(d.k, d.l) for d in P.fi_decompositions(n, np.array(ls, dtype=np.int64))]


def test_fi_decompositions_bound():
    assert P.fi_decompositions(2**62, [2**31 - 1]) == []
    for n in (0, 2**62 + 1):
        with pytest.raises(ValueError, match="2\\^62"):
            P.fi_decompositions(n, [1])


def test_fi_decompositions_bruteforce():
    for n in range(1, 3000):
        expected = [
            (k, l)
            for l in range(2, math.isqrt(n) + 1)
            if P.is_prime_int(l)
            for k in [math.isqrt(n - l * l)]
            if k >= 1 and k * k + l * l == n
        ]
        got = [(d.k, d.l) for d in P.fi_decompositions(n)]
        assert got == expected, n


def test_is_fi_prime_against_decompositions():
    primes = set(P.primes_upto(2 * 10**5).tolist())
    for n in range(2 * 10**5):
        assert P.is_fi_prime(n) == (n in primes and bool(P.fi_decompositions(n))), n


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=3 * 10**9))
@example(2)
@example(5)
@example(2_999_999_777)  # an FI prime: 49964^2 + 22441^2
def test_is_fi_prime_at_random_primes(n):
    # the first prime >= n; prime gaps below 3e9 are under 300
    p = next(m for m in range(n, n + 400) if P.is_prime_int(m))
    assert P.is_fi_prime(p) == bool(P.fi_decompositions(p)), p


def test_fi_decompositions_over_all_integers():
    for n in range(1, 2001):
        roots = range(1, math.isqrt(n) + 1)
        expected = [(k, l) for l in roots for k in roots if k * k + l * l == n]
        got = P.fi_decompositions(n, range(1, math.isqrt(n - 1) + 1))
        assert [(d.k, d.l) for d in got] == expected, n
    assert [(d.k, d.l) for d in P.fi_decompositions(5, range(1, 3))] == [(2, 1), (1, 2)]
    assert [(d.k, d.l) for d in P.fi_decompositions(2, range(1, 2))] == [(1, 1)]
    assert P.fi_decompositions(1, range(1, 1)) == []


def test_is_fi_prime():
    assert P.is_fi_prime(5)
    assert not P.is_fi_prime(17)  # only 1 + 16, and 4 is not prime
    assert not P.is_fi_prime(3)
    assert P.is_fi_prime(13) and P.is_fi_prime(29)


def test_lambda_lambda_examples():
    assert P.lambda_lambda(13) == pytest.approx(
        math.log(13) * (math.log(3) + math.log(2)), rel=1e-14
    )
    assert P.lambda_lambda(6) == 0.0
    assert P.lambda_lambda(17) == 0.0
    # prime powers keep their exact von Mangoldt weight
    assert P.mangoldt(9) == pytest.approx(math.log(3), rel=1e-15)


def test_fi_primes_residue_class():
    # nonzero LL forces p = 1 (4) at primes
    fi = P.fi_primes_upto(10**5)
    assert np.all(fi % 4 == 1)
    assert list(fi[:8]) == [5, 13, 29, 41, 53, 61, 73, 89]


def test_weighted_count_pair_vs_n_iteration():
    x = 3 * 10**4
    brute = P.fi_weighted_count_bruteforce(x)
    pair = P.fi_weighted_count(x).value
    assert pair == pytest.approx(brute, abs=1e-8)


def pair_count(x):
    return sum(len(ns) for _, ns in P.fi_pairs(x))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=3000))
@example(10)  # the l = 3 block holds only k = 1, like x = 11 and 12
@example(11)
@example(12)
def test_weighted_count_matches_bruteforce(x):
    # the two routes add the same terms in different orders
    brute = P.fi_weighted_count_bruteforce(x)
    assert abs(P.fi_weighted_count(x).value - brute) <= pair_count(x) * 2.0**-53 * brute


def test_weighted_count_matches_all_pairs_table_at_1e7():
    x = 10**7
    table_sum = lambda_lambda_table(x).sum()
    assert abs(P.fi_weighted_count(x).value - table_sum) <= pair_count(x) * 2.0**-53 * table_sum


def test_fi_primes_table_matches_all_pairs_reference_at_1e7():
    x = 10**7
    assert np.array_equal(P._compute_fi_primes(x), fi_primes_by_sieve(x))


def test_weighted_count_at_1e8_matches_sieve_oracle():
    # the benchmarked size: the row sieve and sieve membership add the same
    # terms in the same order
    value = P.fi_weighted_count(10**8).value
    assert value == 106452481.55166797
    assert value == fi_weighted_count_by_sieve(10**8)


def test_fi_primes_at_1e8_match_sieve_oracle():
    table = P._compute_fi_primes(10**8)
    assert len(table) == 785379
    assert np.array_equal(table, fi_primes_by_sieve(10**8))


def check_rows(x):
    """``_prime_power_rows(x)`` against the primes of ``sieve_blocks`` by
    ``simple_sieve``, and each row's powers against ``_prime_power_pairs(x)``."""
    is_p = P.simple_sieve(x)
    rows = list(P._prime_power_rows(x))
    blocks = list(sieve_blocks(x))
    pairs = prime_power_pairs(x)
    assert [l for l, *_ in rows] == [l for l, _ in blocks], x
    assert set(pairs) <= {l for l, *_ in rows}, x
    for (l, primes, powers, logs), (_, expected) in zip(rows, blocks):
        assert primes.dtype == np.int64, (x, l)
        assert np.array_equal(primes, expected[is_p[expected]]), (x, l)
        assert powers.dtype == np.int64 and logs.dtype == np.float64, (x, l)
        if l in pairs:
            assert np.array_equal(powers, pairs[l][0]) and np.array_equal(logs, pairs[l][1]), (x, l)
        else:
            assert len(powers) == len(logs) == 0, (x, l)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=2 * 10**5))
@example(5)  # the l = 2 row alone: 5 = 1^2 + 2^2
@example(25)  # q = 5 <= sqrt(x) strikes n = 5 itself, which is re-read
@example(26)  # the first odd row: 26 = 1^2 + 5^2 is dropped, k = 2 is not there yet
@example(50)  # q = l = 5 at k = 5 (n = 50) and the l = 2 row's even k
@example(629)  # width 13 = q, set by the l = 2 row (13 odd k; 12 k for l = 3)
@example(25285)  # width 80 = 16 * 5: q = 5 strides with no column left over
def test_row_sieve_flags_match_simple_sieve(x):
    check_rows(x)


def test_row_sieve_in_small_batches(monkeypatch):
    # blocks of one row, and of a few rows of padded width, cut mid-run
    for batch in (1, 7, 100, 1000, 5000):
        monkeypatch.setattr(P, "ROW_BATCH", batch)
        for x in (5, 25, 26, 50, 1000, 3001, 10**5):
            check_rows(x)


def prime_power_pairs(x):
    """``_prime_power_pairs(x, ps, roots)`` as the row sieve calls it: the
    primes p <= sqrt(x) with p = 2 or 1 (4), and a root of -1 mod each."""
    ps = [p for p in P.primes_upto(math.isqrt(x)).tolist() if p % 4 != 3]
    return P._prime_power_pairs(x, ps, [1 if p == 2 else P._sqrt_minus_one(p) for p in ps])


def check_prime_power_pairs(x):
    """``_prime_power_pairs(x)`` against the l of ``fi_decompositions`` of each
    prime power, with the parity the rows keep (every k for l = 2, even k
    else): the powers of a row ascend, and each log is ``math.log`` of the
    power's base p, bit for bit."""
    expected = {}
    for n, logp in sorted(prime_power_logs(x).items()):
        for d in P.fi_decompositions(n):
            if d.l == 2 or d.k % 2 == 0:
                expected.setdefault(d.l, []).append((n, logp))
    found = prime_power_pairs(x)
    assert list(found) == sorted(found), x
    for l, (powers, logs) in found.items():
        assert powers.dtype == np.int64, (x, l)
        assert np.all(np.diff(powers) > 0), (x, l)
        for n, logp in zip(powers.tolist(), logs.tolist()):
            base = next(p for p in range(2, n + 1) if n % p == 0)
            assert logp == math.log(base), (x, l, n)
    assert {l: list(zip(powers.tolist(), logs.tolist())) for l, (powers, logs) in found.items()} == expected, x


def test_prime_power_pairs_match_decompositions_to_1e6():
    # every p^j <= 10^6 with j >= 2
    check_prime_power_pairs(10**6)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=2 * 10**5))
def test_prime_power_pairs_match_decompositions(x):
    check_prime_power_pairs(x)


# 8 = 2^2 + 2^2 is the one even power with a pair; 9 = 3^2 + 0^2 has no k >= 1;
# 125 = 11^2 + 2^2 = 10^2 + 5^2 = 2^2 + 11^2
@pytest.mark.parametrize("n, rows", [(8, {2}), (9, set()), (25, {3}), (125, {2, 5, 11})])
def test_prime_power_pairs_examples(n, rows):
    assert n in prime_power_logs(n)
    found = prime_power_pairs(n)
    assert {l for l, (powers, _) in found.items() if n in powers.tolist()} == rows


def test_fi_primes_table_over_the_byte_budget_raises_before_allocating(monkeypatch, forbid_alloc):
    # the row sieve (4 bytes per cell of its block, 480 per row, 64 per
    # integer up to sqrt x, 8,192 fixed) and 17 bytes per hit: 18,032 bytes
    # at 1372 (one block of 11 rows of 18 + 1 cells, 76 hits); at
    # 1373 = 37^2 + 2^2 the row l = 37 starts, the row sieve's 17,344 bytes
    # pass, and the hits pass 18,192 bytes before the last row
    x = 10**5
    expected = fi_primes_by_sieve(x)  # its sieve, checked too, runs under the real budget
    rows = list(P._prime_power_rows(x))
    need = P._row_sieve_bytes(x)[1] + 17 * sum(len(primes) for _, primes, *_ in rows)
    monkeypatch.setattr(P, "MAX_TABLE_BYTES", 18_192)
    P._compute_fi_primes(1372)
    with pytest.raises(P.CapacityError):
        P._compute_fi_primes(1373)
    # the hits are counted as the rows come: with a budget one byte short,
    # the last row raises before the hits are concatenated
    monkeypatch.setattr(P, "_prime_power_rows", lambda limit: iter(rows))
    monkeypatch.setattr(P, "MAX_TABLE_BYTES", need)
    assert np.array_equal(P._compute_fi_primes(x), expected)
    monkeypatch.setattr(P, "MAX_TABLE_BYTES", need - 1)
    forbid_alloc()
    with pytest.raises(P.CapacityError):
        P._compute_fi_primes(x)


def test_weighted_count_over_the_byte_budget_raises_before_allocating(monkeypatch, forbid_alloc):
    # the row sieve's bound alone: 4 bytes per cell of its block, 480 per
    # row, 64 per integer up to sqrt x, 8,192 fixed: 16,740 bytes at 1372
    monkeypatch.setattr(P, "MAX_TABLE_BYTES", 18_192)
    P.fi_weighted_count(1372)
    forbid_alloc()
    with pytest.raises(P.CapacityError):
        P.fi_weighted_count(10**6)


def test_prime_sieve_over_the_byte_budget_raises_before_allocating(forbid_alloc):
    # LL(2^61) = log 2 times the log l of the decompositions, which would read
    # the primes to 2^31: a 2 GB sieve, then about 105 M primes as int64
    forbid_alloc()
    with pytest.raises(P.CapacityError, match="primes to 2147483648"):
        P.lambda_lambda(2**61)
    with pytest.raises(P.CapacityError, match="prime sieve to"):
        P.simple_sieve(2 * 10**9)


def test_prime_sieve_byte_estimates_bound_the_peaks(monkeypatch):
    # tracemalloc peak of a fresh call against the first estimate it checks,
    # its own: 0.71 to 0.88 of it for primes_upto, which sieves, and 0.93 to
    # 0.999 for simple_sieve, whose array and segment are counted exactly
    checked, real = [], P.check_bytes
    monkeypatch.setattr(P, "check_bytes", lambda nbytes, what: checked.append(nbytes) or real(nbytes, what))
    for limit in (10**5, 10**6, 10**7):
        for build in (P.primes_upto, P.simple_sieve):
            P.simple_sieve.cache_clear()
            P.primes_upto.cache_clear()
            checked.clear()
            tracemalloc.start()
            try:
                build(limit)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= checked[0], (build.__name__, limit, peak, checked)


def test_bulk_tables_over_the_byte_budget_raise_before_allocating(monkeypatch, forbid_alloc):
    # at 3e8 the float64 array alone is 2.4 GB; with the budget at the
    # estimate at x the table builds, and one byte under it raises
    for name, build in (("Mangoldt", P.mangoldt_table), ("inner-weight", lambda x: P.inner_weight_table(x, math.log))):
        checked = []
        real = P.check_bytes
        monkeypatch.setattr(P, "check_bytes", lambda nbytes, what: checked.append(nbytes) or real(nbytes, what))
        build(10**4)
        monkeypatch.setattr(P, "check_bytes", real)
        monkeypatch.setattr(P, "MAX_TABLE_BYTES", checked[0])
        build(10**4)
        monkeypatch.setattr(P, "MAX_TABLE_BYTES", checked[0] - 1)
        with pytest.raises(P.CapacityError, match=f"{name} table to 10000 needs"):
            build(10**4)
        monkeypatch.undo()
    forbid_alloc()
    with pytest.raises(P.CapacityError, match="Mangoldt table to 300000000 needs"):
        P.mangoldt_table(3 * 10**8)
    with pytest.raises(P.CapacityError, match="inner-weight table to 300000000 needs"):
        P.inner_weight_table(3 * 10**8, math.log)


def test_bulk_table_byte_estimates_bound_the_peaks(monkeypatch):
    # tracemalloc peak against the first estimate checked, with the prime
    # tables to build and then cached: 0.59 to 0.97 of it for the Mangoldt
    # table and 0.78 to 0.999 for the inner weights, whose table dominates
    checked, real = [], P.check_bytes
    monkeypatch.setattr(P, "check_bytes", lambda nbytes, what: checked.append(nbytes) or real(nbytes, what))
    for limit in (10**3, 10**5, 10**6):
        for build in (P.mangoldt_table, lambda x: P.inner_weight_table(x, math.log)):
            P.simple_sieve.cache_clear()
            P.primes_upto.cache_clear()
            for _ in range(2):
                checked.clear()
                tracemalloc.start()
                try:
                    build(limit)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= checked[0], (limit, peak, checked)


def test_mangoldt_table_matches_the_scalar():
    x = 5000
    table = P.mangoldt_table(x)
    scalar = np.array([P.mangoldt(n) for n in range(x + 1)])
    prime = P.simple_sieve(x)
    # a prime power's log p is math.log in both; a prime's log through numpy
    # may differ from math.log in the last bit
    assert np.array_equal(table[~prime], scalar[~prime])
    assert np.allclose(table[prime], scalar[prime], rtol=2.0**-52, atol=0.0)


FIRST_CALL = """
import tracemalloc
from fiprimes import primes as P
checked = []
check = P.check_bytes
P.check_bytes = lambda nbytes, what: checked.append(nbytes) or check(nbytes, what)
tracemalloc.start()
P.fi_weighted_count(1000)
print(tracemalloc.get_traced_memory()[1], max(checked))
"""


def test_weighted_count_first_call_stays_within_the_checked_bytes():
    # in a fresh process the first call pays for any import it makes; it makes none
    src = str(Path(P.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-B", "-c", FIRST_CALL], env=env,
                          capture_output=True, text=True, check=True)
    peak, checked = map(int, done.stdout.split())
    assert peak <= checked, (peak, checked)


def test_weighted_count_includes_outer_prime_powers():
    # n = 8 = 2^3 = 2^2 + 2^2 carries Lambda(8) = log 2 with prime leg l = 2
    total = P.fi_weighted_count_bruteforce(10)
    expected = P.lambda_lambda(5) + P.lambda_lambda(8)
    assert total == pytest.approx(expected, rel=1e-14)
    assert P.lambda_lambda(8) == pytest.approx(math.log(2) ** 2, rel=1e-14)


def test_weighted_count_small():
    # contributions below 30 are exactly n in {5, 8, 13, 25, 29}
    expected = sum(P.lambda_lambda(n) for n in (5, 8, 13, 25, 29))
    assert P.fi_weighted_count_bruteforce(30) == pytest.approx(expected, rel=1e-14)


def test_weighted_count_trivial():
    with pytest.raises(ValueError):
        P.fi_weighted_count(1)


def test_lambda_lambda_table_matches_scalar():
    for x in list(range(11)) + [2000]:
        table = lambda_lambda_table(x)
        assert len(table) == x + 1
        for n in range(1, x + 1):
            assert table[n] == pytest.approx(P.lambda_lambda(n), abs=1e-12), (x, n)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=3000))
def test_fi_primes_match_scalar_predicate(x):
    expected = [p for p in range(x + 1) if P.is_fi_prime(p)]
    assert P.fi_primes_upto(x).tolist() == expected


def test_fi_pairs_blocks():
    assert [(l, ns.tolist()) for l, ns in P.fi_pairs(30)] == [
        (2, [5, 8, 13, 20, 29]), (3, [10, 13, 18, 25]), (5, [26, 29])]
    assert list(P.fi_pairs(4)) == []
    # an l with no k >= 1 (l^2 >= x) is skipped
    assert [l for l, _ in P.fi_pairs(9, [1, 3, 4, 2])] == [1, 2]


def test_spf_table_against_factorize():
    for limit in list(range(201)) + [10**5]:
        spf = spf_table(limit)
        expected = [0, 0][: limit + 1] + [P.factorize(n)[0][0] for n in range(2, limit + 1)]
        assert spf.tolist() == expected, limit


def test_mangoldt_scalar():
    assert P.mangoldt(1) == 0.0
    assert P.mangoldt(2) == pytest.approx(math.log(2))
    assert P.mangoldt(1024) == pytest.approx(math.log(2))
    assert P.mangoldt(60) == 0.0


def cache_file(limit, arr):
    """The expected v3 cache file: ASCII header, then little-endian int64 primes."""
    body = np.asarray(arr, dtype="<i8").tobytes()
    return f"fi-cache v3 {limit} {len(arr)} {zlib.crc32(body)}\n".encode("ascii") + body


def test_fi_cache_roundtrip(tmp_path):
    fresh = P.fi_primes_upto(500, cache_dir=tmp_path)
    path = tmp_path / "fi-primes.txt"
    assert path.exists()
    again = P.fi_primes_upto(400, cache_dir=tmp_path)
    assert np.array_equal(again, fresh[fresh <= 400])
    assert path.read_bytes() == cache_file(500, fresh)


def test_fi_cache_hit_is_a_read_only_view(tmp_path):
    P.fi_primes_upto(1000, cache_dir=tmp_path)
    for limit in (5, 12, 13, 400, 997, 1000):
        hit = P.fi_primes_upto(limit, cache_dir=tmp_path)
        assert np.array_equal(hit, P.fi_primes_upto(limit)), limit
        assert not hit.flags.writeable
        assert hit.flags.aligned  # an unaligned view halves searchsorted's speed


def test_fi_cache_regenerates_on_corruption(tmp_path):
    P.fi_primes_upto(300, cache_dir=tmp_path)
    path = tmp_path / "fi-primes.txt"
    path.write_bytes(cache_file(300, [13, 5]))  # out of order, count and CRC valid
    fixed = P.fi_primes_upto(300, cache_dir=tmp_path)
    assert list(fixed[:2]) == [5, 13]
    # file was rewritten in sorted form
    assert path.read_bytes() == cache_file(300, fixed)


def _torn(data):
    head, nl, body = data.partition(b"\n")
    return head + nl + body[: 8 * (len(body) // 16) + 3]  # cut inside an entry


def _torn_aligned(data):
    head, nl, body = data.partition(b"\n")
    return head + nl + body[: 8 * (len(body) // 16)]  # cut between entries


def _v1(data):
    return b"fi-cache v1 10000\n" + data.partition(b"\n")[2]


def _v2(data):
    """The same table as a well-formed cache in the older v2 text format."""
    primes = np.frombuffer(data.partition(b"\n")[2], dtype="<i8").tolist()
    text = "".join(f"{p}\n" for p in primes).encode("ascii")
    return f"fi-cache v2 10000 {len(primes)} {zlib.crc32(text)}\n".encode("ascii") + text


def _edited(data):
    head, nl, body = data.partition(b"\n")
    arr = np.frombuffer(body, dtype="<i8").copy()
    assert arr[1] == 13
    arr[1] = 17  # same length, still sorted
    return head + nl + arr.tobytes()


def _bad_residue(data):
    """A valid count and CRC over a sorted body holding 15 = 3 (mod 4)."""
    arr = np.frombuffer(data.partition(b"\n")[2], dtype="<i8")
    assert arr[1] == 13 and arr[2] > 15
    return cache_file(10_000, np.insert(arr, 2, 15))


@pytest.mark.parametrize("damage", [_torn, _torn_aligned, _v1, _v2, _edited, _bad_residue])
def test_fi_cache_rejects_torn_stale_or_edited(tmp_path, damage):
    full = P.fi_primes_upto(10_000, cache_dir=tmp_path)
    assert len(full) == 346
    path = tmp_path / "fi-primes.txt"
    path.write_bytes(damage(path.read_bytes()))
    assert np.array_equal(P.fi_primes_upto(10_000, cache_dir=tmp_path), full)
    assert path.read_bytes() == cache_file(10_000, full)


def test_fi_cache_extends_limit(tmp_path):
    P.fi_primes_upto(100, cache_dir=tmp_path)
    longer = P.fi_primes_upto(1000, cache_dir=tmp_path)
    assert longer[-1] > 100
    assert (tmp_path / "fi-primes.txt").read_bytes() == cache_file(1000, longer)
    assert [f.name for f in tmp_path.iterdir()] == ["fi-primes.txt"]  # no temp file left
