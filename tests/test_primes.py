import math
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fiprimes import primes as P

from conftest import spf_table


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
    # the smallest strong pseudoprimes to bases {2, 3, 5} and {2, 3, 5, 7}:
    # a prefix used one step past its bound would call them prime
    assert not P.is_prime_int(25_326_001)
    assert not P.is_prime_int(3_215_031_751)
    for bound in (25_326_001, 3_215_031_751):
        is_prime = window_sieve(bound - 999, bound + 1001)
        for n in range(bound - 999, bound + 1001):
            assert P.is_prime_int(n) == is_prime[n - bound + 999], n


def test_fi_decompositions_examples():
    assert [(d.k, d.l) for d in P.fi_decompositions(13)] == [(3, 2), (2, 3)]
    assert P.fi_decompositions(17) == []
    assert P.fi_decompositions(4) == []
    assert [(d.k, d.l) for d in P.fi_decompositions(8)] == [(2, 2)]


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
    table_sum = P.lambda_lambda_table(x).sum()
    assert abs(P.fi_weighted_count(x).value - table_sum) <= pair_count(x) * 2.0**-53 * table_sum


def test_fi_primes_table_matches_all_pairs_reference_at_1e7():
    x = 10**7
    is_p = P.simple_sieve(x)
    hits = np.zeros(x + 1, dtype=bool)
    for _, ns in P.fi_pairs(x):
        hits[ns[is_p[ns]]] = True
    assert np.array_equal(P._compute_fi_primes(x), np.flatnonzero(hits))


def test_fi_primes_table_over_the_byte_budget_raises_before_allocating(monkeypatch, forbid_alloc):
    # the sieve and the hits bitmap: 2 (limit + 1) bytes
    monkeypatch.setattr(P, "MAX_TABLE_BYTES", 1000)
    P._compute_fi_primes(499)
    with pytest.raises(P.CapacityError):
        P._compute_fi_primes(500)
    monkeypatch.undo()
    forbid_alloc()
    with pytest.raises(P.CapacityError):
        P._compute_fi_primes(10**9)


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
        table = P.lambda_lambda_table(x)
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


@pytest.mark.parametrize("damage", [_torn, _torn_aligned, _v1, _v2, _edited])
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
