import math

import numpy as np
import pytest

from fiprimes import primes as P, ternary as T
from fiprimes.primes import fi_primes_upto


def test_find_representation_examples():
    w = T.find_representation(15)
    assert (w.p1, w.p2, w.p3) == (5, 5, 5)
    assert T.find_representation(19) is None
    w87 = T.find_representation(87)
    assert (w87.p1, w87.p2, w87.p3) == (5, 29, 53)
    assert w87.validate()
    for x in (16, 17, 18, 101):  # a sum of three FI primes is 3 (4)
        assert T.find_representation(x) is None


def test_witness_revalidation():
    for x in range(15, 1500, 4):
        w = T.find_representation(x)
        if w is not None:
            assert w.validate(), x


def test_witness_with_non_fi_prime_rejected():
    # 17 is a prime = 1 (4), but 17 = 1 + 16 is its only sum of two squares
    assert not T.RepresentationWitness(27, 5, 5, 17).validate()
    assert T.RepresentationWitness(23, 5, 5, 13).validate()


def test_table_too_small():
    fi = fi_primes_upto(100)
    with pytest.raises(ValueError):
        T.find_representation(1003, table=fi, table_limit=100)


def test_non_fi_residue_rejected():
    bad = np.array([5, 7, 13], dtype=np.int64)  # 7 = 3 (4) has no (p - 1)/4 index
    with pytest.raises(ValueError):
        T.scan_exceptions(100, fi=bad)
    with pytest.raises(ValueError):
        T.find_representation(99, table=bad, table_limit=100)


def test_exceptions_small():
    assert list(T.scan_exceptions(15)) == [3, 7, 11]
    assert list(T.scan_exceptions(10**4)) == [3, 7, 11, 19, 27, 35, 43]


def test_exceptions_monotone():
    small = set(int(v) for v in T.scan_exceptions(2000))
    large = set(int(v) for v in T.scan_exceptions(6000))
    assert {v for v in large if v <= 2000} == small


def test_exception_strategies_agree():
    fft = T.scan_exceptions(2 * 10**4)
    direct = T.scan_exceptions_direct(2 * 10**4)
    assert np.array_equal(fft, direct)


def test_exceptions_against_triple_loop():
    # every X mod 4, including X < 7 where the scan's index range is [0, 0]
    X_max = 2000
    fi = [int(p) for p in fi_primes_upto(X_max)]
    representable = set()
    for i, p1 in enumerate(fi):
        for p2 in fi[i:]:
            if p1 + 2 * p2 > X_max + max(fi, default=0):
                break
            for p3 in fi:
                if p3 < p2:
                    continue
                s = p1 + p2 + p3
                if s <= X_max:
                    representable.add(s)
    for X in [*range(3, 121), X_max]:
        expected = [x for x in range(3, X + 1, 4) if x not in representable]
        assert list(T.scan_exceptions(X)) == expected, X


def test_find_representation_against_nested_loops():
    # smallest p1, then smallest p2, from plain Python sets
    X = 3000
    fi = [int(p) for p in fi_primes_upto(X)]
    in_fi = set(fi)
    for x in range(3, X + 1):
        expected = None
        for p1 in fi:
            if 3 * p1 > x or expected:
                break
            for p2 in fi:
                if 2 * p2 > x - p1:
                    break
                if p2 >= p1 and x - p1 - p2 in in_fi:
                    expected = (p1, p2, x - p1 - p2)
                    break
        w = T.find_representation(x)
        assert (w and (w.p1, w.p2, w.p3)) == expected, x


def test_swept_witnesses_match_per_x_search():
    X = 2 * 10**4
    fi = fi_primes_upto(X)
    p1, p2 = T.smallest_witnesses(X, fi=fi)
    assert len(p1) == len(p2) == (X - 3) // 4 + 1
    for m, (a, b) in enumerate(zip(p1.tolist(), p2.tolist())):
        x = 4 * m + 3
        w = T._smallest_witness(x, fi)
        assert (w.p1, w.p2) == (a, b) if w else a == b == 0, x
    assert list(4 * np.flatnonzero(p1 == 0) + 3) == list(T.scan_exceptions(X, fi=fi))


def test_ternary_scan_over_the_byte_budget_raises_before_allocating(monkeypatch, forbid_alloc):
    # 2 (M + 1) + max(32 size, 80 (M + 1)) bytes with M = (X - 3) // 4: X = 1023
    # has M = 255 and size = 512, X = 1027 has M = 256 and size = 1024
    monkeypatch.setattr(P, "MAX_TABLE_BYTES", 2 * 256 + 80 * 256)
    assert list(T.scan_exceptions(1023)) == [3, 7, 11, 19, 27, 35, 43]
    T.smallest_witnesses(1023)
    with pytest.raises(P.CapacityError):
        T.scan_exceptions(1027)
    with pytest.raises(P.CapacityError):
        T.smallest_witnesses(1027)
    monkeypatch.undo()
    forbid_alloc()
    with pytest.raises(P.CapacityError):
        T.scan_exceptions(10**10)


def test_3ap_examples():
    aps = T.find_3aps(53)
    assert (5, 29, 53) in aps
    assert T.find_3aps(13) == []


def test_3ap_structure():
    fi = set(int(p) for p in fi_primes_upto(2000))
    aps = T.find_3aps(2000)
    assert aps == sorted(aps)
    for a, b, c in aps:
        assert b - a == c - b > 0
        assert {a, b, c} <= fi


def test_w_threshold():
    w, W = T.w_from_threshold(10**8)
    assert w == pytest.approx(0.1 * math.log(math.log(10**8)))
    assert W == 2  # w < 2, empty prime product
    _, W12 = T.w_from_threshold(10**6, w_override=3)
    assert W12 == 12


def test_wtrick_admissibility():
    with pytest.raises(ValueError):
        T.wtrick_build(10**4, 3)  # 3 = 3 (4)
    with pytest.raises(ValueError):
        T.wtrick_build(10**4, 2, w_override=3)  # gcd(2, 12) > 1


def test_wtrick_mean_near_one():
    seq = T.wtrick_build(10**6, 1)
    assert seq.W == 2
    assert 0.7 <= seq.mean <= 1.3
    seq12 = T.wtrick_build(10**6, 1, w_override=3)
    assert seq12.W == 12
    assert 0.7 <= seq12.mean <= 1.3


def test_wtrick_values_trace_ll():
    from fiprimes.local import reference_H
    from fiprimes.primes import lambda_lambda

    seq = T.wtrick_build(10**4, 1, w_override=3)
    assert seq.values[4] == 0.0  # 12 * 4 + 1 = 49 is not FI
    # 12 * 9 + 1 = 109 = 10^2 + 3^2 is an FI prime; the normalisation is
    # phi(12) / (Xi(12,1) * 12 * R * H) = 1/(2H) with Xi(12,1) = 4/3, R = 1/2
    expected = lambda_lambda(109) / (2.0 * reference_H())
    assert seq.values[9] == pytest.approx(expected, rel=1e-12)
    assert seq.N == 833
    for n in range(1, seq.N + 1):
        assert seq.values[n] == pytest.approx(lambda_lambda(12 * n + 1) / (2.0 * reference_H()),
                                              rel=1e-12), n


def test_parseval_gate():
    seq = T.wtrick_build(10**5, 1)
    grid = 4 * seq.N
    ratio = T.lq_moment(seq, 2.0, grid)
    exact = float(np.sum(seq.values**2)) / seq.N
    assert abs(ratio - exact) / exact < 0.01


def test_lq_moment_constant_sequence():
    N = 1000
    const = T.WTrickedSequence(x=N, w=0.0, W=1, b=1, N=N, values=np.ones(N + 1))
    ratio = T.lq_moment(const, 2.5, 4 * N)
    assert ratio == pytest.approx(0.853244, abs=1e-4)  # frozen regression


def test_lq_moment_requires_fine_grid():
    seq = T.wtrick_build(10**4, 1)
    with pytest.raises(ValueError):
        T.lq_moment(seq, 2.5, seq.N)


def test_lq_moment_fi_sequence():
    seq = T.wtrick_build(10**6, 1)
    ratio = T.lq_moment(seq, 2.5, 4 * seq.N)
    assert ratio < 10.0
    assert ratio == pytest.approx(5.98, abs=0.3)  # frozen regression


def test_wtrick_damping_with_shared_factor():
    # gcd(q, W) > 1 kills the main term: S(1/3) is tiny against N for W = 12
    seq = T.wtrick_build(10**7, 1, w_override=3)
    assert seq.W == 12
    ns = np.arange(1, seq.N + 1)
    s = abs(np.sum(seq.values[1:] * np.exp(2j * np.pi / 3 * ns)))
    assert s / seq.N < 0.2
    assert seq.values[1:].sum() / seq.N > 0.8  # the zero-frequency mass stays
