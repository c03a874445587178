import hashlib
import math
import pickle
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fiprimes import primes as P, ternary as T
from fiprimes.primes import fi_primes_upto

from conftest import lambda_lambda_table


def test_find_representation_examples():
    fi = fi_primes_upto(1000)
    w = T.find_representation(15, fi, 1000)
    assert (w.p1, w.p2, w.p3) == (5, 5, 5)
    assert T.find_representation(19, fi, 1000) is None
    w87 = T.find_representation(87, fi, 1000)
    assert (w87.p1, w87.p2, w87.p3) == (5, 29, 53)
    assert w87.validate()
    for x in (16, 17, 18, 101):  # a sum of three FI primes is 3 (4)
        assert T.find_representation(x, fi, 1000) is None


def test_witness_revalidation():
    fi = fi_primes_upto(1500)
    for x in range(15, 1500, 4):
        w = T.find_representation(x, fi, 1500)
        if w is not None:
            assert w.validate(), x


def test_witness_revalidation_reads_no_table(monkeypatch, forbid_alloc):
    # validate() re-checks each part by Miller-Rabin and the two-squares step
    # alone: no prime table is read and no numpy array allocated
    fi = fi_primes_upto(10**5)
    witnesses = [T.find_representation(x, fi, 10**5) for x in range(99_903, 10**5, 4)]
    for name in ("simple_sieve", "primes_upto", "fi_primes_upto"):
        monkeypatch.setattr(P, name, None)
    forbid_alloc()
    assert len(witnesses) == 25 and all(w.validate() for w in witnesses)


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
        T.find_representation(99, table=bad, table_limit=100)


def _cache_loaded(limit, tmp_path):
    """The table of ``fi_primes_upto(limit)`` as a cache hit: bytes-backed, read-only."""
    fi_primes_upto(limit, cache_dir=tmp_path)
    table = fi_primes_upto(limit, cache_dir=tmp_path)
    assert not table.flags.writeable
    return table


def test_bad_bytes_backed_table_raises_on_every_call():
    bad = np.frombuffer(np.array([5, 7, 13], dtype="<i8").tobytes(), dtype="<i8")
    for _ in range(2):
        with pytest.raises(ValueError, match="got 7"):
            T.find_representation(99, table=bad, table_limit=100)


def test_bad_entry_above_x_is_not_read():
    # only the prefix <= x is searched, so only it is checked
    fi = np.append(fi_primes_upto(100), 103)  # 103 = 3 (4)
    assert T.find_representation(15, table=fi, table_limit=103).validate()
    with pytest.raises(ValueError, match="got 103"):
        T.find_representation(103, table=fi, table_limit=103)


def test_writable_table_is_checked_on_every_call():
    fi = fi_primes_upto(1000).copy()
    assert T.find_representation(87, table=fi, table_limit=1000).validate()
    fi[-1] = 999  # read by a query at x = 999
    with pytest.raises(ValueError, match="got 999"):
        T.find_representation(999, table=fi, table_limit=1000)


def _unpickled(limit):
    """``fi_primes_upto(limit)`` through pickle: writable, yet on a ``bytes`` base."""
    table = pickle.loads(pickle.dumps(fi_primes_upto(limit), protocol=4))
    assert type(table.base) is bytes and table.flags.writeable
    return table


@pytest.mark.parametrize("writable", [lambda n: fi_primes_upto(n).copy(), _unpickled], ids=["copy", "unpickled"])
def test_read_only_view_of_writable_table_is_checked_on_every_call(writable):
    base = writable(10**4)
    view = base[:]
    view.flags.writeable = False
    assert T.find_representation(87, table=view, table_limit=10**4).validate()
    base[-1] = 999  # below x = 9999, so read by a query there
    with pytest.raises(ValueError, match="got 999"):
        T.find_representation(9999, table=view, table_limit=10**4)


def test_read_only_unpickled_table_is_checked_on_every_call():
    # every array on the chain is read-only, but a view made before can write
    base = _unpickled(10**4)
    writer = base[:]
    base.flags.writeable = False
    view = base[:]
    assert T.find_representation(87, table=view, table_limit=10**4).validate()
    writer[-1] = 999
    with pytest.raises(ValueError, match="got 999"):
        T.find_representation(9999, table=view, table_limit=10**4)


def test_reinterpreted_cache_table_is_checked_afresh(tmp_path):
    table = _cache_loaded(1000, tmp_path)
    assert T.find_representation(87, table=table, table_limit=1000).validate()
    # the high words of the int64 entries read as int32 zeros
    with pytest.raises(ValueError, match="got 0"):
        T.find_representation(87, table=table.view("<i4"), table_limit=1000)
    same = table[:]
    assert T.find_representation(87, table=same, table_limit=1000).validate()
    same.dtype = "<i4"  # the same object, reinterpreted in place
    with pytest.raises(ValueError, match="got 0"):
        T.find_representation(87, table=same, table_limit=1000)
    root = table.base  # the loaded table itself, reinterpreted in place
    assert P._CACHE_ROOTS.get(id(root)) is root
    root.dtype = "<i4"
    for t in (root, root[:]):
        with pytest.raises(ValueError, match="got 0"):
            T.find_representation(87, table=t, table_limit=1000)
    # the same dtype at a 4-byte offset: each entry joins the halves of two.
    # Every entry is past 2^32, so a query reads none of them; the check
    # itself still scans the view rather than trust it
    shifted = np.ndarray((len(table) - 1,), "<i8", buffer=table, offset=4)
    assert not shifted.flags.aligned
    with pytest.raises(ValueError):
        P.check_fi_residues(shifted)


def test_residue_scan_runs_once_per_cache_loaded_table(tmp_path, monkeypatch):
    scanned = []
    scan = P._bad_residue
    monkeypatch.setattr(P, "_bad_residue", lambda fi: scanned.append(len(fi)) or scan(fi))
    table = _cache_loaded(10**5, tmp_path)
    assert scanned == [len(table)]  # by the load, before any query
    xs = range(10**5 - 197, 10**5, 4)
    assert len(xs) == 50
    for x in xs:
        assert T.find_representation(x, table=table, table_limit=10**5).validate()
    assert scanned == [len(table)]
    # the roots hold no reference to the table, and forget it when it dies
    root = table.base
    key, ref = id(root), weakref.ref(root)
    del table, root
    assert ref() is None and key not in P._CACHE_ROOTS


def test_cache_loaded_witnesses_match_the_search(tmp_path):
    X = 10**5
    table = _cache_loaded(X, tmp_path)
    fi = fi_primes_upto(X)
    for x in range(3, X + 1, 4):
        expected = T._smallest_witness(x, fi[: np.searchsorted(fi, x, side="right")])
        assert T.find_representation(x, table=table, table_limit=X) == expected, x


def test_exceptions_small():
    assert list(T.scan_exceptions(15)) == [3, 7, 11]
    assert list(T.scan_exceptions(10**4)) == [3, 7, 11, 19, 27, 35, 43]


def test_exceptions_monotone():
    small = set(int(v) for v in T.scan_exceptions(2000))
    large = set(int(v) for v in T.scan_exceptions(6000))
    assert {v for v in large if v <= 2000} == small


def test_exception_strategies_agree():
    # X to 300 ends the index range at every bit of the first word and into the second
    for X in [*range(3, 301), 2 * 10**4]:
        assert np.array_equal(T.scan_exceptions(X), T.scan_exceptions_direct(X)), X


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
    table = fi_primes_upto(X)
    fi = table.tolist()
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
        w = T.find_representation(x, table, X)
        assert (w and (w.p1, w.p2, w.p3)) == expected, x


def test_swept_witnesses_match_per_x_search():
    X = 2 * 10**4
    fi = fi_primes_upto(X)
    p1, p2 = T.smallest_witnesses(X)
    assert len(p1) == len(p2) == (X - 3) // 4 + 1
    for m, (a, b) in enumerate(zip(p1.tolist(), p2.tolist())):
        x = 4 * m + 3
        w = T._smallest_witness(x, fi)
        assert (w.p1, w.p2) == (a, b) if w else a == b == 0, x
    assert list(4 * np.flatnonzero(p1 == 0) + 3) == list(T.scan_exceptions(X))


def test_smallest_witnesses_pinned():
    p1, p2 = T.smallest_witnesses(10**6)
    digest = hashlib.sha1(p1.tobytes() + p2.tobytes()).hexdigest()
    assert digest == "351ff1c57a6ca6fa742f1f044f95af284fd3c5a4"


def _pack(flags):
    # a bool array as the scan's bitmaps: little bit order, whole 64-bit words
    return np.packbits(np.concatenate([flags, np.zeros(-len(flags) % 64, dtype=bool)]), bitorder="little")


def _unpack(bits, n):
    return np.unpackbits(bits, bitorder="little")[:n].astype(bool)


def _table(parts, n, k):
    # what _covered reads at k: the bitmap of the parts (k = 2), or their
    # two-sums t = s + u with s <= u (k = 3), as flags
    fi = np.zeros(n, dtype=bool)
    fi[parts] = True
    if k == 3:
        fi = np.array(_double_loop(parts, fi, 2)) >= 0
    return fi


def _double_loop(parts, table, k):
    return [next((s for s in parts.tolist() if k * s <= t and table[t - s]), -1) for t in range(len(table))]


def _sequential_first_parts(targets, parts, table, k):
    # oracle for _first_parts: one part at a time against the open targets
    first = np.full(len(targets), -1, dtype=targets.dtype)
    at = np.arange(len(targets), dtype=targets.dtype)
    for s in map(int, parts):
        lo = np.searchsorted(targets, k * s)
        targets, at = targets[lo:], at[lo:]
        if not len(targets):
            break
        i = targets - s
        miss = (table[i >> 3] >> (i & 7) & 1) == 0
        first[at[~miss]] = s
        targets, at = targets[miss], at[miss]
    return first


def _sweeps_against_the_sparse_loop(X, monkeypatch):
    # the reference is the sequential loop on every target, with no dense
    # phase; at both k, scanning and recording, the packed sweep gives the
    # same bitmap and first parts, and hands its open targets, which lie in
    # under n/1024 of the 64-bit words, to _first_parts, whose blocks give
    # what the sequential loop gives on them
    bits, parts, n = T._fi_bitmap(X, None, 1)
    sparse, handed = T._first_parts, []

    def compared(targets, *args):
        found = sparse(targets, *args)
        assert np.array_equal(found, _sequential_first_parts(targets, *args))
        handed.append(targets)
        return found

    monkeypatch.setattr(T, "_first_parts", compared)
    table, firsts = bits, []
    for k in (2, 3):
        expected = _sequential_first_parts(np.arange(n), parts, table, k)
        recorded = np.full(n, -1, dtype=np.int32)
        for first in (None, recorded):
            covered = T._covered(parts, table, n, k, first)
            assert np.array_equal(_unpack(covered, n), expected >= 0), k
            assert 0 < len(np.unique(handed[-1] >> 6)) < n / 1024, k
        assert np.array_equal(recorded, expected), k
        table = covered
        firsts.append(expected)
    return *firsts, handed


def test_dense_phase_matches_the_sparse_sweep(monkeypatch):
    # at 10^6 and at the benchmark's verify-ternary limit, 4e6
    for X in (4 * 10**6, 10**6):
        first, three, handed = _sweeps_against_the_sparse_loop(X, monkeypatch)
        assert list(4 * np.flatnonzero(three < 0) + 3) == [3, 7, 11, 19, 27, 35, 43], X
        if X == 4 * 10**6:
            # both entry points hand off at k = 2 and 3, checked against the oracle
            T.scan_exceptions(X)
            T.smallest_witnesses(X)
            assert len(handed) == 8
    # the sweep's cost figures at 10^6: 30 indices are no two-sum, the largest
    # 4m + 2 of them is 7,118, and the largest smallest part is p = 33,721
    assert np.count_nonzero(first < 0) == 30
    assert 4 * np.flatnonzero(first < 0)[-1] + 2 == 7118
    assert 4 * first.max() + 1 == 33721


@pytest.mark.parametrize("k", [2, 3])
def test_covered_bit_edges_against_double_loop(k):
    # every n mod 8 and every n < 8; the dense parts and the diagonal ones
    # (s = 0, 9, 18, ..., 63, 64, 73) each hold every s mod 8 once n > 73, so
    # every bit-shifted copy is read, from every byte offset
    for n in range(1, 81):
        for parts in (np.flatnonzero(np.arange(n) % 3 != 1), np.flatnonzero(np.arange(n) % 8 == np.arange(n) // 8 % 8)):
            table = _table(parts, n, k)
            first = _double_loop(parts, table, k)
            recorded = np.full(n, -1, dtype=np.int64)
            for out in (None, recorded):
                covered = T._covered(parts, _pack(table), n, k, out)
                assert _unpack(covered, n).tolist() == [s >= 0 for s in first], (n, k)
                assert np.unpackbits(covered, bitorder="little")[n:].all(), (n, k)  # the padding
            assert recorded.tolist() == first, (n, k)
            # _first_parts keeps its guard k s <= t, so it is read on a table
            # drawn apart from the parts as well
            other = np.random.default_rng(n).random(n) < 0.3
            for tab in (table, other):
                assert T._first_parts(np.arange(n), parts, _pack(tab), k).tolist() == _double_loop(parts, tab, k), (n, k)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_blocked_first_parts_against_the_sequential_loop(dtype):
    # on random tables drawn apart from the parts: all n targets, more than a
    # block's len(table) / 8 cells (one part a block), down to one target
    # (blocks of many parts, which cross t / k), and no parts
    rng = np.random.default_rng(28)
    for n in (1, 64, 1000, 4096):
        table = _pack(rng.random(n) < 0.3)
        for density in (0.0, 0.05, 0.5):
            parts = np.flatnonzero(rng.random(n) < density)
            for m in (n, 2 * len(table), len(table) // 16, 3, 1):
                targets = np.sort(rng.choice(n, min(m, n), replace=False)).astype(dtype)
                for k in (2, 3):
                    got = T._first_parts(targets, parts, table, k)
                    assert got.dtype == dtype, (n, density, m, k)
                    assert np.array_equal(got, _sequential_first_parts(targets, parts, table, k)), (n, density, m, k)
    # one target t whose only hits are parts s with k s > t, inside the first
    # block: a guard that let them through would return one
    n, t = 4096, 60
    for k in (2, 3):
        table = _pack(np.arange(n) < t - t // k)
        got = T._first_parts(np.array([t], dtype=dtype), np.arange(n), table, k)
        assert got.tolist() == _sequential_first_parts(np.array([t], dtype=dtype), np.arange(n), table, k).tolist() == [-1]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1024, 4096), st.sampled_from([2, 3]))
def test_covered_against_double_loop(seed, n, k):
    # _first_parts on any table, here one drawn apart from the parts; _covered
    # on the table it is given, the parts' bitmap or their two-sum bitmap.
    # With about 30% of the indices as parts, the open set falls under n/1024
    # words after a few checks and the sparse loop serves the rest
    rng = np.random.default_rng(seed)
    table = rng.random(n) < 0.3
    parts = np.flatnonzero(rng.random(n) < 0.3)
    assert T._first_parts(np.arange(n), parts, _pack(table), k).tolist() == _double_loop(parts, table, k)
    table = _table(parts, n, k)
    first = _double_loop(parts, table, k)
    assert _unpack(T._covered(parts, _pack(table), n, k), n).tolist() == [s >= 0 for s in first]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4096), st.sampled_from([0.02, 0.3, 0.7]), st.sampled_from([2, 3]))
def test_recorded_first_parts_against_the_sparse_sweep(seed, n, density, k):
    # sparse parts leave the dense phase running to the last part; dense ones
    # hand the open targets to the sparse loop after a few checks
    rng = np.random.default_rng(seed)
    parts = np.flatnonzero(rng.random(n) < density)
    table = _pack(_table(parts, n, k))
    first = T._first_parts(np.arange(n), parts, table, k)
    recorded = np.full(n, -1, dtype=np.int64)
    assert _unpack(T._covered(parts, table, n, k, recorded), n).tolist() == (first >= 0).tolist()
    assert recorded.tolist() == first.tolist()


def test_ternary_byte_estimates_bound_the_peaks(monkeypatch, tmp_path):
    # each scan's tracemalloc peak, on a cache hit, is at most the bytes it checks
    checked = []

    def check_bytes(nbytes, what):
        checked.append(nbytes)
        P.check_bytes(nbytes, what)

    monkeypatch.setattr(T, "check_bytes", check_bytes)
    # the peaks per index are tightest at 10^4, which runs after the larger X
    # so that numpy's one-time ufunc caches (about 1 KB) are not counted
    for scan, X in (
        (T.scan_exceptions, 10**6),
        (T.smallest_witnesses, 10**5),
        (T.scan_exceptions, 10**4),
        (T.smallest_witnesses, 10**4),
    ):
        cache = tmp_path / str(X)
        fi_primes_upto(X, cache_dir=cache)
        tracemalloc.start()
        try:
            scan(X, cache)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= checked[-1], (scan.__name__, peak, checked[-1])


def test_row_sieve_byte_estimates_bound_the_peaks(monkeypatch):
    # each consumer of the row sieve peaks under tracemalloc at most at the
    # bytes it checks last (0.38 to 0.81 of them at 10^3 to 10^8); the base
    # sieve's own checks, made inside a build, are part of its estimate
    checked, real = [], P.check_bytes

    def check_bytes(nbytes, what):
        if not what.startswith(("prime sieve to ", "primes to ")):
            checked.append(nbytes)
        real(nbytes, what)

    monkeypatch.setattr(P, "check_bytes", check_bytes)
    monkeypatch.setattr(T, "check_bytes", check_bytes)
    builds = (P.fi_weighted_count, P._compute_fi_primes, lambda x: T.wtrick_build(x, 1))
    for x in (10**3, 10**4, 10**5, 10**6, 10**7, 10**8):
        for build in builds:
            tracemalloc.start()
            try:
                build(x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= checked[-1], (x, peak, checked[-1])


def test_row_sieve_refuses_a_huge_x_before_listing_its_rows():
    # 64 bytes per integer up to sqrt x are checked first: at 1e16 the rows'
    # list would hold the 5.76 million primes to 1e8
    builds = (P.fi_weighted_count, P._compute_fi_primes, lambda x: T.wtrick_build(x, 1))
    for x in (10**16, 10**20):
        for build in builds:
            tracemalloc.start()
            try:
                with pytest.raises(P.CapacityError, match="row sieve to "):
                    build(x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 10**6, (x, peak)


def test_ternary_scan_over_the_byte_budget_raises_before_allocating(monkeypatch, forbid_alloc, tmp_path):
    # 3 bytes per index m in [0, M], M = (X - 3) // 4, for scan_exceptions and
    # 34 for smallest_witnesses, plus 16 KB: X = 1023 has M + 1 = 256 indices,
    # X = 1027 one more.  The table is cached before the budget is lowered, so
    # the scans read it as a cache hit.
    fi_primes_upto(1027, cache_dir=tmp_path)
    monkeypatch.setattr(P, "MAX_TABLE_BYTES", 3 * 256 + 16384)
    assert list(T.scan_exceptions(1023, tmp_path)) == [3, 7, 11, 19, 27, 35, 43]
    with pytest.raises(P.CapacityError):
        T.scan_exceptions(1027, tmp_path)
    monkeypatch.setattr(P, "MAX_TABLE_BYTES", 34 * 256 + 16384)
    T.smallest_witnesses(1023, tmp_path)
    with pytest.raises(P.CapacityError):
        T.smallest_witnesses(1027, tmp_path)
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


def test_3ap_over_the_byte_budget_raises(monkeypatch, forbid_alloc):
    # X + 1 bytes of membership, then 160 bytes for each of the 344 APs to 2000
    edge = 2001 + 160 * 344
    monkeypatch.setattr(P, "MAX_TABLE_BYTES", edge)
    assert len(T.find_3aps(2000)) == 344
    monkeypatch.setattr(P, "MAX_TABLE_BYTES", edge - 1)
    with pytest.raises(P.CapacityError, match="344 3APs to 2000 needs"):
        T.find_3aps(2000)
    monkeypatch.setattr(P, "MAX_TABLE_BYTES", 2000)
    forbid_alloc()
    with pytest.raises(P.CapacityError, match="3AP membership table to 2000 needs"):
        T.find_3aps(2000)


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


def test_wtrick_build_matches_ll_table():
    from fiprimes.local import reference_H, xi

    cases = [(x, b, w) for x in (10**4, 10**6, 10**7) for b, w in ((1, None), (1, 3), (5, 3))]
    # W = 60 with b = 49 = 7^2 (a prime power at n = 0); W = 420 with N = 1
    # and 420 + 109 = 23^2, a prime power with no pair
    cases += [(6000, 49, 5), (420, 109, 7)]
    for x, b, w in cases:
        seq = T.wtrick_build(x, b, w_override=w)
        W, N = seq.W, seq.N
        ll = lambda_lambda_table(W * N + b)
        scale = P.euler_phi(W) / (float(xi(W, b)) * W * P.CONVENTION_MULTIPLIER * reference_H())
        expected = np.zeros(N + 1)
        expected[1:] = scale * ll[W + b :: W]
        assert np.array_equal(seq.values, expected), (x, b, W)


def test_wtrick_over_the_byte_budget_raises_before_allocating(monkeypatch, forbid_alloc):
    T.wtrick_build(10**4, 1)  # fills the small caches it reads (W, Xi, H)
    monkeypatch.setattr(P, "MAX_TABLE_BYTES", 10**5)
    forbid_alloc()
    with pytest.raises(P.CapacityError):
        T.wtrick_build(10**5, 1)


def test_parseval_gate():
    seq = T.wtrick_build(10**5, 1)
    grid = 4 * seq.N
    ratio = T.lq_moment(seq, 2.0, grid)
    exact = float(np.sum(seq.values**2)) / seq.N
    assert abs(ratio - exact) / exact < 0.01


def test_lq_moment_over_the_byte_budget_raises_before_allocating(monkeypatch, forbid_alloc):
    seq = T.wtrick_build(10**4, 1)
    grid = 4 * seq.N
    monkeypatch.setattr(P, "MAX_TABLE_BYTES", 40 * grid)
    T.lq_moment(seq, 2.5, grid)  # 40 bytes per grid point fit
    monkeypatch.setattr(P, "MAX_TABLE_BYTES", 40 * grid - 1)
    forbid_alloc()
    with pytest.raises(P.CapacityError):
        T.lq_moment(seq, 2.5, grid)


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
