"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Set FI_ACCEPTANCE_REPORT to a file path to also write
those lines there, e.g.
`FI_ACCEPTANCE_REPORT=acceptance_report.txt pytest tests/test_acceptance.py`;
without it nothing is written to disk.
"""

import math
import os
import random
import sys
import time
from pathlib import Path
from fractions import Fraction

import numpy as np
import pytest

from fiprimes import buchstab as B
from fiprimes import constants as C
from fiprimes import expsum as E
from fiprimes import lattice as LM
from fiprimes import local as L
from fiprimes import sieve as S
from fiprimes import ternary as T
from fiprimes.gaussian import GaussianInt
from fiprimes.primes import (
    euler_phi,
    factorize,
    fi_weighted_count,
)
from fiprimes.quadrature import adaptive_simpson

from conftest import (
    buchstab_identity_violations,
    lambda_lambda_table,
    spf_factorize,
    spf_table,
    switching_sides,
)


_REPORT_PATH = os.environ.get("FI_ACCEPTANCE_REPORT")
_report_started = False


def _report(n: int, name: str, ok: bool, elapsed: float, extra: str = "") -> None:
    global _report_started
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {n} {status} {name} ({elapsed:.1f}s){' ' + extra if extra else ''}"
    print(line, file=sys.stderr, flush=True)  # visible with pytest -s
    if not _REPORT_PATH:
        return
    mode = "a" if _report_started else "w"
    with Path(_REPORT_PATH).open(mode) as fh:
        fh.write(line + "\n")
    _report_started = True


def test_criterion_1_headline_constant():
    t0 = time.time()
    ok = False
    extra = ""
    try:
        res = C.alpha_plus()
        stable = C.c3_bound(start_grid=2 * res.c3.grid, max_grid=4 * res.c3.grid, tol=1e-5)
        elapsed = time.time() - t0
        assert res.value <= 2.9739
        assert res.value >= 2.85
        assert abs(stable.value - res.c3.value) < 1e-5 * 3
        assert elapsed < 60.0
        ok = True
        extra = f"alpha_plus={res.value:.7f}"
    finally:
        _report(1, "headline constant alpha_plus", ok, time.time() - t0, extra)


def _xi_fast_row(q: int) -> tuple[np.ndarray, int]:
    """Vectorised multiplicative evaluation: numerators over a common denominator."""
    num = np.ones(q, dtype=np.int64)
    den = 1
    a = np.arange(q, dtype=np.int64)
    for p, e_exp in factorize(q):
        if p == 2:
            if e_exp == 1:
                part = np.array([0, 1], dtype=np.int64)  # Xi(2, a): 1 on odd a
                num *= part[a % 2]
            else:
                part = np.array([0, 2, 0, 0], dtype=np.int64)  # Xi(4, *): 2 at 1 mod 4
                num *= part[a % 4]
        else:
            sq = np.bincount((np.arange(p, dtype=np.int64) ** 2) % p, minlength=p)
            cs = np.arange(1, p, dtype=np.int64)
            t_row = np.zeros(p, dtype=np.int64)
            for residue in range(p):
                t_row[residue] = int(sq[(residue - cs * cs) % p].sum())
            num *= t_row[a % p]
            den *= p - 1 - L.chi(p)
    num[np.gcd(a, q) != 1] = 0
    return num, den


def test_criterion_2_xi_identities():
    t0 = time.time()
    ok = False
    try:
        for q in list(range(1, 2001)) + [2187, 2401]:  # include 3^7, 7^4
            row = L.coprime_rho_row(q)
            pp = L.psi_prime(q)
            phi = euler_phi(q)
            num_f, den_f = _xi_fast_row(q)
            a = np.arange(q, dtype=np.int64)
            coprime = np.gcd(a, q) == 1
            # fast num/den == psi'(q) T[a] / phi(q), cross-multiplied in int64
            lhs = num_f.astype(object) * (pp.denominator * phi)
            rhs = np.where(coprime, row, 0).astype(object) * (pp.numerator * den_f)
            assert np.all(lhs == rhs), q
        assert L.xi(2, 1) == 1
        assert L.xi(4, 3) == 0
        for p in (3, 5, 7):
            for r in (2, 3, 4):
                for aa in range(1, p):
                    assert L.xi(p**r, aa) == L.xi(p, aa)
        elapsed = time.time() - t0
        assert elapsed < 30.0
        ok = True
    finally:
        _report(2, "Xi identities vs brute-force oracle", ok, time.time() - t0)


@pytest.mark.xfail(
    strict=True,
    reason="the defining sum, the mean-one law, and the q<=2000 oracle all give "
    "Xi(4,1) = 2; the pinned value 1 contradicts them (see notes/decisions.md)",
)
def test_criterion_2_pinned_xi_4_1_equals_one():
    assert L.xi(4, 1) == 1


def test_criterion_3_fi_density():
    t0 = time.time()
    ok = False
    extra = ""
    try:
        r1 = fi_weighted_count(10**7)
        r2 = fi_weighted_count(4 * 10**7)
        R = 0.5  # calibrated ordered-pair convention multiplier
        elapsed = time.time() - t0
        assert R - 0.15 <= r1.ratio <= R + 0.15
        assert abs(r1.ratio - r2.ratio) < 0.05
        assert elapsed < 300.0
        ok = True
        extra = f"ratio(1e7)={r1.ratio:.4f} ratio(4e7)={r2.ratio:.4f}"
    finally:
        _report(3, "FI density ratio vs H x", ok, time.time() - t0, extra)


def test_criterion_4_buchstab():
    t0 = time.time()
    ok = False
    try:
        # closed forms on [0, 3] against the independent recursion oracle
        for u in np.linspace(0.0, 0.999, 50):
            assert B.buchstab_B(float(u)) == 0.0
        for u in np.linspace(1.0, 2.0, 50):
            assert abs(B.buchstab_B(float(u)) - 1.0 / u) < 1e-12
        for u in np.linspace(2.001, 2.999, 50):
            val, _ = adaptive_simpson(lambda v: 1.0 / (v - 1.0), 2.0, float(u), 1e-13)
            assert abs(B.buchstab_B(float(u)) - (1.0 + val) / u) < 1e-8
        rc = B.rough_count(10**6, 10**3)
        assert abs(rc.exact / rc.predicted - 1.0) < 0.02
        assert buchstab_identity_violations(10**5, 3.0, 50.0) == 0
        elapsed = time.time() - t0
        assert elapsed < 60.0
        ok = True
    finally:
        _report(4, "Buchstab closed forms / rough counts / identity", ok, time.time() - t0)


def test_criterion_5_sandwich_and_pan():
    t0 = time.time()
    ok = False
    try:
        spf = spf_table(10**6)
        for x in (10**4, 10**5, 10**6):
            p = S.MajorantParams(x=x)
            bound = max(p.z1, p.z0)
            for n in range(1, 10**5 + 1):
                facs = [qq for qq, _ in spf_factorize(n, spf)]
                tp = S.composed_theta_factored(facs, p.D1, p.D0, p.z1, p.z0, +1)
                tm = S.composed_theta_factored(facs, p.D1, p.D0, p.z1, p.z0, -1)
                ind = 0 if any(qq <= bound for qq in facs) else 1
                assert tm <= ind <= tp, (x, n)
        params = S.MajorantParams(x=10**12)
        z, z1 = params.z, params.z1
        for l in range(1, 10**6 + 1):
            n = l
            primes = []
            squarefree = True
            while n > 1:
                pp = int(spf[n])
                e_cnt = 0
                while n % pp == 0:
                    n //= pp
                    e_cnt += 1
                if e_cnt > 1:
                    squarefree = False
                    break
                primes.append(pp)
            if not squarefree:
                continue
            lhs2, rhs2 = switching_sides(primes, z, z1)
            assert lhs2 <= rhs2, l
        # r-case table on constructed l, doubled: 1, 1/2, 0, 0, 1/2, 3/2
        mids_pool = [13, 17, 19, 23, 29]
        for r, expected2 in enumerate([2, 1, 0, 0, 1, 3]):
            lhs2, rhs2 = switching_sides([*mids_pool[:r], 104729], z, z1)
            assert rhs2 == expected2 and lhs2 <= rhs2, r
        elapsed = time.time() - t0
        assert elapsed < 300.0
        ok = True
    finally:
        _report(5, "sieve sandwich + switching inequality", ok, time.time() - t0)


def test_criterion_6_majorization():
    t0 = time.time()
    ok = False
    try:
        x = 10**5
        table = S.majorant_table(x)
        ll = lambda_lambda_table(x)
        violations = int(np.count_nonzero(ll > table.lam_plus + 1e-9))
        assert violations == 0
        elapsed = time.time() - t0
        assert elapsed < 120.0
        ok = True
    finally:
        _report(6, "pointwise majorization LL <= Lambda_plus", ok, time.time() - t0)


def test_criterion_7_lattices():
    t0 = time.time()
    ok = False
    try:
        squarefree = [1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 21, 22, 26, 30, 33, 35]
        rnd = random.Random(77)
        done = 0
        while done < 1000:
            l1 = GaussianInt(rnd.randint(-9, 9), rnd.randint(-9, 9))
            l2 = GaussianInt(rnd.randint(-9, 9), rnd.randint(-9, 9))
            if l1.is_zero() or l2.is_zero():
                continue
            if math.gcd(abs(l1.re), abs(l1.im)) != 1 or math.gcd(abs(l2.re), abs(l2.im)) != 1:
                continue
            lat = LM.lattice_new(l1, rnd.choice(squarefree), l2, rnd.choice(squarefree))
            if lat.delta > 500:
                continue
            assert LM.index_bruteforce(lat) == lat.delta
            basis = LM.reduced_basis(lat)
            assert basis.det == lat.delta
            assert basis.b1.norm() <= (4.0 / 3.0) * lat.delta
            res = E.type2_lattice_sum(rnd.random(), lat, lat.delta, 5 * lat.delta, basis)
            assert res.value == res.value_direct
            done += 1
        elapsed = time.time() - t0
        assert elapsed < 120.0
        ok = True
    finally:
        _report(7, "lattice discriminant / reduction / dual sums", ok, time.time() - t0)


def test_criterion_8_expsum_kernels():
    t0 = time.time()
    ok = False
    try:
        rnd = random.Random(88)
        for _ in range(120):
            q = rnd.randint(1, 1000)
            a = rnd.choice([aa for aa in range(1, q + 1) if math.gcd(aa, q) == 1])
            J = rnd.choice([10, 100, 1000, 10**4, 10**5])
            K = rnd.choice([1.0, 10.0, 100.0, 1000.0])
            v = E.min_sum(Fraction(a, q), J, K)
            assert v <= 8.0 * E.min_sum_bound(a, q, J, K)
        seq = T.wtrick_build(10**5, 1)
        ratio2 = T.lq_moment(seq, 2.0, 4 * seq.N)
        exact2 = float(np.sum(seq.values**2)) / seq.N
        assert abs(ratio2 - exact2) / exact2 < 0.01
        c = np.zeros(101, dtype=np.complex128)
        c[1:] = 1.0
        parts = E.dfi_decompose(c, z=11.0, U1=3.0, U2=5.0, D_I=50.0, K=3)
        assert abs(parts.residual) <= parts.residual_bound
        assert abs(parts.residual) == pytest.approx(6.0)
        elapsed = time.time() - t0
        assert elapsed < 120.0
        ok = True
    finally:
        _report(8, "min-sum band / Parseval / dissection residual", ok, time.time() - t0)


def test_criterion_9_ternary_theorem():
    t0 = time.time()
    ok = False
    extra = ""
    try:
        exceptions = T.scan_exceptions(10**6)
        assert len(exceptions) == 7
        assert int(exceptions.max()) == 43
        assert int(exceptions.max()) <= 10**4
        aps = T.find_3aps(10**5)
        assert len(aps) == 91801  # frozen regression count
        assert (5, 29, 53) in aps
        elapsed = time.time() - t0
        assert elapsed < 600.0
        ok = True
        extra = f"exceptions={list(map(int, exceptions))}"
    finally:
        _report(9, "ternary scan + 3AP census", ok, time.time() - t0, extra)
