"""The benchmark's three workloads: inputs from a seed, timed operations, checks.

Each workload has ``setup(seed, tmp)``, which generates the inputs and does
one-time lazy work, and ``job(state, job)``, which runs the timed operations
through a :class:`Job`.  Every operation is checked; a check's own library
calls run untimed and untraced, and in ``analytic`` they run only after the
whole timed stream, so they cannot warm caches that later queries use.

- ``ternary``: the bulk scan ``fi verify-ternary`` (FFT convolution), then
  point queries ``find_representation`` + ``validate()`` on a seeded sample.
- ``density``: the base sieve, the (k, l) pair loop and the Mangoldt table
  (``fi_weighted_count``, ``fi enumerate`` as a cache miss and a cache hit,
  ``wtrick_build``).  These four calls are its call latencies.
- ``analytic``: a closed-loop, single-client stream of small queries over the
  local, Buchstab, quadrature, sieve, constants, lattice, Gaussian and
  exponential-sum layers; almost no sieve and no FFT.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

from fiprimes import buchstab as B
from fiprimes import cli
from fiprimes import constants as C
from fiprimes import expsum as E
from fiprimes import lattice as LM
from fiprimes import local as L
from fiprimes import primes as P
from fiprimes import sieve as S
from fiprimes import ternary as T
from fiprimes.gaussian import GaussianInt

from spans import fi_pairs, prime_flags

# Reference values, measured on the seed code.
TERNARY_LIMIT = 4_000_000
TERNARY_EXCEPTIONS = [3, 7, 11, 19, 27, 35, 43]
TERNARY_FI_COUNT = 47_734
TERNARY_QUERIES = 2_000

DENSITY_X = 10**8
DENSITY_FI_COUNT = 785_379
DENSITY_WEIGHTED_COUNT = 106452481.55166797
WTRICK_X = 10**7
WTRICK_MEAN = 0.9725114845061608

ARC_X = 10**8
MAJORANT_X = 10**6
# Queries per job by kind.  classify_grid and alpha_plus are the slowest
# kinds and together about 2% of the stream, so call_p99_ms falls inside the
# classify_grid cost, whose work is fixed at 1000 points per call.
ANALYTIC_MIX = {
    "xi": 400, "xi_bruteforce": 200, "buchstab_B": 400, "rough_count": 60,
    "lambda_plus": 300, "lattice": 100, "min_sum": 300, "classify": 300,
    "classify_grid": 40, "type1_sum": 40, "alpha_plus": 10,
}
GRID_POINTS = 1000
SQUAREFREE = [1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15]
SMALL_PRIMES = np.flatnonzero(prime_flags(999)).tolist()


class Job:
    """Runs timed operations, checks each one and keeps the tallies."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.op_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.latencies_ms: list[float] = []
        self.phases: list[tuple[str, float, float]] = []
        self.cache_bytes = 0

    def run(self, label, fn, check, query=False):
        """Time ``fn()``, then check its result untimed; return the result."""
        return self.check(label, check, *self.time(label, fn, query))

    def time(self, label, fn, query=False):
        """Time ``fn()``; return its result and whether it raised."""
        self.attempted += 1
        result, raised = None, False
        if self.tracer is not None:
            self.tracer.enabled = True
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception:  # a failing operation is counted, and the job goes on
            traceback.print_exc()
            raised = True
        finally:
            t1 = time.perf_counter()
            if self.tracer is not None:
                self.tracer.enabled = False
        self.op_s.append(t1 - t0)
        self.phases.append((label, t0, t1))
        if query:
            self.latencies_ms.append((t1 - t0) * 1e3)
        return result, raised

    def check(self, label, check, result, raised):
        """Check a timed result, counting a failure; return the result if it passed."""
        ok = False
        if not raised:
            try:
                ok = bool(check(result))
            except Exception:
                traceback.print_exc()
        if not ok:
            self.failed += 1
            print(f"check failed: {label}", file=sys.stderr)
        return result if ok else None


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``fi <argv>`` in this process, with its stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def close_to(value: float, reference: float, terms: int) -> bool:
    """Equal up to the float64 rounding of a sum of ``terms`` positive terms.

    Reordering such a sum changes it by at most terms * 2^-53 relative, so a
    rewrite of the pair kernel that reorders the summation still passes.
    """
    return abs(value - reference) <= terms * 2.0**-53 * abs(reference)


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


# ---------------------------------------------------------------------------
# ternary


def ternary_setup(seed: int, tmp: Path) -> dict:
    rng = random.Random(seed)
    m_lo, m_hi = (TERNARY_LIMIT // 2 - 3) // 4 + 1, (TERNARY_LIMIT - 3) // 4
    xs = [4 * rng.randint(m_lo, m_hi) + 3 for _ in range(TERNARY_QUERIES)]
    return {"xs": xs, "cache": tmp / "cache"}


def _witness(x: int, table):
    wit = T.find_representation(x, table=table, table_limit=TERNARY_LIMIT)
    return wit, wit is not None and wit.validate()


def ternary_job(state: dict, job: Job) -> None:
    cache = str(state["cache"])
    job.run(
        "cache-miss",
        lambda: run_cli(["verify-ternary", "--limit", str(TERNARY_LIMIT), "--exceptions-only",
                         "--json", "--cache-dir", cache]),
        lambda r: r[0] == 0 and json.loads(r[1])["exceptions"] == TERNARY_EXCEPTIONS,
    )
    table = job.run("cache-hit", lambda: P.fi_primes_upto(TERNARY_LIMIT, cache_dir=cache),
                    lambda fi: len(fi) == TERNARY_FI_COUNT)
    for x in state["xs"]:
        job.run("witness", lambda x=x: _witness(x, table),
                lambda r, x=x: r[1] and r[0].x == x, query=True)
    job.cache_bytes = _dir_bytes(state["cache"])


# ---------------------------------------------------------------------------
# density


def density_setup(seed: int, tmp: Path) -> dict:
    # every input is fixed by the issue's sizes; the seed has nothing to draw
    return {"cache": tmp / "cache"}


def _enumerated(r) -> np.ndarray | None:
    """The primes an ``fi enumerate --json`` run printed, or None if it failed."""
    try:
        payload = json.loads(r[1])
    except ValueError:
        return None
    if r[0] != 0 or payload["count"] != len(payload["primes"]):
        return None
    return np.array(payload["primes"], dtype=np.int64)


def density_job(state: dict, job: Job) -> None:
    cache = str(state["cache"])
    pairs = fi_pairs(DENSITY_X)
    job.run("fi_weighted_count", lambda: P.fi_weighted_count(DENSITY_X),
            lambda r: close_to(r.value, DENSITY_WEIGHTED_COUNT, pairs), query=True)
    argv = ["enumerate", "--limit", str(DENSITY_X), "--json", "--cache-dir", cache]
    out, raised = job.time("cache-miss", lambda: run_cli(argv), query=True)
    listed = None if raised else _enumerated(out)
    del out
    job.check("cache-miss", lambda a: a is not None and len(a) == DENSITY_FI_COUNT,
              listed, raised)
    job.run("cache-hit", lambda: run_cli(argv),
            lambda r: listed is not None and np.array_equal(_enumerated(r), listed), query=True)
    del listed
    job.run("wtrick_build", lambda: T.wtrick_build(WTRICK_X, 1),
            lambda s: s.W == 2 and s.N == WTRICK_X // 2
            and close_to(s.mean, WTRICK_MEAN, fi_pairs(WTRICK_X)), query=True)
    job.cache_bytes = _dir_bytes(state["cache"])


# ---------------------------------------------------------------------------
# analytic


def _one(l: int) -> float:
    return 1.0


def _primitive(rng: random.Random) -> GaussianInt:
    while True:
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        if (a or b) and math.gcd(abs(a), abs(b)) == 1:
            return GaussianInt(a, b)


def _coprime_residue(rng: random.Random, q: int) -> int:
    while True:
        a = rng.randrange(q)
        if math.gcd(a, q) == 1:
            return a


def _arc_point(rng: random.Random, q_bound: int, radius: float) -> float:
    """Uniform on [0, 1) half the time; otherwise inside a random major arc."""
    if rng.random() < 0.5:
        return rng.random()
    q = rng.randint(1, q_bound)
    return (_coprime_residue(rng, q) / q + rng.uniform(-0.5, 0.5) * radius) % 1.0


def _arc_q(arc) -> int:
    return 0 if arc is None else arc.q


def analytic_setup(seed: int, tmp: Path) -> dict:
    rng = random.Random(seed)
    # one-time lazy work that every caller pays once per process
    B.default_interpolant()
    L.reference_H()
    arcs = E.ArcDecomposition(ARC_X)
    q_bound, radius = arcs.q_bound, arcs.radius
    ev = S.MajorantEvaluator(S.MajorantParams(x=MAJORANT_X))
    pi = np.cumsum(prime_flags(10**6))  # pi(n), for the rough_count law

    queries = []
    classify_points: list[float] = []
    expected: dict[float, int] = {}

    def grid_q(g: float) -> int:
        """q from classify_grid, run once over every classify point."""
        if not expected:
            qs = arcs.classify_grid(np.array(classify_points))
            expected.update(zip(classify_points, (int(q) for q in qs)))
        return expected[g]

    kinds = [k for k, n in ANALYTIC_MIX.items() for _ in range(n)]
    rng.shuffle(kinds)
    for kind in kinds:
        if kind == "xi":
            q = rng.randint(2, 4999)
            a = rng.randrange(q)
            queries.append((kind, lambda q=q, a=a: L.xi(q, a),
                            lambda r, q=q, a=a: r == L.xi_bruteforce(q, a)))
        elif kind == "xi_bruteforce":
            q = rng.randint(2, 199)
            a = rng.randrange(q)
            queries.append((kind, lambda q=q, a=a: L.xi_bruteforce(q, a),
                            lambda r, q=q, a=a: r == L.xi(q, a)))
        elif kind == "buchstab_B":
            u = rng.uniform(1.0, 10.0)
            queries.append((kind, lambda u=u: B.buchstab_B(u),
                            lambda r, u=u: 0.0 < r <= 1.0
                            and (u < 3.0 or r <= B.UPPER_PLATEAU + 1e-12)))
        elif kind == "rough_count":
            t = rng.randint(10**5, 10**6)
            z = rng.randint(math.ceil(t**0.1), 1000)
            # 1 and the primes in (z, T] are z-rough; nothing else is once z^2 >= T
            floor = 1 + int(pi[t] - pi[z])
            queries.append((kind, lambda t=t, z=z: B.rough_count(t, z),
                            lambda r, t=t, z=z, f=floor: r.exact == f if z * z >= t
                            else r.exact >= f))
        elif kind == "lambda_plus":
            l = rng.choice(SMALL_PRIMES)
            n = rng.randint(1, math.isqrt(MAJORANT_X - l * l)) ** 2 + l * l
            queries.append((kind, lambda n=n: ev.lambda_plus(n),
                            lambda r, n=n: r >= P.lambda_lambda(n) - 1e-9))
        elif kind == "lattice":
            l1, d1, l2, d2 = (_primitive(rng), rng.choice(SQUAREFREE),
                              _primitive(rng), rng.choice(SQUAREFREE))
            gamma = rng.random()
            queries.append((kind, lambda g=gamma, a=(l1, d1, l2, d2): _lattice_query(g, *a),
                            _lattice_ok))
        elif kind == "min_sum":
            q = rng.randint(1, 1000)
            a = _coprime_residue(rng, q) or q
            J = rng.choice([10, 100, 1000, 10**4])
            K = rng.choice([1.0, 10.0, 100.0, 1000.0])
            # the library's law, with the constant its tests use
            queries.append((kind, lambda a=a, q=q, J=J, K=K: E.min_sum(Fraction(a, q), J, K),
                            lambda r, a=a, q=q, J=J, K=K: r <= 8.0 * E.min_sum_bound(a, q, J, K)))
        elif kind == "classify":
            g = _arc_point(rng, q_bound, radius)
            classify_points.append(g)
            queries.append((kind, lambda g=g: arcs.classify(g),
                            lambda r, g=g: _arc_q(r) == grid_q(g)))
        elif kind == "classify_grid":
            gs = np.array([_arc_point(rng, q_bound, radius) for _ in range(GRID_POINTS)])
            sample = rng.sample(range(GRID_POINTS), 5)
            queries.append((kind, lambda gs=gs: arcs.classify_grid(gs),
                            lambda r, gs=gs, s=sample: len(r) == len(gs) and all(
                                int(r[i]) == _arc_q(arcs.classify(float(gs[i]))) for i in s)))
        elif kind == "type1_sum":
            args = (rng.random(), rng.randint(5, 20), _one, 1, 1, rng.randint(5000, 20000))
            phase = rng.choice(["n", "dn"])
            queries.append((kind, lambda a=args, p=phase: E.type1_sum(*a, phase=p),
                            lambda r, a=args, p=phase:
                            0.0 <= r <= E.type1_sum(0.0, *a[1:], phase=p) * (1 + 1e-9)))
        elif kind == "alpha_plus":
            queries.append((kind, lambda: C.alpha_plus(),
                            lambda r: C.ALPHA_PLUS_FLOOR <= r.value <= C.ALPHA_PLUS_BOUND))
    return {"queries": queries}


def _lattice_query(gamma, l1, d1, l2, d2):
    lat = LM.lattice_new(l1, d1, l2, d2)
    basis = LM.reduced_basis(lat)
    return lat, basis, E.type2_lattice_sum(gamma, lat, lat.delta, 5 * lat.delta, basis)


def _lattice_ok(r) -> bool:
    lat, basis, res = r
    return (res.value == res.value_direct and basis.det == lat.delta
            and 3 * basis.b1.norm() <= 4 * lat.delta)


def analytic_job(state: dict, job: Job) -> None:
    # checks call the library too, so they wait until the timed stream is over
    timed = [job.time(kind, fn, query=True) for kind, fn, _ in state["queries"]]
    for (kind, _, check), (result, raised) in zip(state["queries"], timed):
        job.check(kind, check, result, raised)


WORKLOADS = {
    "ternary": (ternary_setup, ternary_job),
    "density": (density_setup, density_job),
    "analytic": (analytic_setup, analytic_job),
}
