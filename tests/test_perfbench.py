"""The benchmark's workloads run in process against the package, with no failed check.

``perfbench/workloads.py`` calls the package by name (functions, result
fields, CLI flags), so a change that breaks that interface fails here
instead of in a benchmark run.
"""

from pathlib import Path

import pytest

from fiprimes import primes as P

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr("sys.dont_write_bytecode", True)
    import workloads

    yield workloads
    # the density workload leaves its base sieves and prime tables in the lru caches
    P.simple_sieve.cache_clear()
    P.primes_upto.cache_clear()


@pytest.mark.parametrize("name", ["ternary", "density", "analytic"])
def test_workload_runs_without_failures(workloads, name, tmp_path):
    setup, run = workloads.WORKLOADS[name]
    job = workloads.Job(tracer=None)
    run(setup(1, tmp_path), job)
    assert job.attempted > 0
    assert job.failed == 0
