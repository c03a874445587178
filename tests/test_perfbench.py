"""The benchmark's workloads run in process against the package, with no failed check.

``perfbench/workloads.py`` calls the package by name (functions, result
fields, CLI flags), so a change that breaks that interface fails here
instead of in a benchmark run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from fiprimes import primes as P

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


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


# every per-layer name that the worker resolves through the tracer
RESOLVE_LAYERS = """
import json, sys
from spans import COMPUTED, Tracer

spec = json.loads(open(sys.argv[1]).read())
tracer = Tracer()
tracer.install()
for metric in spec["per_layer"]:
    name = metric["name"]
    if name not in COMPUTED and name not in ("primes.cache_file_bytes", "trace.overhead_s"):
        tracer.resolve(name.rsplit(".", 1)[0])
"""


def test_traced_layer_names_resolve():
    # Tracer.install() patches the whole package, so it runs in its own process
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-B", "-c", RESOLVE_LAYERS, str(ROOT / "BENCHMARK.json")],
                          cwd=PERFBENCH, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
