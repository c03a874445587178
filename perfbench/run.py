"""The fiprimes benchmark: end-to-end and per-layer numbers from one command.

Run from the repository root:

    python3 perfbench/run.py --workload ternary --seed 1 --seconds 30 --trace 0

Workloads are ``ternary``, ``density`` and ``analytic`` (see
``workloads.py``; ``BENCHMARK.json`` says why each was chosen).  A run
starts one job after another, each in a fresh worker process, single
client, until the next job would overrun ``--seconds``.  A fresh process per
job is what every ``fi`` invocation pays: imports, sieves, lazy tables.
Every operation is checked, and a failed check counts in ``failed``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.  All
jobs of a run make the same operations, so each operation's time is the
median over the jobs; ``wall_s`` sums those medians and the call
percentiles are taken over them.  ``--trace 1`` alternates untraced and
traced jobs and reports the per-layer metrics, measured from outside by
``spans.py``, with ``trace.overhead_s``, the traced minus the untraced job
time.

The seed fixes all generated inputs.  Seeds 1-10 are the development set;
claims are to be confirmed on a held-out seed, for example 20261017, which
the benchmark accepts like any other integer.

All caches and outputs go to a fresh temporary directory ``.perfbench-*``
at the root (the benchmark writes nothing outside its checkout), which is
removed at the end of the run.  The last line of stdout is the result JSON;
the lines before it list every metric with its unit and the run's provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from spans import COMPUTED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKER_TIMEOUT_S = 150


def run_worker(workload: str, seed: int, trace: int, layers: list[str], tmp: Path) -> dict:
    """One job in a fresh process; its set-up time is measured from spawn to ``ready``."""
    tmp.mkdir()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--tmp", str(tmp), "--trace", str(trace),
           "--layers", ",".join(layers)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            env={**os.environ, **THREAD_ENV})
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        lines = proc.stdout.read().splitlines()
        rc = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or rc != 0 or not lines:
        raise RuntimeError(f"{workload} worker failed with exit code {rc}")
    result = json.loads(lines[-1])
    result["setup_s"] = setup_s
    return result


def per_op_median(jobs: list[dict], key: str) -> np.ndarray:
    """Median over jobs of each operation's time.

    Every job of a run makes the same operations in the same order, so each
    operation gets the median of its times over the jobs.  A neighbour on the
    machine that slows a few seconds of one job then barely moves the result.
    """
    return np.median(np.array([j[key] for j in jobs]), axis=0)


def end_to_end(jobs: list[dict]) -> dict[str, float]:
    """Job time is the sum of per-operation medians; call percentiles are
    taken over the per-call medians."""
    per_call = per_op_median(jobs, "latencies_ms")
    return {
        "wall_s": float(per_op_median(jobs, "op_s").sum()),
        "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in jobs),
        "setup_s": statistics.median(j["setup_s"] for j in jobs),
        "call_p50_ms": float(np.percentile(per_call, 50)),
        "call_p99_ms": float(np.percentile(per_call, 99)),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    """Medians over the traced jobs; counts stay integers."""
    out = {}
    for name in traced[0]["layers"]:
        values = [j["layers"][name] for j in traced]
        ints = all(isinstance(v, int) for v in values)
        out[name] = (statistics.median_low if ints else statistics.median)(values)
    out["trace.overhead_s"] = float(per_op_median(traced, "op_s").sum()
                                    - per_op_median(plain, "op_s").sum())
    return out


def provenance(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "thread_env": THREAD_ENV,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "fiprimes" / "__init__.py").is_file():
        print(f"no fiprimes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    layers = [m["name"] for m in spec["per_layer"] if m["name"] != "trace.overhead_s"]

    modes = [0, 1] if args.trace else [0]
    jobs: dict[int, list[dict]] = {0: [], 1: []}
    deadline = time.perf_counter() + args.seconds
    round_s = 0.0
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        while not jobs[0] or time.perf_counter() + round_s <= deadline:
            t0 = time.perf_counter()
            for mode in modes:
                jobs[mode].append(run_worker(args.workload, args.seed, mode, layers,
                                             Path(tmp) / f"job-{len(jobs[0])}-{mode}"))
            round_s = max(round_s, time.perf_counter() - t0)

    every = jobs[0] + jobs[1]
    attempted = sum(j["attempted"] for j in every)
    failed = sum(j["failed"] for j in every)
    values = end_to_end(jobs[0])
    if args.trace:
        values.update(per_layer(jobs[0], jobs[1]))
    calls = len(jobs[0][0]["latencies_ms"])
    print(f"{args.workload}: {len(jobs[0])} untraced and {len(jobs[1])} traced jobs; "
          f"call percentiles over {calls} calls ({calls / 100:g} beyond p99), "
          f"each the median of {len(jobs[0])} jobs; "
          f"failed_fraction {failed / attempted}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in values.items():
        tag = "  (computed)" if name in COMPUTED else ""
        print(f"  {name:40s} {value!r} {units[name]}{tag}")
    if jobs[1]:
        print("  first traced job: function, calls, self_s, cache hits, cache misses")
        for name, row in sorted(jobs[1][0]["summary"].items(), key=lambda kv: -kv[1][1]):
            print(f"    {name:45s} {row[0]:8d} {row[1]:10.4f} {row[2]:6d} {row[3]:6d}")
    print("provenance " + json.dumps(provenance(args)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
