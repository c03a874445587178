"""One benchmark job in a fresh process.

Prints ``ready`` once its set-up (imports, input generation, warm-up) is
done, then runs the job and prints one JSON line with the time of each
operation, peak RSS, operation tallies and query latencies, and, when traced, the
per-layer metrics named by ``--layers``.  Started by ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def layer_metrics(names: list[str], tracer, job) -> dict[str, float]:
    import numpy as np

    from spans import COMPUTED

    sp = tracer.spans()
    out: dict[str, float] = {}
    for name in names:
        if name in COMPUTED:
            out[name] = tracer.counters[name]
            continue
        if name == "primes.cache_file_bytes":
            out[name] = job.cache_bytes
            continue
        base, stat = name.rsplit(".", 1)
        span = tracer.resolve(base)
        if stat == "misses":
            out[name] = tracer.counters[span + ".misses"]
            continue
        sel = sp["name"] == tracer.names.index(span)
        if stat in ("miss_s", "hit_s"):
            # the job labels the operations that must miss or hit the cache
            starts = sp["start"][sel]
            inside = np.zeros(len(starts), dtype=bool)
            for label, t0, t1 in job.phases:
                if label == "cache-" + stat.removesuffix("_s"):
                    inside |= (starts >= t0) & (starts <= t1)
            out[name] = float(sp["dur"][sel][inside].sum())
        elif stat == "self_s":
            out[name] = float(sp["self"][sel].sum())
        else:
            q, unit = stat[1:].split("_")
            durs = sp["dur"][sel]
            scale = {"ms": 1e3, "us": 1e6}[unit]
            out[name] = float(np.percentile(durs, float(q))) * scale if len(durs) else 0.0
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--layers", default="")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import fiprimes

    if Path(fiprimes.__file__).resolve().parent != SRC / "fiprimes":
        raise SystemExit(f"fiprimes imported from {fiprimes.__file__}, not from {SRC}")
    from spans import Tracer
    from workloads import WORKLOADS, Job

    setup, run_job = WORKLOADS[args.workload]
    state = setup(args.seed, args.tmp)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    print("ready", flush=True)

    job = Job(tracer)
    run_job(state, job)
    result = {
        "op_s": job.op_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": job.attempted,
        "failed": job.failed,
        "latencies_ms": job.latencies_ms,
    }
    if tracer is not None:
        result["layers"] = layer_metrics([n for n in args.layers.split(",") if n], tracer, job)
        result["summary"] = tracer.summary()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
