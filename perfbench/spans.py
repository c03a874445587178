"""Out-of-program tracing of the fiprimes layers.

``Tracer.install()`` wraps every public function of every ``fiprimes``
module, and every public method of the classes those modules define.  A
function is rebound at *every* module attribute that holds it, because
``from .primes import primes_upto`` copies the binding into the importing
module and patching only the defining module would miss those callers.

Each wrapped call records a span (name, start, end, parent) in flat arrays.
Self time is a span's duration minus the durations of its direct children.
A generator function gets one span whose duration is the time spent inside
its body, so that time is charged to it and not to the consumer iterating
it.  ``lru_cache`` wrappers also count hits and misses from ``cache_info()``.

Spans are recorded only while ``Tracer.enabled`` is true, so the benchmark's
own correctness checks can call the library without being measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import pkgutil
import time
from array import array
from collections import Counter

import numpy as np

_FFT_FUNCS = ("fft", "ifft", "rfft", "irfft")

# Work counts derived from call arguments and results, not from timing; they
# repeat exactly for a given workload and seed.
COMPUTED = (
    "primes.sieve_bytes",         # limit + 1 per simple_sieve cache miss
    "primes.pairs_visited",       # (k, l) pairs of each fi_weighted_count(x)
    "ternary.fft_length",         # longest FFT inside scan_exceptions
    "ternary.fft_bytes",          # FFT input + output bytes inside scan_exceptions
    "expsum.points_classified",   # points given to classify and classify_grid
    "lattice.points",             # points returned by annulus_lattice_points
)


def prime_flags(limit: int) -> np.ndarray:
    """is_prime[n] for n <= limit: the benchmark's own sieve, for counts and checks."""
    is_p = np.ones(limit + 1, dtype=bool)
    is_p[: min(2, limit + 1)] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_p[p]:
            is_p[p * p :: p] = False
    return is_p


def fi_pairs(x: int) -> int:
    """Number of (k, l), k >= 1, l prime, with k^2 + l^2 <= x."""
    ls = np.flatnonzero(prime_flags(math.isqrt(x - 1))).tolist()
    return sum(math.isqrt(x - l * l) for l in ls)


class Tracer:
    """Span recorder.  Each span keeps two intervals: the inner one around the
    wrapped call, and the outer one that also covers the wrapper's own
    bookkeeping.  A parent's self time subtracts its children's outer
    durations, so the cost of tracing a child is charged to neither."""

    def __init__(self) -> None:
        self.enabled = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of_span = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("d")
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self._after = {
            "primes.simple_sieve": self._after_simple_sieve,
            "primes.fi_weighted_count": self._after_fi_weighted_count,
            "expsum.ArcDecomposition.classify": self._after_classify,
            "expsum.ArcDecomposition.classify_grid": self._after_classify_grid,
            "lattice.annulus_lattice_points": self._after_annulus_lattice_points,
        }

    # -- span recording ------------------------------------------------------

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_of_span.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.outer.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _on_stack(self, name: str) -> bool:
        i = self._ids.get(name)
        return i is not None and any(self.name_of_span[s] == i for s in self._stack)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name: str):
        name_id = self._id(name)
        tracer = self
        after = self._after.get(name)
        cache_info = getattr(fn, "cache_info", None)
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            # one span per generator; only the time inside its body counts
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if not tracer.enabled:
                    yield from fn(*args, **kwargs)
                    return
                t_in = clock()
                it = fn(*args, **kwargs)
                idx = tracer._open(name_id)
                tracer._stack.pop()
                busy = 0.0
                try:
                    while True:
                        tracer._stack.append(idx)
                        t0 = clock()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            busy += clock() - t0
                            tracer._stack.pop()
                        yield item
                finally:
                    tracer.end[idx] = tracer.start[idx] + busy
                    tracer.outer[idx] = busy + (tracer.start[idx] - t_in)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            t_in = clock()
            misses = cache_info().misses if cache_info else 0
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                tracer._stack.pop()
            missed = False
            if cache_info:
                missed = cache_info().misses > misses
                tracer.counters[name + (".misses" if missed else ".hits")] += 1
            if after is not None:
                after(args, kwargs, result, missed)
            tracer.outer[idx] = clock() - t_in
            return result

        return wrapper

    def _wrap_fft(self, fn, real_input: bool, real_output: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, n=None, *args, **kwargs):
            if tracer.enabled and tracer._on_stack("ternary.scan_exceptions"):
                length = n if n is not None else (
                    2 * (len(a) - 1) if real_output else len(a))
                half = length // 2 + 1
                in_bytes = length * 8 if real_input else (half if real_output else length) * 16
                out_bytes = length * 8 if real_output else (half if real_input else length) * 16
                tracer.counters["ternary.fft_length"] = max(
                    tracer.counters["ternary.fft_length"], length)
                tracer.counters["ternary.fft_bytes"] += in_bytes + out_bytes
            return fn(a, n, *args, **kwargs)

        return wrapper

    def install(self, package: str = "fiprimes") -> None:
        """Wrap every public function and method of ``package``'s modules."""
        pkg = importlib.import_module(package)
        modules = [importlib.import_module(f"{package}.{m.name}")
                   for m in pkgutil.iter_modules(pkg.__path__)]
        replacement: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and (
                                inspect.isfunction(fn) or hasattr(fn, "cache_info")):
                            setattr(obj, meth, self._wrap(fn, f"{short}.{obj.__name__}.{meth}"))
                elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    replacement[id(obj)] = self._wrap(obj, f"{short}.{attr}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replacement:
                    setattr(mod, attr, replacement[id(obj)])
        for fname in _FFT_FUNCS:
            fn = getattr(np.fft, fname)
            setattr(np.fft, fname, self._wrap_fft(
                fn, real_input=fname == "rfft", real_output=fname == "irfft"))

    # -- computed work counts --------------------------------------------------

    def _after_simple_sieve(self, args, kwargs, result, missed) -> None:
        if missed:
            self.counters["primes.sieve_bytes"] += len(result)

    def _after_fi_weighted_count(self, args, kwargs, result, missed) -> None:
        self.counters["primes.pairs_visited"] += fi_pairs(args[0] if args else kwargs["x"])

    def _after_classify(self, args, kwargs, result, missed) -> None:
        self.counters["expsum.points_classified"] += 1

    def _after_classify_grid(self, args, kwargs, result, missed) -> None:
        self.counters["expsum.points_classified"] += len(result)

    def _after_annulus_lattice_points(self, args, kwargs, result, missed) -> None:
        self.counters["lattice.points"] += len(result.points)

    # -- aggregation -----------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """Per-span arrays: name id, start, duration and self time.

        ``dur`` is the inner duration less the tracing cost of every
        descendant; ``self`` is the inner duration less the children's outer
        durations.
        """
        start = np.array(self.start, dtype=np.float64)
        inner = np.array(self.end, dtype=np.float64) - start
        outer = np.array(self.outer, dtype=np.float64)
        parent = np.array(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=outer[has_parent], minlength=len(start))
        # children open after their parents, so one reverse pass sums subtrees
        cost = (outer - inner).tolist()
        below = [0.0] * len(cost)
        for i in range(len(cost) - 1, -1, -1):
            p = self.parent[i]
            if p >= 0:
                below[p] += below[i] + cost[i]
        return {"name": np.array(self.name_of_span, dtype=np.int64), "start": start,
                "dur": inner - np.array(below), "self": inner - child}

    def summary(self) -> dict[str, list]:
        """Calls, self seconds, cache hits and cache misses per called function."""
        sp = self.spans()
        calls = np.bincount(sp["name"], minlength=len(self.names))
        self_s = np.bincount(sp["name"], weights=sp["self"], minlength=len(self.names))
        return {name: [int(calls[i]), float(self_s[i]), self.counters[name + ".hits"],
                       self.counters[name + ".misses"]]
                for i, name in enumerate(self.names) if calls[i]}

    def resolve(self, base: str) -> str:
        """Span name for ``module.func``: the function or a unique method."""
        if base in self._ids:
            return base
        mod, func = base.split(".", 1)
        hits = [n for n in self._ids
                if n.startswith(mod + ".") and n.endswith("." + func) and n.count(".") == 2]
        if len(hits) != 1:
            raise KeyError(f"no unique traced function for {base!r}: {hits}")
        return hits[0]
