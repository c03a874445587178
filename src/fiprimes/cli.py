"""Command-line entry point ``fi``.

Commands: enumerate, xi, buchstab, rough, sieve, constants, lattice,
expsum (s0|type1|type2|minsum|dfi), verify-ternary, 3ap, lq.

Output goes to stdout (text by default, --json/--csv where applicable;
JSON carries "schema": "fi/1").  Diagnostics go to stderr.  Exit codes:
0 success, 1 validation error, 2 assertion failure (a certified band was
violated).  ``enumerate`` and ``verify-ternary`` cache the FI-prime table in
--cache-dir, or in FI_CACHE_DIR when the flag is not given.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import re
import sys
import time
from collections.abc import Iterable
from fractions import Fraction

import numpy as np

from .constants import DELTA0, XI, XI1

SCHEMA = "fi/1"


def _emit(payload: dict, as_json: bool, text_lines: list[str]) -> None:
    if as_json:
        print(json.dumps({"schema": SCHEMA, **payload}))
    else:
        for line in text_lines:
            print(line)


def _write_lines(lines: Iterable[str]) -> None:
    """Write non-empty lines to stdout, joined 1024 at a time: as fast as one
    join, with memory bounded by a batch of tens of KB."""
    it = iter(lines)
    while batch := "".join(itertools.islice(it, 1 << 10)):
        sys.stdout.write(batch)


_INT_CHUNK = 1 << 16
# the least value of each digit count from 2 to 19 (int64 tops out at 19 digits)
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)
# entry r holds the four ASCII digits of r, "0000" to "9999", as one 4-byte
# cell: the points of the 10^4 grid of digits, first digit slowest, as bytes
# (uint8 throughout: about 0.1 MB of RSS at import, where int64 arithmetic
# on r took 1.4 MB)
_DIGIT_QUADS = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"),
                        axis=-1).view(np.uint32).ravel()


def _write_ints(a: np.ndarray, sep: str) -> None:
    """Write ``sep.join(map(str, a))`` to stdout without a Python int per entry.

    ``a`` is a non-negative, non-decreasing int64 array.  It is formatted
    2^16 entries at a time.  Sorted entries with the same number of digits d
    are a contiguous run of the chunk (``np.searchsorted`` on the powers of
    ten), and each run fills a byte matrix with one row per entry: the
    separator, then the digits, four at a time from the right by
    ``q = v // 10000`` and the "0000".."9999" table at v - 10000 q.  The
    last cell, of the leading 1 to 4 digits, spills leading zeros to its
    left, which the separator then overwrites or which fall in the cut-off
    pad.  The leading digit of a d-digit number is never 0, so each row
    reads exactly ``sep + str(v)``, and the output is the join that
    ``json.dumps`` (with sep ", ") and the text and CSV lines (with sep
    "\\n") printed; the first entry's separator is dropped.  Memory is
    bounded by the chunk, not by ``a``: its rows (at most len(sep) + 22
    bytes each) and their copies as bytes and str, and three int64
    temporaries, under 10 MB in all.

    A chunk that descends, does not continue the previous chunk in order,
    or starts below 0 raises ``ValueError``, so an unsorted or negative
    entry fails loudly instead of printing a wrong digit count.
    """
    head = np.frombuffer(sep.encode("ascii"), dtype=np.uint8)
    last = 0
    for start in range(0, len(a), _INT_CHUNK):
        c = a[start:start + _INT_CHUNK]
        if c[0] < last or np.any(c[1:] < c[:-1]):
            raise ValueError("_write_ints needs a non-negative, non-decreasing array")
        last = c[-1]
        edges = [0, *np.searchsorted(c, _POW10).tolist(), len(c)]
        parts = []
        for d, (lo, hi) in enumerate(itertools.pairwise(edges), start=1):
            if lo == hi:
                continue
            # a row width of a multiple of 4, so that the digit quads,
            # written from the right end, are aligned 4-byte cells; the pad
            # bytes in front are cut off
            w = len(head) + d
            m = np.empty((hi - lo, w + -w % 4), dtype=np.uint8)
            cells = m.view(np.uint32)
            v = c[lo:hi]
            for j in range(1, -(-d // 4) + 1):
                q = v // 10000
                cells[:, -j] = _DIGIT_QUADS[v - 10000 * q]
                v = q
            row = m[:, -w % 4:]
            row[:, :len(head)] = head
            parts.append(row.tobytes())
        text = b"".join(parts).decode("ascii")
        sys.stdout.write(text[len(head):] if start == 0 else text)


def _int_arg(s: str) -> int:
    """An integer flag value: an integer literal, or an integer times a power
    of ten written as 1e7.  Non-integral forms (1.5e3, 1e-3, nan, inf) are
    refused, and argparse then exits 2."""
    try:
        return int(s)
    except ValueError:
        pass
    m = re.fullmatch(r"\s*([+-]?\d+)[eE]\+?(\d{1,2})\s*", s)
    if m is None:
        raise argparse.ArgumentTypeError(f"expected an integer such as 100000 or 1e5, got {s!r}")
    return int(m[1]) * 10 ** int(m[2])


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="machine-readable output")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fi", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list FI primes up to a limit (cached)")
    p.add_argument("--limit", type=_int_arg, required=True)
    p.add_argument("--csv", action="store_true", help="CSV rows: p")
    p.add_argument("--cache-dir", default=None, help="cache directory (default: FI_CACHE_DIR env)")
    _add_common(p)

    p = sub.add_parser("xi", help="local density Xi(q, a), exact rational")
    p.add_argument("--q", type=_int_arg, required=True)
    p.add_argument("--a", type=_int_arg, required=True)
    p.add_argument("--brute-force", action="store_true")
    _add_common(p)

    p = sub.add_parser("buchstab", help="Buchstab B(u)")
    p.add_argument("--u", type=float, required=True)
    _add_common(p)

    p = sub.add_parser("rough", help="z-rough count <= limit: exact vs predicted")
    p.add_argument("--limit", type=_int_arg, required=True)
    p.add_argument("--z", type=float, required=True)
    _add_common(p)

    p = sub.add_parser("sieve", help="composed sieve and majorant at n")
    p.add_argument("--x", type=_int_arg, required=True)
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--sign", choices=["+", "-"], default="+")
    _add_common(p)

    p = sub.add_parser("constants", help="the three density integrals and alpha_plus")
    p.add_argument("--xi", type=float, default=XI)
    p.add_argument("--xi1", type=float, default=XI1)
    p.add_argument("--delta0", type=float, default=DELTA0)
    _add_common(p)

    p = sub.add_parser("lattice", help="star lattice: discriminant, basis, counts")
    p.add_argument("--l1", required=True, help="a,b for l1 = a + b i")
    p.add_argument("--d1", type=_int_arg, required=True)
    p.add_argument("--l2", required=True, help="c,d for l2 = c + d i")
    p.add_argument("--d2", type=_int_arg, required=True)
    p.add_argument("--annulus", default=None, help="M,M_hi window to count")
    _add_common(p)

    p = sub.add_parser("expsum", help="exponential-sum kernels")
    p.add_argument("kind", choices=["s0", "type1", "type2", "minsum", "dfi"])
    p.add_argument("--gamma", type=str, default="0", help="frequency, float or a/q")
    p.add_argument("--N", type=_int_arg, default=1000)
    p.add_argument("--x", type=_int_arg, default=10**5)
    p.add_argument("--D-I", dest="d_i", type=_int_arg, default=None,
                   help="Type I level (default 10 for type1, 50 for dfi, which needs z < D_I)")
    p.add_argument("--W", type=_int_arg, default=1)
    p.add_argument("--b", type=_int_arg, default=1)
    p.add_argument("--phase", choices=["n", "dn"], default="n")
    p.add_argument("--J", type=_int_arg, default=100)
    p.add_argument("--K", type=float, default=100.0)
    p.add_argument("--multiplier", type=_int_arg, default=1)
    p.add_argument("--z", type=float, default=11.0)
    p.add_argument("--U1", type=float, default=3.0)
    p.add_argument("--U2", type=float, default=5.0)
    p.add_argument("--bands", type=_int_arg, default=3)
    _add_common(p)

    p = sub.add_parser("verify-ternary", help="scan x = 3 (4) for three-FI-prime sums")
    p.add_argument("--limit", type=_int_arg, required=True)
    p.add_argument("--exceptions-only", action="store_true")
    p.add_argument("--csv", action="store_true", help="CSV rows: x,p1,p2,p3|status")
    p.add_argument("--cache-dir", default=None, help="cache directory (default: FI_CACHE_DIR env)")
    _add_common(p)

    p = sub.add_parser("3ap", help="three-term APs in the FI primes")
    p.add_argument("--limit", type=_int_arg, required=True)
    p.add_argument("--csv", action="store_true", help="CSV rows: p,mid,third")
    _add_common(p)

    p = sub.add_parser("lq", help="L^q moment of the W-tricked exponential sum")
    p.add_argument("--x", type=_int_arg, required=True)
    p.add_argument("--q", type=float, default=2.5)
    p.add_argument("--b", type=_int_arg, default=1)
    p.add_argument("--w-override", type=float, default=None)
    p.add_argument("--grid", type=_int_arg, default=None)
    _add_common(p)

    return ap


def _parse_gauss(s: str):
    from .gaussian import GaussianInt

    parts = s.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'a,b', got {s!r}")
    return GaussianInt(int(parts[0]), int(parts[1]))


def _parse_gamma(s: str) -> float | Fraction:
    """--gamma as a float, or as an exact a/q; either must be finite."""
    try:
        gamma = Fraction(s) if "/" in s else float(s)
        if math.isfinite(gamma):
            return gamma
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    raise ValueError(f"--gamma must be a finite float or a/q with q != 0, got {s!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    cmd = args.command

    if cmd == "enumerate":
        from .primes import fi_primes_upto

        if args.limit < 0:
            raise ValueError(f"--limit must be >= 0, got {args.limit}")
        fi = fi_primes_upto(args.limit, cache_dir=args.cache_dir)
        if args.json:
            head = json.dumps({"schema": SCHEMA, "limit": args.limit, "count": len(fi), "primes": []})
            sys.stdout.write(head[:-2])
            _write_ints(fi, ", ")
            sys.stdout.write("]}\n")
        else:
            sys.stdout.write("p\n" if args.csv else "")
            _write_ints(fi, "\n")
            sys.stdout.write(("\n" if len(fi) else "") + ("" if args.csv else f"# count: {len(fi)}\n"))
        return 0

    if cmd == "xi":
        from .local import xi, xi_bruteforce

        val = xi_bruteforce(args.q, args.a) if args.brute_force else xi(args.q, args.a)
        _emit(
            {"q": args.q, "a": args.a, "xi": str(val), "xi_float": float(val)},
            args.json,
            [f"{val}" if val.denominator > 1 else f"{val.numerator}",
             f"# = {float(val):.12g}"],
        )
        return 0

    if cmd == "buchstab":
        from .buchstab import buchstab_B

        v = buchstab_B(args.u)
        _emit({"u": args.u, "B": v}, args.json, [f"{v:.12g}"])
        return 0

    if cmd == "rough":
        from .buchstab import rough_count

        if not 2 <= args.z <= args.limit:
            raise ValueError(f"need 2 <= --z <= --limit, got --z {args.z} and --limit {args.limit}")
        rc = rough_count(args.limit, args.z)
        ratio = rc.exact / rc.predicted if rc.predicted else float("nan")
        _emit(
            {"limit": args.limit, "z": args.z, "exact": rc.exact,
             "predicted": rc.predicted, "ratio": ratio, "reliable": rc.reliable},
            args.json,
            [f"exact     {rc.exact}",
             f"predicted {rc.predicted:.3f}",
             f"ratio     {ratio:.6f}" + ("" if rc.reliable else "  (prediction unreliable: z < T^0.1)")],
        )
        return 0

    if cmd == "sieve":
        from .sieve import MajorantEvaluator, MajorantParams, composed_theta

        params = MajorantParams(x=args.x)
        sign = +1 if args.sign == "+" else -1
        theta = composed_theta(args.n, params, sign)
        ev = MajorantEvaluator(params)
        lp = ev.lambda_plus(args.n) if args.n <= args.x else None
        payload = {"x": args.x, "n": args.n, "sign": args.sign, "theta": theta}
        lines = [f"theta{args.sign}({args.n}) = {theta}"]
        if args.n * args.n <= args.x:
            w1, w2, w3, _ = ev.weights_with_error(args.n)
            payload.update({"w1": w1, "w2": w2, "w3": w3})
            lines.append(f"w1 = {w1:.6g}  w2 = {w2:.6g}  w3 = {w3:.6g}")
        if lp is not None:
            payload["lambda_plus"] = lp
            lines.append(f"lambda_plus = {lp:.6g}")
        _emit(payload, args.json, lines)
        return 0

    if cmd == "constants":
        from .constants import ALPHA_PLUS_BOUND, alpha_plus

        for flag in ("xi", "xi1", "delta0"):
            if not math.isfinite(getattr(args, flag)):
                raise ValueError(f"--{flag} must be finite, got {getattr(args, flag)}")
        res = alpha_plus(xi1=args.xi1, xi=args.xi, delta0=args.delta0)
        payload = {
            "c1": res.c1.value, "c2": res.c2.value, "c3": res.c3.value,
            "alpha_plus": res.value, "bound": ALPHA_PLUS_BOUND,
            "c3_grid": res.c3.grid,
        }
        _emit(payload, args.json, [
            f"c1         {res.c1.value:.10f}",
            f"c2         {res.c2.value:.10f}",
            f"c3         {res.c3.value:.10f}  (grid {res.c3.grid})",
            f"alpha_plus {res.value:.10f}  < {ALPHA_PLUS_BOUND}",
        ])
        return 0

    if cmd == "lattice":
        from .lattice import annulus_lattice_points, lattice_new, reduced_basis

        lat = lattice_new(_parse_gauss(args.l1), args.d1, _parse_gauss(args.l2), args.d2)
        basis = reduced_basis(lat)
        payload = {
            "delta": lat.delta,
            "b1": [basis.b1.re, basis.b1.im],
            "b2": [basis.b2.re, basis.b2.im],
        }
        lines = [f"delta = {lat.delta}",
                 f"b1 = ({basis.b1.re}, {basis.b1.im})  |b1|^2 = {basis.b1.norm()}",
                 f"b2 = ({basis.b2.re}, {basis.b2.im})  |b2|^2 = {basis.b2.norm()}"]
        if args.annulus:
            m_lo, m_hi = (int(t) for t in args.annulus.split(","))
            pts = annulus_lattice_points(lat, basis, m_lo, m_hi)
            payload["annulus"] = [m_lo, m_hi]
            payload["count"] = len(pts.points)
            lines.append(f"points in ({m_lo}, {m_hi}]: {len(pts.points)}")
        _emit(payload, args.json, lines)
        return 0

    if cmd == "expsum":
        return _dispatch_expsum(args)

    if cmd == "verify-ternary":
        from .ternary import scan_exceptions, smallest_witnesses

        if args.limit < 3:
            raise ValueError(f"--limit must be >= 3, got {args.limit}")
        if args.exceptions_only:
            exceptions = scan_exceptions(args.limit, args.cache_dir).tolist()
            rows = [(x, 0, 0) for x in exceptions]
        else:
            p1, p2 = smallest_witnesses(args.limit, args.cache_dir)
            exceptions = (4 * np.flatnonzero(p1 == 0) + 3).tolist()
            rows = itertools.chain.from_iterable(  # a chunk of Python ints at a time
                zip(range(4 * lo + 3, args.limit + 1, 4), p1[lo:lo + _INT_CHUNK].tolist(),
                    p2[lo:lo + _INT_CHUNK].tolist()) for lo in range(0, len(p1), _INT_CHUNK))
        # p1 = 0 marks an exception; p3 = x - p1 - p2
        if args.csv:
            print("x,p1,p2,p3")
            _write_lines(f"{x},{a},{b},{x - a - b}\n" if a else f"{x},,,exception\n"
                         for x, a, b in rows)
        elif args.json:
            # the rows are streamed, formatted as json.dumps formats them
            head = json.dumps({"schema": SCHEMA, "limit": args.limit, "exceptions": exceptions})
            body = (f'{{"x": {x}, "p1": {a}, "p2": {b}, "p3": {x - a - b}}}' if a
                    else f'{{"x": {x}, "status": "exception"}}' for x, a, b in rows)
            sys.stdout.write(f'{head[:-1]}, "rows": [{next(body, "")}')
            _write_lines(", " + row for row in body)
            print("]}")
        else:
            _write_lines(f"{x} = {a} + {b} + {x - a - b}\n" if a else f"{x}: exception\n"
                         for x, a, b in rows)
            print(f"# exceptions <= {args.limit}: {exceptions}")
        return 0

    if cmd == "3ap":
        from .ternary import find_3aps

        if args.limit < 5:
            raise ValueError(f"--limit must be >= 5, got {args.limit}")
        aps = find_3aps(args.limit)
        if args.csv:
            print("p,mid,third")
            _write_lines(f"{a},{b},{c}\n" for a, b, c in aps)
        elif args.json:
            # streamed, formatted as json.dumps formats them
            head = json.dumps({"schema": SCHEMA, "limit": args.limit, "count": len(aps), "aps": []})
            sys.stdout.write(head[:-2])
            _write_lines(f"{', ' if i else ''}[{a}, {b}, {c}]" for i, (a, b, c) in enumerate(aps))
            print("]}")
        else:
            _write_lines(f"({a}, {b}, {c})\n" for a, b, c in aps)
            print(f"# count: {len(aps)}")
        return 0

    if cmd == "lq":
        from .ternary import check_lq_grid, lq_moment, w_from_threshold, wtrick_build

        if args.x < 2:
            raise ValueError(f"--x must be >= 2, got {args.x}")
        w = args.w_override
        # w >= x would make W > x; checked first, as W's primes run to w
        if w is not None and not (math.isfinite(w) and w < args.x):
            raise ValueError(f"--w-override must be finite and below --x, got {w}")
        N = args.x // w_from_threshold(args.x, w)[1]
        if N < 1:
            raise ValueError(f"--w-override {w} makes W larger than --x {args.x}")
        grid = 4 * N if args.grid is None else args.grid
        if grid < 4 * N:
            raise ValueError(f"--grid must be >= 4 N = {4 * N}, got {grid}")
        # the grid's bytes are known from W alone, so check them before the build
        check_lq_grid(grid)
        seq = wtrick_build(args.x, args.b, w_override=w)
        ratio = lq_moment(seq, args.q, grid)
        _emit({"x": args.x, "q": args.q, "W": seq.W, "b": seq.b, "N": seq.N,
               "grid": grid, "moment_ratio": ratio, "mean": seq.mean},
              args.json,
              [f"W = {seq.W}  N = {seq.N}  mean = {seq.mean:.6f}",
               f"moment ratio (q={args.q}) = {ratio:.6f}"])
        return 0

    raise ValueError(f"unknown command {cmd!r}")


def _dispatch_expsum(args) -> int:
    from . import expsum as E

    gamma = _parse_gamma(args.gamma)
    d_i = args.d_i if args.d_i is not None else (50 if args.kind == "dfi" else 10)
    payload: dict
    if args.kind == "s0":
        v = E.s0(float(gamma), args.N)
        payload = {"value_re": v.real, "value_im": v.imag,
                   "bound": min(args.N, 1.0 / max(2.0 * E.fractional_distance(float(gamma)), 1e-300)),
                   "ratio": None}
        lines = [f"S0 = {v.real:.6f} + {v.imag:.6f} i"]
    elif args.kind == "type1":
        v = E.type1_sum(float(gamma), d_i, lambda l: 1.0, args.W, args.b,
                        args.x, phase=args.phase)
        payload = {"value_re": v, "value_im": 0.0, "bound": None, "ratio": None}
        lines = [f"R(D_I={d_i}) = {v:.6f}"]
    elif args.kind == "minsum":
        v = E.min_sum(gamma, args.J, args.K, args.multiplier)
        if isinstance(gamma, Fraction):
            bound = E.min_sum_bound(gamma.numerator, gamma.denominator, args.J, args.K)
        else:
            bound = None
        payload = {"value_re": v, "value_im": 0.0, "bound": bound,
                   "ratio": (v / bound) if bound else None}
        lines = [f"min-sum = {v:.6f}" + (f"  classical bound = {bound:.6f}" if bound else "")]
    elif args.kind == "type2":
        from .gaussian import GaussianInt
        from .lattice import lattice_new

        lat = lattice_new(GaussianInt(1, 1), 2, GaussianInt(1, 3), 2)
        t0 = time.perf_counter()
        v = E.type2_lattice_sum(float(gamma), lat, args.N, 2 * args.N).value
        t1 = time.perf_counter()
        direct = E.type2_lattice_sum_bruteforce(float(gamma), lat, args.N, 2 * args.N)
        t2 = time.perf_counter()
        if v != direct:
            raise AssertionError(f"basis walk {v} disagrees with the direct filter {direct}")
        payload = {"value_re": v.real, "value_im": v.imag, "bound": None, "ratio": None}
        lines = [f"lattice sum = {v.real:.6f} + {v.imag:.6f} i "
                 f"(basis {(t1 - t0) * 1e3:.2f} ms, direct {(t2 - t1) * 1e3:.2f} ms)"]
    elif args.kind == "dfi":
        c = np.zeros(args.x + 1, dtype=np.complex128)
        c[1:] = 1.0
        parts = E.dfi_decompose(c, args.z, args.U1, args.U2, d_i, args.bands)
        payload = {"value_re": parts.total.real, "value_im": parts.total.imag,
                   "bound": parts.residual_bound,
                   "ratio": abs(parts.residual) / parts.residual_bound if parts.residual_bound else None}
        lines = [f"S = {parts.total.real:.3f}  typeI = {parts.type1_part.real:.3f}  "
                 f"tail = {parts.sieved_tail.real:.3f}",
                 f"residual = {abs(parts.residual):.3f} <= bound {parts.residual_bound:.3f}"]
    else:
        raise ValueError(f"unknown expsum kind {args.kind!r}")
    _emit(payload, args.json, lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
