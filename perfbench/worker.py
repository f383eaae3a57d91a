"""One workload in a fresh interpreter: set up, warm up, time, check, and
report per-op latencies.

    python3 perfbench/worker.py --setup-only --workload W --seed N
    python3 perfbench/worker.py --workload W --seed N --seconds S [--trace 1]

Run by `run.py` from the root of a checkout, with PYTHONPATH pointing at its
`src` and BLAS pinned to one thread.  The last stdout line is one JSON
object.  A traced run writes its spans to .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads

WARMUP_S = 1.0
MIN_OPS = 120  # so that at least ten samples lie beyond the 90th percentile
WARMUP_BASE = 10_000_000  # warm-up ops use their own indices, not the timed ones


def kernel_python() -> float:
    """Time a fixed piece of pure-Python work: Fractions, tuples, a dict."""
    t0 = time.perf_counter()
    acc, seen = Fraction(0), {}
    for i in range(1, 200):
        acc += Fraction(i, i + 1)
        seen[(i, i & 7)] = acc
    return time.perf_counter() - t0


_ARRAYS = []


def kernel_numpy() -> float:
    """Time fixed numpy work: a cache-resident roll and a 4 MB strided pass."""
    import numpy as np  # already loaded by the engine; never before set-up
    if not _ARRAYS:
        _ARRAYS.extend((np.exp(1j * np.arange(16384.0)), np.exp(1j * np.arange(float(1 << 19)))))
    small, big = _ARRAYS
    t0 = time.perf_counter()
    float(np.abs(np.roll(small, 5) - small).max())
    float(np.abs(big[::2] - big[1::2]).max())
    return time.perf_counter() - t0


# kernel -> its time at the reference host speed
KERNELS = {"python": (kernel_python, 0.55e-3), "numpy": (kernel_numpy, 1.0e-3)}


def timed_setup(name: str, seed: int):
    """Import the engine and do the workload's program-side preparation.

    Returns the time scaled to the reference host speed (kernel samples just
    before and after), the raw time, the package and the workload.
    """
    kernel, nominal = KERNELS["python"]
    before = min(kernel() for _ in range(3))
    t0 = time.perf_counter()
    import q2algebra
    workload = workloads.CLASSES[name](q2algebra, seed)
    raw = time.perf_counter() - t0
    after = min(kernel() for _ in range(3))
    return raw * 2 * nominal / (before + after), raw, q2algebra, workload


def run_op(workload, i, tracer=None, corrupt=None):
    """Build op i (untimed), time its engine call, then check the result.

    Returns (latency_s, ok, info, root span id or None).  A raised exception
    or a failed check makes the op fail; the check runs outside the timing.
    """
    op = workload.op(i)
    gc.collect()  # so that collections inside the op depend on its own allocations only
    root = None
    if tracer is not None:
        root = tracer.begin(tracer.name_id("op." + op.kind))
    t0 = time.perf_counter()
    try:
        result, error = op.run(), None
    except Exception as exc:  # an unexpected engine error counts as a failure
        result, error = None, exc
    latency = time.perf_counter() - t0
    if tracer is not None:
        tracer.finish(root)
    ok = False
    if error is None:
        try:
            ok = bool(op.check(corrupt(result) if corrupt else result))
        except Exception:  # a malformed result is a wrong answer
            ok = False
    return latency, ok, op.info, root


def loop(workload, seconds=None, count=None, tracer=None):
    """Closed loop, one client: ops 0, 1, 2, ... until `seconds` of measured
    op time, at least MIN_OPS ops and one full cycle; or exactly `count` ops.

    Returns raw latencies, latencies scaled to the reference host speed,
    each op's pass flag, the ops' working-set records and their root span ids.
    The workload's kernel is timed before each op (before its inputs are
    built) and after it (after its check); the op's scaled time is
    raw * nominal / (mean of those two kernel times).
    """
    kernel, nominal = KERNELS[workload.kernel]
    lat, scaled, passed, infos, roots = [], [], [], [], []
    least = max(MIN_OPS, workload.cycle)
    i = 0
    while (i < count) if count is not None else (sum(lat) < seconds or i < least):
        before = kernel()
        latency, ok, info, root = run_op(workload, i, tracer)
        after = kernel()
        lat.append(latency)
        scaled.append(latency * 2 * nominal / (before + after))
        passed.append(ok)
        infos.append(info)
        roots.append(root)
        i += 1
    return lat, scaled, passed, infos, roots


def warm_up(workload):
    kernel = KERNELS[workload.kernel][0]
    start, j = time.perf_counter(), 0
    while time.perf_counter() - start < WARMUP_S:
        kernel()
        run_op(workload, WARMUP_BASE + j)
        j += 1


def working_set(infos):
    """Range of every working-set property over the ops that ran."""
    out: dict[str, list] = {}
    for info in infos:
        for key, value in info.items():
            if isinstance(value, (int, float)):
                lo, hi = out.get(key, (value, value))
                out[key] = [min(lo, value), max(hi, value)]
            else:
                out.setdefault(key, [])
                if value not in out[key]:
                    out[key].append(value)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if args.seconds is None and not args.setup_only:
        ap.error("--seconds is required unless --setup-only")

    setup_s, setup_raw_s, q2, workload = timed_setup(args.workload, args.seed)
    if not Path(q2.__file__).resolve().is_relative_to(Path.cwd().resolve() / "src"):
        print(f"error: imported {q2.__file__}, not this checkout's src", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    warm_up(workload)
    gc.collect()
    raw, lat, passed, infos, _ = loop(workload, seconds=args.seconds)
    result = {"setup_s": setup_s, "setup_raw_s": setup_raw_s, "lat": lat, "lat_raw": raw,
              "failed": passed.count(False), "cycle": workload.cycle, "working_set": working_set(infos)}
    if args.trace:
        from tracing import Tracer
        # the same ops again, now with spans on
        tracer = Tracer()
        tracer.install(q2)
        gc.collect()
        traced_raw, traced_lat, traced_passed, _, roots = loop(workload, count=len(lat), tracer=tracer)
        tracer.uninstall()
        result["metrics"] = tracer.layer_metrics()
        result["metrics"]["trace.overhead_ratio"] = sum(lat) / sum(traced_lat)
        # an op whose spans do not fit inside its wall time fails as well
        spans_ok = tracer.check_ops(roots, traced_raw)
        result["failed"] += sum(not (ok and fit) for ok, fit in zip(traced_passed, spans_ok))
        result["spans_outside_wall"] = spans_ok.count(False)
        result["spans"] = len(tracer.start)
        tracer.write(Path.cwd() / ".bench_build" / "perfbench" / f"spans_{args.workload}_{args.seed}")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
