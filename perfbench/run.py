"""q2algebra benchmark: one workload per call, each in fresh interpreters.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the engine is imported from its `src`.
With --trace 0 the last stdout line holds the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run (see README.md).  `all`
runs the four workloads one after another and prints every end-to-end
metric with its unit, ending with one JSON line per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import REPORTED, unit_of  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 6
WORKER_TIMEOUT_S = 150
END_TO_END_UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = REPORTED + ["trace.overhead_ratio"]


class BenchError(RuntimeError):
    pass


def engine_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def worker(root: Path, args: list[str], timeout: float = WORKER_TIMEOUT_S) -> dict:
    """Run worker.py in a fresh interpreter and parse its last stdout line."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=root, env=engine_env(root), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out after {timeout} s: {' '.join(args)}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def setup_probes(root: Path, workload: str, seed: int) -> list[float]:
    """Import + program-side preparation timed in fresh interpreters.

    One unmeasured probe first, so that compiled bytecode exists and every
    measured probe starts from the same state.
    """
    base = ["--setup-only", "--workload", workload, "--seed", str(seed)]
    worker(root, base)
    return [worker(root, base)["setup_s"] for _ in range(SETUP_PROBES)]


def end_to_end(lat, cycle):
    """Metrics over the workload's slot mix.

    Op i runs slot i mod cycle.  Each op is weighted by 1 / (ops of its slot
    in this run), so every slot counts equally however far the last cycle
    got: ops_per_s is 1 / (slot-weighted mean latency) and the percentiles
    are slot-weighted (midpoint interpolation).
    """
    counts: dict[int, int] = {}
    for i in range(len(lat)):
        counts[i % cycle] = counts.get(i % cycle, 0) + 1
    weights = [1 / (counts[i % cycle] * len(counts)) for i in range(len(lat))]
    pairs = sorted(zip((x * 1000 for x in lat), weights))
    mids, acc = [], 0.0
    for _, w in pairs:
        mids.append(acc + w / 2)
        acc += w

    def quantile(p):
        if p <= mids[0]:
            return pairs[0][0]
        for j in range(1, len(pairs)):
            if mids[j] >= p:
                f = (p - mids[j - 1]) / (mids[j] - mids[j - 1])
                return pairs[j - 1][0] + f * (pairs[j][0] - pairs[j - 1][0])
        return pairs[-1][0]
    return {
        "ops_per_s": 1 / sum(x * w for x, w in zip(lat, weights)),
        "latency_p50_ms": quantile(0.5),
        "latency_p90_ms": quantile(0.9),
    }


def run_workload(root: Path, workload: str, seed: int, seconds: float,
                 trace: int) -> tuple[dict, dict]:
    args = ["--workload", workload, "--seed", str(seed)]
    if trace:
        # a third of the run untraced, then the same ops replayed with spans on
        out = worker(root, args + ["--seconds", str(seconds / 3), "--trace", "1"])
        values, attempted = out["metrics"], 2 * len(out["lat"])
        units = {name: unit_of(name) for name in PER_LAYER}
        extra = {"spans": out["spans"], "spans_outside_wall": out["spans_outside_wall"]}
    else:
        setup = setup_probes(root, workload, seed)
        out = worker(root, args + ["--seconds", str(seconds)])
        values = end_to_end(out["lat"], out["cycle"])
        values["setup_s"] = statistics.median(setup + [out["setup_s"]])
        values["peak_rss_mb"] = out["peak_rss_mb"]
        attempted = len(out["lat"])
        units = END_TO_END_UNITS
        raw = end_to_end(out["lat_raw"], out["cycle"])
        raw["setup_s"] = out["setup_raw_s"]
        extra = {"beyond_p90": sum(x * 1000 > values["latency_p90_ms"] for x in out["lat"]),
                 "unscaled": {k: round(v, 4) for k, v in raw.items()}}
    extra["working_set"] = out["working_set"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": out["failed"] == 0, "attempted": attempted, "failed": out["failed"],
              "metrics": metrics}
    return result, extra


def report(workload: str, result: dict, extra: dict):
    """Human-readable lines; the JSON result line comes after them."""
    print(f"# {workload}: attempted={result['attempted']} failed={result['failed']} "
          f"failed_ratio={result['failed'] / result['attempted']:.4g} "
          + " ".join(f"{k}={v}" for k, v in extra.items() if k != "working_set"))
    print(f"# {workload} working_set: {json.dumps(extra['working_set'])}")
    for name, m in result["metrics"].items():
        print(f"# {workload} {name} = {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=16)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "q2algebra" / "__init__.py").is_file():
        print(f"error: no engine source at {root / 'src' / 'q2algebra'}; "
              "run from the root of a q2algebra checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(root, w, args.seed, args.seconds, args.trace) for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for w, (result, extra) in results.items():
        report(w, result, extra)
    for result, _ in results.values():
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
