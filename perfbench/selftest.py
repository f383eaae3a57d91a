"""Self-test of the benchmark's checks and tracing.

    python3 perfbench/selftest.py        (from the root of a checkout)

For every distinct check of every workload, the deepest op that uses it
(the first of those) must pass on the engine's real answer and fail on every deliberately corrupted
one: a wrong value of the same shape and, for elements, the same element
with one of its deepest terms dropped.  A short traced replay must record
spans whose self times fit inside each operation's wall time, and a span
stretched past its operation's end must be caught.  Exits 0 when all of
that holds.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path.cwd() / "src"))

import q2algebra  # noqa: E402

import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

ONE = q2algebra.algebra.ONE


def drop_deep_term(x):
    """x without one of its deepest terms (the middle one in canonical order)."""
    terms = x.sorted_terms()
    deepest = [m for m, _ in terms if m.b == x.depth]
    victim = deepest[len(deepest) // 2]
    return q2algebra.Element({m: c for m, c in terms if m != victim})


def corruptions(result):
    """Wrong answers of the same shape as the real one."""
    out = [corrupt(result)]
    if isinstance(result, q2algebra.Element) and not result.is_zero():
        out.append(drop_deep_term(result))
    if isinstance(result, tuple) and isinstance(result[0], q2algebra.Element):  # (U_z, S'_z)
        out.append((drop_deep_term(result[0]),) + result[1:])
    return out


def corrupt(result):
    """A wrong value of the same shape as the real one."""
    if isinstance(result, bool):
        return not result
    if result is None:
        return q2algebra.rational(1)
    if isinstance(result, q2algebra.DyadicCyclotomic):
        return result + 1
    if isinstance(result, q2algebra.Element):
        return result + ONE
    if isinstance(result, dict):
        return {k: v + 1 for k, v in result.items()}
    if isinstance(result, q2algebra.WindowMatrix):
        return q2algebra.WindowMatrix(result.lo, result.hi, result.rows, result.cols, result.vals + 1)
    if isinstance(result, q2algebra.DyadicGridFunction):
        return q2algebra.DyadicGridFunction(result.level, -result.values)
    if isinstance(result, q2algebra.torusfunc.OscillationReport):
        return dataclasses.replace(result, osc=result.osc + 2)
    if isinstance(result, q2algebra.Continuous):
        return dataclasses.replace(result, oscillations=tuple(o + 1 for o in result.oscillations))
    if isinstance(result, q2algebra.Obstructed):
        j, k, m, gap = result.witness
        return dataclasses.replace(result, witness=(j, k, m, gap + 1))
    if isinstance(result, tuple) and isinstance(result[0], int):  # CLI (exit code, stdout)
        return result[0], result[1].rstrip("\n") + " + 1/7\n"
    if isinstance(result, tuple) and isinstance(result[1], float):  # (window, max_abs_diff)
        return result[0], result[1] + 1
    if isinstance(result, tuple):  # (U_z, S'_z)
        return (result[0] + ONE,) + result[1:]
    raise TypeError(f"no corruption for {type(result).__name__}")


def check_workload(name: str) -> list[str]:
    wl = workloads.CLASSES[name](q2algebra, 7)
    deepest: dict[tuple, int] = {}
    for i in range(wl.cycle):
        op = wl.op(i)
        key = (op.kind, op.check.__qualname__)
        if key not in deepest or op.info.get("depth", 0) > wl.op(deepest[key]).info.get("depth", 0):
            deepest[key] = i
    problems = []
    for i in sorted(deepest.values()):
        op = wl.op(i)
        _, ok, _, _ = worker.run_op(wl, i)
        variants = len(corruptions(op.run()))
        bad_ok = [worker.run_op(wl, i, corrupt=lambda r, v=v: corruptions(r)[v])[1]
                  for v in range(variants)]
        status = "ok" if ok and not any(bad_ok) else "PROBLEM"
        print(f"{status:8s} {name} op {i} {op.kind}: real answer "
              f"{'passes' if ok else 'FAILS'}, corrupted answers "
              + ", ".join("PASS" if b else "fail" for b in bad_ok))
        if status != "ok":
            problems.append(f"{name} op {i} {op.kind}")
    return problems


def check_tracing() -> list[str]:
    wl = workloads.CLASSES["deep_equality"](q2algebra, 7)
    tracer = Tracer()
    tracer.install(q2algebra)
    try:
        raw, _, passed, _, roots = worker.loop(wl, count=6, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    fit = tracer.check_ops(roots, raw)
    # stretch the first engine span of the last op past that op's end
    child = roots[-1] + 1
    tracer.end[child] = tracer.end[roots[-1]] + 1e-3
    caught = not tracer.check_ops(roots, raw)[-1]
    print(f"trace: {len(tracer.start)} spans, passed={passed.count(True)}/{len(passed)}, "
          f"algebra.equals.calls={metrics['algebra.equals.calls']}, spans fit their ops: "
          f"{fit.count(True)}/{len(fit)}, stretched span caught: {caught}")
    problems = []
    if (not all(passed) or not all(fit) or not caught or not metrics["algebra.equals.calls"]
            or not metrics["scalars.add.calls"]):
        problems.append("tracing")
    if q2algebra.equals.__name__ != "equals" or hasattr(q2algebra.equals, "__wrapped_original__"):
        problems.append("uninstall")
    return problems


def main() -> int:
    problems = []
    for name in workloads.WORKLOADS:
        problems += check_workload(name)
    problems += check_tracing()
    print("selftest:", "passed" if not problems else f"FAILED {problems}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
