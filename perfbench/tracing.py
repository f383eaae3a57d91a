"""Spans around the engine's public functions, installed from outside.

`Tracer.install` replaces every public function of each engine module (every
function not prefixed with an underscore), every re-import of such a
function in another module or the package, and a fixed set of class methods
by a wrapper that records one span: name, start, end and parent.
Spans live in flat in-memory arrays and are written out when the run ends.
A span's self time is its duration minus the durations of its direct
children.  The `*_computed` counters are derived from argument and result
sizes at the call boundary; they are not counters inside the program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from pathlib import Path

import numpy as np

MODULES = ("scalars", "algebra", "canonical", "expectations", "morphisms",
           "torusfunc", "dyadic", "parser", "cli")

# span name -> layer metric prefix; spans of other public names are recorded
# in the span file but reported only through their parents' self time
LAYERS = {
    "algebra.equals": "algebra.equals",
    "algebra.normalize_depth": "algebra.normalize",
    "algebra.coarsen": "algebra.coarsen",
    "algebra.membership": "algebra.membership",
    "algebra.Element.__mul__": "algebra.mul",
    "algebra.Element.__pow__": "algebra.pow",
    "scalars.DyadicCyclotomic.__add__": "scalars.add",
    "scalars.DyadicCyclotomic.__mul__": "scalars.mul",
    "scalars.DyadicCyclotomic.inv": "scalars.inv",
    "morphisms.Endomorphism.__init__": "morphisms.construct",
    "morphisms.Endomorphism.__call__": "morphisms.apply",
    "morphisms.compose": "morphisms.compose",
    "expectations.E_gauge": "expectations",
    "expectations.E_CU": "expectations",
    "expectations.E_D2": "expectations",
    "expectations.E_diag_window": "expectations",
    "expectations.F_map": "expectations",
    "expectations.s1_limit": "expectations",
    "parser.parse_element": "parser.parse",
    "parser.print_element": "parser.print",
    "parser.print_scalar": "parser.print",
    "cli.main": "cli.main",
    "torusfunc.cascade_solve": "torusfunc.cascade",
    "torusfunc.oscillation_report": "torusfunc.oscillation",
    "canonical.window_matrix": "canonical.window",
    "canonical.conjugate_by_V": "canonical.window",
    "canonical.apply_basis": "canonical.apply_basis",
    "dyadic.build_Uz": "dyadic.build",
    "dyadic.build_Sz": "dyadic.build",
    "dyadic.check_Uz_relations": "dyadic.relations",
    "dyadic.two_adic_continuity": "dyadic.continuity",
}

METHODS = {
    "scalars": {"DyadicCyclotomic": ("__add__", "__mul__", "inv")},
    "algebra": {"Element": ("__add__", "__mul__", "__pow__", "adjoint", "scale")},
    "canonical": {"WindowMatrix": ("max_abs_diff",)},
    "morphisms": {"Endomorphism": ("__init__", "__call__")},
}


def _oscillation_bytes(args, kwargs, result):
    # vals and stable rows plus the first (largest) pairwise diff block
    seqs, size = 2 * ((result.max_odd + 1) // 2), 1 << result.level
    return seqs * size * 17 + (seqs - 1) * size * 25


def _continuity_gap_bytes(args, kwargs, result):
    # complex gap matrix plus its modulus, |class|^2 entries per residue class
    radius = 1 << (result.depth + 2)
    total = 0
    for m in range(1, result.depth + 1):
        mod = 1 << m
        for r in range(mod):
            count = len(range(-radius + ((r + radius) % mod), radius + 1, mod))
            total += count * count * 24
    return total


def _refine_terms(args, kwargs, result):
    # sum of 2^(B - b) over the terms of x - y: the refinement equals performs
    x, y = args[0]._terms, args[1]._terms
    diff = [m for m, c in x.items() if y.get(m) != c] + [m for m in y if m not in x]
    depth = max((m.b for m in diff), default=0)
    return sum(1 << (depth - m.b) for m in diff)


def _depth(args, kwargs, result):
    return max(args[0].depth, args[1].depth)


def _mul_pairs(args, kwargs, result):
    other = args[1]
    return len(args[0]._terms) * len(other._terms) if hasattr(other, "_terms") else 0


def _terms_out(args, kwargs, result):
    return len(getattr(result, "_terms", ()))


def _level(args, kwargs, result):
    return result.level if hasattr(result, "level") else 0


# layer -> [(counter, how to combine, f(args, kwargs, result))]
COUNTERS = {
    "algebra.equals": [("depth_max", max, _depth), ("refine_terms_computed", sum, _refine_terms)],
    "algebra.normalize": [("terms_out", sum, _terms_out)],
    "algebra.coarsen": [("shrink", sum, lambda a, k, r: len(a[0]._terms) - len(r._terms))],
    "algebra.mul": [("pairs", sum, _mul_pairs), ("terms_out", sum, _terms_out)],
    "algebra.pow": [("exponent_sum", sum, lambda a, k, r: a[1])],
    "scalars.add": [("level_max", max, _level)],
    "scalars.mul": [("level_max", max, _level)],
    "scalars.inv": [("level_max", max, _level)],
    "morphisms.apply": [("terms_out", sum, _terms_out)],
    "parser.parse": [("chars", sum, lambda a, k, r: len(a[0]))],
    "torusfunc.cascade": [("grid_points", sum, lambda a, k, r: r.size)],
    "torusfunc.oscillation": [("bytes_computed", sum, _oscillation_bytes)],
    "canonical.window": [("entries", sum, lambda a, k, r: int(r.vals.size))],
    "dyadic.continuity": [("gap_bytes_computed", sum, _continuity_gap_bytes)],
}

# the per-layer metrics reported by a traced run, with units
REPORTED = [
    *(f"algebra.equals.{k}" for k in ("calls", "self_s", "depth_max", "refine_terms_computed")),
    *(f"algebra.normalize.{k}" for k in ("calls", "self_s", "terms_out")),
    *(f"algebra.coarsen.{k}" for k in ("calls", "self_s", "shrink")),
    "algebra.membership.calls", "algebra.membership.self_s",
    *(f"algebra.mul.{k}" for k in ("calls", "self_s", "pairs", "terms_out", "yield")),
    *(f"algebra.pow.{k}" for k in ("calls", "self_s", "exponent_sum")),
    "scalars.add.calls", "scalars.add.self_s", "scalars.mul.calls", "scalars.mul.self_s",
    "scalars.inv.calls", "scalars.level_max",
    *(f"morphisms.{op}.{k}" for op in ("construct", "apply", "compose") for k in ("calls", "self_s")),
    "morphisms.apply.terms_out",
    "expectations.calls", "expectations.self_s",
    *(f"parser.parse.{k}" for k in ("calls", "self_s", "chars")),
    "parser.print.calls", "parser.print.self_s", "cli.main.calls", "cli.main.self_s",
    *(f"torusfunc.cascade.{k}" for k in ("calls", "self_s", "grid_points")),
    *(f"torusfunc.oscillation.{k}" for k in ("calls", "self_s", "bytes_computed")),
    *(f"canonical.window.{k}" for k in ("calls", "self_s", "entries")),
    "canonical.apply_basis.calls", "canonical.apply_basis.self_s",
    *(f"dyadic.{op}.{k}" for op in ("build", "relations") for k in ("calls", "self_s")),
    *(f"dyadic.continuity.{k}" for k in ("calls", "self_s", "gap_bytes_computed")),
]


def unit_of(metric: str) -> str:
    if metric.startswith("trace."):
        return "ratio"
    if metric.endswith("self_s"):
        return "s"
    if metric.endswith("bytes_computed"):
        return "bytes"
    if metric.endswith(("yield", "ratio")):
        return "ratio"
    if metric.endswith(("depth_max", "level_max")):
        return "level"
    return "count"


class Tracer:
    """Flat span store: parallel arrays indexed by span id."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name: str):
        nid = self.name_id(name)
        layer = LAYERS.get(name)
        counters = [(f"{layer}.{key}", combine, f) for key, combine, f in COUNTERS.get(layer, ())]
        begin, finish, totals, stack = self.begin, self.finish, self.counters, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:  # outside an operation: input generation and checks
                return fn(*args, **kwargs)
            idx = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(idx)
            for key, combine, f in counters:
                value = f(args, kwargs, result)
                totals[key] = combine((totals.get(key, 0), value))
            return result
        traced.__wrapped_original__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self, package):
        """Wrap every public (not underscore-prefixed) function of each engine
        module, all their re-imports, and the listed methods."""
        mods = {name: importlib.import_module(f"{package.__name__}.{name}") for name in MODULES}
        originals: dict[int, object] = {}
        for mname, mod in mods.items():
            for fname, obj in list(mod.__dict__.items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not fname.startswith("_")):
                    originals[id(obj)] = self._wrap(obj, f"{mname}.{fname}")
            for cname, methods in METHODS.get(mname, {}).items():
                cls = mod.__dict__[cname]
                for meth in methods:
                    fn = cls.__dict__[meth]
                    wrapped = self._wrap(fn, f"{mname}.{cname}.{meth}")
                    for attr, value in list(cls.__dict__.items()):
                        if value is fn:  # aliases such as __radd__ = __add__
                            self._set(cls, attr, wrapped)
        for mod in (*mods.values(), package):
            for attr, value in list(mod.__dict__.items()):
                if inspect.isfunction(value) and id(value) in originals:
                    self._set(mod, attr, originals[id(value)])

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> np.ndarray:
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return dur - child

    def layer_metrics(self) -> dict[str, float]:
        names = np.frombuffer(self.name_of, dtype=np.int32)
        self_t = self.self_times()
        out = {key: 0 for key in REPORTED}
        for nid, name in enumerate(self.names):
            layer = LAYERS.get(name)
            if layer is None:
                continue
            mask = names == nid
            out[f"{layer}.calls"] = out.get(f"{layer}.calls", 0) + int(mask.sum())
            out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + float(self_t[mask].sum())
        for key, value in self.counters.items():
            if key.startswith("scalars.") and key.endswith("level_max"):
                out["scalars.level_max"] = max(out["scalars.level_max"], value)
            else:
                out[key] = value
        pairs = out["algebra.mul.pairs"]
        out["algebra.mul.yield"] = out["algebra.mul.terms_out"] / pairs if pairs else 0.0
        return {key: out[key] for key in REPORTED}

    def check_ops(self, root_ids, latencies) -> list[bool]:
        """Per operation: every span of its tree has self time >= 0, and the
        summed self time of its engine spans (the root excluded) is at most
        the operation's latency as `run_op` timed it inside the root span."""
        self_t = self.self_times()
        parent = np.frombuffer(self.parent, dtype=np.int32)
        root = np.arange(len(parent))
        # spans are created in pre-order, so each parent's root is already known
        for i, p in enumerate(parent):
            if p >= 0:
                root[i] = root[p]
        engine = parent >= 0
        sums = np.zeros_like(self_t)
        np.add.at(sums, root[engine], self_t[engine])
        lowest = self_t.copy()
        np.minimum.at(lowest, root, self_t)
        return [bool(lowest[r] >= -1e-9 and sums[r] <= lat + 1e-9)
                for r, lat in zip(root_ids, latencies)]

    def write(self, path: Path):
        """Spans as binary arrays plus a JSON index of names and fields."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".bin"), "wb") as fh:
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)
        path.with_suffix(".json").write_text(json.dumps({
            "spans": len(self.start),
            "layout": ["name_of:int32", "parent:int32", "start:float64", "end:float64"],
            "names": self.names,
            "layers": LAYERS,
        }))
