"""Per-layer tracing from outside the library.

Each traced public function is replaced by a wrapper in every
``fusionweave`` module that holds it by name: ``from .linalg import
sym_eig_extremes`` copies the binding into the importing module, so
patching ``linalg`` alone would miss most calls.  ``Subspace`` is traced
through its constructor.  Spans (function, parent span, operation, start,
end) are kept in memory as flat arrays and aggregated when the run ends;
a layer's self time is its span minus the spans of wrapped callees.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

TRACED = {
    "cli": ["main"],
    "documents": ["load_frame", "load_operator", "load_subspace"],
    "generators": [
        "random_orthogonal",
        "random_invertible",
        "random_rank_operator",
        "random_subspace",
        "random_fusion_frame",
        "random_riesz_fusion_basis",
    ],
    "weaving": ["weaving_report", "assignments", "riesz_weaving_report"],
    "perturbation": [
        "per1_conditions",
        "partial_frame_operator",
        "operator1_check",
        "modulus_sandwich",
        "lemma_commute_residual",
    ],
    "subspaces": [
        "Subspace",
        "span_of",
        "projector",
        "contains",
        "intersect",
        "friedrichs_cos",
        "apply_operator",
        "null_space",
    ],
    "linalg": [
        "sym_eig_extremes",
        "orthonormal_columns",
        "operator_norm",
        "reduced_min_modulus",
        "numerical_rank",
        "pinv",
    ],
    "frames": [
        "frame_operator",
        "frame_bounds",
        "frame_bounds_on_span",
        "transform_frame",
        "canonical_dual",
        "mixed_frame_operator",
        "riesz_sequence_bounds",
    ],
    "worked_examples": ["run_claims"],
}

TRACED_NAMES = [f"{module}.{attr}" for module, attrs in TRACED.items() for attr in attrs]


class Tracer:
    def __init__(self):
        self.fn = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.current_op = -1  # set by the caller around each measured operation
        self.bytes_computed = 0  # 8 n^2 per sym_eig_extremes call, computed not measured
        self.weavings_total = 0  # sum of M^L over weaving reports
        self.weavings_evaluated = 0  # sum of report.enumerated
        self._undo: list[tuple[object, str, object]] = []

    def _after_sym_eig(self, args, result):
        n = np.shape(args[0])[0]
        self.bytes_computed += 8 * n * n

    def _after_report(self, args, result):
        frames = args[0]
        self.weavings_total += len(frames) ** len(frames[0])
        self.weavings_evaluated += result.enumerated

    def _wrap(self, fid: int, fn, after=None):
        fns, parents, ops, starts, ends, stack = (
            self.fn, self.parent, self.op, self.start, self.end, self.stack,
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            fns.append(fid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        hooks = {
            "linalg.sym_eig_extremes": self._after_sym_eig,
            "weaving.weaving_report": self._after_report,
        }
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if name == "fusionweave" or name.startswith("fusionweave.")
        ]
        for fid, name in enumerate(TRACED_NAMES):
            module_name, attr = name.split(".")
            original = getattr(importlib.import_module(f"fusionweave.{module_name}"), attr)
            if isinstance(original, type):
                self._set(original, "__init__", self._wrap(fid, original.__init__))
                continue
            wrapper = self._wrap(fid, original, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _arrays(self):
        fn = np.frombuffer(self.fn, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return fn, dur, dur - child

    def metrics(self) -> dict[str, tuple[float, str]]:
        fn, dur, self_time = self._arrays()
        k = len(TRACED_NAMES)
        calls = np.bincount(fn, minlength=k)
        total = np.bincount(fn, weights=dur, minlength=k)
        own = np.bincount(fn, weights=self_time, minlength=k)
        out: dict[str, tuple[float, str]] = {}
        for fid, name in enumerate(TRACED_NAMES):
            out[f"{name}.calls"] = (int(calls[fid]), "count")
            out[f"{name}.total_s"] = (float(total[fid]), "s")
            out[f"{name}.self_s"] = (float(own[fid]), "s")
        out["linalg.sym_eig_extremes.bytes_computed"] = (self.bytes_computed, "bytes")
        out["weaving.weavings_total"] = (self.weavings_total, "count")
        out["weaving.weavings_evaluated"] = (self.weavings_evaluated, "count")
        ratio = self.weavings_evaluated / self.weavings_total if self.weavings_total else 0.0
        out["weaving.evaluated_ratio"] = (ratio, "ratio")
        return out

    def op_calls(self) -> dict[str, int]:
        """Calls made while a measured operation was running (set-up excluded)."""
        fn = np.frombuffer(self.fn, dtype=np.int32)
        measured = np.frombuffer(self.op, dtype=np.int32) >= 0
        calls = np.bincount(fn[measured], minlength=len(TRACED_NAMES))
        return {name: int(calls[fid]) for fid, name in enumerate(TRACED_NAMES)}

    def write_spans(self, path: Path) -> None:
        if not len(self.start):
            return
        t0 = min(self.start)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span,parent,op,name,start_s,end_s\n")
            for i, (f, p, o, s, e) in enumerate(
                zip(self.fn, self.parent, self.op, self.start, self.end)
            ):
                handle.write(f"{i},{p},{o},{TRACED_NAMES[f]},{s - t0:.9f},{e - t0:.9f}\n")
