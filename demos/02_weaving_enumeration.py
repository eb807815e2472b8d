#!/usr/bin/env python3
# Weave two fusion frames: enumerate every index-to-frame assignment,
# check each mixture, and read off the universal bounds.  Includes a
# non-woven pair to show what failure looks like, and the exact verdict
# past the enumeration cap.

import numpy as np

from fusionweave import FusionFrame, decide_woven, span_of, weaving_report
from fusionweave.worked_examples import load_builtin_frame

np.set_printoptions(precision=4, suppress=True)

# ---------------------------------------------------------------------------
# the bundled 3-D pair: coordinate lines vs the same family with its
# first line enlarged to the xy-plane
W = load_builtin_frame("coordinate_spans_3d")
V = load_builtin_frame("coordinate_spans_enlarged")

report = weaving_report([W, V])
print(f"assignments evaluated: {report.enumerated}")
print(f"{'labels':>10} {'lambda_min':>11} {'lambda_max':>11}  frame?")
for entry in report.per_assignment:
    labels = "-".join(map(str, entry.assignment.labels))
    print(
        f"{labels:>10} {entry.bounds.lower:11.4f} {entry.bounds.upper:11.4f}  {entry.is_frame}"
    )
print(f"woven: {report.woven}")
print(f"universal bounds: C = {report.universal_lower:.4f}, D = {report.universal_upper:.4f}")

# every mixture keeps the lower bound 1 because each choice still covers
# all three coordinate directions; the plane doubles one direction, so
# the universal upper bound is 2.

# ---------------------------------------------------------------------------
# a failing pair: the same two lines of R^2, swapped between the frames
A = FusionFrame.of_subspaces([span_of([[1, 0]]), span_of([[0, 1]])])
B = FusionFrame.of_subspaces([span_of([[0, 1]]), span_of([[1, 0]])])
bad = weaving_report([A, B])
print("\nswapped coordinate lines:")
for entry in bad.per_assignment:
    labels = "-".join(map(str, entry.assignment.labels))
    print(f"  {labels}: lower bound {entry.bounds.lower:.4f}, frame: {entry.is_frame}")
print("woven:", bad.woven)
# picking label 1 then 2 selects the same line twice and misses a direction

# ---------------------------------------------------------------------------
# sampling mode for large index sets (seeded, reproducible)
big = FusionFrame.of_subspaces(
    [span_of([np.eye(8)[:, i]]) for i in range(8)]
)
sampled = weaving_report([big, big], sample_count=20, seed=42)
print(
    f"\nsampled report: {sampled.enumerated} of 2^8 weavings, "
    f"woven (over the sample): {sampled.woven}"
)

# ---------------------------------------------------------------------------
# the exact verdict at any length, without enumeration: 64 random lines in
# R^6 against their images under a small perturbation, 2^64 weavings
rng = np.random.default_rng(7)
lines = rng.standard_normal((64, 6))
near = lines + 0.05 * rng.standard_normal((64, 6))
F = FusionFrame.of_subspaces([span_of([v]) for v in lines])
G = FusionFrame.of_subspaces([span_of([v]) for v in near])
decision = decide_woven([F, G])
print(
    f"\n64 lines vs their perturbation: woven {decision.woven} "
    f"({decision.mode}, certificate {decision.certificate:.4f}, "
    f"{decision.nodes} operator(s) solved of {decision.enumerated} weavings)"
)
