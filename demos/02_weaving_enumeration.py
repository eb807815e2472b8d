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
for row, lower, upper, ok in zip(report.labels, report.lower, report.upper, report.is_frame):
    labels = "-".join(map(str, row.tolist()))
    print(f"{labels:>10} {lower:11.4f} {upper:11.4f}  {ok}")
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
for row, lower, ok in zip(bad.labels, bad.lower, bad.is_frame):
    labels = "-".join(map(str, row.tolist()))
    print(f"  {labels}: lower bound {lower:.4f}, frame: {ok}")
print("woven:", bad.woven)
# picking label 1 then 2 selects the same line twice and misses a direction

# ---------------------------------------------------------------------------
# past the enumeration cap weaving_report raises and only the exact verdict
# answers, as `fusionweave weave` does there: 64 random lines in R^6
# against their images under a small perturbation, 2^64 weavings
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
