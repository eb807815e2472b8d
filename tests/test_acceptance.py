"""Acceptance suite.

Each criterion runs at its stated tolerance and runtime cap and prints
one pass/fail line (run with ``pytest -s`` to see them on success).  The
Bessel-envelope criterion at the end audits every weaving report that the
earlier criteria produced.
"""

import time

import numpy as np

from fusionweave import (
    FusionFrame,
    Subspace,
    assignments,
    construct_biorthogonal_riesz,
    discrete_frame_bounds,
    enlarge_canonical_dual,
    frame_bounds,
    frame_operator,
    is_riesz_basis,
    lemma_commute_residual,
    mixed_frame_operator,
    modulus_sandwich,
    operator1_check,
    operator_norm,
    per1_conditions,
    projector,
    riesz_sequence_bounds,
    riesz_weaving_report,
    span_of,
    to_discrete,
    transform_frame,
    transform_frames,
    weave,
    weaving_report,
)
from fusionweave.errors import AngleNotLessThanOne
from fusionweave.generators import (
    random_fusion_frame,
    random_invertible,
    random_orthonormal_fusion_basis,
    random_rank_operator,
    random_riesz_fusion_basis,
    random_subspace,
    random_woven_pair,
)
from fusionweave.worked_examples import load_builtin_frame, load_builtin_operator

from conftest import coordinate_frame

# (universal upper bound, sum of the member frames' upper bounds) for every
# weaving report produced below; audited by the final criterion
RECORDED_ENVELOPES: list[tuple[float, float]] = []


def tracked_report(frames, **kwargs):
    report = weaving_report(frames, **kwargs)
    upper_sum = sum(frame_bounds(F)[0].upper for F in frames)
    RECORDED_ENVELOPES.append((report.universal_upper, upper_sum))
    return report


def finish(name, started, cap, ok, detail=""):
    elapsed = time.perf_counter() - started
    in_time = elapsed < cap
    status = "PASS" if (ok and in_time) else "FAIL"
    print(f"[{name}] {status} in {elapsed:.2f}s (cap {cap:g}s) {detail}")
    assert ok, f"{name} failed: {detail}"
    assert in_time, f"{name} exceeded runtime cap: {elapsed:.2f}s >= {cap}s"


def test_criterion_01_mixed_operator_reproduction():
    started = time.perf_counter()
    W = load_builtin_frame("plane_axis_pair")
    V = load_builtin_frame("plane_tilted_pair")

    # independent oracle: assemble the operator column by column from the
    # weighted projector/solve chain applied to coordinate vectors
    S = frame_operator(W)
    oracle = np.zeros((3, 3))
    for k in range(3):
        acc = np.zeros(3)
        for mw, mv in zip(W.members, V.members):
            acc += mw.weight * mv.weight * (
                projector(mv.subspace) @ np.linalg.solve(S, projector(mw.subspace) @ np.eye(3)[:, k])
            )
        oracle[:, k] = acc
    expected = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.4], [0.0, 0.0, 0.8]])
    psi = mixed_frame_operator(W, V)
    ok_psi = np.max(np.abs(psi - expected)) <= 1e-10 and np.max(np.abs(oracle - expected)) <= 1e-10

    defect = operator_norm(np.eye(3) - psi)
    ok_defect = abs(defect - np.sqrt(5.0) / 5.0) <= 1e-10

    displayed = load_builtin_operator("displayed_inverse")
    psi_inv = np.linalg.inv(psi)
    ok_inverse = np.max(np.abs(psi_inv - displayed.T)) <= 1e-10

    moved = transform_frame(psi_inv, V)
    report = tracked_report([W, moved])
    ok_woven = report.woven and report.enumerated == 4

    finish(
        "criterion-01",
        started,
        1.0,
        ok_psi and ok_defect and ok_inverse and ok_woven,
        f"defect={defect:.12f}",
    )


def test_criterion_02_coordinate_pair_reproduction():
    started = time.perf_counter()
    W = load_builtin_frame("coordinate_spans_3d")
    V = load_builtin_frame("coordinate_spans_enlarged")

    report = tracked_report([W, V])
    ok_weavings = report.woven and report.enumerated == 8
    ok_bounds = (
        abs(report.universal_lower - 1.0) <= 1e-10 and abs(report.universal_upper - 2.0) <= 1e-10
    )

    bounds, is_seq = riesz_sequence_bounds(V.subspaces)
    ok_riesz = (not is_seq) and (not is_riesz_basis(V)) and bounds.lower == 0.0

    # explicit witness: e2 in V1 and -e2 in V2 sum to zero
    e2 = np.eye(3)[:, 1]
    f1, f2 = e2, -e2
    in1 = np.linalg.norm(f1 - projector(V.subspaces[0]) @ f1) <= 1e-12
    in2 = np.linalg.norm(f2 - projector(V.subspaces[1]) @ f2) <= 1e-12
    ok_witness = (
        in1
        and in2
        and float(np.linalg.norm(f1 + f2) ** 2) == 0.0
        and float(np.linalg.norm(f1) ** 2 + np.linalg.norm(f2) ** 2) == 2.0
    )

    finish(
        "criterion-02",
        started,
        1.0,
        ok_weavings and ok_bounds and ok_riesz and ok_witness,
        f"universal=({report.universal_lower:.12g}, {report.universal_upper:.12g})",
    )


def test_criterion_03_riesz_duals_woven_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    woven_count = 0
    for _ in range(100):
        n = int(rng.integers(3, 7))
        count = int(rng.integers(2, min(4, n) + 1))
        F, _, _ = random_riesz_fusion_basis(rng, n, count, cond_cap=10.0)
        extras = [
            [rng.standard_normal(n) for _ in range(int(rng.integers(0, 3)))]
            for _ in range(count)
        ]
        V = enlarge_canonical_dual(F, extras)
        if tracked_report([F, V]).woven:
            woven_count += 1
    finish("criterion-03", started, 60.0, woven_count == 100, f"woven {woven_count}/100")


def test_criterion_04_biorthogonal_suite():
    started = time.perf_counter()
    good = 0
    worst_cross = 0.0
    rng = np.random.default_rng(404)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        count = int(rng.integers(2, min(4, n) + 1))
        N = random_orthonormal_fusion_basis(rng, n, count)
        U = random_invertible(rng, n, cond_cap=10.0)
        W, V = construct_biorthogonal_riesz(U, N)
        cross = max(
            operator_norm(projector(W.subspaces[i]) @ projector(V.subspaces[j]))
            for i in range(count)
            for j in range(count)
            if i != j
        )
        worst_cross = max(worst_cross, cross)
        if cross <= 1e-10 and riesz_weaving_report(W, V).all_riesz_bases:
            good += 1
    finish(
        "criterion-04",
        started,
        60.0,
        good == 100,
        f"ok {good}/100, worst cross-projector {worst_cross:.3e}",
    )


def test_criterion_05_modulus_sandwich_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(505)
    held = 0
    total = 0
    while total < 1000:
        n = int(rng.integers(2, 9))
        T = random_rank_operator(rng, n, int(rng.integers(1, n + 1)))
        V = random_subspace(rng, n, int(rng.integers(1, n + 1)))
        try:
            res = modulus_sandwich(T, V)
        except AngleNotLessThanOne:
            continue
        if res.c >= 1.0 - 1e-6:
            continue
        total += 1
        if res.holds:
            held += 1

    tight = modulus_sandwich(np.diag([2.0, 1.0, 0.0]), span_of([[0.0, 1.0, 1.0]]))
    root_half = 1.0 / np.sqrt(2.0)
    ok_tight = (
        abs(tight.lhs - root_half) <= 1e-10
        and abs(tight.mid - root_half) <= 1e-10
        and tight.holds
    )
    finish(
        "criterion-05",
        started,
        30.0,
        held == 1000 and ok_tight,
        f"held {held}/1000, tight-case gamma {tight.mid:.12f}",
    )


def test_criterion_06_commutation_lemma_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(606)
    worst = 0.0
    good = 0
    for _ in range(500):
        n = int(rng.integers(1, 9))
        T = rng.standard_normal((n, n))
        V = random_subspace(rng, n, int(rng.integers(0, n + 1)))
        residual = lemma_commute_residual(T, V)
        worst = max(worst, residual)
        if residual <= 1e-10:
            good += 1
    finish("criterion-06", started, 10.0, good == 500, f"ok {good}/500, worst {worst:.3e}")


def test_criterion_07_pseudoinverse_image_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(707)

    chain_good = 0
    for _ in range(500):
        n = int(rng.integers(2, 7))
        T = random_rank_operator(rng, n, int(rng.integers(1, n + 1)))
        F = random_fusion_frame(rng, n, int(rng.integers(1, 5)), uniform=False)
        if operator1_check(T, F).chain_ok:
            chain_good += 1

    equiv_good = 0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        T = random_invertible(rng, n, cond_cap=20.0)
        F = random_fusion_frame(rng, n, int(rng.integers(1, 5)), uniform=False)
        if operator1_check(T, F).equivalence_ok:
            equiv_good += 1

    degenerate = operator1_check(np.diag([1.0, 1.0, 0.0]), coordinate_frame(3))
    ok_degenerate = (
        degenerate.chain_ok
        and not degenerate.equivalence_ok
        and degenerate.left_is_frame
        and not degenerate.right_is_frame
    )
    finish(
        "criterion-07",
        started,
        30.0,
        chain_good == 500 and equiv_good == 200 and ok_degenerate,
        f"chain {chain_good}/500, equivalence {equiv_good}/200",
    )


def test_criterion_08_transform_envelope_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(808)
    good = 0
    for _ in range(200):
        n = int(rng.integers(2, 5))
        F, G = random_woven_pair(rng, n, n + 1)
        T = random_invertible(rng, n, cond_cap=10.0)
        moved, record = transform_frames(T, [F, G])
        tracked_report([F, G])
        tracked_report(list(moved))
        if record.lower_ok and record.upper_ok:
            good += 1
    finish("criterion-08", started, 60.0, good == 200, f"envelope ok {good}/200")


def test_criterion_09_per1_implication_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(909)

    # diagonal operator on an orthonormal coordinate-block basis: (i) + (ii)
    eye = np.eye(4)
    blocks = FusionFrame.of_subspaces(
        [Subspace(4, eye[:, :2]), Subspace(4, eye[:, 2:3]), Subspace(4, eye[:, 3:])]
    )
    scaled = per1_conditions(np.diag([1.5, 0.8, 1.2, 0.7]), blocks)
    ok_i_ii = scaled.cond_i and scaled.cond_ii and scaled.woven_verdict

    # identity on a random frame: (iii) trivially
    ident = per1_conditions(np.eye(3), random_fusion_frame(rng, 3, 4))
    ok_identity = ident.cond_iii is True and ident.woven_verdict

    # block rotation commuting with every partial frame operator: (iii)
    theta = 0.5
    R = np.eye(4)
    R[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    rotated = per1_conditions(R, blocks)
    ok_commuting = rotated.cond_iii is True and rotated.woven_verdict

    # plane rotation against the coordinate lines: (iii) fails
    R2 = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    counter = per1_conditions(R2, coordinate_frame(2))
    ok_counter = counter.cond_iii is False

    finish(
        "criterion-09",
        started,
        10.0,
        ok_i_ii and ok_identity and ok_commuting and ok_counter,
        f"counter worst eig {counter.witnesses['worst_commutator_min_eig']:.6f}",
    )


def test_criterion_10_local_frame_equivalence_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(1010)
    good = 0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        count = int(rng.integers(1, 4))
        frames = [random_fusion_frame(rng, n, count, uniform=False) for _ in range(2)]
        pair_ok = True
        for a in assignments(count, 2):
            woven = weave(frames, a)
            fb, f_ok = frame_bounds(woven)
            db, d_ok = discrete_frame_bounds(to_discrete(woven))
            if (
                f_ok != d_ok
                or abs(fb.lower - db.lower) > 1e-9
                or abs(fb.upper - db.upper) > 1e-9
            ):
                pair_ok = False
        if pair_ok:
            good += 1
    finish("criterion-10", started, 60.0, good == 200, f"pairs ok {good}/200")


def test_criterion_11_bessel_envelope_audit():
    started = time.perf_counter()
    # make sure the audit is never vacuous, even when run in isolation
    tracked_report(
        [load_builtin_frame("coordinate_spans_3d"), load_builtin_frame("coordinate_spans_enlarged")]
    )
    violations = [
        (upper, cap) for upper, cap in RECORDED_ENVELOPES if upper > cap + 1e-9
    ]
    finish(
        "criterion-11",
        started,
        10.0,
        len(violations) == 0 and len(RECORDED_ENVELOPES) > 0,
        f"{len(RECORDED_ENVELOPES)} reports audited, {len(violations)} violations",
    )
