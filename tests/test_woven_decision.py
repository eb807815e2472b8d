"""The exact woven verdict (meet certificate, then pruned prefix search)
against exhaustive enumeration, and on instances past the enumeration cap."""

import numpy as np
import pytest

from fusionweave import (
    DEFAULT_TOL,
    Assignment,
    EnumerationTooLarge,
    FusionFrame,
    Subspace,
    Tolerance,
    canonical_dual,
    decide_woven,
    frame_bounds,
    weave,
    weaving_report,
)
from fusionweave.generators import random_riesz_fusion_basis, random_subspace
from fusionweave.weaving import _loewner_meets, _weighted_projectors


def _frame(rng, n, count):
    """Non-uniform weights or unit weights; member dimensions 0..n, or lines."""
    dims = np.ones(count, dtype=int) if rng.random() < 0.3 else rng.integers(0, n + 1, size=count)
    weights = rng.uniform(0.5, 2.0, size=count) if rng.random() < 0.5 else np.ones(count)
    return FusionFrame.of_subspaces([random_subspace(rng, n, int(d)) for d in dims], weights)


def _grid():
    rng = np.random.default_rng(2016)
    cases = []
    for _ in range(240):
        n, length, M = int(rng.integers(1, 6)), int(rng.integers(1, 9)), int(rng.integers(1, 4))
        frames = [_frame(rng, n, length) for _ in range(M)]
        if M > 1 and rng.random() < 0.3:  # one index shared by the first two frames
            k = int(rng.integers(length))
            members = list(frames[1].members)
            members[k] = frames[0].members[k]
            frames[1] = FusionFrame(n, tuple(members))
        cases.append(frames)
    return cases


# a coarse frame_eps makes weavings with a small positive lower bound count
# as failures, which a prefix closed one meet too early would miss
@pytest.mark.parametrize("tol", [DEFAULT_TOL, Tolerance(frame_eps=0.3)], ids=["default", "coarse"])
def test_decision_matches_enumeration_on_grid(tol):
    outcomes = {("certified", True): 0, ("searched", True): 0, ("searched", False): 0}
    for frames in _grid():
        report = weaving_report(frames, tol)
        decision = decide_woven(frames, tol)
        assert decision.woven == report.woven
        assert decision.enumerated == report.enumerated == len(frames) ** len(frames[0])
        # the certificate bounds every weaving's lower frame bound from below
        assert decision.certificate <= report.universal_lower + 1e-12
        if decision.mode == "certified":
            assert decision.woven and decision.nodes == 1
        if decision.woven:
            assert decision.witness is None and decision.witness_lower is None
        else:
            row = int(np.flatnonzero((report.labels == decision.witness).all(axis=1))[0])
            assert decision.witness_lower == pytest.approx(report.lower[row], abs=1e-12)
            assert decision.witness_lower <= tol.frame_eps
        outcomes[decision.mode, decision.woven] += 1
    # the grid reaches every outcome: 124, 41 and 75 of its 240 cases at the
    # default frame_eps, 104, 12 and 124 at the coarse one
    assert len(outcomes) == 3 and min(outcomes.values()) >= 10


def test_meets_lie_below_every_label():
    rng = np.random.default_rng(5)
    frames = [_frame(rng, 4, 6) for _ in range(3)]
    A = _weighted_projectors(frames).reshape(6, 3, 4, 4)
    B = _loewner_meets(A)
    assert np.array_equal(B, np.swapaxes(B, -1, -2))
    for j in range(3):
        assert np.linalg.eigvalsh(A[:, j] - B).min() >= -1e-12


def test_single_frame_and_shared_members():
    rng = np.random.default_rng(7)
    F = _frame(rng, 3, 5)
    one = decide_woven([F])
    assert one.woven == frame_bounds(F)[1]
    # every index shared: only the base operator is solved
    two = decide_woven([F, F])
    assert two.woven == one.woven and two.enumerated == 32
    if two.woven:
        assert two.mode == "certified" and two.nodes == 1
    else:
        assert two.witness == (1,) * 5


def _defect_pair():
    """W_i = R and V_i = {0} at 22 indices: the all-V weaving is the zero operator."""
    W = FusionFrame.of_subspaces([Subspace(1, np.ones((1, 1)))] * 22)
    V = FusionFrame.of_subspaces([Subspace.zero(1)] * 22)
    return [W, V]


def test_length_22_defect_is_not_woven():
    decision = decide_woven(_defect_pair())
    assert not decision.woven and decision.mode == "searched"
    assert decision.witness == (2,) * 22 and decision.witness_lower == 0.0
    assert decision.enumerated == 2**22 and decision.nodes < 200


def test_planted_common_hyperplane_at_length_40():
    # at every index one of the two members is a line inside e_4-perp, so the
    # weaving of those members is not a frame although both frames are
    rng = np.random.default_rng(40)
    n, length = 4, 40
    planted = rng.integers(1, 3, size=length)
    members = [[], []]
    for i in range(length):
        inside = np.append(rng.standard_normal(n - 1), 0.0)
        for j in (1, 2):
            vector = inside if planted[i] == j else rng.standard_normal(n)
            members[j - 1].append(Subspace(n, (vector / np.linalg.norm(vector))[:, None]))
    frames = [FusionFrame.of_subspaces(m) for m in members]
    assert frame_bounds(frames[0])[1] and frame_bounds(frames[1])[1]
    decision = decide_woven(frames)
    assert not decision.woven and decision.enumerated == 2**40
    woven = weave(frames, Assignment(decision.witness, 2))
    bounds, is_frame = frame_bounds(woven)
    assert not is_frame
    assert decision.witness_lower == pytest.approx(bounds.lower, abs=1e-12)


def test_random_lines_at_length_64_are_decided():
    rng = np.random.default_rng(64)
    frames = [FusionFrame.of_subspaces([random_subspace(rng, 8, 1) for _ in range(64)]) for _ in range(2)]
    decision = decide_woven(frames)
    # the certificate does not decide this pair; the search does
    assert decision.certificate <= 1e-9 and decision.mode == "searched"
    assert decision.woven and 1 < decision.nodes <= 1 << 20
    assert decide_woven(frames) == decision  # deterministic


@pytest.mark.parametrize("n", [4, 8, 12])
def test_riesz_basis_woven_with_canonical_dual(n):
    # the paper's headline claim: a Riesz fusion basis is woven with its canonical dual
    rng = np.random.default_rng(100 + n)
    for count in (n // 2, n):
        F, _, _ = random_riesz_fusion_basis(rng, n, count, cond_cap=10.0)
        decision = decide_woven([F, canonical_dual(F)])
        assert decision.woven, (n, count, decision)


def test_spent_budget_raises():
    with pytest.raises(EnumerationTooLarge, match=r"after \d+ operators solved .*certificate 0"):
        decide_woven(_defect_pair(), node_budget=10)
    with pytest.raises(ValueError):
        decide_woven(_defect_pair(), node_budget=0)


def test_zero_ambient_dimension():
    F = FusionFrame.of_subspaces([Subspace.zero(0)] * 2)
    decision = decide_woven([F, F])
    assert decision.woven == weaving_report([F, F]).woven is False
    assert decision.witness == (1, 1)
