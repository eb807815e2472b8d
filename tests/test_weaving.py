import numpy as np
import pytest

from conftest import coordinate_frame, enlarged_coordinate_frame
from fusionweave import (
    Assignment,
    EnumerationTooLarge,
    FusionFrame,
    LengthMismatch,
    NonUniformWeights,
    NotOrthonormalBasis,
    SingularOperator,
    assignments,
    construct_biorthogonal_riesz,
    discrete_frame_bounds,
    frame_bounds,
    frame_operator,
    operator_norm,
    projector,
    riesz_weaving_report,
    span_of,
    to_discrete,
    transform_frames,
    weave,
    weaving_report,
)
from fusionweave.generators import (
    random_fusion_frame,
    random_invertible,
    random_orthonormal_fusion_basis,
    random_woven_pair,
)


def test_assignments_counts_and_order():
    a = assignments(3, 2)
    assert len(a) == 8
    assert a[0].labels == (1, 1, 1) and a[-1].labels == (2, 2, 2)
    assert [x.labels for x in a] == sorted(x.labels for x in a)

    assert len(assignments(2, 3)) == 9
    assert len(assignments(1, 1)) == 1
    with pytest.raises(EnumerationTooLarge):
        assignments(21, 2, enum_cap=2**20)
    with pytest.raises(ValueError):
        assignments(0, 2)


def test_assignment_blocks():
    a = Assignment((2, 1, 1), 2)
    assert a.blocks() == [(2, 3), (1,)]
    with pytest.raises(ValueError):
        Assignment((0, 1), 2)


def test_weave_examples():
    W = coordinate_frame(3)
    V = enlarged_coordinate_frame()

    same = weave([W, V], Assignment((1, 1, 1), 2))
    np.testing.assert_allclose(frame_operator(same), frame_operator(W), atol=1e-12)

    mixed = weave([W, V], Assignment((2, 1, 1), 2))
    np.testing.assert_allclose(frame_operator(mixed), np.diag([1.0, 2.0, 1.0]), atol=1e-12)

    back = weave([W, V], Assignment((1, 2, 2), 2))
    b, ok = frame_bounds(back)
    assert ok and (b.lower, b.upper) == (1.0, 1.0)

    with pytest.raises(LengthMismatch):
        weave([W, V], Assignment((1, 2), 2))


def test_weave_carries_weights():
    heavy = FusionFrame.of_subspaces(coordinate_frame(2).subspaces, weights=[3.0, 1.0])
    light = coordinate_frame(2)
    woven = weave([heavy, light], Assignment((1, 2), 2))
    assert woven.members[0].weight == 3.0 and woven.members[1].weight == 1.0


def test_weaving_report_coordinate_pair():
    report = weaving_report([coordinate_frame(3), enlarged_coordinate_frame()])
    assert report.woven and report.enumerated == 8
    assert abs(report.universal_lower - 1.0) <= 1e-12
    assert abs(report.universal_upper - 2.0) <= 1e-12
    assert report.universal_lower == min(report.lower.tolist())
    assert report.universal_upper == max(report.upper.tolist())


def test_weaving_report_two_copies():
    F = coordinate_frame(3)
    report = weaving_report([F, F])
    fb, _ = frame_bounds(F)
    assert report.woven
    assert abs(report.universal_lower - fb.lower) <= 1e-12
    assert abs(report.universal_upper - fb.upper) <= 1e-12


def test_weaving_report_swapped_lines_not_woven():
    W = coordinate_frame(2)
    V = FusionFrame.of_subspaces([span_of([[0.0, 1.0]]), span_of([[1.0, 0.0]])])
    report = weaving_report([W, V])
    assert not report.woven
    bad = report.labels[~report.is_frame].tolist()
    assert {tuple(labels) for labels in bad} == {(1, 2), (2, 1)}


def test_single_frame_report_matches_frame_bounds():
    rng = np.random.default_rng(61)
    F = random_fusion_frame(rng, 3, 4)
    assert weaving_report([F]).woven == frame_bounds(F)[1]


def test_weaving_report_cap():
    frames = [coordinate_frame(3), enlarged_coordinate_frame()]
    with pytest.raises(EnumerationTooLarge):
        weaving_report(frames, enum_cap=4)


def test_bessel_envelope_property():
    rng = np.random.default_rng(67)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        count = int(rng.integers(1, 4))
        frames = [random_fusion_frame(rng, n, count, uniform=False) for _ in range(2)]
        report = weaving_report(frames)
        upper_sum = sum(frame_bounds(F)[0].upper for F in frames)
        assert report.universal_upper <= upper_sum + 1e-9


def test_local_frame_equivalence_across_assignments():
    rng = np.random.default_rng(71)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        count = int(rng.integers(1, 4))
        frames = [random_fusion_frame(rng, n, count, uniform=False) for _ in range(2)]
        for a in assignments(count, 2):
            woven = weave(frames, a)
            fb, f_ok = frame_bounds(woven)
            db, d_ok = discrete_frame_bounds(to_discrete(woven))
            assert f_ok == d_ok
            assert abs(fb.lower - db.lower) <= 1e-9
            assert abs(fb.upper - db.upper) <= 1e-9


def test_riesz_weaving_report_identical_bases():
    W = coordinate_frame(3)
    report = riesz_weaving_report(W, W)
    assert report.all_riesz_sequences and report.all_riesz_bases
    assert abs(report.universal_lower - 1.0) <= 1e-12
    assert abs(report.universal_upper - 1.0) <= 1e-12
    assert report.labels.shape == (8, 3)


def test_riesz_weaving_report_enlarged_family_fails():
    report = riesz_weaving_report(coordinate_frame(3), enlarged_coordinate_frame())
    assert not report.all_riesz_sequences and not report.all_riesz_bases
    # exactly the subsets that pick the enlarged plane fail
    failing = {
        tuple(i + 1 for i, v in enumerate(labels) if v == 1)
        for labels in report.labels[~report.is_sequence].tolist()
    }
    assert failing == {(), (2,), (3,), (2, 3)}


def test_riesz_weaving_requires_uniform_weights():
    heavy = FusionFrame.of_subspaces(coordinate_frame(2).subspaces, weights=[2.0, 1.0])
    with pytest.raises(NonUniformWeights):
        riesz_weaving_report(heavy, coordinate_frame(2))


def test_biorthogonal_construction_examples():
    N = coordinate_frame(2).subspaces

    W, V = construct_biorthogonal_riesz(np.eye(2), N)
    for A, B in zip(W.subspaces + V.subspaces, N + N):
        assert operator_norm(projector(A) - projector(B)) <= 1e-12

    U = np.array([[1.0, 1.0], [0.0, 1.0]])
    W, V = construct_biorthogonal_riesz(U, N)
    np.testing.assert_allclose(projector(W.subspaces[0]), projector(span_of([[1.0, 0.0]])), atol=1e-12)
    np.testing.assert_allclose(projector(W.subspaces[1]), projector(span_of([[1.0, 1.0]])), atol=1e-12)
    np.testing.assert_allclose(projector(V.subspaces[0]), projector(span_of([[1.0, -1.0]])), atol=1e-12)
    np.testing.assert_allclose(projector(V.subspaces[1]), projector(span_of([[0.0, 1.0]])), atol=1e-12)
    assert operator_norm(projector(W.subspaces[0]) @ projector(V.subspaces[1])) <= 1e-12
    assert operator_norm(projector(W.subspaces[1]) @ projector(V.subspaces[0])) <= 1e-12

    W, V = construct_biorthogonal_riesz(np.diag([1.0, 2.0]), N)
    for A, B in zip(W.subspaces + V.subspaces, N + N):
        assert operator_norm(projector(A) - projector(B)) <= 1e-12


def test_biorthogonal_construction_errors():
    N = coordinate_frame(2).subspaces
    with pytest.raises(SingularOperator):
        construct_biorthogonal_riesz(np.array([[1.0, 0.0], [1.0, 0.0]]), N)
    tilted = [span_of([[1.0, 0.0]]), span_of([[1.0, 1.0]])]
    with pytest.raises(NotOrthonormalBasis):
        construct_biorthogonal_riesz(np.eye(2), tilted)


def test_biorthogonal_construction_random_property():
    rng = np.random.default_rng(73)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        count = int(rng.integers(2, min(n, 4) + 1))
        N = random_orthonormal_fusion_basis(rng, n, count)
        U = random_invertible(rng, n, cond_cap=10.0)
        W, V = construct_biorthogonal_riesz(U, N)
        worst = max(
            operator_norm(projector(W.subspaces[i]) @ projector(V.subspaces[j]))
            for i in range(count)
            for j in range(count)
            if i != j
        )
        assert worst <= 1e-10
        assert riesz_weaving_report(W, V).all_riesz_bases


def test_transform_frames_identity_and_scaling():
    frames = [coordinate_frame(3), enlarged_coordinate_frame()]
    moved, record = transform_frames(np.eye(3), frames)
    assert record.lower_ok and record.upper_ok
    assert abs(record.transformed.lower - record.original.lower) <= 1e-12
    assert abs(record.transformed.upper - record.original.upper) <= 1e-12

    # scaling leaves every subspace (hence every bound) unchanged; kappa = 1
    moved, record = transform_frames(2.0 * np.eye(3), frames)
    assert abs(record.kappa - 1.0) <= 1e-12
    assert record.lower_ok and record.upper_ok
    assert abs(record.transformed.lower - record.original.lower) <= 1e-12
    assert abs(record.transformed.upper - record.original.upper) <= 1e-12


def test_transform_frames_shear():
    W = coordinate_frame(2)
    V = FusionFrame.of_subspaces([span_of([[1.0, 1.0]]), span_of([[1.0, -1.0]])])
    moved, record = transform_frames(np.array([[1.0, 1.0], [0.0, 1.0]]), [W, V])
    assert record.lower_ok and record.upper_ok

    with pytest.raises(SingularOperator):
        transform_frames(np.diag([1.0, 0.0]), [W, V])


def test_transform_frames_random_envelope():
    rng = np.random.default_rng(79)
    for _ in range(20):
        n = int(rng.integers(2, 4))
        F, G = random_woven_pair(rng, n, n + 1)
        T = random_invertible(rng, n, cond_cap=8.0)
        _, record = transform_frames(T, [F, G])
        assert record.lower_ok and record.upper_ok
