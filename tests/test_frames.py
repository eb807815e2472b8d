import numpy as np
import pytest

from conftest import (
    coordinate_frame,
    enlarged_coordinate_frame,
    plane_axis_frame,
    plane_tilted_frame,
)
from fusionweave import (
    FusionFrame,
    NonPositiveWeight,
    NotAFrame,
    PartOutsideSubspace,
    Subspace,
    WeightedSubspace,
    analysis,
    approx_dual_defect,
    canonical_dual,
    discrete_frame_bounds,
    enlarge_canonical_dual,
    frame_bounds,
    frame_bounds_on_span,
    frame_operator,
    is_dual,
    is_orthonormal_fusion_basis,
    is_riesz_basis,
    mixed_frame_operator,
    numerical_rank,
    operator_norm,
    projector,
    range_space,
    riesz_sequence_bounds,
    span_of,
    synthesis,
    to_discrete,
)
from fusionweave.generators import random_fusion_frame, random_riesz_fusion_basis, random_subspace


def line_pair_frame():
    # span{e1} and span{(e1+e2)/sqrt(2)} in R^2
    return FusionFrame.of_subspaces([span_of([[1.0, 0.0]]), span_of([[1.0, 1.0]])])


def test_weighted_subspace_rejects_bad_weight():
    with pytest.raises(ValueError):
        WeightedSubspace(Subspace.full(2), 0.0)
    with pytest.raises(ValueError):
        WeightedSubspace(Subspace.full(2), -1.0)
    # the same error type the document loader raises, still a ValueError
    for weight in (0.0, -1.0, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(NonPositiveWeight, match="must be positive and finite"):
            WeightedSubspace(Subspace.full(2), weight)


def test_frame_operator_examples():
    np.testing.assert_allclose(frame_operator(coordinate_frame(3)), np.eye(3), atol=1e-12)
    np.testing.assert_allclose(
        frame_operator(line_pair_frame()), [[1.5, 0.5], [0.5, 0.5]], atol=1e-12
    )
    mixed = FusionFrame.of_subspaces(
        [enlarged_coordinate_frame().subspaces[0]] + list(coordinate_frame(3).subspaces[1:])
    )
    np.testing.assert_allclose(frame_operator(mixed), np.diag([1.0, 2.0, 1.0]), atol=1e-12)


def test_analysis_synthesis_examples():
    F = coordinate_frame(3)
    f = np.array([1.0, 2.0, 3.0])
    parts = analysis(F, f)
    np.testing.assert_allclose(parts[0], [1.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(parts[1], [0.0, 2.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(parts[2], [0.0, 0.0, 3.0], atol=1e-12)
    np.testing.assert_allclose(synthesis(F, parts), f, atol=1e-12)

    G = line_pair_frame()
    parts = analysis(G, [1.0, 0.0])
    np.testing.assert_allclose(parts[0], [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(parts[1], [0.5, 0.5], atol=1e-12)


def test_synthesis_rejects_part_outside():
    F = coordinate_frame(3)
    with pytest.raises(PartOutsideSubspace):
        synthesis(F, [[0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def test_analysis_synthesis_adjoint_and_operator():
    rng = np.random.default_rng(29)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        F = random_fusion_frame(rng, n, int(rng.integers(1, 5)), uniform=False)
        f = rng.standard_normal(n)
        parts = analysis(F, f)
        # S f = synthesis(analysis(f))
        np.testing.assert_allclose(synthesis(F, parts), frame_operator(F) @ f, atol=1e-10)
        # adjointness against an arbitrary coefficient family
        g = [projector(m.subspace) @ rng.standard_normal(n) for m in F.members]
        lhs = sum(float(p @ q) for p, q in zip(parts, g))
        rhs = float(f @ synthesis(F, g))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_frame_operator_is_composed_analysis_synthesis():
    rng = np.random.default_rng(59)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        F = random_fusion_frame(rng, n, int(rng.integers(1, 5)), uniform=False)
        S = frame_operator(F)
        composed = np.column_stack(
            [synthesis(F, analysis(F, np.eye(n)[:, k])) for k in range(n)]
        )
        assert np.max(np.abs(S - composed)) <= 1e-10
        assert np.max(np.abs(S - S.T)) <= 1e-12
        assert np.linalg.eigvalsh(S)[0] >= -1e-12


def test_frame_bounds_examples():
    b, ok = frame_bounds(coordinate_frame(3))
    assert ok and (b.lower, b.upper) == (1.0, 1.0)

    b, ok = frame_bounds(line_pair_frame())
    assert ok
    np.testing.assert_allclose(b.lower, 1.0 - np.sqrt(2.0) / 2.0, rtol=1e-10)
    np.testing.assert_allclose(b.upper, 1.0 + np.sqrt(2.0) / 2.0, rtol=1e-10)

    partial = FusionFrame.of_subspaces(coordinate_frame(3).subspaces[:2])
    b, ok = frame_bounds(partial)
    assert not ok and b.lower == 0.0 and abs(b.upper - 1.0) < 1e-12


def test_frame_inequality_realization():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        F = random_fusion_frame(rng, n, int(rng.integers(1, 5)), uniform=False)
        bounds, _ = frame_bounds(F)
        for _ in range(100):
            f = rng.standard_normal(n)
            f /= np.linalg.norm(f)
            total = sum(
                m.weight**2 * float(np.sum((m.subspace.basis.T @ f) ** 2)) for m in F.members
            )
            assert bounds.lower - 1e-10 <= total <= bounds.upper + 1e-10


def test_frame_bounds_on_span():
    partial = FusionFrame.of_subspaces(coordinate_frame(3).subspaces[:2])
    b = frame_bounds_on_span(partial)
    assert abs(b.lower - 1.0) < 1e-12 and abs(b.upper - 1.0) < 1e-12

    F = line_pair_frame()
    full, _ = frame_bounds(F)
    on_span = frame_bounds_on_span(F)
    np.testing.assert_allclose((on_span.lower, on_span.upper), (full.lower, full.upper), atol=1e-12)

    T = np.diag([1.0, 1.0, 0.0])
    imaged = FusionFrame.of_subspaces(
        [span_of([T @ [1.0, 0.0, 0.0]]), span_of([T @ [0.0, 1.0, 0.0]])]
    )
    b = frame_bounds_on_span(imaged, within=range_space(T.T))
    assert abs(b.lower - 1.0) < 1e-12 and abs(b.upper - 1.0) < 1e-12


def test_canonical_dual_examples():
    F = coordinate_frame(3)
    D = canonical_dual(F)
    for V, W in zip(F.subspaces, D.subspaces):
        assert operator_norm(projector(V) - projector(W)) <= 1e-10

    G = line_pair_frame()
    D = canonical_dual(G)
    np.testing.assert_allclose(
        projector(D.subspaces[0]), projector(span_of([[1.0, -1.0]])), atol=1e-10
    )
    np.testing.assert_allclose(
        projector(D.subspaces[1]), projector(span_of([[0.0, 1.0]])), atol=1e-10
    )

    with pytest.raises(NotAFrame):
        canonical_dual(FusionFrame.of_subspaces(coordinate_frame(3).subspaces[:2]))


def test_mixed_frame_operator_examples():
    G = line_pair_frame()
    np.testing.assert_allclose(
        mixed_frame_operator(G, canonical_dual(G)), np.eye(2), atol=1e-10
    )
    np.testing.assert_allclose(
        mixed_frame_operator(coordinate_frame(3), coordinate_frame(3)), np.eye(3), atol=1e-12
    )
    psi = mixed_frame_operator(plane_axis_frame(), plane_tilted_frame())
    np.testing.assert_allclose(
        psi, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.4], [0.0, 0.0, 0.8]], atol=1e-12
    )


def test_mixed_frame_operator_brute_force_oracle():
    # reconstruct every coordinate vector through the summed operator chain
    rng = np.random.default_rng(37)
    F = plane_axis_frame()
    V = plane_tilted_frame()
    S = frame_operator(F)
    psi = mixed_frame_operator(F, V)
    for k in range(3):
        f = np.eye(3)[:, k]
        acc = np.zeros(3)
        for mf, mv in zip(F.members, V.members):
            acc += mf.weight * mv.weight * (
                projector(mv.subspace) @ np.linalg.solve(S, projector(mf.subspace) @ f)
            )
        np.testing.assert_allclose(acc, psi[:, k], atol=1e-12)
    # random frames agree with the same brute-force sum
    for _ in range(20):
        n = int(rng.integers(2, 5))
        A = random_fusion_frame(rng, n, n + 1, uniform=False)
        B = random_fusion_frame(rng, n, n + 1, uniform=False)
        S = frame_operator(A)
        psi = mixed_frame_operator(A, B)
        f = rng.standard_normal(n)
        acc = np.zeros(n)
        for mf, mv in zip(A.members, B.members):
            acc += mf.weight * mv.weight * (
                projector(mv.subspace) @ np.linalg.solve(S, projector(mf.subspace) @ f)
            )
        np.testing.assert_allclose(acc, psi @ f, atol=1e-9)


def test_dual_checks():
    G = line_pair_frame()
    assert is_dual(G, canonical_dual(G))
    assert approx_dual_defect(G, canonical_dual(G)) <= 1e-10

    defect = approx_dual_defect(plane_axis_frame(), plane_tilted_frame())
    np.testing.assert_allclose(defect, np.sqrt(5.0) / 5.0, atol=1e-12)
    assert defect < 1.0
    assert not is_dual(plane_axis_frame(), plane_tilted_frame())

    # enlarging members of the identity-operator frame keeps duality
    assert is_dual(coordinate_frame(3), enlarged_coordinate_frame())


def test_canonical_dual_duality_random():
    rng = np.random.default_rng(41)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        F = random_fusion_frame(rng, n, n + 1, uniform=False)
        if frame_bounds(F)[1]:
            assert is_dual(F, canonical_dual(F))


def test_enlarge_canonical_dual():
    G = line_pair_frame()
    plain = enlarge_canonical_dual(G, [[], []])
    for V, W in zip(plain.subspaces, canonical_dual(G).subspaces):
        assert operator_norm(projector(V) - projector(W)) <= 1e-10

    F = coordinate_frame(3)
    grown = enlarge_canonical_dual(F, [[[0.0, 1.0, 0.0]], [], []])
    for V, W in zip(grown.subspaces, enlarged_coordinate_frame().subspaces):
        assert operator_norm(projector(V) - projector(W)) <= 1e-10

    rng = np.random.default_rng(43)
    for _ in range(20):
        n = int(rng.integers(3, 6))
        count = int(rng.integers(2, min(n, 4) + 1))
        F, _, _ = random_riesz_fusion_basis(rng, n, count)
        extras = [
            [rng.standard_normal(n) for _ in range(int(rng.integers(0, 3)))] for _ in range(count)
        ]
        V = enlarge_canonical_dual(F, extras)
        assert is_dual(F, V)


def test_to_discrete_and_bounds():
    D = to_discrete(coordinate_frame(3))
    assert len(D.vectors) == 3
    b, ok = discrete_frame_bounds(D)
    assert ok and abs(b.lower - 1.0) < 1e-12 and abs(b.upper - 1.0) < 1e-12

    b, ok = discrete_frame_bounds(to_discrete(line_pair_frame()))
    assert ok
    np.testing.assert_allclose(b.lower, 1.0 - np.sqrt(2.0) / 2.0, rtol=1e-10)
    np.testing.assert_allclose(b.upper, 1.0 + np.sqrt(2.0) / 2.0, rtol=1e-10)

    D = to_discrete(enlarged_coordinate_frame())
    assert len(D.vectors) == 4
    b, ok = discrete_frame_bounds(D)
    assert ok and abs(b.lower - 1.0) < 1e-12 and abs(b.upper - 2.0) < 1e-12


def test_fusion_bounds_equal_discrete_bounds():
    rng = np.random.default_rng(47)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        F = random_fusion_frame(rng, n, int(rng.integers(1, 5)), uniform=False)
        fb, f_ok = frame_bounds(F)
        db, d_ok = discrete_frame_bounds(to_discrete(F))
        assert f_ok == d_ok
        assert abs(fb.lower - db.lower) <= 1e-9
        assert abs(fb.upper - db.upper) <= 1e-9


def test_riesz_sequence_bounds_examples():
    b, ok = riesz_sequence_bounds(coordinate_frame(3).subspaces)
    assert ok and (b.lower, b.upper) == (1.0, 1.0)

    b, ok = riesz_sequence_bounds(enlarged_coordinate_frame().subspaces)
    assert not ok and b.lower == 0.0

    b, ok = riesz_sequence_bounds(line_pair_frame().subspaces)
    assert ok
    np.testing.assert_allclose(b.lower, 1.0 - np.sqrt(2.0) / 2.0, rtol=1e-10)
    np.testing.assert_allclose(b.upper, 1.0 + np.sqrt(2.0) / 2.0, rtol=1e-10)


def test_riesz_coefficient_property():
    rng = np.random.default_rng(53)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        count = int(rng.integers(2, min(n, 4) + 1))
        F, _, _ = random_riesz_fusion_basis(rng, n, count)
        bounds, ok = riesz_sequence_bounds(F.subspaces)
        assert ok
        for _ in range(100):
            parts = [
                m.subspace.basis @ rng.standard_normal(m.subspace.dim) for m in F.members
            ]
            coeff = sum(float(np.sum(p**2)) for p in parts)
            total = float(np.sum(sum(parts) ** 2))
            assert bounds.lower * coeff - 1e-9 <= total <= bounds.upper * coeff + 1e-9


def test_riesz_and_orthonormal_basis_checks():
    assert is_riesz_basis(coordinate_frame(3))
    assert is_orthonormal_fusion_basis(coordinate_frame(3))

    assert not is_riesz_basis(enlarged_coordinate_frame())
    assert not is_orthonormal_fusion_basis(enlarged_coordinate_frame())

    assert is_riesz_basis(line_pair_frame())
    assert not is_orthonormal_fusion_basis(line_pair_frame())


def _riesz_basis_by_rank(F):
    """The rank path: a Riesz sequence whose concatenated bases have numerical rank n."""
    _, ok = riesz_sequence_bounds(F.subspaces)
    return ok and numerical_rank(np.hstack([S.basis for S in F.subspaces])) == F.ambient_dim


def _riesz_families():
    rng = np.random.default_rng(8128)
    families = []
    for n in range(1, 7):
        for _ in range(8):
            dims = rng.integers(0, n + 1, size=int(rng.integers(1, 5)))
            subs = [random_subspace(rng, n, int(d)) for d in dims]
            families.append(FusionFrame.of_subspaces(subs))
        F, _, _ = random_riesz_fusion_basis(rng, n, int(rng.integers(1, n + 1)))
        families.append(F)
        if len(F) > 1:
            families.append(FusionFrame.of_subspaces(F.subspaces[1:]))  # a sequence, not a basis
    # two lines at a small angle: lower bound 1 - cos(angle), on both sides of frame_eps
    for angle in (1e-3, 1e-4, 4.4e-5, 4.5e-5, 1e-5, 1e-7):
        tilted = span_of([[np.cos(angle), np.sin(angle)]])
        families.append(FusionFrame.of_subspaces([span_of([[1.0, 0.0]]), tilted]))
    return families


def test_riesz_basis_matches_rank_path():
    verdicts = set()
    for F in _riesz_families():
        _, is_seq = riesz_sequence_bounds(F.subspaces)
        assert is_riesz_basis(F) == _riesz_basis_by_rank(F)
        verdicts.add((is_seq, is_riesz_basis(F)))
    assert verdicts == {(False, False), (True, False), (True, True)}

