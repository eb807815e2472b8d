import numpy as np
import pytest

from conftest import coordinate_frame, plane_axis_frame
from fusionweave import (
    DEFAULT_TOL,
    AngleNotLessThanOne,
    DimensionMismatch,
    FusionFrame,
    IndexOutOfRange,
    NotUnitary,
    SingularOperator,
    Subspace,
    ZeroOperator,
    frame_operator,
    lemma_commute_residual,
    modulus_sandwich,
    operator1_check,
    partial_frame_operator,
    per1_conditions,
    span_of,
    transform_frame,
    weaving_report,
)
from fusionweave.generators import (
    random_fusion_frame,
    random_invertible,
    random_orthogonal,
    random_rank_operator,
    random_subspace,
)
from fusionweave.perturbation import _norm_chain_holds


def test_partial_frame_operator():
    F = coordinate_frame(3)
    np.testing.assert_allclose(
        partial_frame_operator(F, [1, 2, 3]), frame_operator(F), atol=1e-12
    )
    np.testing.assert_allclose(partial_frame_operator(F, []), np.zeros((3, 3)))
    np.testing.assert_allclose(
        partial_frame_operator(F, [1, 2]), np.diag([1.0, 1.0, 0.0]), atol=1e-12
    )
    with pytest.raises(IndexOutOfRange):
        partial_frame_operator(F, [0])
    with pytest.raises(IndexOutOfRange):
        partial_frame_operator(F, [4])


def test_lemma_commute_examples():
    V = span_of([[0.0, 0.0, 1.0]])
    assert lemma_commute_residual(np.eye(3), V) <= 1e-14
    assert lemma_commute_residual(np.diag([1.0, 1.0, 0.0]), V) <= 1e-14
    with pytest.raises(DimensionMismatch):
        lemma_commute_residual(np.eye(2), V)


def test_lemma_commute_random():
    rng = np.random.default_rng(83)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        T = rng.standard_normal((n, n))
        V = random_subspace(rng, n, int(rng.integers(0, n + 1)))
        assert lemma_commute_residual(T, V) <= 1e-10


def test_modulus_sandwich_invertible():
    rng = np.random.default_rng(89)
    T = random_invertible(rng, 4)
    V = random_subspace(rng, 4, 2)
    res = modulus_sandwich(T, V)
    assert res.c == 0.0 and res.holds
    assert res.lhs <= res.mid + 1e-9 and res.mid <= res.rhs + 1e-9


def test_modulus_sandwich_tight_case():
    T = np.diag([2.0, 1.0, 0.0])
    V = span_of([[0.0, 1.0, 1.0]])
    res = modulus_sandwich(T, V)
    np.testing.assert_allclose(res.c, 1.0 / np.sqrt(2.0), atol=1e-12)
    np.testing.assert_allclose(res.lhs, 1.0 / np.sqrt(2.0), atol=1e-12)
    np.testing.assert_allclose(res.mid, 1.0 / np.sqrt(2.0), atol=1e-12)
    np.testing.assert_allclose(res.rhs, np.sqrt(2.0), atol=1e-12)
    assert res.holds


def test_modulus_sandwich_rejects_kernel_subspace():
    with pytest.raises(AngleNotLessThanOne):
        modulus_sandwich(np.diag([1.0, 0.0]), span_of([[0.0, 1.0]]))
    with pytest.raises(AngleNotLessThanOne):
        modulus_sandwich(np.eye(2), Subspace.zero(2))


def test_modulus_sandwich_random():
    rng = np.random.default_rng(97)
    checked = 0
    while checked < 200:
        n = int(rng.integers(2, 9))
        T = random_rank_operator(rng, n, int(rng.integers(1, n + 1)))
        V = random_subspace(rng, n, int(rng.integers(1, n + 1)))
        try:
            res = modulus_sandwich(T, V)
        except AngleNotLessThanOne:
            continue
        if res.c < 1.0 - 1e-6:
            assert res.holds
            checked += 1


def test_operator1_invertible():
    rng = np.random.default_rng(101)
    T = random_invertible(rng, 3)
    F = coordinate_frame(3)
    rec = operator1_check(T, F)
    assert rec.left_is_frame and rec.right_is_frame
    assert rec.equivalence_ok and rec.chain_ok

    rec = operator1_check(np.eye(3), F)
    assert rec.equivalence_ok
    assert abs(rec.left_bounds.lower - 1.0) <= 1e-10
    assert abs(rec.right_bounds.upper - 1.0) <= 1e-10


def test_operator1_degenerate_configuration():
    # rank-two projection of the coordinate spans: frame on the row space,
    # not a frame on the whole space
    rec = operator1_check(np.diag([1.0, 1.0, 0.0]), coordinate_frame(3))
    assert rec.left_is_frame
    assert abs(rec.left_bounds.lower - 1.0) <= 1e-10
    assert abs(rec.left_bounds.upper - 1.0) <= 1e-10
    assert not rec.right_is_frame and rec.right_bounds.lower <= 1e-12
    assert not rec.equivalence_ok
    assert rec.chain_ok


def test_operator1_rejects_zero():
    with pytest.raises(ZeroOperator):
        operator1_check(np.zeros((3, 3)), coordinate_frame(3))
    with pytest.raises(DimensionMismatch):
        operator1_check(np.eye(2), coordinate_frame(3))


def test_operator1_chain_random():
    rng = np.random.default_rng(103)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        T = random_rank_operator(rng, n, int(rng.integers(1, n + 1)))
        F = random_fusion_frame(rng, n, int(rng.integers(1, 5)), uniform=False)
        assert operator1_check(T, F).chain_ok


def test_operator1_chain_is_exact():
    # T = c Q maps the frame onto Q F with gamma = ||T|| = c, so both sides of
    # the chain are equalities and a gamma or ||T|| off by 1% must break it
    rng = np.random.default_rng(107)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        c = float(rng.uniform(0.5, 3.0))
        T = c * random_orthogonal(rng, n)
        F = random_fusion_frame(rng, n, int(rng.integers(n, n + 4)), uniform=False)
        moved = frame_operator(transform_frame(T, F))
        middle = T @ frame_operator(F) @ T.T
        assert operator1_check(T, F).chain_ok
        assert _norm_chain_holds(middle, moved, c, c, DEFAULT_TOL)
        assert not _norm_chain_holds(middle, moved, 1.01 * c, c, DEFAULT_TOL)
        assert not _norm_chain_holds(middle, moved, c, 0.99 * c, DEFAULT_TOL)


def test_per1_scaling_instance():
    F = coordinate_frame(3)
    v = per1_conditions(2.0 * np.eye(3), F)
    assert v.cond_i  # T W_i = W_i
    assert v.cond_ii  # ||I - T^-1|| = 1/2 < 1 = C/D
    assert v.cond_iii is None  # not unitary
    assert v.woven_verdict


def test_per1_identity_instance():
    rng = np.random.default_rng(107)
    F = random_fusion_frame(rng, 3, 4)
    v = per1_conditions(np.eye(3), F)
    assert v.cond_iii is True and v.woven_verdict


def test_per1_rotation_counterexample():
    theta = 0.7
    R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    v = per1_conditions(R, coordinate_frame(2))
    assert v.cond_iii is False
    np.testing.assert_allclose(
        v.witnesses["worst_commutator_min_eig"], -np.sin(theta), atol=1e-12
    )


def test_per1_commuting_unitary():
    # rotation inside the plane member: commutes with both partial operators
    theta = 0.4
    R = np.eye(3)
    R[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    v = per1_conditions(R, plane_axis_frame())
    assert v.cond_iii is True and v.woven_verdict


def test_per1_nested_spans_condition_i():
    W = FusionFrame.of_subspaces([span_of([[1.0, 0.0]]), span_of([[1.0, 0.0], [0.0, 1.0]])])
    T = np.array([[1.0, 1.0], [0.0, 1.0]])
    v = per1_conditions(T, W)
    assert v.cond_i and v.woven_verdict


def test_per1_errors():
    with pytest.raises(SingularOperator):
        per1_conditions(np.diag([1.0, 0.0]), coordinate_frame(2))
    with pytest.raises(NotUnitary):
        per1_conditions(2.0 * np.eye(2), coordinate_frame(2), require_unitary=True)


def _brute_force_iii(T, F, eps):
    """Condition (iii) by enumerating all 2^L partial frame operators.

    Returns the verdict, the least eigenvalue over every subset, and the
    least eigenvalue of each singleton.
    """
    length = len(F)
    overall = np.inf
    singles = np.empty(length)
    for mask in range(2**length):
        sigma = [i + 1 for i in range(length) if mask >> i & 1]
        S = partial_frame_operator(F, sigma)
        comm = T @ S - S @ T
        lam = float(np.linalg.eigvalsh(0.5 * (comm + comm.T))[0])
        overall = min(overall, lam)
        if len(sigma) == 1:
            singles[sigma[0] - 1] = lam
    return overall >= -eps, overall, singles


def _coordinate_span_frame(rng, n, length):
    # members spanned by random non-empty sets of coordinate vectors
    eye = np.eye(n)
    subs = []
    for _ in range(length):
        cols = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        subs.append(Subspace(n, eye[:, np.sort(cols)]))
    return FusionFrame.of_subspaces(subs, rng.uniform(0.5, 2.0, size=length))


def _block_rotation(rng, n, start):
    theta = rng.uniform(0.1, 1.0)
    R = np.eye(n)
    R[start : start + 2, start : start + 2] = [
        [np.cos(theta), -np.sin(theta)],
        [np.sin(theta), np.cos(theta)],
    ]
    return R


def test_per1_condition_iii_matches_brute_force():
    rng = np.random.default_rng(113)
    cases = []
    for _ in range(16):
        n, length = int(rng.integers(2, 6)), int(rng.integers(1, 11))
        F = random_fusion_frame(rng, n, length, uniform=False)
        # a symmetric orthogonal T (a reflection, e.g. any with det -1 in R^2)
        # has sym(T P - P T) = 0 for every symmetric P, so use a rotation
        T = random_orthogonal(rng, n)
        T[:, 0] *= np.sign(np.linalg.det(T))
        cases.append((T, F, False))
        cases.append((np.eye(n), F, True))
        spans = _coordinate_span_frame(rng, n, length)
        cases.append((np.diag(rng.choice([-1.0, 1.0], size=n)), spans, True))
        if n > 2:
            # the span of e_1, e_2 and lines on the other axes: a rotation
            # inside that plane commutes with every member
            eye = np.eye(n)
            members = [Subspace(n, eye[:, :2])]
            members += [Subspace(n, eye[:, [k]]) for k in rng.integers(2, n, size=length - 1)]
            blocks = FusionFrame.of_subspaces(members, rng.uniform(0.5, 2.0, size=length))
            cases.append((_block_rotation(rng, n, 0), blocks, True))
    for T, F, expected in cases:
        v = per1_conditions(T, F)
        verdict, overall, singles = _brute_force_iii(T, F, DEFAULT_TOL.frame_eps)
        assert v.cond_iii is verdict is expected
        (member,) = v.witnesses["worst_sigma"]
        witness = v.witnesses["worst_commutator_min_eig"]
        assert 1 <= member <= len(F)
        np.testing.assert_allclose(witness, singles.min(), atol=1e-12)
        np.testing.assert_allclose(witness, singles[member - 1], atol=1e-12)
        # the least subset eigenvalue lies between L (n-1) times the
        # singleton witness and the witness itself
        n = F.ambient_dim
        assert len(F) * (n - 1) * witness - 1e-12 <= overall <= witness + 1e-12


def test_per1_large_length_answers():
    # 64 members, 2^64 weavings of [F, TF]: condition (iii) needs no subset
    # draws and the woven verdict no enumeration, so per1 answers
    theta = 0.3
    R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    F = FusionFrame.of_subspaces([span_of([[1.0, 0.0]]), span_of([[0.0, 1.0]])] * 32)
    v = per1_conditions(R, F)
    assert v.cond_iii is False
    decision = v.witnesses["woven_decision"]
    assert decision.enumerated == 2**64
    # 32 copies of each line and its rotation: every weaving spans R^2
    assert v.woven_verdict and decision.woven
    assert decision.nodes < 10_000


def _coordinate_block_frame(rng, n):
    count = int(rng.integers(1, n + 1))
    sizes = rng.multinomial(n - count, [1.0 / count] * count) + 1
    eye = np.eye(n)
    subs, start = [], 0
    for size in sizes:
        subs.append(Subspace(n, eye[:, start : start + size]))
        start += int(size)
    return FusionFrame.of_subspaces(subs)


def test_per1_condition_implies_woven_random():
    rng = np.random.default_rng(109)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        F = _coordinate_block_frame(rng, n)

        # diagonal operator preserving each block: (i) and (ii) both hold
        T = np.diag(rng.uniform(0.6, 2.0, size=n))
        v = per1_conditions(T, F)
        assert v.cond_i and v.cond_ii and v.woven_verdict
        # with (ii) in force, every weaving must also pass the discrete
        # local-frame check
        from fusionweave import Assignment, discrete_frame_bounds, to_discrete, weave

        moved = transform_frame(T, F)
        report = weaving_report([F, moved])
        assert report.woven == v.woven_verdict
        for labels, is_frame in zip(report.labels.tolist(), report.is_frame.tolist()):
            woven = weave([F, moved], Assignment(tuple(labels), 2))
            _, discrete_ok = discrete_frame_bounds(to_discrete(woven))
            assert discrete_ok == is_frame
            assert discrete_ok

        # block rotation inside one member commutes with every partial
        # frame operator: (iii) holds
        wide = [i for i, S in enumerate(F.subspaces) if S.dim >= 2]
        if wide:
            start = sum(F.subspaces[i].dim for i in range(wide[0]))
            v = per1_conditions(_block_rotation(rng, n, start), F)
            assert v.cond_iii is True and v.woven_verdict
