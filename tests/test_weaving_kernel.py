"""The chunked weaving kernel against the per-weaving reference path, the
Riesz weaving report against the per-subset reference path, and the lazy
assignment sequence that feeds them."""

import itertools
import math

import numpy as np
import pytest

from fusionweave import (
    Assignment,
    EnumerationTooLarge,
    FusionFrame,
    NonSymmetric,
    Subspace,
    assignments,
    canonical_dual,
    frame_bounds,
    numerical_rank,
    riesz_sequence_bounds,
    riesz_weaving_report,
    weave,
    weaving_report,
)
from fusionweave import weaving
from fusionweave.generators import random_riesz_fusion_basis, random_subspace


def _frame(rng, n, count):
    """Random non-uniform weights; member dimensions 0..n, zero included."""
    dims = rng.integers(0, n + 1, size=count)
    subs = [Subspace.zero(n) if d == 0 else random_subspace(rng, n, int(d)) for d in dims]
    return FusionFrame.of_subspaces(subs, rng.uniform(0.5, 2.0, size=count))


def _grid():
    rng = np.random.default_rng(20181)
    cases = []
    for M in (1, 2, 3):
        for n in range(1, 7):
            L = int(rng.integers(1, 9 if M < 3 else 6))
            cases.append([_frame(rng, n, L) for _ in range(M)])
    # more assignments than one chunk holds, at both ends of the n range
    for n in (1, 6):
        cases.append([_frame(rng, n, 7) for _ in range(3)])
    return cases


@pytest.mark.parametrize("frames", _grid())
def test_kernel_matches_per_weaving_bounds(frames):
    n, L, M = frames[0].ambient_dim, len(frames[0]), len(frames)
    report = weaving_report(frames)
    assert report.enumerated == M**L
    assert report.labels.shape == (M**L, L)
    for k, a in enumerate(assignments(L, M)):
        bounds, ok = frame_bounds(weave(frames, a))
        assert abs(report.lower[k] - bounds.lower) <= 1e-12
        assert abs(report.upper[k] - bounds.upper) <= 1e-12
        assert report.is_frame[k] == ok
    assert report.woven == bool(report.is_frame.all())
    assert np.all(report.lower >= 0.0)
    k_lo = np.flatnonzero(report.lower == report.universal_lower)[0]
    k_hi = np.flatnonzero(report.upper == report.universal_upper)[0]
    assert report.witness_lower == tuple(report.labels[k_lo])
    assert report.witness_upper == tuple(report.labels[k_hi])


def test_grid_spans_one_and_several_chunks():
    above = {
        len(F) ** len(F[0]) > weaving._chunk_rows(F[0].ambient_dim, len(F) * len(F[0]))
        for F in _grid()
    }
    assert above == {False, True}


def test_assignment_sequence():
    a = assignments(4, 3)
    expected = list(itertools.product((1, 2, 3), repeat=4))
    assert len(a) == 81
    assert a.labels.shape == (81, 4) and a.labels.dtype == np.int8
    assert [x.labels for x in a] == expected
    assert a[5] == Assignment(expected[5], 3)
    assert a[-1].labels == (3, 3, 3, 3) and a[-81].labels == expected[0]
    with pytest.raises(IndexError):
        a[81]
    with pytest.raises(IndexError):
        a[-82]
    for s in (slice(5, 9), slice(None, None, -1), slice(-3, None), slice(10, 3)):
        part = a[s]
        assert len(part) == len(expected[s])
        assert [x.labels for x in part] == expected[s]
        assert part.frame_count == 3
    assert Assignment((2, 1, 3, 1), 3) in a
    assert a.index(Assignment((2, 1, 3, 1), 3)) == expected.index((2, 1, 3, 1))
    assert len(assignments(5, 3, enum_cap=243)) == 243
    with pytest.raises(EnumerationTooLarge):
        assignments(5, 3, enum_cap=242)


def _count_eigen_solves(monkeypatch) -> list:
    calls = []
    real = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


def test_one_eigen_solve_per_chunk(monkeypatch):
    rng = np.random.default_rng(11)
    calls = _count_eigen_solves(monkeypatch)
    shared_seen = 0
    for n, L, M in ((4, 3, 2), (4, 11, 2), (2, 7, 3)):
        frames = [_frame(rng, n, L) for _ in range(M)]
        # random members of positive dimension differ; an index whose members
        # are all zero-dimensional adds the zero projector whatever its label
        free = sum(any(F.subspaces[i].dim > 0 for F in frames) for i in range(L))
        shared_seen += L - free
        calls.clear()
        weaving_report(frames)
        chunk = weaving._chunk_rows(n, L * M)
        assert len(calls) == math.ceil(M**free / chunk)
        assert sum(shape[0] for shape in calls) == M**free
    assert shared_seen > 0


def _separate_copies(F):
    """The same members as new objects, as two documents loading them would give."""
    return FusionFrame.of_subspaces(
        [Subspace(S.ambient_dim, S.basis.copy()) for S in F.subspaces], F.weights.copy()
    )


def _reduction_cases():
    """(frames, shared indices), the shared indices known by construction."""
    rng = np.random.default_rng(5309)
    n = 4
    positive = lambda: random_subspace(rng, n, int(rng.integers(1, n + 1)))
    # members of positive dimension drawn at random: no two are equal
    base, other, third = (
        FusionFrame.of_subspaces([positive() for _ in range(6)], rng.uniform(0.5, 2.0, 6))
        for _ in range(3)
    )

    def mix(into, source, indices):
        """``into`` with source's members (as new objects) at the given indices."""
        copy = _separate_copies(source)
        members = [copy.members[i] if i in indices else m for i, m in enumerate(into.members)]
        return FusionFrame(n, tuple(members))

    def zeros_then_positive(weights):
        subs = [Subspace.zero(n)] * 3 + [positive() for _ in range(3)]
        return FusionFrame.of_subspaces(subs, weights)

    def full_line_full(weights):
        return FusionFrame.of_subspaces([Subspace.full(n), positive(), Subspace.full(n)], weights)

    F = _frame(rng, n, 6)
    return [
        # identical members as separate objects
        ([base, mix(other, base, {0, 2, 5})], {0, 2, 5}),
        # zero-dimensional members with different weights: all add the zero projector
        (
            [zeros_then_positive([0.5, 1.0, 2.0, 1, 1, 1]), zeros_then_positive([3.0, 0.7, 1.1, 1, 1, 1])],
            {0, 1, 2},
        ),
        # full-space members: equal weights share, different weights do not
        ([full_line_full([1.5, 1.0, 0.8]), full_line_full([1.5, 1.0, 0.9])], {0}),
        ([F], set(range(6))),
        ([F, _separate_copies(F), F], set(range(6))),
        ([base, other], set()),
        # weights one part in 10^12 apart: no tolerance, so nothing is shared
        ([base, FusionFrame.of_subspaces(base.subspaces, base.weights * (1 + 1e-12))], set()),
        # equal in two of three frames only
        ([base, mix(other, base, {1, 4}), third], set()),
    ]


@pytest.mark.parametrize("frames, shared", _reduction_cases())
def test_shared_members_solved_once(monkeypatch, frames, shared):
    n, L, M = frames[0].ambient_dim, len(frames[0]), len(frames)
    free = L - len(shared)
    calls = _count_eigen_solves(monkeypatch)
    report = weaving_report(frames)
    assert sum(shape[0] for shape in calls) == M**free
    assert len(calls) == math.ceil(M**free / weaving._chunk_rows(n, L * M))
    assert report.solved == M**free and report.shared == len(shared)
    assert report.enumerated == M**L
    assert np.array_equal(report.labels, assignments(L, M).labels)
    for k, a in enumerate(assignments(L, M)):
        bounds, ok = frame_bounds(weave(frames, a))
        assert abs(report.lower[k] - bounds.lower) <= 1e-12
        assert abs(report.upper[k] - bounds.upper) <= 1e-12
        assert report.is_frame[k] == ok
    k_lo = np.flatnonzero(report.lower == report.lower.min())[0]
    k_hi = np.flatnonzero(report.upper == report.upper.max())[0]
    assert report.witness_lower == tuple(report.labels[k_lo].tolist())
    assert report.witness_upper == tuple(report.labels[k_hi].tolist())
    # rows that differ only at shared indices carry bitwise the same bounds
    seen = {}
    free_labels = report.labels[:, [i for i in range(L) if i not in shared]]
    for row, lo, hi in zip(free_labels.tolist(), report.lower.tolist(), report.upper.tolist()):
        assert seen.setdefault(tuple(row), (lo, hi)) == (lo, hi)
    assert len(seen) == M**free


def _patched_stack(monkeypatch, extra):
    real = weaving._weighted_projectors

    def patched(frames):
        stack = real(frames)
        n = frames[0].ambient_dim
        return stack + np.asarray(extra(n), dtype=float).reshape(1, n * n)

    monkeypatch.setattr(weaving, "_weighted_projectors", patched)


def test_symmetry_guard(monkeypatch):
    frames = [FusionFrame.of_subspaces([Subspace.full(3)])] * 2
    skew = lambda n: 1e-6 * (np.triu(np.ones((n, n)), 1) - np.tril(np.ones((n, n)), -1))
    _patched_stack(monkeypatch, skew)
    with pytest.raises(NonSymmetric):
        weaving_report(frames)


@pytest.mark.parametrize("shift, clamped", [(-1e-12, True), (-1e-6, False)])
def test_clamp_rule(monkeypatch, shift, clamped):
    # a zero member plus a tiny negative shift: within frame_eps it clamps to 0,
    # beyond it the operator is not PSD and the kernel refuses it
    frames = [FusionFrame.of_subspaces([Subspace.zero(2)])] * 2
    _patched_stack(monkeypatch, lambda n: shift * np.eye(n))
    if clamped:
        report = weaving_report(frames)
        assert np.all(report.lower == 0.0) and np.all(report.upper == 0.0)
        assert not report.woven
    else:
        with pytest.raises(ValueError, match="PSD"):
            weaving_report(frames)


def _unit_frame(rng, n, count):
    """Weight-1 random subspaces of dimensions 0..n."""
    dims = rng.integers(0, n + 1, size=count)
    return FusionFrame.of_subspaces(
        [Subspace.zero(n) if d == 0 else random_subspace(rng, n, int(d)) for d in dims]
    )


def _coordinate_frame(rng, n, count):
    """Spans of up to two coordinate vectors, so directions repeat across members."""
    eye = np.eye(n)
    subs = []
    for _ in range(count):
        picked = np.sort(rng.choice(n, size=int(rng.integers(0, min(n, 2) + 1)), replace=False))
        subs.append(Subspace(n, eye[:, picked]) if picked.size else Subspace.zero(n))
    return FusionFrame.of_subspaces(subs)


def _riesz_grid():
    rng = np.random.default_rng(4101)
    cases = []
    for n in range(1, 7):
        L = int(rng.integers(1, 8))
        cases.append((_unit_frame(rng, n, L), _unit_frame(rng, n, L)))
        cases.append((_coordinate_frame(rng, n, L), _coordinate_frame(rng, n, L)))
        F, _, _ = random_riesz_fusion_basis(rng, n, int(rng.integers(1, n + 1)))
        cases.append((F, canonical_dual(F)))
        G, _, _ = random_riesz_fusion_basis(rng, n, len(F))
        cases.append((F, G))
    return cases


def _riesz_reference(W, V, mask):
    """The per-subset path: W on the set bits of mask, V elsewhere."""
    n, L = W.ambient_dim, len(W)
    family = [W.subspaces[i] if mask >> i & 1 else V.subspaces[i] for i in range(L)]
    bounds, is_seq = riesz_sequence_bounds(family)
    rank = numerical_rank(np.hstack([S.basis for S in family]))
    subset = tuple(i + 1 for i in range(L) if mask >> i & 1)
    return subset, bounds, is_seq, is_seq and rank == n


@pytest.mark.parametrize("W, V", _riesz_grid())
@pytest.mark.parametrize("chunk_rows", [None, 3])
def test_riesz_report_matches_per_subset_reference(monkeypatch, W, V, chunk_rows):
    n, L = W.ambient_dim, len(W)
    if chunk_rows is not None:  # several chunks, so rows cross chunk boundaries
        monkeypatch.setattr(weaving, "_CHUNK_BYTES", 8 * max(n * n, 2 * L) * chunk_rows)
    calls = _count_eigen_solves(monkeypatch)
    report = riesz_weaving_report(W, V)
    assert len(calls) == math.ceil(2**L / weaving._chunk_rows(n, 2 * L))
    assert report.labels.shape == (2**L, L)
    reference = [_riesz_reference(W, V, mask) for mask in range(2**L)]
    for k, (subset, bounds, is_seq, is_basis) in enumerate(reference):
        assert tuple(i + 1 for i, v in enumerate(report.labels[k].tolist()) if v == 1) == subset
        assert report.is_sequence[k] == is_seq
        assert report.is_basis[k] == is_basis
        assert abs(report.lower[k] - bounds.lower) <= 1e-12
        assert abs(report.upper[k] - bounds.upper) <= 1e-12
    assert report.all_riesz_sequences == all(r[2] for r in reference)
    assert report.all_riesz_bases == all(r[3] for r in reference)
    assert abs(report.universal_lower - min(r[1].lower for r in reference)) <= 1e-12
    assert abs(report.universal_upper - max(r[1].upper for r in reference)) <= 1e-12
    with pytest.raises(EnumerationTooLarge):
        riesz_weaving_report(W, V, enum_cap=2**L - 1)


def test_riesz_grid_covers_every_verdict():
    verdicts = set()
    for W, V in _riesz_grid():
        for mask in range(2 ** len(W)):
            _, _, is_seq, is_basis = _riesz_reference(W, V, mask)
            verdicts.add((is_seq, is_basis))
    assert verdicts == {(False, False), (True, False), (True, True)}
