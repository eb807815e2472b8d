"""Weaving of fusion frame families: assignment enumeration, per-weaving
bound reports with universal constants, Riesz weaving checks, and the
biorthogonal Riesz construction.

An assignment maps every index to the label (1..M) of the frame that
serves it; a partition block sigma_j is the preimage of label j and may
be empty.  :func:`assignments` is the one place that orders assignments
(lexicographically) and caps their number: it returns a lazy sequence
over a ``(K, L)`` label array.  Beyond the cap a report draws a seeded
uniform sample instead and is marked as sampled.

Every weaving operator is a sum of one weighted projector per index.  A
report therefore stacks the ``L*M`` weighted projectors once, as an
``(L*M, n*n)`` matrix, and evaluates the assignments in chunks of fixed
byte size: a one-hot ``(chunk, L*M)`` selection times the stack forms
every operator of the chunk in one matrix product, and one batched
``eigvalsh`` call gives their extremal eigenvalues.  The report keeps
the results as arrays (``labels``, ``lower``, ``upper``, ``is_frame``)
and builds per-assignment objects only when ``per_assignment`` is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EnumerationTooLarge,
    LengthMismatch,
    NonSymmetric,
    NonUniformWeights,
    NotOrthonormalBasis,
    SingularOperator,
)
from .frames import (
    FrameBounds,
    FusionFrame,
    _clamp_psd,
    is_orthonormal_fusion_basis,
    riesz_sequence_bounds,
    transform_frame,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    numerical_rank,
    operator_norm,
    reduced_min_modulus,
)
from .subspaces import Subspace, apply_operator

__all__ = [
    "ENUM_CAP",
    "Assignment",
    "AssignmentSequence",
    "WeavingEntry",
    "WeavingReport",
    "RieszWeavingEntry",
    "RieszWeavingReport",
    "TransformEnvelope",
    "assignments",
    "weave",
    "weaving_report",
    "is_weakly_woven",
    "riesz_weaving_report",
    "construct_biorthogonal_riesz",
    "transform_frames",
]

ENUM_CAP = 1 << 20

# Bytes of float64 per buffer of one kernel chunk: the chunk's (chunk, n, n)
# operators, and its (chunk, L*M) one-hot selection when that is wider.
# Small enough to stay in cache and keep peak memory flat, large enough to
# amortize the per-call overhead of the batched eigen-solve (512 rows at n=8).
_CHUNK_BYTES = 256 * 1024


@dataclass(frozen=True)
class Assignment:
    """Index-to-frame label map; labels are 1-based, one per index."""

    labels: tuple[int, ...]
    frame_count: int

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(int(v) for v in self.labels))
        if any(not (1 <= v <= self.frame_count) for v in self.labels):
            raise ValueError(f"labels must lie in 1..{self.frame_count}: {self.labels}")

    def blocks(self) -> list[tuple[int, ...]]:
        """Partition blocks as 1-based index tuples, one per label."""
        return [
            tuple(i + 1 for i, v in enumerate(self.labels) if v == j)
            for j in range(1, self.frame_count + 1)
        ]


class AssignmentSequence(Sequence[Assignment]):
    """Read-only sequence of assignments over a ``(K, L)`` label array.

    ``labels`` holds 1-based frame labels, one row per assignment; an
    :class:`Assignment` is built only when an item is read.  Slices are
    sequences over the matching rows.
    """

    def __init__(self, labels: np.ndarray, frame_count: int):
        self.labels = labels
        self.frame_count = frame_count

    def __len__(self) -> int:
        return self.labels.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return AssignmentSequence(self.labels[index], self.frame_count)
        return Assignment(tuple(self.labels[index].tolist()), self.frame_count)

    def __iter__(self) -> Iterator[Assignment]:
        for row in self.labels.tolist():
            yield Assignment(tuple(row), self.frame_count)


def _label_dtype(frame_count: int) -> type:
    return np.int8 if frame_count <= np.iinfo(np.int8).max else np.int64


@dataclass(frozen=True)
class WeavingEntry:
    assignment: Assignment
    bounds: FrameBounds
    is_frame: bool


@dataclass(frozen=True, eq=False)
class WeavingReport:
    """Per-weaving bounds as arrays, plus the universal constants over them.

    Row k of ``labels`` is an assignment (1-based labels over
    ``frame_count`` frames); ``lower[k]`` and ``upper[k]`` are the optimal
    bounds of its weaving and ``is_frame[k]`` says whether ``lower[k]``
    exceeds ``frame_eps``.  Rows are in lexicographic order; a sampled
    report keeps repeated draws.
    """

    labels: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    is_frame: np.ndarray
    frame_count: int
    sampled: bool

    @property
    def enumerated(self) -> int:
        """Number of weavings evaluated (rows of the report)."""
        return self.labels.shape[0]

    @property
    def universal_lower(self) -> float:
        return float(self.lower.min())

    @property
    def universal_upper(self) -> float:
        return float(self.upper.max())

    @property
    def woven(self) -> bool:
        return bool(self.is_frame.all())

    @property
    def witness_lower(self) -> tuple[int, ...]:
        """Labels of the first row attaining the universal lower bound C."""
        return tuple(self.labels[np.argmin(self.lower)].tolist())

    @property
    def witness_upper(self) -> tuple[int, ...]:
        """Labels of the first row attaining the universal upper bound D."""
        return tuple(self.labels[np.argmax(self.upper)].tolist())

    @property
    def per_assignment(self) -> tuple[WeavingEntry, ...]:
        """One entry per row, built from the arrays on every access."""
        return tuple(
            WeavingEntry(a, FrameBounds(lo, hi), ok)
            for a, lo, hi, ok in zip(
                AssignmentSequence(self.labels, self.frame_count),
                self.lower.tolist(),
                self.upper.tolist(),
                self.is_frame.tolist(),
            )
        )


def assignments(
    index_count: int, frame_count: int, enum_cap: int = ENUM_CAP
) -> AssignmentSequence:
    """All frame_count**index_count assignments in lexicographic order.

    Row k holds the base-``frame_count`` digits of k, most significant
    first, each plus one: item k is the assignment of rank k.
    """
    if index_count < 1 or frame_count < 1:
        raise ValueError("index_count and frame_count must be at least 1")
    total = frame_count**index_count
    if total > enum_cap:
        raise EnumerationTooLarge(
            f"{frame_count}^{index_count} = {total} assignments exceed cap {enum_cap}"
        )
    ranks = np.arange(total)
    labels = np.empty((total, index_count), dtype=_label_dtype(frame_count))
    for i in range(index_count):
        labels[:, i] = ranks // frame_count ** (index_count - 1 - i) % frame_count + 1
    return AssignmentSequence(labels, frame_count)


def _check_frames(frames: Sequence[FusionFrame]) -> tuple[int, int]:
    if len(frames) < 1:
        raise LengthMismatch("need at least one frame")
    n = frames[0].ambient_dim
    length = len(frames[0])
    for F in frames:
        if F.ambient_dim != n:
            raise DimensionMismatch("frames live in different ambient spaces")
        if len(F) != length:
            raise LengthMismatch("frames have different index-set sizes")
    return n, length


def weave(frames: Sequence[FusionFrame], a: Assignment) -> FusionFrame:
    """The mixture whose member i comes from the frame labeled a.labels[i].

    The weight travels with the chosen subspace.
    """
    n, length = _check_frames(frames)
    if len(a.labels) != length or a.frame_count != len(frames):
        raise LengthMismatch(
            f"assignment for {len(a.labels)} indices over {a.frame_count} frames, "
            f"expected {length} indices over {len(frames)} frames"
        )
    members = tuple(frames[label - 1].members[i] for i, label in enumerate(a.labels))
    return FusionFrame(n, members)


def _weighted_projectors(frames: Sequence[FusionFrame]) -> np.ndarray:
    """``(L*M, n*n)`` stack; row ``i*M + j`` is ``w^2 P`` of member i of frame j."""
    n, length = _check_frames(frames)
    stack = np.empty((length, len(frames), n, n))
    for j, F in enumerate(frames):
        for i, m in enumerate(F.members):
            B = m.subspace.basis
            stack[i, j] = m.weight**2 * (B @ B.T)
    return stack.reshape(length * len(frames), n * n)


def _chunk_rows(n: int, width: int) -> int:
    """Assignments per kernel chunk for ambient dimension n and L*M = width."""
    return max(1, _CHUNK_BYTES // (8 * max(n * n, width)))


def _weaving_bounds(
    frames: Sequence[FusionFrame], labels: np.ndarray, tol: Tolerance
) -> tuple[np.ndarray, np.ndarray]:
    """Clamped extremal eigenvalues of the weaving operator of every label row.

    Raises ``NonSymmetric`` when an operator fails
    ``||S - S^T||_F <= orth_tol * max|lambda|``, and applies the PSD clamp
    rule of :func:`frame_bounds`.
    """
    n = frames[0].ambient_dim
    K, length = labels.shape
    if n == 0:
        return np.zeros(K), np.zeros(K)
    stack = _weighted_projectors(frames)
    width = stack.shape[0]
    columns = np.arange(length) * len(frames) - 1  # label v at index i picks row i*M + v - 1
    lower, upper = np.empty(K), np.empty(K)
    step = _chunk_rows(n, width)
    for start in range(0, K, step):
        rows = labels[start : start + step]
        onehot = np.zeros((rows.shape[0], width))
        np.put_along_axis(onehot, rows + columns, 1.0, axis=1)
        S = (onehot @ stack).reshape(-1, n, n)
        St = S.transpose(0, 2, 1)
        eigs = np.linalg.eigvalsh(0.5 * (S + St))
        lo, hi = eigs[:, 0], eigs[:, -1]
        if np.any(np.linalg.norm(S - St, axis=(1, 2)) > tol.orth_tol * np.maximum(-lo, hi)):
            raise NonSymmetric("weaving operator is not symmetric within orth_tol")
        lower[start : start + step], upper[start : start + step] = _clamp_psd(lo, hi, tol)
    return lower, upper


def weaving_report(
    frames: Sequence[FusionFrame],
    tol: Tolerance = DEFAULT_TOL,
    sample_count: int | None = None,
    seed: int = 0,
    enum_cap: int = ENUM_CAP,
) -> WeavingReport:
    """Evaluate the frame bounds of every weaving (or a seeded sample).

    In exhaustive mode the universal constants are exact minima/maxima; in
    sampled mode they are one-sided estimates and the report says so via
    ``sampled``.  Rows are in lexicographic assignment order either way
    (sampled rows keep duplicates), so the output is deterministic for
    fixed inputs and seed.
    """
    n, length = _check_frames(frames)
    M = len(frames)
    if sample_count is None:
        labels = assignments(length, M, enum_cap).labels
    else:
        if sample_count < 1:
            raise ValueError("sample_count must be positive")
        rng = np.random.default_rng(seed)
        drawn = rng.integers(1, M + 1, size=(sample_count, length))
        labels = drawn[np.lexsort(drawn.T[::-1])].astype(_label_dtype(M))
    lower, upper = _weaving_bounds(frames, labels, tol)
    return WeavingReport(
        labels=labels,
        lower=lower,
        upper=upper,
        is_frame=lower > tol.frame_eps,
        frame_count=M,
        sampled=sample_count is not None,
    )


def is_weakly_woven(
    frames: Sequence[FusionFrame], tol: Tolerance = DEFAULT_TOL, enum_cap: int = ENUM_CAP
) -> bool:
    """True iff every weaving is a fusion frame.

    At finite scale this coincides with the existence of universal bounds,
    so the value always equals ``weaving_report(...).woven`` in exhaustive
    mode.
    """
    return weaving_report(frames, tol, enum_cap=enum_cap).woven


@dataclass(frozen=True)
class RieszWeavingEntry:
    subset: tuple[int, ...]  # 1-based indices served by the first frame
    bounds: FrameBounds
    is_riesz_sequence: bool
    rank: int
    is_riesz_basis: bool


@dataclass(frozen=True)
class RieszWeavingReport:
    per_subset: tuple[RieszWeavingEntry, ...]
    all_riesz_sequences: bool
    all_riesz_bases: bool
    universal_lower: float
    universal_upper: float


def riesz_weaving_report(
    W: FusionFrame, V: FusionFrame, tol: Tolerance = DEFAULT_TOL, enum_cap: int = ENUM_CAP
) -> RieszWeavingReport:
    """Riesz-sequence bounds of every two-sided weaving of 1-uniform frames.

    For each subset sigma the family takes W on sigma and V on the
    complement; the verdicts record whether every weaving is a Riesz
    sequence and whether every weaving is additionally complete.
    """
    if not W.is_uniform or not V.is_uniform:
        raise NonUniformWeights("Riesz weaving is defined for weight-1 families")
    n, length = _check_frames([W, V])
    if 2**length > enum_cap:
        raise EnumerationTooLarge(f"2^{length} subsets exceed cap {enum_cap}")
    entries = []
    for mask in range(2**length):
        subset = tuple(i + 1 for i in range(length) if mask >> i & 1)
        family = [
            W.subspaces[i] if (mask >> i & 1) else V.subspaces[i] for i in range(length)
        ]
        bounds, is_seq = riesz_sequence_bounds(family, tol)
        rank = numerical_rank(np.hstack([S.basis for S in family]), tol)
        entries.append(RieszWeavingEntry(subset, bounds, is_seq, rank, is_seq and rank == n))
    return RieszWeavingReport(
        per_subset=tuple(entries),
        all_riesz_sequences=all(e.is_riesz_sequence for e in entries),
        all_riesz_bases=all(e.is_riesz_basis for e in entries),
        universal_lower=min(e.bounds.lower for e in entries),
        universal_upper=max(e.bounds.upper for e in entries),
    )


def construct_biorthogonal_riesz(
    U, basis_subspaces: Sequence[Subspace], tol: Tolerance = DEFAULT_TOL
) -> tuple[FusionFrame, FusionFrame]:
    """Riesz fusion basis pair (U N_i, (U^-1)^T N_i) with cross-orthogonality.

    Starting from an orthonormal fusion basis N, the two images satisfy
    W_i perpendicular to V_j for i != j, and every weaving of the pair is
    a fusion Riesz basis.
    """
    A = as_matrix(U, "operator")
    if A.shape[0] != A.shape[1]:
        raise SingularOperator("operator must be square")
    if reduced_min_modulus(A, tol) <= tol.frame_eps or numerical_rank(A, tol) < A.shape[0]:
        raise SingularOperator("operator is numerically singular")
    N = FusionFrame.of_subspaces(basis_subspaces)
    if N.ambient_dim != A.shape[0]:
        raise DimensionMismatch("operator and subspaces have different dimensions")
    if not is_orthonormal_fusion_basis(N, tol):
        raise NotOrthonormalBasis("subspaces are not an orthonormal fusion basis")
    A_inv_t = np.linalg.inv(A).T
    W = FusionFrame.of_subspaces([apply_operator(A, S, tol) for S in N.subspaces])
    V = FusionFrame.of_subspaces([apply_operator(A_inv_t, S, tol) for S in N.subspaces])
    return W, V


@dataclass(frozen=True)
class TransformEnvelope:
    """Universal bounds before/after an invertible transform, with the
    condition-number envelope verdicts."""

    original: FrameBounds
    transformed: FrameBounds
    kappa: float  # ||T||^2 ||T^-1||^2
    lower_ok: bool
    upper_ok: bool


def transform_frames(
    T,
    frames: Sequence[FusionFrame],
    tol: Tolerance = DEFAULT_TOL,
    enum_cap: int = ENUM_CAP,
) -> tuple[tuple[FusionFrame, ...], TransformEnvelope]:
    """Apply an invertible operator to every subspace of every frame.

    The returned record compares the universal weaving bounds before and
    after against the envelope C/kappa <= C' and D' <= D*kappa, with
    kappa the squared condition number of the transform.
    """
    A = as_matrix(T, "operator")
    if A.shape[0] != A.shape[1]:
        raise SingularOperator("operator must be square")
    if reduced_min_modulus(A, tol) <= tol.frame_eps or numerical_rank(A, tol) < A.shape[0]:
        raise SingularOperator("operator is numerically singular")
    before = weaving_report(frames, tol, enum_cap=enum_cap)
    moved = tuple(transform_frame(A, F, tol) for F in frames)
    after = weaving_report(moved, tol, enum_cap=enum_cap)
    kappa = operator_norm(A) ** 2 * operator_norm(np.linalg.inv(A)) ** 2
    record = TransformEnvelope(
        original=FrameBounds(before.universal_lower, before.universal_upper),
        transformed=FrameBounds(after.universal_lower, after.universal_upper),
        kappa=kappa,
        lower_ok=after.universal_lower >= before.universal_lower / kappa - 1e-9,
        upper_ok=after.universal_upper <= before.universal_upper * kappa + 1e-9,
    )
    return moved, record
