"""Weaving of fusion frame families: assignment enumeration, per-weaving
bound reports with universal constants, Riesz weaving checks, and the
biorthogonal Riesz construction.

An assignment maps every index to the label (1..M) of the frame that
serves it; a partition block sigma_j is the preimage of label j and may
be empty.  :func:`assignments` is the one place that orders assignments
(lexicographically) and caps their number: it returns a lazy sequence
over a ``(K, L)`` label array and raises ``EnumerationTooLarge`` beyond
the cap, so every report is exhaustive.

Every weaving operator is a sum of one weighted projector per index.  A
report stacks the ``L*M`` weighted projectors once, as an ``(L*M, n*n)``
matrix, and walks the assignments in chunks of fixed byte size: a one-hot
``(chunk, L*M)`` selection times the stack forms every operator of the
chunk, and one batched eigen-solve gives their spectra.  Each report
reduces a chunk's spectra as they arrive, into arrays; the Riesz report
runs its two-sided weavings through the same kernel with unit weights.

A weaving report solves each distinct weaving once: an index
whose ``M`` weighted projectors are bitwise equal adds the same summand
whatever its label, so only the assignments of the other indices reach the
kernel, and every row of the report takes the bounds of its reduced rank.
The cap still counts all ``M^L`` rows.

:func:`decide_woven` answers only the woven question, exactly and at any
L, without enumerating: the Loewner meets of each index's weighted
projectors sum to an operator below every weaving operator, so its least
eigenvalue certifies many families at once; the rest are decided by a
depth-first search over label prefixes that closes a prefix as soon as
every completion is provably a frame, under a node budget that fails
loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EnumerationTooLarge,
    LengthMismatch,
    NonUniformWeights,
    NotOrthonormalBasis,
    SingularOperator,
)
from .frames import (
    FrameBounds,
    FusionFrame,
    _clamp_psd,
    _projector_stack,
    is_orthonormal_fusion_basis,
    transform_frame,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    _sym_eigvalsh,
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
    "WeavingReport",
    "RieszWeavingReport",
    "TransformEnvelope",
    "WovenDecision",
    "assignments",
    "weave",
    "weaving_report",
    "decide_woven",
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

# Search nodes expanded per batched eigen-solve in decide_woven: each brings
# its M children, up to 2*M operators, to one call.  Pending nodes stay
# below depth * batch * M, so memory is flat in L.
_SEARCH_BATCH = 32


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


@dataclass(frozen=True, eq=False)
class WeavingReport:
    """Per-weaving bounds as arrays, plus the universal constants over them.

    Row k of ``labels`` is an assignment (1-based labels over
    ``frame_count`` frames); ``lower[k]`` and ``upper[k]`` are the optimal
    bounds of its weaving and ``is_frame[k]`` says whether ``lower[k]``
    exceeds ``frame_eps``.  Rows are in lexicographic order, so row k is
    the assignment of rank k.  ``solved`` counts the rows that were
    eigen-solved, ``M^L'``, where ``shared`` of the L indices carry the
    same weighted projector in every frame and ``L' = L - shared``.
    """

    labels: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    is_frame: np.ndarray
    frame_count: int
    solved: int
    shared: int

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
    """``(L, M, n*n)`` stack; row ``[i, j]`` is ``w^2 P`` of member i of frame j."""
    n, length = _check_frames(frames)
    stacks = [_projector_stack(n, F.members) for F in frames]
    return np.stack(stacks, axis=1).reshape(length, len(frames), n * n)


def _shared_indices(stack: np.ndarray) -> np.ndarray:
    """Mask of the indices of an ``(L, M, n*n)`` stack whose ``M`` weighted
    projectors are bitwise equal: their label never changes the operator."""
    bits = stack.view(np.uint64)
    return (bits == bits[:, :1]).all(axis=(1, 2))


def _chunk_rows(n: int, width: int) -> int:
    """Assignments per kernel chunk for ambient dimension n and L*M = width."""
    return max(1, _CHUNK_BYTES // (8 * max(n * n, width)))


def _chunk_spectra(
    stack: np.ndarray, labels: np.ndarray, tol: Tolerance
) -> Iterator[tuple[slice, np.ndarray]]:
    """Yield ``(rows, eigs)`` per chunk: a slice of ``labels`` and the ascending
    spectra ``(chunk, n)`` of those rows' weaving operators, summed from the
    ``(L, M, n*n)`` projector stack.  Nothing for n == 0."""
    length, M, nn = stack.shape
    n = math.isqrt(nn)
    if n == 0:
        return
    stack = stack.reshape(length * M, nn)
    # label v at index i picks row i*M + v - 1
    columns = np.arange(length) * M - 1
    step = _chunk_rows(n, length * M)
    for start in range(0, labels.shape[0], step):
        rows = labels[start : start + step]
        onehot = np.zeros((rows.shape[0], length * M))
        np.put_along_axis(onehot, rows + columns, 1.0, axis=1)
        S = (onehot @ stack).reshape(-1, n, n)
        yield slice(start, start + rows.shape[0]), _sym_eigvalsh(S, tol)


def weaving_report(
    frames: Sequence[FusionFrame],
    tol: Tolerance = DEFAULT_TOL,
    enum_cap: int = ENUM_CAP,
) -> WeavingReport:
    """Evaluate the frame bounds of every one of the ``M^L`` weavings.

    The universal constants are exact minima/maxima over the rows, which
    are in lexicographic assignment order.  Beyond ``enum_cap`` rows,
    ``EnumerationTooLarge`` is raised; :func:`decide_woven` still answers
    the woven question there.

    The report solves each distinct weaving once.  Index i is
    shared when its ``M`` weighted projectors are bitwise equal: every
    label there adds the same summand to the weaving operator, so the
    operator does not depend on it.  Only the
    ``M^L'`` assignments of the ``L'`` free indices are solved, with the
    shared indices at label 1, and every row takes the bounds of its free
    labels' rank.
    """
    n, length = _check_frames(frames)
    M = len(frames)
    stack = _weighted_projectors(frames)
    labels = assignments(length, M, enum_cap).labels
    shared = _shared_indices(stack)
    solve = labels[(labels[:, shared] == 1).all(axis=1)] if shared.any() else labels
    lower, upper = np.zeros(solve.shape[0]), np.zeros(solve.shape[0])
    for rows, eigs in _chunk_spectra(stack, solve, tol):  # PSD clamp rule of frame_bounds
        lower[rows], upper[rows] = _clamp_psd(eigs[:, 0], eigs[:, -1], tol)
    if solve is not labels:
        # row k's rank among the solved rows: its free labels as base-M digits
        rank = np.zeros(labels.shape[0], dtype=np.int64)
        for column in labels.T[~shared]:
            rank *= M
            rank += column
            rank -= 1
        lower, upper = lower[rank], upper[rank]
    return WeavingReport(
        labels=labels,
        lower=lower,
        upper=upper,
        is_frame=lower > tol.frame_eps,
        frame_count=M,
        solved=solve.shape[0],
        shared=int(shared.sum()),
    )


@dataclass(frozen=True)
class WovenDecision:
    """Exact woven verdict of a family of frames (see :func:`decide_woven`).

    ``mode`` is ``"certified"`` when the meet certificate alone proves the
    family woven and ``"searched"`` when the pruned prefix search decided
    it.  ``certificate`` is ``lambda_min(base + sum_i B_i)``, a lower bound
    on the lower frame bound of every weaving; ``nodes`` counts the
    operators eigen-solved; ``enumerated`` is ``M^L``, the weavings the
    verdict covers.  A family that is not woven names a ``witness``
    weaving (1-based labels over all L indices) and its lower frame bound
    ``witness_lower``, recomputed by the report kernel; both are None
    otherwise.
    """

    woven: bool
    mode: str
    certificate: float
    nodes: int
    enumerated: int
    witness: tuple[int, ...] | None
    witness_lower: float | None


def _loewner_meets(A: np.ndarray) -> np.ndarray:
    """``(L, n, n)`` stack of ``B_i`` with ``B_i <= A[i, j]`` (Loewner order) for every
    j, folding ``X meet Y = (X + Y)/2 - |X - Y|/2`` over the labels of ``(L, M, n, n)``."""
    B = A[:, 0]
    for j in range(1, A.shape[1]):
        Y = A[:, j]
        lam, V = np.linalg.eigh(B - Y)
        modulus = (V * np.abs(lam)[:, None, :]) @ np.swapaxes(V, -1, -2)
        B = 0.5 * (B + Y) - 0.5 * modulus
        # eigh's factors are not bitwise symmetric; the eigen-solve's guard
        # would reject a meet near zero without this
        B = 0.5 * (B + np.swapaxes(B, -1, -2))
    return B


def decide_woven(
    frames: Sequence[FusionFrame],
    tol: Tolerance = DEFAULT_TOL,
    node_budget: int = ENUM_CAP,
) -> WovenDecision:
    """Exact verdict: is every one of the ``M^L`` weavings a fusion frame?

    Write ``A_ij = w_ij^2 P_ij``; weaving sigma has operator
    ``S = sum_i A_(i, sigma_i)``.  Indices whose ``M`` weighted projectors
    are bitwise equal (the shared test of :func:`weaving_report`) are
    folded into a base operator.  Each other index gets the Loewner meet
    ``B_i`` of its ``M`` projectors, so ``B_i <= A_ij`` for every label j and
    ``lambda_min(base + sum_i B_i)`` is a lower bound on every weaving's
    lower frame bound.  Above ``frame_eps`` it proves the family woven
    (``certified``, one operator solved).

    Otherwise a depth-first search over label prefixes decides, with the
    indices of the largest members (greatest ``w^2 dim``) first.  A prefix
    with partial operator ``S_k`` is closed, every completion a frame,
    when ``max(lambda_min(S_k), lambda_min(S_k + R_k)) > frame_eps``, where
    ``R_k`` sums the meets of the indices still open: every completion
    ``S`` has ``S >= S_k`` and ``S >= S_k + R_k``, and both terms are needed
    because ``R_k`` can be indefinite.  Nodes are expanded in fixed-size
    batches through one eigen-solve each.  A "no" ends at a complete
    weaving whose lower bound, recomputed by the report kernel and its
    clamp, is at most ``frame_eps``: the same test :func:`weaving_report`
    applies to every row.  When the next batch would take ``nodes`` past
    ``node_budget``, ``EnumerationTooLarge`` is raised; the search never
    returns a partial answer.
    """
    n, length = _check_frames(frames)
    if node_budget < 1:
        raise ValueError("node_budget must be positive")
    M = len(frames)
    enumerated = M**length
    stack = _weighted_projectors(frames)
    if n == 0:  # every weaving has bounds 0, as in weaving_report
        return WovenDecision(False, "searched", 0.0, 0, enumerated, (1,) * length, 0.0)
    shared = _shared_indices(stack)
    projectors = stack.reshape(length, M, n, n)
    base = projectors[shared, 0].sum(axis=0)
    free = np.flatnonzero(~shared)
    largest = np.trace(projectors[free], axis1=-2, axis2=-1).max(axis=1)
    free = free[np.argsort(-largest, kind="stable")]
    A = projectors[free]
    depth_max = free.size
    # rest[k]: the meets of the indices at depth k and beyond; rest[depth_max] = 0
    rest = np.zeros((depth_max + 1, n, n))
    if depth_max:
        rest[:-1] = np.cumsum(_loewner_meets(A)[::-1], axis=0)[::-1]
    certificate = float(_sym_eigvalsh(base + rest[0], tol)[0])
    nodes = 1
    if certificate > tol.frame_eps:
        return WovenDecision(True, "certified", certificate, nodes, enumerated, None, None)

    # pending blocks of (operators, depths, label prefixes); the last rows
    # of the last block are expanded first
    dtype = _label_dtype(M)
    pending = [(base[None], np.zeros(1, dtype=int), np.ones((1, depth_max), dtype=dtype))]
    choices = np.arange(1, M + 1, dtype=dtype)
    while pending:
        S, depth, prefix = pending[-1]
        if depth.size > _SEARCH_BATCH:
            pending[-1] = (S[:-_SEARCH_BATCH], depth[:-_SEARCH_BATCH], prefix[:-_SEARCH_BATCH])
            S, depth, prefix = S[-_SEARCH_BATCH:], depth[-_SEARCH_BATCH:], prefix[-_SEARCH_BATCH:]
        else:
            pending.pop()
        if depth[0] == depth_max:  # only the root can arrive complete: no free index
            children, child_depth, child_prefix = S, depth, prefix
        else:
            children = (S[:, None] + A[depth]).reshape(-1, n, n)
            child_depth = np.repeat(depth + 1, M)
            child_prefix = np.repeat(prefix, M, axis=0)
            child_prefix[np.arange(child_depth.size), child_depth - 1] = np.tile(choices, depth.size)
        inner = child_depth < depth_max
        cost = children.shape[0] + int(inner.sum())
        if nodes + cost > node_budget:
            raise EnumerationTooLarge(
                f"woven decision undecided after {nodes} operators solved "
                f"(node budget {node_budget}); meet certificate {certificate:.17g}"
            )
        least = _sym_eigvalsh(
            np.concatenate([children, children[inner] + rest[child_depth[inner]]]), tol
        )[:, 0]
        nodes += cost
        bound = least[: children.shape[0]]
        bound[inner] = np.maximum(bound[inner], least[children.shape[0] :])
        open_ = bound <= tol.frame_eps
        for k in np.flatnonzero(open_ & ~inner):
            labels = np.ones((1, length), dtype=dtype)
            labels[0, free] = child_prefix[k]
            (_, eigs), = _chunk_spectra(stack, labels, tol)
            lower, _ = _clamp_psd(eigs[:, 0], eigs[:, -1], tol)
            nodes += 1
            if lower[0] <= tol.frame_eps:
                witness = tuple(labels[0].tolist())
                return WovenDecision(
                    False, "searched", certificate, nodes, enumerated, witness, float(lower[0])
                )
        keep = np.flatnonzero(open_ & inner)
        if keep.size:
            keep = keep[np.argsort(-bound[keep], kind="stable")]  # least bound expanded first
            pending.append((children[keep], child_depth[keep], child_prefix[keep]))
    return WovenDecision(True, "searched", certificate, nodes, enumerated, None, None)


@dataclass(frozen=True, eq=False)
class RieszWeavingReport:
    """Riesz-sequence bounds of the two-sided weavings of ``W`` and ``V``, as arrays.

    Row k of ``labels`` takes W (label 1) at index i exactly when bit i of
    k is set, and V (label 2) elsewhere.  ``lower[k]`` and ``upper[k]`` are
    its Riesz bounds, ``is_sequence[k]`` says whether ``lower[k]`` exceeds
    ``frame_eps`` and ``is_basis[k]`` whether the row is also a basis.
    """

    labels: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    is_sequence: np.ndarray
    is_basis: np.ndarray

    @property
    def all_riesz_sequences(self) -> bool:
        return bool(self.is_sequence.all())

    @property
    def all_riesz_bases(self) -> bool:
        return bool(self.is_basis.all())

    @property
    def universal_lower(self) -> float:
        return float(self.lower.min())

    @property
    def universal_upper(self) -> float:
        return float(self.upper.max())


def riesz_weaving_report(
    W: FusionFrame, V: FusionFrame, tol: Tolerance = DEFAULT_TOL, enum_cap: int = ENUM_CAP
) -> RieszWeavingReport:
    """Riesz-sequence bounds of every two-sided weaving of 1-uniform frames.

    Row k takes W on the set bits of k and V elsewhere.  With t
    concatenated basis columns E, the bounds are the extremal squared
    singular values of E, read off the ascending spectrum
    of ``E E^T = sum_i P_i``: ``upper = lambda_max``, ``lower = lambda[n - t]``
    for ``0 < t <= n`` and 0 otherwise.  A Riesz sequence has
    ``lower > frame_eps``; a basis also has ``t == n``, the test of
    :func:`~fusionweave.frames.is_riesz_basis`.
    """
    if not W.is_uniform or not V.is_uniform:
        raise NonUniformWeights("Riesz weaving is defined for weight-1 families")
    n, length = _check_frames([W, V])
    # lexicographic order reversed on both axes: label 1 (W) at i iff bit i of k
    labels = assignments(length, 2, enum_cap).labels[::-1, ::-1]
    dims = np.array([[S.dim for S in F.subspaces] for F in (W, V)])
    unit = [FusionFrame.of_subspaces(F.subspaces) for F in (W, V)]
    columns = np.zeros(labels.shape[0], dtype=int)
    lower, upper = np.zeros(labels.shape[0]), np.zeros(labels.shape[0])
    for rows, eigs in _chunk_spectra(_weighted_projectors(unit), labels, tol):
        columns[rows] = t = np.where(labels[rows] == 1, dims[0], dims[1]).sum(axis=1)
        least = eigs[np.arange(t.size), np.clip(n - t, 0, n - 1)]
        full = (t > 0) & (t <= n)
        lower[rows], upper[rows] = _clamp_psd(np.where(full, least, 0.0), eigs[:, -1], tol)
    is_sequence = lower > tol.frame_eps
    return RieszWeavingReport(labels, lower, upper, is_sequence, is_sequence & (columns == n))


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
