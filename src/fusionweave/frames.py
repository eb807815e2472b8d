"""Fusion frames over R^n and the single-family computations on them:
frame operator, optimal bounds, duals, mixed operators, Riesz checks,
and the expansion into weighted local orthonormal vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DualityLost,
    LengthMismatch,
    NonPositiveWeight,
    NotAFrame,
    PartOutsideSubspace,
)
from .linalg import DEFAULT_TOL, Tolerance, as_matrix, operator_norm, sym_eig_extremes
from .subspaces import Subspace, apply_operator, projector, span_of, subspace_sum

__all__ = [
    "WeightedSubspace",
    "FusionFrame",
    "FrameBounds",
    "DiscreteFrame",
    "frame_operator",
    "analysis",
    "synthesis",
    "frame_bounds",
    "frame_bounds_on_span",
    "canonical_dual",
    "mixed_frame_operator",
    "is_dual",
    "approx_dual_defect",
    "enlarge_canonical_dual",
    "transform_frame",
    "to_discrete",
    "discrete_frame_bounds",
    "riesz_sequence_bounds",
    "is_riesz_basis",
    "is_orthonormal_fusion_basis",
]


@dataclass(frozen=True, eq=False)
class WeightedSubspace:
    """A subspace together with a strictly positive weight."""

    subspace: Subspace
    weight: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.weight) and self.weight > 0.0):
            raise NonPositiveWeight(f"weight must be positive and finite, got {self.weight}")


@dataclass(frozen=True, eq=False)
class FusionFrame:
    """An ordered family of weighted subspaces over one ambient space.

    The name is aspirational: the family need not actually satisfy the
    frame inequality; :func:`frame_bounds` decides that.
    """

    ambient_dim: int
    members: tuple[WeightedSubspace, ...]

    def __post_init__(self):
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        if len(members) == 0:
            raise LengthMismatch("a fusion frame needs at least one member")
        for k, m in enumerate(members):
            if m.subspace.ambient_dim != self.ambient_dim:
                raise DimensionMismatch(
                    f"member {k} lives in R^{m.subspace.ambient_dim}, expected R^{self.ambient_dim}"
                )

    def __len__(self) -> int:
        return len(self.members)

    @property
    def subspaces(self) -> tuple[Subspace, ...]:
        return tuple(m.subspace for m in self.members)

    @property
    def weights(self) -> np.ndarray:
        return np.array([m.weight for m in self.members])

    @property
    def is_uniform(self) -> bool:
        return bool(np.all(np.abs(self.weights - 1.0) <= 1e-12))

    @staticmethod
    def of_subspaces(subspaces: Sequence[Subspace], weights=None) -> "FusionFrame":
        """Build a frame from subspaces; weights default to 1."""
        subspaces = list(subspaces)
        if not subspaces:
            raise LengthMismatch("a fusion frame needs at least one member")
        if weights is None:
            weights = [1.0] * len(subspaces)
        if len(weights) != len(subspaces):
            raise LengthMismatch("weights and subspaces differ in length")
        n = subspaces[0].ambient_dim
        return FusionFrame(n, tuple(WeightedSubspace(V, float(w)) for V, w in zip(subspaces, weights)))


@dataclass(frozen=True)
class FrameBounds:
    """A lower/upper bound pair with 0 <= lower <= upper."""

    lower: float
    upper: float

    def __post_init__(self):
        if self.lower < 0.0 or self.lower > self.upper + 1e-12:
            raise ValueError(f"invalid bounds ({self.lower}, {self.upper})")


def _clamp_psd(lo, hi, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """Extremal eigenvalues of PSD matrices (scalars or arrays), clamped at 0."""
    # eigvalsh can return -1e-16 for a PSD matrix; clamp only within frame_eps
    if np.any(lo < -tol.frame_eps):
        raise ValueError(f"matrix expected to be PSD has eigenvalue {np.min(lo)}")
    return np.maximum(lo, 0.0), np.maximum(hi, 0.0)


def _clamped_bounds(lo: float, hi: float, tol: Tolerance) -> FrameBounds:
    lo, hi = _clamp_psd(lo, hi, tol)
    return FrameBounds(float(lo), float(hi))


@dataclass(frozen=True, eq=False)
class DiscreteFrame:
    """Weighted vectors obtained from per-subspace orthonormal bases."""

    ambient_dim: int
    vectors: tuple[np.ndarray, ...]


def _projector_stack(n: int, members: Sequence[WeightedSubspace]) -> np.ndarray:
    """``(len(members), n, n)`` stack of ``w^2 B B^T``: the one place that
    forms weighted projectors, for every frame operator and weaving."""
    return np.array(
        [m.weight**2 * (m.subspace.basis @ m.subspace.basis.T) for m in members]
    ).reshape(len(members), n, n)


def frame_operator(F: FusionFrame) -> np.ndarray:
    """The positive operator sum of weighted projectors of the family."""
    return _projector_stack(F.ambient_dim, F.members).sum(axis=0)


def analysis(F: FusionFrame, f) -> list[np.ndarray]:
    """Weighted projections of f onto each member subspace."""
    v = np.asarray(f, dtype=float).ravel()
    if v.size != F.ambient_dim:
        raise DimensionMismatch(f"vector of length {v.size} in R^{F.ambient_dim}")
    out = []
    for m in F.members:
        B = m.subspace.basis
        out.append(m.weight * (B @ (B.T @ v)))
    return out


def synthesis(F: FusionFrame, parts: Sequence, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Weighted sum of per-member vectors; each part must lie in its subspace."""
    if len(parts) != len(F):
        raise LengthMismatch(f"{len(parts)} parts for {len(F)} members")
    result = np.zeros(F.ambient_dim)
    for k, (m, p) in enumerate(zip(F.members, parts)):
        v = np.asarray(p, dtype=float).ravel()
        if v.size != F.ambient_dim:
            raise DimensionMismatch(f"part {k} has length {v.size}, expected {F.ambient_dim}")
        norm = np.linalg.norm(v)
        if norm > 0.0:
            B = m.subspace.basis
            residual = v - B @ (B.T @ v)
            if np.linalg.norm(residual) > tol.orth_tol * norm:
                raise PartOutsideSubspace(f"part {k} is not inside its subspace")
        result += m.weight * v
    return result


def frame_bounds(F: FusionFrame, tol: Tolerance = DEFAULT_TOL) -> tuple[FrameBounds, bool]:
    """Optimal bounds = extremal eigenvalues of the frame operator.

    The family is a fusion frame exactly when the lower bound exceeds
    ``frame_eps``.
    """
    lo, hi = sym_eig_extremes(frame_operator(F), tol)
    bounds = _clamped_bounds(lo, hi, tol)
    return bounds, bounds.lower > tol.frame_eps


def frame_bounds_on_span(
    F: FusionFrame, tol: Tolerance = DEFAULT_TOL, within: Subspace | None = None
) -> FrameBounds:
    """Bounds of the frame operator compressed to a subspace.

    Default compression target is the span of all members (the bounds of
    the family seen as a fusion frame sequence); pass ``within`` to choose
    a different closed subspace, e.g. the range of an operator.
    """
    if within is None:
        within = Subspace.zero(F.ambient_dim)
        for V in F.subspaces:
            within = subspace_sum(within, V, tol)
    elif within.ambient_dim != F.ambient_dim:
        raise DimensionMismatch("compression subspace has wrong ambient dimension")
    Q = within.basis
    if Q.shape[1] == 0:
        return FrameBounds(0.0, 0.0)
    lo, hi = sym_eig_extremes(Q.T @ frame_operator(F) @ Q, tol)
    return _clamped_bounds(lo, hi, tol)


def _inverse_frame_operator(F: FusionFrame, tol: Tolerance) -> np.ndarray:
    bounds, ok = frame_bounds(F, tol)
    if not ok:
        raise NotAFrame(f"lower frame bound {bounds.lower} is below frame_eps={tol.frame_eps}")
    return np.linalg.inv(frame_operator(F))


def canonical_dual(F: FusionFrame, tol: Tolerance = DEFAULT_TOL) -> FusionFrame:
    """The dual family obtained by pushing every subspace through S^-1.

    Subspace images are re-orthonormalized; weights are kept.
    """
    S_inv = _inverse_frame_operator(F, tol)
    members = tuple(
        WeightedSubspace(apply_operator(S_inv, m.subspace, tol), m.weight) for m in F.members
    )
    return FusionFrame(F.ambient_dim, members)


def mixed_frame_operator(F: FusionFrame, V: FusionFrame, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Reconstruction operator of the pair: sum of w_i v_i P_Vi S_F^-1 P_Wi.

    Equals the identity exactly when V is a dual of F.
    """
    if len(F) != len(V):
        raise LengthMismatch(f"families have {len(F)} and {len(V)} members")
    if F.ambient_dim != V.ambient_dim:
        raise DimensionMismatch("families live in different ambient spaces")
    S_inv = _inverse_frame_operator(F, tol)
    psi = np.zeros((F.ambient_dim, F.ambient_dim))
    for mf, mv in zip(F.members, V.members):
        psi += (mf.weight * mv.weight) * projector(mv.subspace) @ S_inv @ projector(mf.subspace)
    return psi


def approx_dual_defect(F: FusionFrame, V: FusionFrame, tol: Tolerance = DEFAULT_TOL) -> float:
    """Defect ||I - psi||; V is an approximate dual of F iff this is < 1."""
    psi = mixed_frame_operator(F, V, tol)
    return operator_norm(np.eye(F.ambient_dim) - psi)


def is_dual(
    F: FusionFrame, V: FusionFrame, tol: Tolerance = DEFAULT_TOL, dual_tol: float = 1e-9
) -> bool:
    """True iff the mixed operator is the identity within ``dual_tol``."""
    return approx_dual_defect(F, V, tol) <= dual_tol


def enlarge_canonical_dual(
    F: FusionFrame, extra: Sequence[Sequence], tol: Tolerance = DEFAULT_TOL
) -> FusionFrame:
    """Dual whose i-th subspace is span(S^-1 W_i together with extra_i).

    Enlarging the canonical dual subspaces preserves the reconstruction
    identity; this is verified on the result and ``DualityLost`` is raised
    if it fails.
    """
    if len(extra) != len(F):
        raise LengthMismatch(f"{len(extra)} extra lists for {len(F)} members")
    S_inv = _inverse_frame_operator(F, tol)
    members = []
    for m, extra_vectors in zip(F.members, extra):
        cols = [S_inv @ m.subspace.basis] if m.subspace.dim else []
        cols.extend(np.asarray(v, dtype=float).reshape(-1, 1) for v in extra_vectors)
        if cols:
            stacked = np.hstack(cols)
            if stacked.shape[0] != F.ambient_dim:
                raise DimensionMismatch("extra vector with wrong length")
            V_i = span_of(stacked.T, tol)
        else:
            V_i = Subspace.zero(F.ambient_dim)
        members.append(WeightedSubspace(V_i, m.weight))
    V = FusionFrame(F.ambient_dim, tuple(members))
    defect = approx_dual_defect(F, V, tol)
    if defect > 1e-8:
        raise DualityLost(f"enlarged dual fails reconstruction, defect {defect:.3e}")
    return V


def transform_frame(T, F: FusionFrame, tol: Tolerance = DEFAULT_TOL) -> FusionFrame:
    """Apply an operator to every subspace; weights travel unchanged."""
    A = as_matrix(T, "operator")
    members = tuple(
        WeightedSubspace(apply_operator(A, m.subspace, tol), m.weight) for m in F.members
    )
    return FusionFrame(A.shape[0], members)


def to_discrete(F: FusionFrame) -> DiscreteFrame:
    """Expand into weighted local orthonormal vectors, member by member."""
    vectors = []
    for m in F.members:
        for j in range(m.subspace.dim):
            vectors.append(m.weight * m.subspace.basis[:, j])
    return DiscreteFrame(F.ambient_dim, tuple(vectors))


def discrete_frame_bounds(
    D: DiscreteFrame, tol: Tolerance = DEFAULT_TOL
) -> tuple[FrameBounds, bool]:
    """Extremal eigenvalues of the vector-system frame operator."""
    E = np.array(D.vectors).reshape(len(D.vectors), D.ambient_dim)
    lo, hi = sym_eig_extremes(E.T @ E, tol)
    bounds = _clamped_bounds(lo, hi, tol)
    return bounds, bounds.lower > tol.frame_eps


def riesz_sequence_bounds(
    subspaces: Sequence[Subspace], tol: Tolerance = DEFAULT_TOL
) -> tuple[FrameBounds, bool]:
    """Riesz-sequence bounds from the concatenated orthonormal bases.

    The bounds are the extremal eigenvalues of the Gram matrix of the
    concatenation; with more columns than ambient dimensions the Gram
    matrix is singular and the lower bound is 0.
    """
    subspaces = list(subspaces)
    if not subspaces:
        raise LengthMismatch("need at least one subspace")
    n = subspaces[0].ambient_dim
    if any(V.ambient_dim != n for V in subspaces):
        raise DimensionMismatch("subspaces live in different ambient spaces")
    E = np.hstack([V.basis for V in subspaces])
    total = E.shape[1]
    if total == 0:
        return FrameBounds(0.0, 0.0), False
    s = np.linalg.svd(E, compute_uv=False)
    upper = float(s[0] ** 2)
    lower = 0.0 if total > n else float(s[-1] ** 2)
    bounds = FrameBounds(lower, upper)
    return bounds, bounds.lower > tol.frame_eps


def is_riesz_basis(F: FusionFrame, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Riesz sequence whose subspace dimensions sum to n.

    A Riesz sequence's lower bound above ``frame_eps`` means the
    concatenated bases E have full column rank, so they span the space
    exactly when they have n columns.  The numerical rank of E (singular
    values above ``rank_tol * s_max``, with ``s_max^2 <= L``) could only
    disagree if ``rank_tol^2 * L >= frame_eps``: L > 10^11 by default.
    """
    _, ok = riesz_sequence_bounds(F.subspaces, tol)
    return ok and sum(V.dim for V in F.subspaces) == F.ambient_dim


def is_orthonormal_fusion_basis(F: FusionFrame, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Pairwise orthogonal subspaces whose dimensions fill the space."""
    dims = sum(V.dim for V in F.subspaces)
    if dims != F.ambient_dim:
        return False
    subs = F.subspaces
    for i in range(len(subs)):
        for j in range(i + 1, len(subs)):
            if subs[i].dim and subs[j].dim:
                if operator_norm(subs[i].basis.T @ subs[j].basis) > tol.orth_tol:
                    return False
    return True
