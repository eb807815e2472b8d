"""Operator-perturbation checks for fusion frames: the projection
commutation identity, the reduced-modulus sandwich through the angle with
the kernel, the pseudoinverse-image equivalence record, partial frame
operators, and the three sufficient weaving conditions for an invertible
perturbation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import (
    AngleNotLessThanOne,
    DimensionMismatch,
    IndexOutOfRange,
    NotUnitary,
    SingularOperator,
    ZeroOperator,
)
from .frames import (
    FrameBounds,
    FusionFrame,
    _projector_stack,
    frame_bounds,
    frame_bounds_on_span,
    frame_operator,
    transform_frame,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    _sym_eigvalsh,
    as_matrix,
    numerical_rank,
    operator_norm,
    pinv,
    reduced_min_modulus,
)
from .subspaces import (
    Subspace,
    apply_operator,
    contains,
    friedrichs_cos,
    null_space,
    projector,
    range_space,
)
from .weaving import decide_woven

__all__ = [
    "ModulusSandwich",
    "Operator1Record",
    "Per1Verdict",
    "partial_frame_operator",
    "lemma_commute_residual",
    "modulus_sandwich",
    "operator1_check",
    "per1_conditions",
]


def partial_frame_operator(F: FusionFrame, sigma: Iterable[int]) -> np.ndarray:
    """Frame operator restricted to a subset of indices (1-based)."""
    indices = sorted(set(int(i) for i in sigma))
    if any(i < 1 or i > len(F) for i in indices):
        raise IndexOutOfRange(f"indices must lie in 1..{len(F)}: {indices}")
    return _projector_stack(F.ambient_dim, [F.members[i - 1] for i in indices]).sum(axis=0)


def lemma_commute_residual(T, V: Subspace, tol: Tolerance = DEFAULT_TOL) -> float:
    """Residual of the identity P_V T^t = P_V T^t P_{TV}; zero in theory."""
    A = as_matrix(T, "operator")
    if A.shape[1] != V.ambient_dim or A.shape[0] != V.ambient_dim:
        raise DimensionMismatch("operator and subspace dimensions do not match")
    P_V = projector(V)
    P_image = projector(apply_operator(A, V, tol))
    left = P_V @ A.T
    return operator_norm(left - left @ P_image)


@dataclass(frozen=True)
class ModulusSandwich:
    """Two-sided estimate of gamma(T P_V) through the kernel angle."""

    c: float
    lhs: float
    mid: float
    rhs: float
    holds: bool


def modulus_sandwich(T, V: Subspace, tol: Tolerance = DEFAULT_TOL) -> ModulusSandwich:
    """Check gamma(T)(1-c^2)^(1/2) <= gamma(T P_V) <= ||T||(1-c^2)^(1/2).

    ``c`` is the Friedrichs-angle cosine between the kernel of T and V.
    When V sits inside the kernel the compressed operator vanishes and the
    estimate is vacuous; that configuration is treated as c = 1 and
    rejected, matching the c < 1 hypothesis.
    """
    A = as_matrix(T, "operator")
    if A.shape[1] != V.ambient_dim:
        raise DimensionMismatch("operator and subspace dimensions do not match")
    kernel = null_space(A, tol)
    if contains(kernel, V, tol):
        c = 1.0
    else:
        c = friedrichs_cos(kernel, V, tol)
    if c >= 1.0 - tol.rank_tol:
        raise AngleNotLessThanOne(f"angle cosine {c} is not below 1")
    gamma = reduced_min_modulus(A, tol)
    slack = float(np.sqrt(1.0 - c * c))
    lhs = gamma * slack
    mid = reduced_min_modulus(A @ projector(V), tol)
    rhs = operator_norm(A) * slack
    return ModulusSandwich(c, lhs, mid, rhs, lhs - 1e-9 <= mid <= rhs + 1e-9)


@dataclass(frozen=True)
class Operator1Record:
    """Bounds of the pseudoinverse-image and image families of one frame.

    ``chain_ok`` reports the two-sided norm inequality linking the two
    families, decided exactly for every vector; ``equivalence_ok`` reports
    whether frame-ness of the left family on the operator's row space
    coincides with frame-ness of the right family on the whole space.  The equivalence is recorded, not
    asserted: degenerate non-injective configurations can break it.
    """

    left_bounds: FrameBounds
    right_bounds: FrameBounds
    gamma: float
    chain_ok: bool
    equivalence_ok: bool
    left_is_frame: bool
    right_is_frame: bool


def _norm_chain_holds(
    middle: np.ndarray, base: np.ndarray, gamma: float, norm_T: float, tol: Tolerance
) -> bool:
    """Whether ``gamma^2 base <= middle <= norm_T^2 base`` in the Loewner order.

    One eigen-solve of the two differences decides it; each may reach
    ``-frame_eps`` times ``max(1, norm_T^2 ||base||_F)``.  The differences
    are symmetrized first: at a tight chain they vanish, and the rounding
    left in ``T S T^t`` would trip the guard of the eigen-solve.
    """
    gaps = np.stack([middle - gamma**2 * base, norm_T**2 * base - middle])
    least = _sym_eigvalsh(0.5 * (gaps + gaps.transpose(0, 2, 1)), tol)[:, 0]
    return bool(least.min() >= -tol.frame_eps * max(1.0, norm_T**2 * np.linalg.norm(base)))


def operator1_check(T, F: FusionFrame, tol: Tolerance = DEFAULT_TOL) -> Operator1Record:
    """Compare {(T^+T W_i, w_i)} on the row space with {(T W_i, w_i)} on H.

    The norm chain ``gamma^2 sum_i w^2 ||P_{TW_i} f||^2 <=
    sum_i w^2 ||P_{T^+TW_i} T^t f||^2 <= ||T||^2 sum_i w^2 ||P_{TW_i} f||^2``
    for every f is the operator inequality
    ``gamma^2 S_right <= T S_left T^t <= ||T||^2 S_right`` and is decided
    exactly, from the spectra of the two differences.
    """
    A = as_matrix(T, "operator")
    if A.shape[0] != A.shape[1] or A.shape[1] != F.ambient_dim:
        raise DimensionMismatch("operator must be square with the frame's dimension")
    gamma = reduced_min_modulus(A, tol)
    if gamma <= tol.frame_eps:
        raise ZeroOperator("operator is numerically zero")
    row_projector = pinv(A, tol) @ A
    left = transform_frame(row_projector, F, tol)
    row_space = range_space(A.T, tol)
    left_bounds = frame_bounds_on_span(left, tol, within=row_space)
    left_is_frame = left_bounds.lower > tol.frame_eps
    right = transform_frame(A, F, tol)
    right_bounds, right_is_frame = frame_bounds(right, tol)
    chain_ok = _norm_chain_holds(
        A @ frame_operator(left) @ A.T, frame_operator(right), gamma, operator_norm(A), tol
    )
    return Operator1Record(
        left_bounds=left_bounds,
        right_bounds=right_bounds,
        gamma=gamma,
        chain_ok=chain_ok,
        equivalence_ok=left_is_frame == right_is_frame,
        left_is_frame=left_is_frame,
        right_is_frame=right_is_frame,
    )


@dataclass(frozen=True)
class Per1Verdict:
    """Sufficient-condition verdicts for weaving a frame with its image.

    ``woven_verdict`` is always computed independently, never inferred
    from the conditions: it is the exact verdict of
    :func:`~fusionweave.weaving.decide_woven` on ``[F, TF]`` (a meet
    certificate, else a pruned search), which solves far fewer than the
    ``2^L`` weavings and is kept under the ``woven_decision`` witness key.
    ``cond_iii`` is None when the operator is not unitary.
    """

    cond_i: bool
    cond_ii: bool
    cond_iii: bool | None
    woven_verdict: bool
    witnesses: dict = field(repr=False)


def per1_conditions(
    T,
    F: FusionFrame,
    tol: Tolerance = DEFAULT_TOL,
    require_unitary: bool = False,
) -> Per1Verdict:
    """Evaluate the three invertible-perturbation weaving conditions.

    (i) one inclusion direction between W_i and T W_i holding uniformly
    across all indices (the per-index pattern lands in the witnesses);
    (ii) W_i inside T^t T W_i for all i together with ||I - T^-1|| below
    the frame-bound ratio; (iii) for unitary T, positive semidefinite
    symmetrized commutators of T with every partial frame operator.

    Condition (iii) is decided from the L singletons, not the 2^L subsets:
    sym(T S_sigma - S_sigma T) = sum_{i in sigma} C_i with
    C_i = sym(T w_i^2 P_i - w_i^2 P_i T), and each C_i is traceless; a
    traceless PSD matrix is zero and singletons are subsets, so (iii)
    holds for every sigma exactly when every C_i is PSD.  Numerically,
    lambda_min(C_i) >= -eps for every i gives ||C_i|| <= (n-1) eps, so
    every subset sum has lambda_min >= -L (n-1) eps.  The witnesses carry
    the worst singleton ``(i,)`` and its lambda_min.
    """
    A = as_matrix(T, "operator")
    n = F.ambient_dim
    if A.shape != (n, n):
        raise DimensionMismatch("operator must be square with the frame's dimension")
    if numerical_rank(A, tol) < n or reduced_min_modulus(A, tol) <= tol.frame_eps:
        raise SingularOperator("operator is numerically singular")
    A_inv = np.linalg.inv(A)
    moved = transform_frame(A, F, tol)

    pattern = [
        (contains(TW, W, tol), contains(W, TW, tol))
        for W, TW in zip(F.subspaces, moved.subspaces)
    ]
    cond_i = all(p[0] for p in pattern) or all(p[1] for p in pattern)

    AtA = A.T @ A
    grown = transform_frame(AtA, F, tol)
    inclusions_ii = [contains(G, W, tol) for W, G in zip(F.subspaces, grown.subspaces)]
    bounds, _ = frame_bounds(F, tol)
    ratio = bounds.lower / bounds.upper if bounds.upper > 0.0 else 0.0
    norm_defect = operator_norm(np.eye(n) - A_inv)
    cond_ii = all(inclusions_ii) and norm_defect < ratio

    unitary = operator_norm(AtA - np.eye(n)) <= tol.orth_tol
    if require_unitary and not unitary:
        raise NotUnitary("condition (iii) needs a unitary operator")
    cond_iii: bool | None = None
    worst_sigma: tuple[int, ...] = ()
    worst_eig: float | None = None
    if unitary:
        S = np.stack([partial_frame_operator(F, (i,)) for i in range(1, len(F) + 1)])
        comm = A @ S - S @ A
        lam = _sym_eigvalsh(0.5 * (comm + comm.transpose(0, 2, 1)), tol)[:, 0]
        worst = int(np.argmin(lam))
        worst_sigma, worst_eig = (worst + 1,), float(lam[worst])
        cond_iii = worst_eig >= -tol.frame_eps

    decision = decide_woven([F, moved], tol)
    witnesses = {
        "inclusion_pattern": pattern,
        "inclusions_ii": inclusions_ii,
        "norm_identity_minus_inverse": norm_defect,
        "bound_ratio": ratio,
        "unitary": unitary,
        "worst_sigma": worst_sigma,
        "worst_commutator_min_eig": worst_eig,
        "woven_decision": decision,
    }
    return Per1Verdict(
        cond_i=cond_i,
        cond_ii=cond_ii,
        cond_iii=cond_iii,
        woven_verdict=decision.woven,
        witnesses=witnesses,
    )
