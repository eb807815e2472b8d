"""Dense real-matrix primitives: orthonormalization, pseudoinverse,
extremal eigenvalues, operator norm, reduced minimum modulus, rank.

All routines work on plain 2-D ``numpy.ndarray`` values with float64
entries and are pure functions: no state, safe to call concurrently.
Rank decisions use a relative threshold ``rank_tol * sigma_max`` so that
they are invariant under rescaling of the input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonSymmetric

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "as_matrix",
    "orthonormal_columns",
    "pinv",
    "sym_eig_extremes",
    "operator_norm",
    "reduced_min_modulus",
    "numerical_rank",
]


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds used across the package.

    rank_tol
        Relative singular-value threshold for rank decisions.
    frame_eps
        Absolute positivity threshold for lower frame bounds.
    orth_tol
        Residual allowed when testing orthonormality or inclusion.
    """

    rank_tol: float = 1e-10
    frame_eps: float = 1e-9
    orth_tol: float = 1e-10

    def __post_init__(self):
        for name in ("rank_tol", "frame_eps", "orth_tol"):
            value = getattr(self, name)
            if not (0.0 < value < 1.0):
                raise ValueError(f"{name} must lie strictly between 0 and 1, got {value}")


DEFAULT_TOL = Tolerance()


def as_matrix(A, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array and reject non-finite entries."""
    M = np.asarray(A, dtype=float)
    if M.ndim == 1:
        M = M.reshape(-1, 1)
    if M.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got ndim={M.ndim}")
    if M.size and not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    return M


def _svdvals(A: np.ndarray) -> np.ndarray:
    if A.size == 0:
        return np.zeros(0)
    return np.linalg.svd(A, compute_uv=False)


def orthonormal_columns(A, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the column space of ``A``.

    Columns are ordered by decreasing singular value of ``A``, which makes
    the output deterministic for a fixed input.  Rank 0 yields a matrix
    with zero columns.
    """
    M = as_matrix(A)
    if M.shape[1] == 0 or M.shape[0] == 0:
        return np.zeros((M.shape[0], 0))
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    rank = int(np.sum(s > tol.rank_tol * s[0])) if s.size else 0
    return U[:, :rank]


def pinv(A, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse with relative rank cutoff.

    Singular values at or below ``rank_tol * sigma_max`` are treated as
    zero; the result satisfies the four Penrose identities to within
    1e-9 relative residual.
    """
    M = as_matrix(A)
    if M.size == 0:
        return np.zeros((M.shape[1], M.shape[0]))
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((M.shape[1], M.shape[0]))
    keep = s > tol.rank_tol * s[0]
    s_inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    return (Vt.T * s_inv) @ U.T


def _sym_eigvalsh(S: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Ascending eigenvalues of ``(S + S^T) / 2`` for a ``(..., n, n)`` stack, n >= 1;
    ``NonSymmetric`` unless ``||S - S^T||_F <= orth_tol * max|lambda|`` for each."""
    St = np.swapaxes(S, -1, -2)
    eigs = np.linalg.eigvalsh(0.5 * (S + St))
    scale = np.maximum(-eigs[..., 0], eigs[..., -1])
    if np.any(np.linalg.norm(S - St, axis=(-2, -1)) > tol.orth_tol * scale):
        raise NonSymmetric("matrix is not symmetric within orth_tol")
    return eigs


def sym_eig_extremes(S, tol: Tolerance = DEFAULT_TOL) -> tuple[float, float]:
    """Extremal eigenvalues (min, max) of a symmetric matrix.

    The input must be square with ``||S - S^T||_F <= orth_tol * max|lambda|``;
    eigenvalues are taken from the symmetrized matrix ``(S + S^T) / 2``.
    """
    M = as_matrix(S, "symmetric matrix")
    n, m = M.shape
    if n != m:
        raise NonSymmetric(f"expected a square matrix, got shape {M.shape}")
    if n == 0:
        return (0.0, 0.0)
    eigs = _sym_eigvalsh(M, tol)
    return (float(eigs[0]), float(eigs[-1]))


def operator_norm(A) -> float:
    """Largest singular value; 0 for empty matrices."""
    M = as_matrix(A)
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))


def reduced_min_modulus(A, tol: Tolerance = DEFAULT_TOL) -> float:
    """Smallest singular value above the rank cutoff, 0 for the zero matrix.

    Equals ``1 / ||pinv(A)||`` whenever ``A`` is nonzero, and is invariant
    under transposition.
    """
    M = as_matrix(A)
    s = _svdvals(M)
    if s.size == 0 or s[0] == 0.0:
        return 0.0
    above = s[s > tol.rank_tol * s[0]]
    if above.size == 0:
        return 0.0
    return float(above[-1])


def numerical_rank(A, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of singular values above ``rank_tol * sigma_max``."""
    M = as_matrix(A)
    s = _svdvals(M)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol.rank_tol * s[0]))
