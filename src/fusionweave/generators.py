"""Seeded random instances: subspaces, fusion frames, Riesz fusion bases
built from condition-capped invertible operators, and operators of chosen
rank.  Every generator takes a ``numpy.random.Generator`` so callers stay
in control of determinism.
"""

from __future__ import annotations

import numpy as np

from .frames import FusionFrame
from .linalg import DEFAULT_TOL, Tolerance, orthonormal_columns
from .subspaces import Subspace, apply_operator
from .weaving import decide_woven

__all__ = [
    "random_orthogonal",
    "random_invertible",
    "random_rank_operator",
    "random_subspace",
    "random_fusion_frame",
    "random_orthonormal_fusion_basis",
    "random_riesz_fusion_basis",
    "random_woven_pair",
]


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish orthogonal matrix via QR with a sign-fixed diagonal."""
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def random_invertible(rng: np.random.Generator, n: int, cond_cap: float = 10.0) -> np.ndarray:
    """Invertible matrix whose condition number is at most ``cond_cap``."""
    if cond_cap < 1.0:
        raise ValueError("cond_cap must be >= 1")
    left = random_orthogonal(rng, n)
    right = random_orthogonal(rng, n)
    singulars = rng.uniform(1.0, cond_cap, size=n)
    return left @ np.diag(singulars) @ right.T


def random_rank_operator(rng: np.random.Generator, n: int, rank: int) -> np.ndarray:
    """Square operator of the requested rank (0..n)."""
    if not (0 <= rank <= n):
        raise ValueError(f"rank must be in 0..{n}")
    if rank == 0:
        return np.zeros((n, n))
    return rng.standard_normal((n, rank)) @ rng.standard_normal((rank, n))


def random_subspace(rng: np.random.Generator, n: int, dim: int) -> Subspace:
    if dim == 0:
        return Subspace.zero(n)
    return Subspace(n, orthonormal_columns(rng.standard_normal((n, dim))))


def random_fusion_frame(
    rng: np.random.Generator,
    n: int,
    count: int,
    max_dim: int | None = None,
    uniform: bool = True,
) -> FusionFrame:
    """Random family of weighted subspaces; not guaranteed to be a frame."""
    max_dim = max(1, n - 1) if max_dim is None else max_dim
    dims = rng.integers(1, max_dim + 1, size=count)
    weights = np.ones(count) if uniform else rng.uniform(0.5, 2.0, size=count)
    subs = [random_subspace(rng, n, int(d)) for d in dims]
    return FusionFrame.of_subspaces(subs, weights)


def random_orthonormal_fusion_basis(
    rng: np.random.Generator, n: int, count: int
) -> list[Subspace]:
    """Mutually orthogonal random subspaces whose direct sum is R^n."""
    if not (1 <= count <= n):
        raise ValueError(f"count must be in 1..{n}")
    sizes = rng.multinomial(n - count, [1.0 / count] * count) + 1
    Q = random_orthogonal(rng, n)
    out, start = [], 0
    for size in sizes:
        out.append(Subspace(n, Q[:, start : start + size]))
        start += size
    return out


def random_riesz_fusion_basis(
    rng: np.random.Generator,
    n: int,
    count: int,
    cond_cap: float = 10.0,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[FusionFrame, np.ndarray, list[Subspace]]:
    """Riesz fusion basis as images of coordinate-span blocks.

    Returns the frame, the condition-capped invertible operator, and the
    underlying coordinate blocks.
    """
    sizes = rng.multinomial(n - count, [1.0 / count] * count) + 1
    blocks, start = [], 0
    eye = np.eye(n)
    for size in sizes:
        blocks.append(Subspace(n, eye[:, start : start + size]))
        start += size
    U = random_invertible(rng, n, cond_cap)
    frame = FusionFrame.of_subspaces([apply_operator(U, B, tol) for B in blocks])
    return frame, U, blocks


def random_woven_pair(
    rng: np.random.Generator,
    n: int,
    count: int,
    tol: Tolerance = DEFAULT_TOL,
    max_tries: int = 64,
) -> tuple[FusionFrame, FusionFrame]:
    """Two random fusion frames verified (exactly, by ``decide_woven``) to be woven."""
    for _ in range(max_tries):
        F = random_fusion_frame(rng, n, count)
        G = random_fusion_frame(rng, n, count)
        if decide_woven([F, G], tol).woven:
            return F, G
    raise RuntimeError(f"no woven pair found in {max_tries} tries")
