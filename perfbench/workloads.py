"""Workload instances, their JSON documents and the CLI operations run on them.

Instances come from ``fusionweave.generators`` (so generator cost is part of
set-up) and are written as documents with plain ``json``; the program only
ever sees those documents.  Every size below is fixed per workload and only
the values depend on the seed, so two seeds run the same amount of work and
a traced run makes the same calls whatever the seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fusionweave import generators, weaving

# paper-examples weaves two bundled pairs: 3 and 2 members, two frames each.
LEDGER_WEAVINGS = 2**3 + 2**2


@dataclass(frozen=True)
class Op:
    """One CLI call.  ``{out}`` in argv becomes a fresh output path per call."""

    kind: str
    argv: tuple[str, ...]
    inputs: dict = field(hash=False)
    weavings: int = 0  # sum of M^L over the weaving reports the call makes


@dataclass
class Workload:
    ops: list[Op]  # the pool; the timed phase calls it round-robin
    properties: dict
    trace_passes: int = 1  # passes over the pool in a traced run, to span a few seconds


def _members(F) -> list[tuple[np.ndarray, float]]:
    return [(m.subspace.basis, m.weight) for m in F.members]


def write_frame(path: Path, n: int, members) -> str:
    doc = {
        "dim": n,
        "subspaces": [
            {"vectors": basis.T.tolist(), "weight": float(w)} for basis, w in members
        ],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def write_operator(path: Path, T: np.ndarray) -> str:
    path.write_text(json.dumps({"dim": T.shape[0], "rows": T.tolist()}), encoding="utf-8")
    return str(path)


def write_subspace(path: Path, basis: np.ndarray) -> str:
    doc = {"dim": basis.shape[0], "vectors": basis.T.tolist()}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _weave_op(kind: str, paths: list[str], L: int) -> Op:
    argv = ("weave", *paths) + (("--csv", "{out}") if kind == "weave-csv" else ())
    return Op(kind, argv, {"frames": paths}, len(paths) ** L)


def _per1_op(frame: str, op: str, L: int) -> Op:
    argv = ("perturb", frame, "--op", op, "--check", "per1")
    return Op("per1", argv, {"frame": frame, "op": op}, 2**L)


def weave_random(rng: np.random.Generator, root: Path) -> Workload:
    """Independent random frames, one instance per size class: cost depends
    on the sizes, not the values, so more instances would only mean fewer
    repetitions of each call in a run."""
    classes = [(2, 8, 13), (3, 6, 8)]
    ops = []
    for M, n, L in classes:
        paths = [
            write_frame(
                root / f"wr{M}x{L}_{j}.json",
                n,
                _members(generators.random_fusion_frame(rng, n, L, uniform=False)),
            )
            for j in range(M)
        ]
        ops.append(_weave_op("weave", paths, L))
    props = {
        "classes": [{"M": M, "n": n, "L": L, "weavings": M**L} for M, n, L in classes],
        "shared_index_share": 0.0,
        "csv": False,
    }
    return Workload(ops, props)


def weave_perturbed_csv(rng: np.random.Generator, root: Path) -> Workload:
    """A pair (F, F') where F' replaces k of F's L members; every CSV row written."""
    n, L, k = 8, 13, 4
    F = _members(generators.random_fusion_frame(rng, n, L, uniform=False))
    G = list(F)
    for i in rng.choice(L, size=k, replace=False):
        dim = int(rng.integers(1, n))
        G[i] = (generators.random_subspace(rng, n, dim).basis, F[i][1])
    paths = [write_frame(root / "wp_F.json", n, F), write_frame(root / "wp_G.json", n, G)]
    props = {
        "classes": [{"M": 2, "n": n, "L": L, "replaced": k, "weavings": 2**L}],
        "shared_index_share": (L - k) / L,
        "csv": True,
    }
    return Workload([_weave_op("weave-csv", paths, L)], props, trace_passes=3)


def coordinate_frame(rng: np.random.Generator, n: int, L: int) -> list[tuple[np.ndarray, float]]:
    """Spans of coordinate subsets; member i always holds coordinate i mod n."""
    eye = np.eye(n)
    members = []
    for i in range(L):
        size = int(rng.integers(1, n))
        others = rng.permutation([j for j in range(n) if j != i % n])[: size - 1]
        members.append((eye[:, sorted([i % n, *others])], 1.0))
    return members


def signed_diagonal(rng: np.random.Generator, n: int) -> np.ndarray:
    signs = rng.choice([-1.0, 1.0], size=n)
    signs[int(rng.integers(n))] = -1.0  # never the identity
    return np.diag(signs)


def per1_unitary(rng: np.random.Generator, root: Path) -> Workload:
    """A generic rotation (condition (iii) false) alternating with a signed
    diagonal on coordinate spans, which commutes with every member (true)."""
    n, L = 6, 12
    F = write_frame(root / "p_F.json", n, _members(generators.random_fusion_frame(rng, n, L)))
    R = write_operator(root / "p_R.json", generators.random_orthogonal(rng, n))
    C = write_frame(root / "p_C.json", n, coordinate_frame(rng, n, L))
    D = write_operator(root / "p_D.json", signed_diagonal(rng, n))
    props = {
        "classes": [
            {"M": 2, "n": n, "L": L, "operator": "random orthogonal", "weavings": 2**L},
            {"M": 2, "n": n, "L": L, "operator": "signed diagonal on coordinate spans", "weavings": 2**L},
        ],
        "shared_index_share": 0.0,
        "subsets_per_call": 2**L,
    }
    return Workload([_per1_op(F, R, L), _per1_op(C, D, L)], props, trace_passes=3)


# (kind, n, L): random frames have L > n members so the concatenated bases are
# never a Riesz sequence; "riesz" instances are Riesz fusion bases.
TOOLKIT_SIZES = [
    ("frame", 3, 4), ("frame", 4, 7), ("riesz", 5, 3), ("frame", 6, 9),
    ("frame", 7, 11), ("riesz", 8, 5), ("frame", 3, 10), ("frame", 5, 12),
    ("riesz", 6, 6), ("frame", 8, 12), ("frame", 4, 5), ("riesz", 7, 4),
]


def canonical_dual_members(members) -> list[tuple[np.ndarray, float]]:
    """S^-1 W_i with the weights kept, from the documents' own vectors."""
    n = members[0][0].shape[0]
    S = np.zeros((n, n))
    for basis, w in members:
        Q = np.linalg.svd(basis, full_matrices=False)[0]
        S += w * w * (Q @ Q.T)
    S_inv = np.linalg.inv(S)
    return [(S_inv @ basis, w) for basis, w in members]


def toolkit_instance(rng: np.random.Generator, root: Path, j: int, kind: str, n: int, L: int) -> list[Op]:
    if kind == "riesz":
        frame, _, _ = generators.random_riesz_fusion_basis(rng, n, L)
    else:
        frame = generators.random_fusion_frame(rng, n, L, uniform=j % 2 == 0)
    members = _members(frame)
    F = write_frame(root / f"t{j}_F.json", n, members)
    dual = write_frame(root / f"t{j}_dual.json", n, canonical_dual_members(members))
    T = write_operator(root / f"t{j}_T.json", generators.random_invertible(rng, n))
    rank = n - 1 - j % 2
    K = write_operator(root / f"t{j}_K.json", generators.random_rank_operator(rng, n, rank))
    V = write_subspace(root / f"t{j}_V.json", generators.random_subspace(rng, n, 1 + j % rank).basis)
    other = dual if j % 2 == 0 else F
    return [
        Op("check", ("check", F), {"frame": F}),
        Op("riesz", ("riesz", F), {"frame": F}),
        Op("dual-canonical", ("dual", F, "--canonical", "-o", "{out}"), {"frame": F}),
        Op("dual-verify", ("dual", F, "--verify", other), {"frame": F, "other": other}),
        Op("apply", ("perturb", F, "--op", T, "--check", "apply"), {"frame": F, "op": T}),
        Op("operator1", ("perturb", F, "--op", T, "--check", "operator1"), {"frame": F, "op": T}),
        Op("modulus", ("perturb", F, "--op", K, "--check", f"modulus:{V}"), {"op": K, "subspace": V}),
        Op("lemma", ("perturb", F, "--op", T, "--check", f"lemma:{V}"), {"op": T, "subspace": V}),
        Op("paper-examples", ("paper-examples",), {}, LEDGER_WEAVINGS),
    ]


def toolkit_small(rng: np.random.Generator, root: Path) -> Workload:
    """Many small frames through every non-enumerating subcommand."""
    ops = [op for j, size in enumerate(TOOLKIT_SIZES) for op in toolkit_instance(rng, root, j, *size)]
    props = {
        "instances": [{"kind": k, "n": n, "L": L} for k, n, L in TOOLKIT_SIZES],
        "n_range": [3, 8],
        "L_range": [3, 12],
        "shared_index_share": 0.0,
        "ops_per_instance": [op.kind for op in ops[: len(ops) // len(TOOLKIT_SIZES)]],
    }
    return Workload(ops, props, trace_passes=5)


WORKLOADS = {
    "weave-random": weave_random,
    "weave-perturbed-csv": weave_perturbed_csv,
    "per1-unitary": per1_unitary,
    "toolkit-small": toolkit_small,
}


def warm_up_ops(rng: np.random.Generator, root: Path) -> list[Op]:
    """Every subcommand once on tiny instances, so lazy set-up in every layer
    is done before timing and every traced layer fires in every workload."""
    ops = toolkit_instance(rng, root, 0, "frame", 3, 4)
    ops += toolkit_instance(rng, root, 1, "riesz", 3, 3)
    pair = [
        write_frame(root / f"w_weave{j}.json", 3, _members(generators.random_fusion_frame(rng, 3, 3)))
        for j in range(2)
    ]
    ops.append(_weave_op("weave-csv", pair, 3))
    F = write_frame(root / "w_per1.json", 3, _members(generators.random_fusion_frame(rng, 3, 3)))
    R = write_operator(root / "w_rot.json", generators.random_orthogonal(rng, 3))
    ops.append(_per1_op(F, R, 3))
    return ops


def warm_up_api(rng: np.random.Generator) -> None:
    """The one public report the CLI cannot reach."""
    W, _, _ = generators.random_riesz_fusion_basis(rng, 3, 3)
    V, _, _ = generators.random_riesz_fusion_basis(rng, 3, 3)
    weaving.riesz_weaving_report(W, V)
