"""Expected CLI results, computed with plain numpy from the JSON documents.

Nothing here imports fusionweave.  Subspaces are re-orthonormalized from
the documents' vectors, weavings are decided by one batched ``eigvalsh``
over every assignment, and each check returns a message naming the first
disagreement, or None.  Thresholds are the CLI defaults.
"""

from __future__ import annotations

import csv
import itertools
import json
import re
from functools import lru_cache

import numpy as np

RANK_TOL = 1e-10  # --tol
FRAME_EPS = 1e-9  # --epsilon
ORTH_TOL = 1e-10
REL = 1e-8  # agreement required between printed and recomputed values


def orth(A: np.ndarray) -> np.ndarray:
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return U[:, :0]
    return U[:, : int(np.sum(s > RANK_TOL * s[0]))]


def _read(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


@lru_cache(maxsize=None)
def frame(path: str) -> tuple[tuple[np.ndarray, float], ...]:
    doc = _read(path)
    return tuple(
        (orth(np.array(s["vectors"], dtype=float).T), float(s.get("weight", 1.0)))
        for s in doc["subspaces"]
    )


@lru_cache(maxsize=None)
def matrix(path: str) -> np.ndarray:
    return np.array(_read(path)["rows"], dtype=float)


@lru_cache(maxsize=None)
def subspace(path: str) -> np.ndarray:
    return orth(np.array(_read(path)["vectors"], dtype=float).T)


def projectors(members) -> np.ndarray:
    """(L, n, n) stack of w_i^2 P_i."""
    return np.stack([w * w * (Q @ Q.T) for Q, w in members])


def frame_operator(members) -> np.ndarray:
    return projectors(members).sum(axis=0)


def bounds(S: np.ndarray) -> tuple[float, float]:
    eigs = np.linalg.eigvalsh(S)
    return max(float(eigs[0]), 0.0), max(float(eigs[-1]), 0.0)


def image(T: np.ndarray, members):
    return tuple((orth(T @ Q), w) for Q, w in members)


def smallest_singular(A: np.ndarray) -> float:
    s = np.linalg.svd(A, compute_uv=False)
    return float(s[s > RANK_TOL * s[0]][-1])


class Weaving:
    """Every assignment of M frames over L indices, in the CLI's order."""

    def __init__(self, frames):
        P = np.stack([projectors(m) for m in frames])  # (M, L, n, n)
        M, L, n, _ = P.shape
        labels = np.array(list(itertools.product(range(M), repeat=L)), dtype=np.intp)
        S = np.zeros((labels.shape[0], n, n))
        for i in range(L):
            S += P[labels[:, i], i]
        eigs = np.linalg.eigvalsh(S)
        self.labels = labels + 1
        self.lower = np.maximum(eigs[:, 0], 0.0)
        self.upper = np.maximum(eigs[:, -1], 0.0)
        self.is_frame = self.lower > FRAME_EPS
        self.universal = (float(self.lower.min()), float(self.upper.max()))
        self.woven = bool(self.is_frame.all())
        # Bessel envelope D <= sum_j D_j over the frames' own upper bounds
        self.envelope = sum(bounds(P[j].sum(axis=0))[1] for j in range(M))


@lru_cache(maxsize=None)
def weaving(paths: tuple[str, ...]) -> Weaving:
    return Weaving([frame(p) for p in paths])


# ---- output parsing ---------------------------------------------------------


class Mismatch(Exception):
    pass


def line(stdout: str, label: str) -> str:
    m = re.search(rf"^{re.escape(label)}:\s*(.*)$", stdout, re.MULTILINE)
    if not m:
        raise Mismatch(f"missing line {label!r}")
    return m.group(1).strip()


def yes(stdout: str, label: str) -> bool:
    return line(stdout, label).split()[0] == "yes"


def numbers(text: str) -> list[float]:
    return [float(x) for x in re.findall(r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan)", text)]


def close(got: float, want: float, what: str) -> None:
    if not abs(got - want) <= REL * max(1.0, abs(want)):
        raise Mismatch(f"{what}: got {got!r}, expected {want!r}")


def equal(got, want, what: str) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, expected {want!r}")


# ---- per-subcommand checks --------------------------------------------------


def check_weave(op, rc, stdout, out_path) -> None:
    paths = tuple(op.inputs["frames"])
    w = weaving(paths)
    total = w.labels.shape[0]
    evaluated = int(line(stdout, "weavings evaluated").split()[0])
    if not 1 <= evaluated <= total:
        raise Mismatch(f"weavings evaluated {evaluated} outside 1..{total}")
    equal(yes(stdout, "woven"), w.woven, "woven")
    lo, hi = numbers(line(stdout, "universal bounds"))[:2]
    close(lo, w.universal[0], "universal lower")
    close(hi, w.universal[1], "universal upper")
    if hi > w.envelope * (1 + REL):
        raise Mismatch(f"upper bound {hi} exceeds the Bessel envelope {w.envelope}")
    equal(rc, 0 if w.woven else 1, "exit code")
    if out_path is not None:
        check_weave_csv(out_path, w)


def check_weave_csv(path: str, w: Weaving) -> None:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    equal(rows[0], ["assignment_id", "labels", "lambda_min", "lambda_max", "is_frame"], "CSV header")
    body, last = rows[1:-1], rows[-1]
    equal(len(body), w.labels.shape[0], "CSV rows")
    ids = np.array([int(r[0]) for r in body])
    if not np.array_equal(ids, np.arange(len(body))):
        raise Mismatch("CSV assignment_id is not the lexicographic rank")
    labels = ["-".join(map(str, row)) for row in w.labels]
    for r, want in zip(body, labels):
        if r[1] != want:
            raise Mismatch(f"CSV row {r[0]}: labels {r[1]!r}, expected {want!r}")
    lo = np.array([float(r[2]) for r in body])
    hi = np.array([float(r[3]) for r in body])
    flags = np.array([r[4] == "true" for r in body])
    for got, want, what in ((lo, w.lower, "lambda_min"), (hi, w.upper, "lambda_max")):
        bad = np.flatnonzero(np.abs(got - want) > REL * np.maximum(1.0, np.abs(want)))
        if bad.size:
            k = int(bad[0])
            raise Mismatch(f"CSV row {k}: {what} {got[k]!r}, expected {want[k]!r}")
    if not np.array_equal(flags, w.is_frame):
        raise Mismatch(f"CSV row {int(np.flatnonzero(flags != w.is_frame)[0])}: is_frame differs")
    equal(last[0], "universal", "CSV final row")
    close(float(last[2]), w.universal[0], "CSV universal lower")
    close(float(last[3]), w.universal[1], "CSV universal upper")
    equal(last[4] == "true", w.woven, "CSV woven")


def contains(V: np.ndarray, W: np.ndarray) -> bool:
    return W.shape[1] == 0 or np.linalg.norm(W - V @ (V.T @ W), 2) <= ORTH_TOL


@lru_cache(maxsize=None)
def per1(frame_path: str, op_path: str) -> dict:
    F, T = frame(frame_path), matrix(op_path)
    n, L = T.shape[0], len(F)
    moved = image(T, F)
    pattern = [(contains(TQ, Q), contains(Q, TQ)) for (Q, _), (TQ, _) in zip(F, moved)]
    cond_i = all(a for a, _ in pattern) or all(b for _, b in pattern)
    grown = image(T.T @ T, F)
    lo, hi = bounds(frame_operator(F))
    ratio = lo / hi if hi > 0.0 else 0.0
    cond_ii = all(contains(G, Q) for (Q, _), (G, _) in zip(F, grown)) and bool(
        np.linalg.norm(np.eye(n) - np.linalg.inv(T), 2) < ratio
    )
    cond_iii = None
    if np.linalg.norm(T.T @ T - np.eye(n), 2) <= ORTH_TOL:
        P = projectors(F)
        comm = T @ P - P @ T
        singles = np.linalg.eigvalsh(0.5 * (comm + comm.transpose(0, 2, 1)))[:, 0]
        # the commutator is linear in S_sigma, so (iii) holds iff every
        # singleton commutator is PSD; brute force over all 2^L subsets agrees
        masks = np.array(list(itertools.product((0.0, 1.0), repeat=L)))
        S = np.tensordot(masks, P, axes=1)
        comm = T @ S - S @ T
        brute = np.linalg.eigvalsh(0.5 * (comm + comm.transpose(0, 2, 1)))[:, 0]
        cond_iii = bool(brute.min() >= -FRAME_EPS)
        if cond_iii != bool(singles.min() >= -FRAME_EPS):
            raise Mismatch("oracle: singleton and brute-force condition (iii) disagree")
    woven = Weaving([F, moved]).woven
    return {"i": cond_i, "ii": cond_ii, "iii": cond_iii, "woven": woven}


def check_per1(op, rc, stdout, out_path) -> None:
    want = per1(op.inputs["frame"], op.inputs["op"])
    equal(yes(stdout, "condition (i) uniform inclusion"), want["i"], "condition (i)")
    equal(yes(stdout, "condition (ii) growth + norm bound"), want["ii"], "condition (ii)")
    third = line(stdout, "condition (iii) commutator positivity").split()[0]
    equal(third, {None: "n/a", True: "yes", False: "no"}[want["iii"]], "condition (iii)")
    equal(yes(stdout, "woven (independent enumeration)"), want["woven"], "woven")
    equal(rc, 0 if want["woven"] else 1, "exit code")


def check_check(op, rc, stdout, out_path) -> None:
    lo, hi = bounds(frame_operator(frame(op.inputs["frame"])))
    equal(yes(stdout, "fusion frame"), lo > FRAME_EPS, "fusion frame")
    got = numbers(line(stdout, "bounds"))
    close(got[0], lo, "lower bound")
    close(got[1], hi, "upper bound")
    equal(rc, 0 if lo > FRAME_EPS else 1, "exit code")


def check_riesz(op, rc, stdout, out_path) -> None:
    F = frame(op.inputs["frame"])
    n = F[0][0].shape[0]
    E = np.hstack([Q for Q, _ in F])
    s = np.linalg.svd(E, compute_uv=False)
    upper = float(s[0] ** 2)
    lower = 0.0 if E.shape[1] > n else float(s[-1] ** 2)
    sequence = lower > FRAME_EPS
    basis = sequence and int(np.sum(s > RANK_TOL * s[0])) == n
    equal(yes(stdout, "riesz sequence"), sequence, "riesz sequence")
    equal(yes(stdout, "riesz basis"), basis, "riesz basis")
    got = numbers(line(stdout, "bounds"))
    close(got[0], lower, "lower bound")
    close(got[1], upper, "upper bound")
    equal(rc, 0 if basis else 1, "exit code")


def check_dual_canonical(op, rc, stdout, out_path) -> None:
    equal(rc, 0, "exit code")
    F = frame(op.inputs["frame"])
    S_inv = np.linalg.inv(frame_operator(F))
    doc = _read(out_path)
    equal(len(doc["subspaces"]), len(F), "dual members")
    for k, ((Q, w), member) in enumerate(zip(F, doc["subspaces"])):
        want = orth(S_inv @ Q)
        got = orth(np.array(member["vectors"], dtype=float).T)
        equal(got.shape[1], want.shape[1], f"dual member {k} dimension")
        close(float(np.abs(got @ got.T - want @ want.T).max()), 0.0, f"dual member {k} projector")
        close(float(member.get("weight", 1.0)), w, f"dual member {k} weight")


def check_dual_verify(op, rc, stdout, out_path) -> None:
    F, V = frame(op.inputs["frame"]), frame(op.inputs["other"])
    n = F[0][0].shape[0]
    S_inv = np.linalg.inv(frame_operator(F))
    psi = sum(wf * wv * (Qv @ Qv.T) @ S_inv @ (Qf @ Qf.T) for (Qf, wf), (Qv, wv) in zip(F, V))
    defect = float(np.linalg.norm(np.eye(n) - psi, 2))
    equal(yes(stdout, "dual"), defect <= 1e-9, "dual")
    close(numbers(line(stdout, "defect"))[0], defect, "defect")
    equal(rc, 0 if defect <= 1e-9 else 1, "exit code")


def check_apply(op, rc, stdout, out_path) -> None:
    moved = image(matrix(op.inputs["op"]), frame(op.inputs["frame"]))
    lo, hi = bounds(frame_operator(moved))
    equal(yes(stdout, "image family is a fusion frame"), lo > FRAME_EPS, "image frame")
    got = numbers(line(stdout, "bounds"))
    close(got[0], lo, "lower bound")
    close(got[1], hi, "upper bound")
    equal(rc, 0 if lo > FRAME_EPS else 1, "exit code")


def check_operator1(op, rc, stdout, out_path) -> None:
    # the workload's operators are invertible: T^+ T = I, so the row-space
    # family is F itself on all of R^n
    F, T = frame(op.inputs["frame"]), matrix(op.inputs["op"])
    close(numbers(line(stdout, "gamma"))[0], smallest_singular(T), "gamma")
    for label, members in (("row-space family bounds", F), ("image family bounds", image(T, F))):
        text = line(stdout, label)
        lo, hi = bounds(frame_operator(members))
        got = numbers(text)
        close(got[0], lo, f"{label} lower")
        close(got[1], hi, f"{label} upper")
        equal("(frame: yes)" in text, lo > FRAME_EPS, f"{label} frame verdict")
    equal(yes(stdout, "norm chain holds"), True, "norm chain")
    equal(yes(stdout, "frame-ness equivalent"), True, "frame-ness equivalence")
    equal(rc, 0, "exit code")


def check_modulus(op, rc, stdout, out_path) -> None:
    # the workload's subspaces meet the kernel only in 0, so the Friedrichs
    # cosine is the largest principal cosine and gamma(T P_V) = sigma_min(T Q_V)
    T, V = matrix(op.inputs["op"]), subspace(op.inputs["subspace"])
    _, s, Vt = np.linalg.svd(T)
    kernel = Vt[int(np.sum(s > RANK_TOL * s[0])) :].T
    c = float(np.linalg.norm(kernel.T @ V, 2))
    slack = np.sqrt(1.0 - c * c)
    lhs, mid, rhs = smallest_singular(T) * slack, smallest_singular(T @ V), s[0] * slack
    close(numbers(line(stdout, "angle cosine c"))[0], c, "angle cosine")
    got = numbers(line(stdout, "lower"))
    close(got[0], lhs, "lower")
    close(got[-2], mid, "gamma(T P_V)")
    close(got[-1], rhs, "upper")
    equal(yes(stdout, "sandwich holds"), True, "sandwich")
    equal(rc, 0, "exit code")


def check_lemma(op, rc, stdout, out_path) -> None:
    T, V = matrix(op.inputs["op"]), subspace(op.inputs["subspace"])
    image_V = orth(T @ V)
    left = (V @ V.T) @ T.T
    residual = float(np.linalg.norm(left - left @ (image_V @ image_V.T), 2))
    got = numbers(line(stdout, "commutation residual"))[0]
    if not (got <= ORTH_TOL and residual <= ORTH_TOL):
        raise Mismatch(f"commutation residual {got!r} (recomputed {residual!r}) is not ~0")
    equal(rc, 0, "exit code")


def check_paper_examples(op, rc, stdout, out_path) -> None:
    claims = re.findall(r"^\[[^\]]+\] (PASS|FAIL):", stdout, re.MULTILINE)
    equal((claims.count("PASS"), len(claims)), (8, 8), "paper-examples claims passing")
    equal("8/8 claims pass" in stdout, True, "summary line")
    equal(rc, 0, "exit code")


CHECKS = {
    "weave": check_weave,
    "weave-csv": check_weave,
    "per1": check_per1,
    "check": check_check,
    "riesz": check_riesz,
    "dual-canonical": check_dual_canonical,
    "dual-verify": check_dual_verify,
    "apply": check_apply,
    "operator1": check_operator1,
    "modulus": check_modulus,
    "lemma": check_lemma,
    "paper-examples": check_paper_examples,
}


def verify(op, rc, stdout, out_path) -> str | None:
    """None when the call's output matches, else a one-line reason."""
    try:
        CHECKS[op.kind](op, rc, stdout, out_path)
    except Mismatch as exc:
        return f"{op.kind}: {exc}"
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return f"{op.kind}: unreadable output ({type(exc).__name__}: {exc})"
    return None
