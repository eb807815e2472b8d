"""JSON documents for frames, operators and subspaces.

A frame document looks like::

    {"dim": 3,
     "name": "optional label",
     "subspaces": [
        {"vectors": [[1, 0, 0], [0, 1, 0]], "weight": 1.0},
        {"vectors": [[0, 0, 1]]}
     ]}

Vectors are orthonormalized per subspace at load time, so the spanned
subspaces are what counts, not the particular generating vectors.  An
operator document is ``{"dim": n, "rows": [[...], ...]}`` for square
matrices, or just ``{"rows": ...}`` for rectangular ones.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, NonPositiveWeight, ParseError
from .frames import FusionFrame, WeightedSubspace
from .linalg import DEFAULT_TOL, Tolerance
from .subspaces import Subspace, span_of

__all__ = [
    "load_frame",
    "save_frame",
    "frame_from_dict",
    "frame_to_dict",
    "load_operator",
    "operator_from_dict",
    "operator_to_dict",
    "save_operator",
    "load_subspace",
]


def _read_json(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top-level value must be an object")
    return data


def _as_vector_list(raw, dim: int, where: str) -> list[np.ndarray]:
    if not isinstance(raw, list):
        raise ParseError(f"{where}: 'vectors' must be a list")
    vectors = []
    for j, entry in enumerate(raw):
        if not isinstance(entry, list) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry
        ):
            raise ParseError(f"{where}.vectors[{j}]: must be a list of numbers")
        v = np.asarray(entry, dtype=float)
        if v.size != dim:
            raise DimensionMismatch(
                f"{where}.vectors[{j}]: length {v.size} does not match dim {dim}"
            )
        if not np.all(np.isfinite(v)):
            raise ParseError(f"{where}.vectors[{j}]: non-finite entry")
        vectors.append(v)
    return vectors


def frame_from_dict(data: dict, tol: Tolerance = DEFAULT_TOL, where: str = "frame") -> FusionFrame:
    dim = data.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError(f"{where}.dim: must be a positive integer")
    raw_subspaces = data.get("subspaces")
    if not isinstance(raw_subspaces, list) or not raw_subspaces:
        raise ParseError(f"{where}.subspaces: must be a non-empty list")
    members = []
    for k, raw in enumerate(raw_subspaces):
        spot = f"{where}.subspaces[{k}]"
        if not isinstance(raw, dict):
            raise ParseError(f"{spot}: must be an object")
        weight = raw.get("weight", 1.0)
        if isinstance(weight, bool) or not isinstance(weight, (int, float)):
            raise ParseError(f"{spot}.weight: must be a number")
        if not (np.isfinite(weight) and weight > 0.0):
            raise NonPositiveWeight(f"{spot}.weight: must be positive and finite, got {weight}")
        vectors = _as_vector_list(raw.get("vectors", []), dim, spot)
        subspace = span_of(vectors, tol, ambient_dim=dim)
        members.append(WeightedSubspace(subspace, float(weight)))
    return FusionFrame(dim, tuple(members))


def frame_to_dict(F: FusionFrame, name: str | None = None) -> dict:
    doc: dict = {"dim": F.ambient_dim}
    if name:
        doc["name"] = name
    doc["subspaces"] = [
        {"vectors": [list(col) for col in m.subspace.basis.T], "weight": m.weight}
        for m in F.members
    ]
    return doc


def load_frame(path, tol: Tolerance = DEFAULT_TOL) -> FusionFrame:
    """Read and validate a frame document; vectors are orthonormalized."""
    return frame_from_dict(_read_json(path), tol, where=str(path))


def save_frame(path, F: FusionFrame, name: str | None = None) -> None:
    Path(path).write_text(json.dumps(frame_to_dict(F, name), indent=2) + "\n", encoding="utf-8")


def operator_from_dict(data: dict, where: str = "operator") -> np.ndarray:
    rows = data.get("rows")
    if not isinstance(rows, list) or not rows:
        raise ParseError(f"{where}.rows: must be a non-empty list of rows")
    width = None
    matrix = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in row
        ):
            raise ParseError(f"{where}.rows[{i}]: must be a list of numbers")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DimensionMismatch(f"{where}.rows[{i}]: ragged row of length {len(row)}")
        matrix.append(row)
    M = np.asarray(matrix, dtype=float)
    if not np.all(np.isfinite(M)):
        raise ParseError(f"{where}.rows: non-finite entry")
    dim = data.get("dim")
    if dim is not None:
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise ParseError(f"{where}.dim: must be a positive integer")
        if M.shape != (dim, dim):
            raise DimensionMismatch(f"{where}: rows give shape {M.shape}, expected ({dim}, {dim})")
    return M


def operator_to_dict(T: np.ndarray) -> dict:
    T = np.asarray(T, dtype=float)
    doc: dict = {}
    if T.shape[0] == T.shape[1]:
        doc["dim"] = int(T.shape[0])
    doc["rows"] = [list(row) for row in T]
    return doc


def load_operator(path) -> np.ndarray:
    return operator_from_dict(_read_json(path), where=str(path))


def save_operator(path, T) -> None:
    Path(path).write_text(json.dumps(operator_to_dict(T), indent=2) + "\n", encoding="utf-8")


def load_subspace(path, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Read ``{"dim": n, "vectors": [...]}`` and orthonormalize the span."""
    data = _read_json(path)
    where = str(path)
    dim = data.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError(f"{where}.dim: must be a positive integer")
    vectors = _as_vector_list(data.get("vectors", []), dim, where)
    return span_of(vectors, tol, ambient_dim=dim)
