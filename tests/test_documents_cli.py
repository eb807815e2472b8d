import csv
import dataclasses
import json
import re

import numpy as np
import pytest

from conftest import plane_axis_frame
from fusionweave import (
    DimensionMismatch,
    FusionFrame,
    NonPositiveWeight,
    ParseError,
    canonical_dual,
    frame_from_dict,
    load_frame,
    load_operator,
    load_subspace,
    operator_norm,
    projector,
    save_frame,
    weaving_report,
)
from fusionweave import cli
from fusionweave.cli import main
from fusionweave.generators import random_fusion_frame
from fusionweave.worked_examples import builtin_path

PLANE_AXIS_DOC = {
    "dim": 3,
    "subspaces": [{"vectors": [[1, 0, 0], [0, 1, 0]]}, {"vectors": [[0, 0, 1]]}],
}


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_frame_from_dict_plane_axis():
    F = frame_from_dict(PLANE_AXIS_DOC)
    assert F.ambient_dim == 3 and len(F) == 2
    assert F.subspaces[0].dim == 2 and F.subspaces[1].dim == 1
    np.testing.assert_allclose(
        projector(F.subspaces[0]), projector(plane_axis_frame().subspaces[0]), atol=1e-12
    )


def test_frame_document_errors(tmp_path):
    with pytest.raises(NonPositiveWeight):
        frame_from_dict({"dim": 2, "subspaces": [{"vectors": [[1, 0]], "weight": -1}]})
    with pytest.raises(DimensionMismatch):
        frame_from_dict({"dim": 2, "subspaces": [{"vectors": [[1, 0, 0]]}]})
    with pytest.raises(ParseError):
        frame_from_dict({"dim": 0, "subspaces": [{"vectors": [[1]]}]})
    with pytest.raises(ParseError):
        frame_from_dict({"dim": 2, "subspaces": []})
    with pytest.raises(ParseError):
        frame_from_dict({"dim": 2, "subspaces": [{"vectors": [[1, True]]}]})

    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 3,', encoding="utf-8")
    with pytest.raises(ParseError, match="line 1"):
        load_frame(bad)
    with pytest.raises(ParseError):
        load_frame(tmp_path / "missing.json")


def test_operator_document(tmp_path):
    T = load_operator(builtin_path("displayed_inverse"))
    np.testing.assert_allclose(T, [[1, 0, 0], [0, 1, 0], [0, -0.5, 1.25]])

    with pytest.raises(DimensionMismatch):
        load_operator(write_json(tmp_path / "ragged.json", {"rows": [[1, 0], [1]]}))
    with pytest.raises(DimensionMismatch):
        load_operator(write_json(tmp_path / "off.json", {"dim": 3, "rows": [[1, 0], [0, 1]]}))
    rect = load_operator(write_json(tmp_path / "rect.json", {"rows": [[1, 0, 0], [0, 1, 0]]}))
    assert rect.shape == (2, 3)


def test_subspace_document(tmp_path):
    path = write_json(tmp_path / "sub.json", {"dim": 3, "vectors": [[0, 1, 1]]})
    V = load_subspace(path)
    assert V.ambient_dim == 3 and V.dim == 1


def test_frame_roundtrip(tmp_path):
    F = plane_axis_frame()
    D = canonical_dual(F)
    out = tmp_path / "dual.json"
    save_frame(out, D, name="roundtrip")
    back = load_frame(out)
    for A, B in zip(D.subspaces, back.subspaces):
        assert operator_norm(projector(A) - projector(B)) <= 1e-8
    assert json.loads(out.read_text())["name"] == "roundtrip"


def coords_path():
    return str(builtin_path("coordinate_spans_3d"))


def enlarged_path():
    return str(builtin_path("coordinate_spans_enlarged"))


def test_cli_check_and_riesz_exit_codes(tmp_path):
    # the enlarged family is a fusion frame but not a Riesz basis
    assert main(["check", enlarged_path()]) == 0
    assert main(["riesz", enlarged_path()]) == 1
    assert main(["riesz", coords_path()]) == 0

    short = write_json(
        tmp_path / "short.json",
        {"dim": 3, "subspaces": [{"vectors": [[1, 0, 0]]}, {"vectors": [[0, 1, 0]]}]},
    )
    assert main(["check", short]) == 1


def test_cli_riesz_one_svd_per_call(tmp_path, monkeypatch, capsys):
    short = write_json(
        tmp_path / "short.json",
        {"dim": 3, "subspaces": [{"vectors": [[1, 0, 0]]}, {"vectors": [[0, 1, 1]]}]},
    )
    calls = []
    real = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or real(*a, **k))
    cases = ((coords_path(), "yes", "yes"), (enlarged_path(), "no", "no"), (short, "yes", "no"))
    for path, sequence, basis in cases:
        load_frame(path)
        loading = len(calls)
        calls.clear()
        assert main(["riesz", path]) == (0 if basis == "yes" else 1)
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == [f"riesz sequence: {sequence}", f"riesz basis: {basis}"]
        assert len(calls) - loading == 1
        calls.clear()


def test_cli_input_errors(tmp_path, capsys):
    assert main(["check", str(tmp_path / "nope.json")]) == 2
    bad = write_json(tmp_path / "bad.json", {"dim": 2, "subspaces": [{"vectors": [[1, 0]], "weight": -1}]})
    assert main(["check", bad]) == 2
    capsys.readouterr()


def test_cli_dual_defect_output(capsys):
    code = main(["dual", str(builtin_path("plane_axis_pair")), "--defect", str(builtin_path("plane_tilted_pair"))])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out == "0.447214"


def test_cli_dual_canonical_roundtrip(tmp_path):
    out = tmp_path / "canon.json"
    assert main(["dual", str(builtin_path("plane_axis_pair")), "--canonical", "-o", str(out)]) == 0
    back = load_frame(out)
    for A, B in zip(back.subspaces, plane_axis_frame().subspaces):
        # the pair has identity frame operator, so the dual is itself
        assert operator_norm(projector(A) - projector(B)) <= 1e-8


def test_cli_dual_verify_and_enlarge(tmp_path):
    assert main(["dual", coords_path(), "--verify", enlarged_path()]) == 0
    extras = write_json(tmp_path / "extras.json", {"extras": [[[0, 1, 0]], [], []]})
    out = tmp_path / "enlarged.json"
    assert main(["dual", coords_path(), "--enlarge", extras, "-o", str(out)]) == 0
    grown = load_frame(out)
    assert grown.subspaces[0].dim == 2


def test_cli_weave_csv(tmp_path):
    out = tmp_path / "report.csv"
    code = main(["weave", coords_path(), enlarged_path(), "--csv", str(out)])
    assert code == 0
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    header, body, footer = rows[0], rows[1:-1], rows[-1]
    assert header == ["assignment_id", "labels", "lambda_min", "lambda_max", "is_frame"]
    assert len(body) == 8
    lowers = [float(r[2]) for r in body]
    uppers = [float(r[3]) for r in body]
    assert footer[0] == "universal"
    assert float(footer[2]) == min(lowers)
    assert float(footer[3]) == max(uppers)
    assert footer[4] == "true"
    assert all(r[4] == "true" for r in body)
    assert [r[0] for r in body] == [str(i) for i in range(8)]


def test_cli_weave_negative_and_sampled(tmp_path, capsys):
    swapped = write_json(
        tmp_path / "swapped.json",
        {"dim": 2, "subspaces": [{"vectors": [[0, 1]]}, {"vectors": [[1, 0]]}]},
    )
    coords2 = write_json(
        tmp_path / "coords2.json",
        {"dim": 2, "subspaces": [{"vectors": [[1, 0]]}, {"vectors": [[0, 1]]}]},
    )
    assert main(["weave", coords2, swapped]) == 1
    capsys.readouterr()

    # 2^3 weavings past a cap of 4: the exact verdict, from the meet certificate
    assert main(["weave", coords_path(), enlarged_path(), "--max-enum", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "woven: yes (exact, certified)"
    assert lines[1].startswith("woven decision: certified (certificate ")
    assert lines[1].endswith(", 1 operator solved)")
    assert len(lines) == 2


def test_cli_weave_witnesses_and_sampled_label(tmp_path, capsys):
    assert main(["weave", coords_path(), enlarged_path()]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["weavings evaluated: 8 [exhaustive]", "woven: yes"]
    assert lines[2].startswith("universal bounds: ")
    # C = 1 is first attained by 1-1-1; D = 2 needs the plane, i.e. label 2 at index 1
    # only index 1 differs between the two frames: 2 of the 8 weavings are solved
    assert lines[3:] == [
        "witness C: 1-1-1",
        "witness D: 2-1-1",
        "weavings solved: 2 of 2^3 (2 of 3 members shared)",
    ]

    swapped = write_json(
        tmp_path / "swapped.json",
        {"dim": 2, "subspaces": [{"vectors": [[0, 1]]}, {"vectors": [[1, 0]]}]},
    )
    coords2 = write_json(
        tmp_path / "coords2.json",
        {"dim": 2, "subspaces": [{"vectors": [[1, 0]]}, {"vectors": [[0, 1]]}]},
    )
    assert main(["weave", coords2, swapped]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "woven: no"
    assert lines[3:] == [
        "witness C: 1-2",
        "witness D: 1-2",
        "weavings solved: 4 of 2^2 (0 of 2 members shared)",
    ]


def test_cli_sampled_weave_prints_exact_verdict(tmp_path, capsys):
    # W_i = R, V_i = {0} at 22 indices: almost every weaving is a frame, but
    # the all-V weaving is the zero operator
    W = write_json(tmp_path / "W.json", {"dim": 1, "subspaces": [{"vectors": [[1.0]]}] * 22})
    V = write_json(tmp_path / "V.json", {"dim": 1, "subspaces": [{"vectors": []}] * 22})
    # 2^22 weavings exceed the default cap: the exact verdict, no bounds
    assert main(["weave", W, V]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "woven: no (exact, searched; witness " + "-".join(["2"] * 22) + ")"
    assert lines[1].startswith("woven decision: searched (certificate ")
    assert lines[1].endswith(" operators solved)")
    assert len(lines) == 2 and not any(line.startswith("universal bounds") for line in lines)
    # --max-enum bounds the exact verdict's search; a spent budget is an error
    assert main(["weave", W, V, "--max-enum", "10"]) == 2
    assert "operators solved (node budget 10)" in capsys.readouterr().err
    # CSV rows need enumeration: past the cap they are the cap error
    assert main(["weave", W, V, "--csv", str(tmp_path / "rows.csv")]) == 2
    assert "exceed cap" in capsys.readouterr().err


def _reference_weave_csv(path, report):
    """The per-row writer: csv.writer, ``.17g`` text and ``"-".join`` on every row."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["assignment_id", "labels", "lambda_min", "lambda_max", "is_frame"])
        rows = zip(*(a.tolist() for a in (report.labels, report.lower, report.upper, report.is_frame)))
        for k, (row, lo, hi, ok) in enumerate(rows):
            flag = "true" if ok else "false"
            writer.writerow([k, "-".join(map(str, row)), f"{lo:.17g}", f"{hi:.17g}", flag])
        writer.writerow(
            [
                "universal",
                "",
                f"{report.universal_lower:.17g}",
                f"{report.universal_upper:.17g}",
                "true" if report.woven else "false",
            ]
        )


def _csv_reports():
    rng = np.random.default_rng(2718)
    frames = lambda M, n, L: [random_fusion_frame(rng, n, L, uniform=False) for _ in range(M)]
    pair = frames(2, 3, 12)
    pair[1] = FusionFrame(3, pair[0].members[:9] + pair[1].members[9:])  # 9 of 12 members shared
    exhaustive = weaving_report(pair)
    assert exhaustive.enumerated > cli._CSV_BLOCK_ROWS and exhaustive.solved == 8
    # values that compare equal or print alike must keep their own text
    signed = np.where(np.arange(exhaustive.enumerated) % 3 == 0, -0.0, 0.0)
    upper = np.where(np.arange(exhaustive.enumerated) % 2 == 0, 0.1 + 0.2, 0.3)
    zeros = dataclasses.replace(exhaustive, lower=signed, upper=upper, is_frame=signed > 0)
    return [
        exhaustive,
        zeros,
        weaving_report(frames(11, 2, 2)),  # labels up to 11-11
    ]


@pytest.mark.parametrize("report", _csv_reports())
@pytest.mark.parametrize("block_rows", [None, 7])
def test_weave_csv_matches_per_row_reference(tmp_path, monkeypatch, report, block_rows):
    if block_rows is not None:
        monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", block_rows)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    cli._write_weave_csv(str(got), report)
    _reference_weave_csv(want, report)
    assert got.read_bytes() == want.read_bytes()


def test_cli_perturb_checks(tmp_path, capsys):
    identity = write_json(tmp_path / "id.json", {"dim": 3, "rows": np.eye(3).tolist()})
    proj = write_json(tmp_path / "proj.json", {"dim": 3, "rows": np.diag([1.0, 1.0, 0.0]).tolist()})
    sub = write_json(tmp_path / "sub.json", {"dim": 3, "vectors": [[0, 1, 1]]})
    axis = write_json(tmp_path / "axis.json", {"dim": 3, "vectors": [[0, 0, 1]]})

    assert main(["perturb", coords_path(), "--op", identity, "--check", "apply"]) == 0
    assert main(["perturb", coords_path(), "--op", proj, "--check", "apply"]) == 1

    json_out = tmp_path / "rec.json"
    assert main(
        ["perturb", coords_path(), "--op", proj, "--check", "operator1", "--json", str(json_out)]
    ) == 0
    record = json.loads(json_out.read_text())
    assert record["chain_ok"] is True and record["equivalence_ok"] is False

    diag210 = write_json(tmp_path / "diag210.json", {"dim": 3, "rows": np.diag([2.0, 1.0, 0.0]).tolist()})
    assert main(["perturb", coords_path(), "--op", diag210, "--check", f"modulus:{sub}"]) == 0
    # subspace inside the kernel: the angle hypothesis fails, negative verdict
    assert main(["perturb", coords_path(), "--op", proj, "--check", f"modulus:{axis}"]) == 1

    assert main(["perturb", coords_path(), "--op", proj, "--check", f"lemma:{sub}"]) == 0
    assert main(["perturb", coords_path(), "--op", identity, "--check", "per1"]) == 0
    assert main(["perturb", coords_path(), "--op", identity, "--check", "bogus"]) == 2
    capsys.readouterr()


def test_cli_per1_commutator_witness(tmp_path, capsys):
    theta = 0.7
    c, s = np.cos(theta), np.sin(theta)
    coords2 = write_json(
        tmp_path / "c2.json", {"dim": 2, "subspaces": [{"vectors": [[1, 0]]}, {"vectors": [[0, 1]]}]}
    )
    rotation = write_json(tmp_path / "rot.json", {"dim": 2, "rows": [[c, -s], [s, c]]})
    assert main(["perturb", coords2, "--op", rotation, "--check", "per1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == "condition (iii) commutator positivity: no"
    # C_2 = -C_1 for the two coordinate lines, so either member is worst
    label, member, eig = re.fullmatch(r"(.*): member (\d+), min eigenvalue (\S+)", lines[3]).groups()
    assert label == "commutator witness" and member in ("1", "2")
    np.testing.assert_allclose(float(eig), -s, atol=1e-12)
    assert lines[4] == "woven (independent enumeration): yes"
    # each meet of a line and its rotation is indefinite, but their sum is
    # (1 - sin θ) times the identity, so the pair is certified at the root
    mode, certificate, solved = re.fullmatch(
        r"woven decision: (\w+) \(certificate (\S+), (.*)\)", lines[5]
    ).groups()
    assert mode == "certified" and solved == "1 operator solved"
    np.testing.assert_allclose(float(certificate), 1 - s, atol=1e-12)

    identity = write_json(tmp_path / "id.json", {"dim": 2, "rows": np.eye(2).tolist()})
    assert main(["perturb", coords2, "--op", identity, "--check", "per1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:4] == [
        "condition (iii) commutator positivity: yes",
        "commutator witness: member 1, min eigenvalue 0",
    ]
    # not unitary: no (iii) verdict and no witness line
    scaled = write_json(tmp_path / "scaled.json", {"dim": 2, "rows": (2.0 * np.eye(2)).tolist()})
    assert main(["perturb", coords2, "--op", scaled, "--check", "per1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:] == [
        "condition (iii) commutator positivity: n/a (not unitary)",
        "woven (independent enumeration): yes",
        # 2 T maps each line onto itself: both members are shared
        "woven decision: certified (certificate 1, 1 operator solved)",
    ]


def test_cli_paper_examples(capsys):
    assert main(["paper-examples"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert "8/8 claims pass" in out


def test_cli_random_generators(tmp_path):
    frame_out = tmp_path / "frame.json"
    assert main(["random", "--type", "frame", "--dim", "4", "--count", "3", "--seed", "1", "-o", str(frame_out)]) == 0
    F = load_frame(frame_out)
    assert F.ambient_dim == 4 and len(F) == 3

    riesz_out = tmp_path / "riesz.json"
    assert main(["random", "--type", "riesz", "--dim", "4", "--count", "3", "--seed", "2", "-o", str(riesz_out)]) == 0
    assert main(["riesz", str(riesz_out)]) == 0

    op_out = tmp_path / "op.json"
    assert main(["random", "--type", "operator", "--dim", "4", "--seed", "3", "-o", str(op_out)]) == 0
    T = load_operator(op_out)
    assert T.shape == (4, 4)
    assert np.linalg.cond(T) <= 10.0 + 1e-6

    again = tmp_path / "again.json"
    assert main(["random", "--type", "frame", "--dim", "4", "--count", "3", "--seed", "1", "-o", str(again)]) == 0
    assert frame_out.read_text() == again.read_text()
