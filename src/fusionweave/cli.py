"""Command line interface.

Subcommands::

    check <frame>                       frame verdict and bounds
    riesz <frame>                       Riesz sequence/basis verdict
    dual <frame> --canonical            canonical dual as a frame document
    dual <frame> --verify <other>       duality verdict
    dual <frame> --defect <other>       approximate-dual defect
    dual <frame> --enlarge <extras>     enlarged canonical dual
    weave <f1> <f2> [...]               weaving report, optional CSV;
                                        exact verdict only, past the cap
    perturb <frame> --op <T> --check …  operator perturbation checks
    paper-examples                      bundled worked-example claims
    random                              seeded instance generation

Exit codes: 0 success / positive verdict, 1 negative verdict, 2 input
error.  ``--epsilon`` sets the frame positivity threshold, ``--tol`` the
relative rank threshold.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import generators
from .documents import (
    frame_to_dict,
    load_frame,
    load_operator,
    load_subspace,
    operator_to_dict,
    _read_json,
)
from .errors import (
    AngleNotLessThanOne,
    DualityLost,
    FusionWeaveError,
    NotAFrame,
    NotUnitary,
    ParseError,
    SingularOperator,
    ZeroOperator,
)
from .frames import (
    approx_dual_defect,
    canonical_dual,
    enlarge_canonical_dual,
    frame_bounds,
    is_dual,
    riesz_sequence_bounds,
    transform_frame,
)
from .linalg import Tolerance
from .perturbation import (
    lemma_commute_residual,
    modulus_sandwich,
    operator1_check,
    per1_conditions,
)
from .weaving import ENUM_CAP, decide_woven, weaving_report
from .worked_examples import run_claims

VERDICT_ERRORS = (NotAFrame, DualityLost, SingularOperator, ZeroOperator, NotUnitary, AngleNotLessThanOne)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _tolerance(args) -> Tolerance:
    return Tolerance(rank_tol=args.tol, frame_eps=args.epsilon)


def _emit_json(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _jsonable(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(value).items()}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def cmd_check(args) -> int:
    tol = _tolerance(args)
    F = load_frame(args.frame, tol)
    bounds, ok = frame_bounds(F, tol)
    print(f"fusion frame: {'yes' if ok else 'no'}")
    print(f"bounds: {_fmt(bounds.lower)} {_fmt(bounds.upper)}")
    return 0 if ok else 1


def cmd_riesz(args) -> int:
    tol = _tolerance(args)
    F = load_frame(args.frame, tol)
    bounds, is_seq = riesz_sequence_bounds(F.subspaces, tol)
    basis = is_seq and sum(S.dim for S in F.subspaces) == F.ambient_dim  # as is_riesz_basis
    print(f"riesz sequence: {'yes' if is_seq else 'no'}")
    print(f"riesz basis: {'yes' if basis else 'no'}")
    print(f"bounds: {_fmt(bounds.lower)} {_fmt(bounds.upper)}")
    return 0 if basis else 1


def cmd_dual(args) -> int:
    tol = _tolerance(args)
    F = load_frame(args.frame, tol)
    if args.canonical:
        D = canonical_dual(F, tol)
        _emit_json(frame_to_dict(D, name="canonical dual"), args.output)
        return 0
    if args.verify:
        V = load_frame(args.verify, tol)
        ok = is_dual(F, V, tol)
        print(f"dual: {'yes' if ok else 'no'}")
        print(f"defect: {_fmt(approx_dual_defect(F, V, tol))}")
        return 0 if ok else 1
    if args.defect:
        V = load_frame(args.defect, tol)
        defect = approx_dual_defect(F, V, tol)
        print(f"{defect:.6f}")
        return 0 if defect < 1.0 else 1
    if args.enlarge:
        data = _read_json(args.enlarge)
        extras = data.get("extras")
        if not isinstance(extras, list):
            raise ParseError(f"{args.enlarge}: 'extras' must be a list of vector lists")
        V = enlarge_canonical_dual(F, extras, tol)
        _emit_json(frame_to_dict(V, name="enlarged canonical dual"), args.output)
        return 0
    raise ParseError("dual needs one of --canonical, --verify, --defect, --enlarge")


def _labels_text(labels) -> str:
    return "-".join(map(str, labels))


def _decision_lines(decision) -> tuple[str, str]:
    """The ``woven:`` verdict line and the ``woven decision:`` line of a WovenDecision."""
    verdict = f"woven: {'yes' if decision.woven else 'no'} (exact, {decision.mode}"
    if decision.witness is not None:
        verdict += f"; witness {_labels_text(decision.witness)}"
    solved = f"{decision.nodes} operator{'' if decision.nodes == 1 else 's'} solved"
    return (
        verdict + ")",
        f"woven decision: {decision.mode} (certificate {_fmt(decision.certificate)}, {solved})",
    )


# Rows of the weave CSV formatted and written at a time: few enough that a
# block's text stays small next to the report, enough that the per-block
# numpy calls cost little (512 rows write as fast as 4096 at L=13).
_CSV_BLOCK_ROWS = 512


def _labels_column(labels: np.ndarray, M: int) -> np.ndarray:
    """``_labels_text`` of every row of a ``(K, L)`` label array, built column by column."""
    names = np.array([str(v) for v in range(M + 1)])
    text = names[labels[:, 0]]
    dashed = np.char.add("-", names)
    for column in labels.T[1:]:
        text = np.char.add(text, dashed[column])
    return text


def _fmt_column(values: np.ndarray) -> list[str]:
    """``_fmt`` of every value, run once per distinct bit pattern (so -0.0 and
    0.0, which compare equal but print differently, stay apart)."""
    distinct, index = np.unique(values.view(np.uint64), return_inverse=True)
    return np.array([_fmt(x) for x in distinct.view(np.float64).tolist()])[index].tolist()


def _write_weave_csv(path: str, report) -> None:
    M = report.frame_count
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["assignment_id", "labels", "lambda_min", "lambda_max", "is_frame"])
        for start in range(0, report.enumerated, _CSV_BLOCK_ROWS):
            block = slice(start, start + _CSV_BLOCK_ROWS)
            labels = report.labels[block]
            flags = np.where(report.is_frame[block], "true", "false").tolist()
            # no field can hold a comma, quote or line break, so these lines
            # are what csv.writer writes, without its per-field quoting checks
            handle.write(
                "".join(
                    f"{k},{text},{lo},{hi},{ok}\r\n"
                    for k, text, lo, hi, ok in zip(
                        range(start, start + labels.shape[0]),  # rows are in rank order
                        _labels_column(labels, M).tolist(),
                        _fmt_column(report.lower[block]),
                        _fmt_column(report.upper[block]),
                        flags,
                    )
                )
            )
        writer.writerow(
            [
                "universal",
                "",
                _fmt(report.universal_lower),
                _fmt(report.universal_upper),
                "true" if report.woven else "false",
            ]
        )


def cmd_weave(args) -> int:
    tol = _tolerance(args)
    frames = [load_frame(path, tol) for path in args.frames]
    if len(frames) ** len(frames[0]) > args.max_enum and not args.csv:
        # past the cap only the verdict is exact without enumeration; CSV
        # rows still need it, so weaving_report below raises the cap error
        decision = decide_woven(frames, tol, node_budget=args.max_enum)
        print("\n".join(_decision_lines(decision)))
        return 0 if decision.woven else 1
    report = weaving_report(frames, tol, enum_cap=args.max_enum)
    length = report.labels.shape[1]
    print(f"weavings evaluated: {report.enumerated} [exhaustive]")
    print(f"woven: {'yes' if report.woven else 'no'}")
    print(f"universal bounds: {_fmt(report.universal_lower)} {_fmt(report.universal_upper)}")
    print(f"witness C: {_labels_text(report.witness_lower)}")
    print(f"witness D: {_labels_text(report.witness_upper)}")
    print(
        f"weavings solved: {report.solved} of {report.frame_count}^{length} "
        f"({report.shared} of {length} members shared)"
    )
    if args.csv:
        _write_weave_csv(args.csv, report)
    return 0 if report.woven else 1


def cmd_perturb(args) -> int:
    tol = _tolerance(args)
    F = load_frame(args.frame, tol)
    T = load_operator(args.op)
    kind, _, extra = args.check.partition(":")
    record = None
    code = 0
    if kind == "apply":
        moved = transform_frame(T, F, tol)
        bounds, ok = frame_bounds(moved, tol)
        record = {"bounds": (bounds.lower, bounds.upper), "is_frame": ok}
        print(f"image family is a fusion frame: {'yes' if ok else 'no'}")
        print(f"bounds: {_fmt(bounds.lower)} {_fmt(bounds.upper)}")
        code = 0 if ok else 1
    elif kind == "operator1":
        record = operator1_check(T, F, tol)
        print(f"gamma: {_fmt(record.gamma)}")
        print(
            "row-space family bounds: "
            f"{_fmt(record.left_bounds.lower)} {_fmt(record.left_bounds.upper)} "
            f"(frame: {'yes' if record.left_is_frame else 'no'})"
        )
        print(
            "image family bounds:     "
            f"{_fmt(record.right_bounds.lower)} {_fmt(record.right_bounds.upper)} "
            f"(frame: {'yes' if record.right_is_frame else 'no'})"
        )
        print(f"norm chain holds: {'yes' if record.chain_ok else 'no'}")
        print(f"frame-ness equivalent: {'yes' if record.equivalence_ok else 'no'}")
        code = 0 if record.chain_ok else 1
    elif kind == "modulus":
        if not extra:
            raise ParseError("--check modulus needs a subspace file: modulus:<path>")
        V = load_subspace(extra, tol)
        record = modulus_sandwich(T, V, tol)
        print(f"angle cosine c: {_fmt(record.c)}")
        print(f"lower: {_fmt(record.lhs)}  gamma(T P_V): {_fmt(record.mid)}  upper: {_fmt(record.rhs)}")
        print(f"sandwich holds: {'yes' if record.holds else 'no'}")
        code = 0 if record.holds else 1
    elif kind == "lemma":
        if not extra:
            raise ParseError("--check lemma needs a subspace file: lemma:<path>")
        V = load_subspace(extra, tol)
        residual = lemma_commute_residual(T, V, tol)
        record = {"residual": residual}
        print(f"commutation residual: {_fmt(residual)}")
        code = 0 if residual <= tol.orth_tol else 1
    elif kind == "per1":
        record = per1_conditions(T, F, tol)
        third = "n/a (not unitary)" if record.cond_iii is None else ("yes" if record.cond_iii else "no")
        print(f"condition (i) uniform inclusion: {'yes' if record.cond_i else 'no'}")
        print(f"condition (ii) growth + norm bound: {'yes' if record.cond_ii else 'no'}")
        print(f"condition (iii) commutator positivity: {third}")
        if record.cond_iii is not None:
            (member,) = record.witnesses["worst_sigma"]
            eig = record.witnesses["worst_commutator_min_eig"]
            print(f"commutator witness: member {member}, min eigenvalue {_fmt(eig)}")
        print(f"woven (independent enumeration): {'yes' if record.woven_verdict else 'no'}")
        print(_decision_lines(record.witnesses["woven_decision"])[1])
        code = 0 if record.woven_verdict else 1
    else:
        raise ParseError(f"unknown --check kind: {args.check!r}")
    if args.json:
        payload = _jsonable(record)
        if isinstance(payload, dict):
            payload.pop("witnesses", None)
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return code


def cmd_paper_examples(args) -> int:
    tol = _tolerance(args)
    claims = run_claims(tol)
    all_ok = True
    for claim in claims:
        status = "PASS" if claim.passed else "FAIL"
        detail = f" ({claim.detail})" if claim.detail else ""
        print(f"[{claim.claim_id}] {status}: {claim.description}{detail}")
        all_ok &= claim.passed
    print(f"{sum(c.passed for c in claims)}/{len(claims)} claims pass")
    return 0 if all_ok else 1


def cmd_random(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.type == "frame":
        F = generators.random_fusion_frame(rng, args.dim, args.count)
        doc = frame_to_dict(F, name=f"random frame (seed {args.seed})")
    elif args.type == "riesz":
        F, _, _ = generators.random_riesz_fusion_basis(rng, args.dim, args.count, args.cond_cap)
        doc = frame_to_dict(F, name=f"random Riesz fusion basis (seed {args.seed})")
    else:
        doc = operator_to_dict(generators.random_invertible(rng, args.dim, args.cond_cap))
    _emit_json(doc, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusionweave",
        description="fusion frame and weaving workbench",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--epsilon", type=float, default=1e-9, help="frame positivity threshold")
    common.add_argument("--tol", type=float, default=1e-10, help="relative rank threshold")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common], help="frame verdict and bounds")
    p.add_argument("frame")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("riesz", parents=[common], help="Riesz sequence/basis verdict")
    p.add_argument("frame")
    p.set_defaults(func=cmd_riesz)

    p = sub.add_parser("dual", parents=[common], help="duals and defects")
    p.add_argument("frame")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--canonical", action="store_true", help="emit the canonical dual")
    group.add_argument("--verify", metavar="OTHER", help="check that OTHER is a dual")
    group.add_argument("--defect", metavar="OTHER", help="print the approximate-dual defect")
    group.add_argument("--enlarge", metavar="EXTRAS", help="enlarge the canonical dual")
    p.add_argument("-o", "--output", help="write emitted documents here instead of stdout")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("weave", parents=[common], help="weaving report over assignments")
    p.add_argument("frames", nargs="+", help="two or more frame documents")
    p.add_argument(
        "--max-enum",
        type=int,
        default=ENUM_CAP,
        help="enumeration cap; past it, the exact verdict's node budget",
    )
    p.add_argument("--csv", help="write the per-assignment report to this CSV file")
    p.set_defaults(func=cmd_weave)

    p = sub.add_parser("perturb", parents=[common], help="operator perturbation checks")
    p.add_argument("frame")
    p.add_argument("--op", required=True, help="operator document")
    p.add_argument(
        "--check",
        required=True,
        help="apply | operator1 | modulus:<subspace-file> | lemma:<subspace-file> | per1",
    )
    p.add_argument("--json", help="also dump the record as JSON")
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser(
        "paper-examples", parents=[common], help="run the bundled worked-example claims"
    )
    p.set_defaults(func=cmd_paper_examples)

    p = sub.add_parser("random", parents=[common], help="seeded random instances")
    p.add_argument("--type", required=True, choices=["frame", "riesz", "operator"])
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--count", type=int, default=2, help="number of subspaces")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cond-cap", type=float, default=10.0, help="condition number cap")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_random)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VERDICT_ERRORS as exc:
        print(f"negative verdict: {exc}", file=sys.stderr)
        return 1
    except (FusionWeaveError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
