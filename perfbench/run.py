"""fusionweave benchmark: one workload, one closed-loop client.

    python3 perfbench/run.py --workload weave-random --seed 1 --seconds 22 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and nowhere else.  The run builds the workload's instances from
the seed and writes them as JSON documents in a scratch directory inside
the checkout (set-up).  A forked child makes one pass over the workload's
pool of calls to measure the memory it adds.  The timed phase then calls
``fusionweave.cli.main(argv)`` in-process, round-robin over the pool, for
``--seconds`` seconds of calls, with set-ups timed at even points between them.
Afterwards every output is checked against ``oracle.py``, which
recomputes it with plain numpy.  The last line of stdout is the result:
end-to-end metrics with ``--trace 0``; with ``--trace 1`` one fixed pass
runs untraced and then traced, and per-layer metrics are printed.

Exit codes: 0 all outputs correct, 1 some output wrong, 2 no source tree.
"""

from __future__ import annotations

import os

# One BLAS thread: a single client on a shared machine, steadier timings.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import math
import re
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PLAN = json.loads((Path(__file__).with_name("plan.json")).read_text(encoding="utf-8"))
SETUP_SLOTS = 12  # points of the run at which set-up is timed
SETUP_TRIES = 2  # back-to-back set-ups at each point; the fastest counts


def bootstrap():
    """Import fusionweave from this checkout's source tree, or exit 2."""
    if not (SRC / "fusionweave" / "cli.py").is_file():
        print(f"error: no fusionweave source tree under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import fusionweave

    if SRC.resolve() not in Path(fusionweave.__file__).resolve().parents:
        print(f"error: fusionweave imported from {fusionweave.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


class Runner:
    """Calls the CLI in-process and keeps every result for the oracle."""

    def __init__(self, cli, out_dir: Path):
        self.cli = cli  # called through the module so a traced run sees its wrapper
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        self.results = []  # (op, rc, stdout, out_path, seconds, error)

    def call(self, op):
        out_path = None
        argv = list(op.argv)
        if "{out}" in argv:
            out_path = str(self.out_dir / f"{len(self.results)}.out")
            argv = [out_path if a == "{out}" else a for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        error = None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # an op that raises counts as failed, the run goes on
                rc, error = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
        if error is None and rc not in (0, 1):
            error = f"exit code {rc}: {stderr.getvalue().strip()}"
        self.results.append((op, rc, stdout.getvalue(), out_path, seconds, error))


def set_up(workloads, name: str, seed: int, work: Path, cli) -> tuple[object, float]:
    """Generate instances, write documents, warm up.  Returns (workload, seconds)."""
    t0 = time.perf_counter()
    work.mkdir(parents=True)
    (work / "warm").mkdir()
    workload = workloads.WORKLOADS[name](np.random.default_rng(seed), work)
    warm_rng = np.random.default_rng([seed, 1])
    warm = Runner(cli, work / "warm" / "out")
    for op in workloads.warm_up_ops(warm_rng, work / "warm"):
        warm.call(op)
    workloads.warm_up_api(warm_rng)
    seconds = time.perf_counter() - t0
    errors = [r[5] for r in warm.results if r[5]]
    if errors:
        raise RuntimeError(f"warm-up failed: {errors[0]}")
    return workload, seconds


def verify(oracle, results) -> list[str | None]:
    """Per result: None when correct, else why it failed."""
    return [error or oracle.verify(op, rc, stdout, out_path) for op, rc, stdout, out_path, _, error in results]


def verdicts(results) -> dict:
    mix: dict[str, int] = {}
    for op, rc, stdout, *_ in results:
        key = f"{op.kind}:{'yes' if rc == 0 else 'no' if rc == 1 else 'error'}"
        if op.kind == "per1":
            third = re.search(r"^condition \(iii\)[^:]*: (\S+)", stdout, re.MULTILINE)
            key += f",iii:{third.group(1) if third else '?'}"
        mix[key] = mix.get(key, 0) + 1
    return dict(sorted(mix.items()))


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "loop": "closed, 1 client",
        "python": sys.version.split()[0],
    }


def resident_peak_kb(fn) -> int:
    """ru_maxrss (KiB) of a forked child that runs `fn` and exits.  The child
    starts with the parent's resident pages, so its peak minus an idle
    child's peak is what `fn` added on top of them."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            fn()
            code = 0
        finally:
            os._exit(code)
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"memory pass exited with status {status}")
    return usage.ru_maxrss


def pass_peak_mb(cli, ops, out_dir: Path) -> float:
    """Peak resident memory one pass over the pool adds, in MB.  Failed
    calls are counted by the timed phase, which makes the same calls."""

    def one_pass():
        runner = Runner(cli, out_dir)
        for op in ops:
            runner.call(op)

    idle = resident_peak_kb(lambda: None)
    return (resident_peak_kb(one_pass) - idle) / 1024.0


def timed(args, workloads, oracle, cli, work: Path) -> tuple[dict, dict, list[str], list[str], int]:
    workload, first_setup_s = set_up(workloads, args.workload, args.seed, work / "setup0", cli)
    # Before the timed phase, so the parent's heap holds no pages freed by
    # earlier passes that the child could reuse without growing.
    peak_rss_mb = pass_peak_mb(cli, workload.ops, work / "mem")

    def repeat_set_up(name: str) -> float:
        gc.collect()
        _, seconds = set_up(workloads, args.workload, args.seed, work / name, cli)
        shutil.rmtree(work / name)
        return seconds

    # The calls' own time counts towards --seconds.  Set-up is timed at
    # SETUP_SLOTS points spread evenly over it, by the fastest of SETUP_TRIES
    # back-to-back set-ups at each point; setup_s is the median of the points.
    runner = Runner(cli, work / "out")
    ops = workload.ops
    elapsed, k, setups = 0.0, 0, []
    while elapsed < args.seconds or k < len(ops):  # every call runs at least once
        t0 = time.perf_counter()
        runner.call(ops[k % len(ops)])
        elapsed += time.perf_counter() - t0
        k += 1
        while len(setups) < SETUP_SLOTS and elapsed >= args.seconds * (len(setups) + 1) / SETUP_SLOTS:
            setups.append(min(repeat_set_up(f"setup{len(setups)}.{t}") for t in range(SETUP_TRIES)))

    t0 = time.perf_counter()
    results = runner.results
    reasons = verify(oracle, results)
    oracle_s = time.perf_counter() - t0
    failures = [why for why in reasons if why]
    good = [r for r, why in zip(results, reasons) if not why]

    # On a shared host (measured on a 2-vCPU KVM guest) speed drifts by up to
    # ~1.6x in phases of seconds to minutes, so each distinct call is timed
    # by its fastest correct execution in the run.  On weave-random a median
    # per call moved by a third across five seeds where best times moved by
    # 6%; the plain
    # median and p90 of every execution go to the info line.
    best: dict = {}
    for op, _, _, _, seconds, _ in good:
        best[op] = min(best.get(op, math.inf), seconds)
    busy = sum(best.values())
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(best) / busy if best else 0.0, "1/s"),
        "op_s.p50": (statistics.median(best.values()) if best else 0.0, "s"),
        "weavings_per_s": (sum(op.weavings for op in best) / busy if best else 0.0, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    op_s = [r[4] for r in good]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        **environment(),
        "instances": workload.properties,
        "timed_s": elapsed,
        "distinct_calls": len(best),
        "op_s.samples": len(op_s),
        "wall": {
            "ops_per_s": len(good) / elapsed,
            "weavings_per_s": sum(r[0].weavings for r in good) / elapsed,
            "op_s.p50": statistics.median(op_s) if op_s else None,
            "op_s.p90": statistics.quantiles(op_s, n=10)[8] if len(op_s) >= 100 else None,
        },
        "failed_ratio": len(failures) / len(results),
        "verdicts": verdicts(results),
        "setup_s.first": first_setup_s,
        "setup_s.samples": setups,
        "oracle_s": oracle_s,
    }
    return metrics, info, failures, [], len(results)


def traced(args, workloads, oracle, cli, work: Path) -> tuple[dict, dict, list[str], list[str], int]:
    from tracer import TRACED_NAMES, Tracer

    workload, _ = set_up(workloads, args.workload, args.seed, work / "plain", cli)
    plain = Runner(cli, work / "plain" / "out")
    calls = workload.ops * workload.trace_passes
    gc.collect()
    t0 = time.perf_counter()
    for op in calls:
        plain.call(op)
    untraced_s = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    try:
        workload, _ = set_up(workloads, args.workload, args.seed, work / "traced", cli)
        runner = Runner(cli, work / "traced" / "out")
        gc.collect()

        t0 = time.perf_counter()
        for k, op in enumerate(calls):
            tracer.current_op = k
            runner.call(op)
        traced_s = time.perf_counter() - t0
        tracer.current_op = -1
    finally:
        tracer.uninstall()

    results = plain.results + runner.results
    failures = [why for why in verify(oracle, results) if why]
    op_calls = tracer.op_calls()
    metrics = tracer.metrics()
    # The warm-up in set-up reaches every traced function, so a zero count
    # means a wrapper was not rebound where the function is called.
    dead = [f"trace: {name} never fired" for name in TRACED_NAMES if not metrics[f"{name}.calls"][0]]
    weavings = sum(r[0].weavings for r in runner.results)
    metrics["trace.untraced_pass_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    tracer.write_spans(ROOT / ".perfbench-out" / f"spans-{args.workload}.csv")
    info = {
        "workload": args.workload,
        "seed": args.seed,
        **environment(),
        "instances": workload.properties,
        "pass_ops": len(runner.results),
        "traced_pass_s": traced_s,
        "untraced_pass_s": untraced_s,
        "measured_pass": {
            "weavings_sum_M^L": weavings,
            "linalg.sym_eig_extremes.calls": op_calls["linalg.sym_eig_extremes"],
            "perturbation.partial_frame_operator.calls": op_calls["perturbation.partial_frame_operator"],
            "weaving.weaving_report.calls": op_calls["weaving.weaving_report"],
        },
        "verdicts": verdicts(runner.results),
        "spans": len(tracer.start),
    }
    return metrics, info, failures, dead, len(results)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLAN["workloads"]))
    parser.add_argument("--seed", type=int, default=PLAN["default_seed"])
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bootstrap()
    import oracle
    import workloads
    from fusionweave import cli

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        run = traced if args.trace else timed
        metrics, info, failures, trace_errors, attempted = run(
            args, workloads, oracle, cli, Path(tmp)
        )

    info["failures"] = (trace_errors + failures)[:5]
    print("info: " + json.dumps(info))
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>16.6g} {unit}")
    correct = not failures and not trace_errors
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
