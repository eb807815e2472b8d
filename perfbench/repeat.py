"""Run the benchmark on several seeds and summarise each end-to-end metric.

    python3 perfbench/repeat.py --workload weave-random --seeds 1-10 [--seconds 22] [--json out.json]

Each seed is a fresh process.  For every metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, i.e. the
distance between the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).with_name("run.py")


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=22)
    parser.add_argument("--json", help="also write the summary here")
    args = parser.parse_args()

    results = []
    for seed in args.seeds:
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
            print(f"seed {seed}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))

    report = {
        "workload": args.workload,
        "seeds": args.seeds,
        "seconds": args.seconds,
        "correct": all(r["correct"] for r in results),
        "attempted": [r["attempted"] for r in results],
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            name: {"unit": spec["unit"], **summary([r["metrics"][name]["value"] for r in results])}
            for name, spec in results[0]["metrics"].items()
        },
    }
    print(f"{args.workload}: correct={report['correct']} failed={report['failed']} attempted={report['attempted']}")
    for name, m in report["metrics"].items():
        print(f"  {name:16s} median {m['median']:<12.6g} q1 {m['q1']:<12.6g} q3 {m['q3']:<12.6g} "
              f"spread {m['spread']:.4f} {m['unit']}")
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
