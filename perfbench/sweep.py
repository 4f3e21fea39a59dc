"""Run the benchmark over several seeds and summarise each metric.

Usage::

    python3 perfbench/sweep.py --workloads exact-cli,mc-verify --seeds 1-10 [--seconds 20] [--trace 1] [--out FILE]

Runs ``perfbench/run.py`` once per workload and seed, one after another,
and prints for every metric its median, its quartiles
(``statistics.quantiles`` with ``n=4``) and the spread: the distance
between the quartiles as a share of the median. ``--out`` also writes
the runs and the summaries as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, type=lambda text: text.split(","))
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    document = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            command = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                       "--seconds", args.seconds, "--trace", args.trace]
            done = subprocess.run(command, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return done.returncode
            record, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
            runs.append({"seed": seed, "result": result, "record": record})
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", file=sys.stderr)
        names = runs[0]["result"]["metrics"]
        summary = {name: summarise([r["result"]["metrics"][name]["value"] for r in runs]) for name in names}
        for name, s in summary.items():
            print(f"{workload:22s} {name:42s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.4f}")
        document["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        args.out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
