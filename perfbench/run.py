"""The ohmwalk benchmark: one closed-loop workload per run, in this process.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds ``src/ohmwalk``. The last
line of standard output is the result: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``). The line before it records the
environment and details such as the percentile behind ``job_p90_s``.
"""

import argparse
import compileall
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread: never more than nproc, and the same on every machine.
BLAS_THREADS = "1"


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    source = ROOT / "src"
    if not (source / "ohmwalk" / "__init__.py").is_file():
        print(f"error: no ohmwalk sources under {source}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    # The build: byte-compile once so that no run pays for it during set-up.
    if not compileall.compile_dir(str(source), quiet=1):
        print("error: ohmwalk sources do not compile", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    from perfbench import harness

    result, record = harness.run_workload(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
