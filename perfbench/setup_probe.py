"""One cold set-up of a workload, in a fresh interpreter.

Imports ohmwalk, generates and serialises the workload's graphs into
DIRECTORY, and runs the round's first job once. The benchmark times this
process from start to exit; the median of several probes is ``setup_s``.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED DIRECTORY
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(workload: str, seed: str, directory: str) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import ohmwalk

    from perfbench import harness, workloads

    runners, _ = harness.materialise(workloads.plan(workload, int(seed)), Path(directory), ohmwalk)
    runners[0]()


if __name__ == "__main__":
    main(*sys.argv[1:])
