"""One traced pass of a cheap slice of every benchmark workload.

A traced benchmark run fails when a layer that ``perfbench/workloads.py``
declares in ``EXPECTED_SPANS`` sees no call. This test runs the same check
on a few small jobs per workload, so a change that stops calling a declared
layer fails the suite, not only a ``--trace 1`` benchmark run.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

import ohmwalk  # noqa: E402
from perfbench import checks, harness, workloads  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

CHEAP_CALLS = {
    "exact-cli": lambda call: call.graph == "q7",
    "removal-small": lambda call: call.graph.startswith("n5-"),
    "removal-walk-regular": lambda call: call.graph == "uneven-cubic",
    "mc-verify": lambda call: call.query["samples"] <= 1500,
}


@pytest.mark.parametrize("workload", sorted(CHEAP_CALLS))
def test_traced_slice_reaches_every_declared_span(workload, tmp_path):
    plan = workloads.plan(workload, 1)
    plan = dataclasses.replace(plan, calls=tuple(c for c in plan.calls if CHEAP_CALLS[workload](c)))
    runners, _ = harness.materialise(plan, tmp_path, ohmwalk)
    session = harness.Session(plan, runners, checks.expectations(plan))
    tracer = Tracer()
    with tracer.installed():
        for call, runner, expect in session.jobs:
            session.run_job(call, runner, expect, tracer, harness.Round(True))
    assert session.tally.attempted == len(plan.calls) > 0
    assert session.tally.failed == 0, session.tally.reasons
    assert harness.missing_spans(workload, tracer) == []
