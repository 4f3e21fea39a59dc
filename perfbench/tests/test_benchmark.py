"""Tests of the benchmark itself: seeded inputs, failure counting, percentiles, spans.

Run with ``python -m pytest perfbench/tests``.
"""

import dataclasses
import json
import time

import ohmwalk
import pytest

from perfbench import checks, harness, workloads
from perfbench.tracing import Tracer


def _inputs(workload: str, seed: int, directory) -> tuple:
    plan = workloads.plan(workload, seed)
    harness.materialise(plan, directory, ohmwalk)
    files = {p.name: p.read_text() for p in sorted(directory.iterdir())}
    return plan.calls, {k: g.edges for k, g in plan.graphs.items()}, files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload, tmp_path):
    first = _inputs(workload, 7, tmp_path / "a")
    assert _inputs(workload, 7, tmp_path / "b") == first
    assert _inputs(workload, 8, tmp_path / "c") != first


def test_readme_golden_job_is_in_every_mc_plan():
    for seed in (0, 1, 2):
        argvs = [call.argv for call in workloads.plan("mc-verify", seed).calls]
        assert ("mc-verify", "--what", "pendant", "--samples", "20000", "--seed", "42", "--vertex", "0") in argvs


def _session(workload: str, keep, tmp_path, corrupt=None):
    """A session over the calls for which ``keep(call)`` holds; ``corrupt``
    maps a call index to a function that rewrites that job's output."""
    plan = workloads.plan(workload, 3)
    plan = dataclasses.replace(plan, calls=tuple(c for c in plan.calls if keep(c)))
    runners, _ = harness.materialise(plan, tmp_path, ohmwalk)
    for index, rewrite in (corrupt or {}).items():
        runners[index] = (lambda run, rewrite: lambda: rewrite(run()))(runners[index], rewrite)
    return harness.Session(plan, runners, checks.expectations(plan))


def test_correct_outputs_pass(tmp_path):
    session = _session("exact-cli", lambda c: c.graph == "q7", tmp_path)
    session.loop(0.0, None)
    assert session.tally.attempted == 3 * harness.MIN_ROUNDS
    assert session.tally.failed == 0


def test_wrong_resistance_is_a_failed_job(tmp_path):
    def wrong(out):
        return dataclasses.replace(out, stdout=f"{float(out.stdout) * (1 + 1e-6):.12g}\n")

    keep = lambda c: c.graph == "q7"  # noqa: E731
    kinds = [c.kind for c in workloads.plan("exact-cli", 3).calls if keep(c)]
    session = _session("exact-cli", keep, tmp_path, corrupt={kinds.index("resistance"): wrong})
    session.loop(0.0, None)
    metrics, detail = harness.end_to_end(session, [1.0])
    assert session.tally.failed == harness.MIN_ROUNDS
    assert detail["failed_frac"] == pytest.approx(1 / 3)
    assert metrics["pass_frac"][0] == pytest.approx(2 / 3)
    assert "resistance" in session.tally.reasons[0]


def test_mc_mean_that_does_not_repeat_is_a_failed_job(tmp_path):
    calls = iter(range(100))

    def drift(out):
        doc = json.loads(out.stdout)
        if next(calls) > 0:
            doc["mean"] = doc["mean"] + 1e-12
        return dataclasses.replace(out, stdout=json.dumps(doc))

    session = _session("mc-verify", lambda c: c.query["samples"] == 1000, tmp_path, corrupt={0: drift})
    session.loop(0.0, None)
    assert session.tally.attempted == harness.MIN_ROUNDS
    assert session.tally.failed == harness.MIN_ROUNDS - 1
    assert "not reproducible" in session.tally.reasons[0]


def test_raising_job_is_a_failed_job(tmp_path):
    def boom(out):
        raise RuntimeError("boom")

    session = _session("removal-small", lambda c: c.graph == "n5-sparse", tmp_path, corrupt={0: boom})
    session.loop(0.0, None)
    assert session.tally.failed == session.tally.attempted == harness.MIN_ROUNDS


@pytest.mark.parametrize(
    "n, fraction, value",
    [
        (200, 0.9, 180),  # at least ten samples above the 90th percentile
        (100, 0.9, 90),
        (40, 0.75, 30),  # only 4 above p90: fall back to rank n - 10
        (11, 1 / 11, 1),
        (10, 1.0, 10),  # no rank has ten above: the largest
    ],
)
def test_tail_percentile(n, fraction, value):
    samples = [float(x) for x in range(n, 0, -1)]
    got_fraction, got_value = harness.tail_percentile(samples)
    assert got_fraction == pytest.approx(fraction)
    assert got_value == value
    assert sum(s > got_value for s in samples) >= min(10, n - 1) or n <= 10


def test_self_time_subtracts_ohmwalk_children_but_not_numpy_leaves():
    tracer = Tracer()
    leaf = tracer.wrap("linalg.solve", lambda matrix: time.sleep(0.02))
    child = tracer.wrap("solver.hitting_time_matrix", lambda: (time.sleep(0.02), leaf([[0.0] * 3] * 3)))
    parent = tracer.wrap("cli.run_cli", lambda: (time.sleep(0.02), child()))
    with tracer.job():
        parent()
    totals = tracer.totals
    assert totals["cli.run_cli"].self_seconds == pytest.approx(0.02, abs=0.015)
    assert totals["solver.hitting_time_matrix"].self_seconds == pytest.approx(0.04, abs=0.015)
    assert totals["linalg.solve"].calls == 1
    assert tracer.counts["linalg.n3_computed"] == 27
    assert totals["job"].self_seconds < 0.01


def test_traced_round_covers_declared_spans_and_restores_originals(tmp_path):
    session = _session("removal-small", lambda c: c.graph == "n7-half", tmp_path)
    originals = (ohmwalk.analyze_edge_removal, ohmwalk.Network.__init__)
    tracer = Tracer()
    with tracer.installed():
        assert ohmwalk.analyze_edge_removal is not originals[0]
        for call, runner, expect in session.jobs:
            session.run_job(call, runner, expect, tracer, harness.Round(True))
    assert (ohmwalk.analyze_edge_removal, ohmwalk.Network.__init__) == originals
    assert session.tally.failed == 0
    assert harness.missing_spans("removal-small", tracer) == []
    assert "montecarlo.estimate_hitting_time" in harness.missing_spans("mc-verify", tracer)
    assert tracer.counts["linalg.n3_computed"] > 0
