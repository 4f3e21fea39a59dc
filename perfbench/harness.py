"""Closed-loop runner: set-up, timed rounds, correctness checks and metrics.

One client runs the workload's round of jobs again and again, each job
starting when the previous one returns, until the run's time is used.
Jobs run in this process: CLI jobs call ``ohmwalk.cli.run_cli(argv)`` on
edge-list files written during set-up, library jobs call the ohmwalk API.
Every output is checked after its job, outside the timed region.

With tracing on, untraced and traced rounds alternate: end-to-end figures
come from the untraced rounds, per-layer figures from the traced ones,
and their throughput ratio is the tracing overhead.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import importlib
import io
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from . import checks, workloads
from .tracing import ESTIMATORS, RNG_SPANS, Tracer

SETUP_PROBES = 7
# Every job's median comes from at least this many rounds.
MIN_ROUNDS = 7
WORK_DIR = ".perfbench_work"
PROBE_TIMEOUT_S = 120

# Per-layer metrics: (name, unit). Times and counts are per traced job.
SELF_TIME_SPANS = (
    "cli.run_cli",
    "edgelist.parse_edge_list",
    "network.Network",
    "network.remove_edge",
    "network.is_cut_edge",
    "solver.effective_resistance_matrix",
    "solver.hitting_time_matrix",
    "perturbation.analyze_edge_removal",
    "walk_regular.check_walk_regular",
)
CALL_SPANS = (
    "edgelist.parse_edge_list",
    "solver.effective_resistance_matrix",
    "solver.hitting_time_matrix",
    "walk_regular.check_walk_regular",
    "linalg.eigh",
    "linalg.solve",
)
COUNTS = ("linalg.n3_computed", "walk_regular.k_checked", "montecarlo.walk_steps")


def tail_percentile(samples: list[float], target: float = 0.90, beyond: int = 10) -> tuple[float, float]:
    """(fraction, value) of the nearest-rank ``target`` percentile.

    When fewer than ``beyond`` samples lie above it, the highest percentile
    that has ``beyond`` samples above it is reported instead; with no more
    than ``beyond`` samples, the largest is.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(1, min(math.ceil(target * n), n - beyond)) if n > beyond else n
    return rank / n, ordered[rank - 1]


@dataclass
class Round:
    traced: bool
    seconds: list[float] = field(default_factory=list)  # one entry per job, in round order


@dataclass
class Tally:
    """Jobs attempted and failed, with the first reasons for failure."""

    attempted: int = 0
    failed: int = 0
    mc_fail_verdicts: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, call: workloads.Call, reason: str | None, output) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{call.kind} on {call.graph}: {reason}")
        elif call.kind == "mc-verify" and output.rc == 1:
            self.mc_fail_verdicts += 1


# -- set-up ------------------------------------------------------------------


def _cli_job(argv: list[str]):
    cli = importlib.import_module("ohmwalk.cli")

    def run() -> checks.CliOutput:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.run_cli(argv)
        return checks.CliOutput(rc, out.getvalue(), err.getvalue())

    return run


def _removals_job(ow, n: int, edges):
    def run() -> list:
        net = ow.build_network(n, edges)
        return [ow.analyze_edge_removal(net, a, b) for a, b, _ in net.edges if not net.is_cut_edge(a, b)]

    return run


def materialise(plan: workloads.Plan, directory: Path, ow) -> tuple[list, dict]:
    """Write the plan's graph files through ohmwalk and return one runner per call.

    Named families come from ``ohmwalk.generators``, the benchmark's own
    graphs from ``build_network``; both are serialised by
    ``format_edge_list``. Also returns the generated networks by key.
    """
    directory.mkdir(parents=True, exist_ok=True)
    generators = {
        "hypercube": ow.hypercube,
        "cycle": ow.cycle,
        "complete": ow.complete,
        "unitary-cayley": ow.unitary_cayley,
        "petersen": ow.petersen,
    }
    networks, paths = {}, {}
    file_graphs = {call.graph for call in plan.calls if call.kind != "removals"}
    for key in sorted(file_graphs):
        graph = plan.graphs[key]
        if graph.family in generators:
            net = generators[graph.family](*graph.params)
        else:
            net = ow.build_network(graph.n, graph.edges)
        paths[key] = directory / f"{key}.edges"
        paths[key].write_text(ow.format_edge_list(net, graph.labels), encoding="utf-8")
        networks[key] = net
    runners = []
    for call in plan.calls:
        if call.kind == "removals":
            graph = plan.graphs[call.graph]
            runners.append(_removals_job(ow, graph.n, graph.edges))
        else:
            runners.append(_cli_job([*call.argv, "-i", str(paths[call.graph])]))
    return runners, networks


def _probe(root: Path, workload: str, seed: int, directory: Path) -> float:
    """Wall time of one cold set-up in a fresh interpreter."""
    command = [sys.executable, str(root / "perfbench" / "setup_probe.py"), workload, str(seed), str(directory)]
    start = perf_counter()
    done = subprocess.run(command, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    wall = perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({done.returncode}): {done.stderr.strip()[-2000:]}")
    return wall


# -- environment record ------------------------------------------------------


def _blas_threads() -> int | None:
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _git_commit(root: Path) -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(root: Path, workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sources = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        sources.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(root),
        "source_sha256": sources.hexdigest(),
    }


# -- the closed loop ---------------------------------------------------------


class Session:
    def __init__(self, plan: workloads.Plan, runners: list, expects: list[dict]):
        self.jobs = list(zip(plan.calls, runners, expects))
        self.tally = Tally()
        self.rounds: list[Round] = []
        self._seen: dict = {}

    def run_job(self, call, runner, expect, tracer: Tracer | None, timed: Round | None) -> None:
        output, reason = None, None
        start = perf_counter()
        try:
            with tracer.job() if tracer is not None else nullcontext():
                output = runner()
        except Exception as exc:  # a raising job is a failed job; the loop goes on
            reason = f"raised {exc!r}"
        elapsed = perf_counter() - start
        if reason is None:
            reason = checks.check(call, expect, output, self._seen)
        if timed is not None:
            timed.seconds.append(elapsed)
            self.tally.record(call, reason, output)
        elif reason is not None:
            raise RuntimeError(f"warm-up job failed: {call.kind} on {call.graph}: {reason}")

    def warm_up(self) -> None:
        self.run_job(*self.jobs[0], tracer=None, timed=None)

    def loop(self, seconds: float, tracer: Tracer | None) -> None:
        """Run rounds until ``seconds`` are used, alternating traced rounds when tracing."""
        start = perf_counter()
        while True:
            traced = tracer is not None and len(self.rounds) % 2 == 1
            current = Round(traced)
            with tracer.installed() if traced else nullcontext():
                for call, runner, expect in self.jobs:
                    self.run_job(call, runner, expect, tracer if traced else None, current)
            self.rounds.append(current)
            elapsed = perf_counter() - start
            if len(self.rounds) >= MIN_ROUNDS and elapsed + 0.5 * elapsed / len(self.rounds) >= seconds:
                return

    def durations(self, traced: bool = False) -> list[float]:
        return [s for r in self.rounds if r.traced == traced for s in r.seconds]

    def job_medians(self, traced: bool = False) -> list[float]:
        """Median time of each job of the round, over the rounds run."""
        rounds = [r.seconds for r in self.rounds if r.traced == traced]
        return [statistics.median(times) for times in zip(*rounds)]

    def jobs_per_s(self, traced: bool = False) -> float:
        """Throughput of a round in which every job takes its median time."""
        medians = self.job_medians(traced)
        return len(medians) / sum(medians)


def end_to_end(session: Session, setup_seconds: list[float]) -> tuple[dict, dict]:
    durations = session.durations()
    fraction, tail = tail_percentile(durations)
    tally = session.tally
    metrics = {
        "jobs_per_s": (session.jobs_per_s(), "1/s"),
        "job_p50_s": (statistics.median(durations), "s"),
        "job_p90_s": (tail, "s"),
        "setup_s": (statistics.median(setup_seconds), "s"),
        "pass_frac": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "job_samples": len(durations),
        "job_p90_s_percentile": round(100 * fraction, 2),
        "failed_frac": tally.failed / tally.attempted,
        "job_medians_s": {
            f"{i} {call.kind} {call.graph}": median
            for i, ((call, _, _), median) in enumerate(zip(session.jobs, session.job_medians()))
        },
    }
    return metrics, detail


def per_layer(session: Session, tracer: Tracer) -> dict:
    jobs = len(session.durations(traced=True))
    totals, counts = tracer.totals, tracer.counts
    metrics = {}
    for span in SELF_TIME_SPANS:
        metrics[f"{span}.self_s"] = (totals[span].self_seconds / jobs, "s/job")
    for span in CALL_SPANS:
        metrics[f"{span}.calls"] = (totals[span].calls / jobs, "calls/job")
    for span in ("linalg.eigh", "linalg.solve"):
        metrics[f"{span}.total_s"] = (totals[span].seconds / jobs, "s/job")
    for name in COUNTS:
        metrics[name] = (counts[name] / jobs, "count/job")
    # The estimators' self time includes the RNG constructors they call;
    # the rest of it is walk stepping.
    estimate = sum(totals[span].self_seconds for span in ESTIMATORS)
    rng_setup = sum(totals[span].seconds for span in RNG_SPANS)
    stepping = estimate - rng_setup
    metrics["montecarlo.estimate.self_s"] = (estimate / jobs, "s/job")
    metrics["montecarlo.rng_setup_s"] = (rng_setup / jobs, "s/job")
    metrics["montecarlo.steps_per_s"] = (counts["montecarlo.walk_steps"] / stepping if stepping > 0 else 0.0, "1/s")
    metrics["spans.failed"] = (sum(t.failed for name, t in totals.items() if name != "job"), "count")
    untraced, traced = session.jobs_per_s(), session.jobs_per_s(traced=True)
    metrics["trace.untraced_jobs_per_s"] = (untraced, "1/s")
    metrics["trace.jobs_per_s"] = (traced, "1/s")
    metrics["trace.slowdown"] = (untraced / traced, "ratio")
    return metrics


def missing_spans(workload: str, tracer: Tracer) -> list[str]:
    return [span for span in workloads.EXPECTED_SPANS[workload] if tracer.totals[span].calls == 0]


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result line, record of environment and details)."""
    (root / WORK_DIR).mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=root / WORK_DIR) as scratch:
        scratch = Path(scratch)
        setup_seconds = [_probe(root, workload, seed, scratch / f"probe{i}") for i in range(SETUP_PROBES)]

        import ohmwalk

        if Path(ohmwalk.__file__).resolve().parent != (root / "src" / "ohmwalk").resolve():
            raise RuntimeError(f"imported ohmwalk from {ohmwalk.__file__}, not from this checkout")
        plan = workloads.plan(workload, seed)
        runners, networks = materialise(plan, scratch / "main", ohmwalk)
        mismatched = [key for key, net in networks.items() if net.edges != plan.graphs[key].edges]
        if mismatched:
            raise RuntimeError(f"generated graphs differ from their definitions: {mismatched}")
        session = Session(plan, runners, checks.expectations(plan))
        session.warm_up()
        tracer = Tracer() if trace else None
        session.loop(seconds, tracer)

    record = {"env": environment(root, workload, seed), "rounds": len(session.rounds)}
    if tracer is None:
        metrics, detail = end_to_end(session, setup_seconds)
        record.update(detail, setup_probes_s=setup_seconds)
    else:
        metrics = per_layer(session, tracer)
        missing = missing_spans(workload, tracer)
        if missing:
            raise RuntimeError(f"traced run recorded no calls for declared spans: {', '.join(missing)}")
    tally = session.tally
    record.update(mc_fail_verdicts=tally.mc_fail_verdicts, failures=tally.reasons)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, record
