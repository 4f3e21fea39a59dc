"""Spans around the calls into ohmwalk's layers, installed from outside the program.

While installed, the tracer replaces the public functions of each ohmwalk
module (in every ohmwalk namespace that imported them), three ``Network``
methods, and numpy's ``linalg.eigh``/``linalg.solve`` and RNG
constructors with wrappers that open a span. Each span records its name,
its parent, its start and its end; the job is the root span. When a job
ends its spans are folded into per-name totals, where a span's self time
is its duration minus the durations of its ohmwalk child spans.

The numpy spans are leaves that are counted and timed but not subtracted:
their time stays in the self time of the ohmwalk function that called
them, so a layer's self time is what the layer costs, numpy work included.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

MODULE_FUNCTIONS = (
    "cli.run_cli",
    "edgelist.parse_edge_list",
    "solver.effective_resistance_matrix",
    "solver.hitting_time_matrix",
    "solver.return_time",
    "perturbation.analyze_edge_removal",
    "walk_regular.check_walk_regular",
    "montecarlo.estimate_hitting_time",
    "montecarlo.estimate_return_time",
    "montecarlo.verify_pendant_identities",
)
NETWORK_METHODS = {
    "__init__": "network.Network",
    "remove_edge": "network.remove_edge",
    "is_cut_edge": "network.is_cut_edge",
}
ESTIMATORS = ("montecarlo.estimate_hitting_time", "montecarlo.estimate_return_time")
RNG_SPANS = ("numpy.SeedSequence.spawn", "numpy.PCG64", "numpy.Generator")
NUMPY_SPANS = ("linalg.eigh", "linalg.solve", *RNG_SPANS)


@dataclass
class SpanTotals:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    failed: int = 0


def _count_n3(counts: Counter, args: tuple, result) -> None:
    counts["linalg.n3_computed"] += np.shape(args[0])[-1] ** 3


def _count_steps(counts: Counter, args: tuple, result) -> None:
    counts["montecarlo.walk_steps"] += round(result.samples * result.mean)


def _count_k(counts: Counter, args: tuple, result) -> None:
    counts["walk_regular.k_checked"] += result.checked_k_max


OBSERVERS = {
    "linalg.eigh": _count_n3,
    "linalg.solve": _count_n3,
    "montecarlo.estimate_hitting_time": _count_steps,
    "montecarlo.estimate_return_time": _count_steps,
    "walk_regular.check_walk_regular": _count_k,
}


class Tracer:
    def __init__(self):
        self.totals: defaultdict[str, SpanTotals] = defaultdict(SpanTotals)
        self.counts: Counter = Counter()
        self._spans: list[list] = []  # [name, parent index, start, end] of the open job
        self._open: list[int] = []

    def _enter(self, name: str) -> None:
        parent = self._open[-1] if self._open else None
        self._open.append(len(self._spans))
        self._spans.append([name, parent, perf_counter(), 0.0])

    def _exit(self, failed: bool) -> None:
        span = self._spans[self._open.pop()]
        span[3] = perf_counter()
        if failed:
            self.totals[span[0]].failed += 1
        if not self._open:
            self._fold()

    def _fold(self) -> None:
        child_seconds = [0.0] * len(self._spans)
        for name, parent, start, end in self._spans:
            if parent is not None and name not in NUMPY_SPANS:
                child_seconds[parent] += end - start
        for (name, _, start, end), inner in zip(self._spans, child_seconds):
            totals = self.totals[name]
            totals.calls += 1
            totals.seconds += end - start
            totals.self_seconds += end - start - inner
        self._spans.clear()

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            self._enter(name)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                self._exit(failed)
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return traced

    @contextmanager
    def job(self):
        """The root span around one job."""
        self._enter("job")
        failed = True
        try:
            yield
            failed = False
        finally:
            self._exit(failed)

    @contextmanager
    def installed(self):
        """Wrap every traced boundary; restore the originals on exit.

        Raises AttributeError when a traced name no longer exists, so a
        rename cannot silently drop a layer.
        """
        restore = []

        def replace(owner, attr: str, new) -> None:
            restore.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        try:
            namespaces = [m for n, m in list(sys.modules.items()) if n == "ohmwalk" or n.startswith("ohmwalk.")]
            for qualified in MODULE_FUNCTIONS:
                module, attr = qualified.split(".")
                original = getattr(importlib.import_module(f"ohmwalk.{module}"), attr)
                traced = self.wrap(qualified, original)
                for namespace in namespaces:
                    for key, value in list(vars(namespace).items()):
                        if value is original:
                            replace(namespace, key, traced)
            network = importlib.import_module("ohmwalk.network").Network
            for attr, name in NETWORK_METHODS.items():
                replace(network, attr, self.wrap(name, getattr(network, attr)))
            for attr in ("eigh", "solve"):
                replace(np.linalg, attr, self.wrap(f"linalg.{attr}", getattr(np.linalg, attr)))
            traced_seed_sequence = type(
                "SeedSequence",
                (np.random.SeedSequence,),
                {"spawn": self.wrap("numpy.SeedSequence.spawn", np.random.SeedSequence.spawn)},
            )
            replace(np.random, "SeedSequence", traced_seed_sequence)
            replace(np.random, "PCG64", self.wrap("numpy.PCG64", np.random.PCG64))
            replace(np.random, "Generator", self.wrap("numpy.Generator", np.random.Generator))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)
