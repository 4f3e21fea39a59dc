"""Monte Carlo simulation of the conductance-induced random walk.

Every estimator here exists to verify an exact quantity independently:
return times, hitting times, and the pendant-vertex identities. Walks are
reproducible: walker ``i`` draws from a dedicated PCG64 substream derived
from ``(seed, i)``, so results are bit-identical across runs and do not
depend on how walkers might be scheduled.

All estimators run one kernel, ``_sample``. It builds each vertex's
neighbor list and running conductance sums once, then walks every walker
from a start vertex until it reaches a stop vertex, drawing one uniform
per step, and records the step count and the number of visits to the start
on the way. Walker seeds and generators are created one at a time as the
walk loop asks for them, so only the current walker's are alive. A return
time is a walk stopped at its own start, a hitting time one stopped at the
target, and the excursion count is the number of returns before a walk
from the anchor reaches the pendant tip. Step cap: a walk that reaches its
stop on step ``MAX_WALK_STEPS`` counts; one that needs more raises
:class:`WalkLengthExceeded`.

Verification convention: an estimate agrees with an exact value when
``|mean - exact| <= 3 * stderr`` (roughly a 0.3% false-failure budget per
check at large sample counts); corpus-level checks allow up to 1% of
independently seeded trials to miss at 4 standard errors.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator

import numpy as np

from .errors import BadParameter, BadVertexId, WalkLengthExceeded
from .network import Network, _require_integer
from .solver import return_time

__all__ = [
    "McEstimate",
    "PendantIdentityCheck",
    "ExcursionCountCheck",
    "estimate_return_time",
    "estimate_hitting_time",
    "verify_pendant_identities",
    "excursion_count_check",
]

# Defensive cap; unreachable on connected graphs except with astronomically
# small probability.
MAX_WALK_STEPS = 10**9


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error and the reproducibility token."""

    mean: float
    stderr: float
    samples: int
    seed: int


@dataclass(frozen=True)
class PendantIdentityCheck:
    """Simulated absorption time at a pendant tip vs. its two closed forms.

    ``c_plus_1`` is total strength plus one; ``cz_formula`` is vertex
    strength times the closed-form return time, plus one. The two are equal
    and the estimate must agree with both.
    """

    lhs: McEstimate
    c_plus_1: float
    cz_formula: float


@dataclass(frozen=True)
class ExcursionCountCheck:
    """Mean number of completed excursions before pendant absorption; the
    expected value is the vertex strength of the anchor."""

    mean_excursions: McEstimate
    expected: float


def _require_samples_and_seed(samples: int, seed: int) -> tuple[int, int]:
    """Both values as Python ints, so an estimate's ``seed`` serialises to JSON."""
    samples = _require_integer(samples, "samples")
    if samples < 1:
        raise BadParameter(f"samples must be >= 1, got {samples}")
    seed = _require_integer(seed, "seed")
    if not 0 <= seed < 2**64:
        raise BadParameter(f"seed must be a 64-bit unsigned integer, got {seed}")
    return samples, seed


def _walker_rngs(seed: int, samples: int) -> Iterator[np.random.Generator]:
    # The root counts its children, so one spawn per walker gives the
    # children that ``spawn(samples)`` would, without holding them all.
    root = np.random.SeedSequence(seed)
    for _ in range(samples):
        yield np.random.Generator(np.random.PCG64(root.spawn(1)[0]))


def _summarize(values: list[int], seed: int) -> McEstimate:
    samples = len(values)
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    stderr = float(arr.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return McEstimate(mean=mean, stderr=stderr, samples=samples, seed=seed)


def _sample(net: Network, start: int, stop: int, samples: int, seed: int) -> tuple[list[int], list[int]]:
    """Walk each seeded walker from ``start`` until it is at ``stop``.

    From ``v`` a walk steps to the neighbor whose running conductance sum
    is the first to exceed ``u * C_v``, ``u`` one uniform draw. Returns the
    per-walker step counts and visits to ``start`` after the first step.
    Every vertex has a neighbor to step to, since a :class:`Network` is
    connected and has at least two vertices.

    Raises:
        WalkLengthExceeded: a walk has not reached ``stop`` after
            ``MAX_WALK_STEPS`` steps.
    """
    neighbors = [list(d) for d in net._adjacency]
    cumulative = [list(accumulate(d.values())) for d in net._adjacency]
    cap = MAX_WALK_STEPS
    all_steps, all_returns = [], []
    for rng in _walker_rngs(seed, samples):
        draw = rng.random
        v = start
        steps = returns = 0
        while True:
            sums = cumulative[v]
            index = bisect_right(sums, draw() * sums[-1])
            if index == len(sums):  # guards the measure-zero rounding edge
                index -= 1
            v = neighbors[v][index]
            steps += 1
            if v == stop:
                break
            if steps >= cap:
                raise WalkLengthExceeded(f"walk {start} -> {stop} exceeded {cap} steps")
            if v == start:
                returns += 1
        all_steps.append(steps)
        all_returns.append(returns)
    return all_steps, all_returns


def estimate_return_time(net: Network, z: int, samples: int, seed: int) -> McEstimate:
    """Mean steps for the walk started at ``z`` to first come back to ``z``."""
    net._require_vertex(z)
    samples, seed = _require_samples_and_seed(samples, seed)
    steps, _ = _sample(net, z, z, samples, seed)
    return _summarize(steps, seed)


def estimate_hitting_time(net: Network, a: int, b: int, samples: int, seed: int) -> McEstimate:
    """Mean first-passage steps from ``a`` to ``b`` over independent walks."""
    net._require_vertex(a)
    net._require_vertex(b)
    if a == b:
        raise BadVertexId("hitting time needs two distinct vertices")
    samples, seed = _require_samples_and_seed(samples, seed)
    steps, _ = _sample(net, a, b, samples, seed)
    return _summarize(steps, seed)


def verify_pendant_identities(net: Network, z: int, samples: int, seed: int) -> PendantIdentityCheck:
    """Estimate the absorption time at a unit pendant attached to ``z``.

    Attaches a fresh tip vertex to ``z`` with conductance 1, simulates the
    walk from ``z`` until it reaches the tip, and returns the estimate next
    to the two closed forms it must match: total strength plus one, and
    vertex strength times the return time plus one.
    """
    extended, tip = net.add_pendant_vertex(z, 1.0)
    lhs = estimate_hitting_time(extended, z, tip, samples, seed)
    c_plus_1 = net.total_strength + 1.0
    cz_formula = net.vertex_strength(z) * return_time(net, z) + 1.0
    return PendantIdentityCheck(lhs=lhs, c_plus_1=c_plus_1, cz_formula=cz_formula)


def excursion_count_check(net: Network, z: int, samples: int, seed: int) -> ExcursionCountCheck:
    """Count excursions from ``z`` back to ``z`` before pendant absorption.

    On the pendant-extended graph, each visit to ``z`` either steps to the
    tip (absorbing the walk) or starts an excursion inside the original
    graph that ends on the next visit to ``z``. The expected number of
    completed excursions is the vertex strength of ``z``.
    """
    extended, tip = net.add_pendant_vertex(z, 1.0)
    samples, seed = _require_samples_and_seed(samples, seed)
    _, returns = _sample(extended, z, tip, samples, seed)
    return ExcursionCountCheck(
        mean_excursions=_summarize(returns, seed),
        expected=net.vertex_strength(z),
    )
