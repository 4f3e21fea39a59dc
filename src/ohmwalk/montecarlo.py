"""Monte Carlo simulation of the conductance-induced random walk.

Every estimator here exists to verify an exact quantity independently:
return times, hitting times, and the pendant-vertex identities. Walks are
reproducible: walker ``i`` draws from a dedicated PCG64 substream derived
from ``(seed, i)``, so results are bit-identical across runs and do not
depend on how walkers might be scheduled.

All estimators run one kernel, ``_walk``: from a start vertex it draws one
uniform per step through :meth:`WalkSampler.step` until the walk reaches a
stop vertex, and reports the step count and the number of visits to the
start on the way. A return time is a walk stopped at its own start, a
hitting time one stopped at the target, and the excursion count is the
number of returns before a walk from the anchor reaches the pendant tip.
Step cap: a walk that reaches its stop on step ``MAX_WALK_STEPS`` counts;
one that needs more raises :class:`WalkLengthExceeded`.

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

import numpy as np

from .errors import BadParameter, BadVertexId, WalkLengthExceeded
from .network import Network
from .solver import return_time

__all__ = [
    "McEstimate",
    "WalkSampler",
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


class WalkSampler:
    """Steps the induced walk using per-vertex cumulative conductance tables.

    From vertex ``y`` the walk moves to neighbor ``z`` with probability
    ``C_yz / C_y``, realized by binary search of a uniform draw against the
    running conductance sums.
    """

    def __init__(self, net: Network):
        if net.vertex_count < 2:
            raise BadParameter("random walk needs at least two vertices")
        self._net = net
        self._neighbors: list[list[int]] = []
        self._cumulative: list[list[float]] = []
        for v in range(net.vertex_count):
            pairs = net.neighbors(v)
            self._neighbors.append([w for w, _ in pairs])
            self._cumulative.append(list(accumulate(c for _, c in pairs)))

    def step(self, rng: np.random.Generator, v: int) -> int:
        """Draw the next vertex of a walk currently at ``v``."""
        cumulative = self._cumulative[v]
        draw = rng.random() * cumulative[-1]
        index = bisect_right(cumulative, draw)
        if index == len(cumulative):  # guards the measure-zero rounding edge
            index -= 1
        return self._neighbors[v][index]


def _require_samples_and_seed(samples: int, seed: int) -> None:
    if samples < 1:
        raise BadParameter(f"samples must be >= 1, got {samples}")
    if not 0 <= seed < 2**64:
        raise BadParameter(f"seed must be a 64-bit unsigned integer, got {seed}")


def _walker_rngs(seed: int, samples: int) -> list[np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(samples)
    return [np.random.Generator(np.random.PCG64(child)) for child in children]


def _summarize(values: list[int], samples: int, seed: int) -> McEstimate:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    stderr = float(arr.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return McEstimate(mean=mean, stderr=stderr, samples=samples, seed=seed)


def _walk(sampler: WalkSampler, rng: np.random.Generator, start: int, stop: int) -> tuple[int, int]:
    """Step from ``start`` until the walk is at ``stop``; returns the step
    count and the number of visits to ``start`` after the first step.

    Raises:
        WalkLengthExceeded: the walk has not reached ``stop`` after
            ``MAX_WALK_STEPS`` steps.
    """
    v = start
    steps = returns = 0
    while True:
        v = sampler.step(rng, v)
        steps += 1
        if v == stop:
            return steps, returns
        if steps >= MAX_WALK_STEPS:
            raise WalkLengthExceeded(f"walk {start} -> {stop} exceeded {MAX_WALK_STEPS} steps")
        if v == start:
            returns += 1


_STEPS, _RETURNS = 0, 1


def _sample(net: Network, start: int, stop: int, samples: int, seed: int, field: int) -> McEstimate:
    """Mean of one ``_walk`` result, ``_STEPS`` or ``_RETURNS``, over seeded walkers."""
    sampler = WalkSampler(net)
    values = [_walk(sampler, rng, start, stop)[field] for rng in _walker_rngs(seed, samples)]
    return _summarize(values, samples, seed)


def estimate_return_time(net: Network, z: int, samples: int, seed: int) -> McEstimate:
    """Mean steps for the walk started at ``z`` to first come back to ``z``."""
    net._require_vertex(z)
    _require_samples_and_seed(samples, seed)
    return _sample(net, z, z, samples, seed, _STEPS)


def estimate_hitting_time(net: Network, a: int, b: int, samples: int, seed: int) -> McEstimate:
    """Mean first-passage steps from ``a`` to ``b`` over independent walks."""
    net._require_vertex(a)
    net._require_vertex(b)
    if a == b:
        raise BadVertexId("hitting time needs two distinct vertices")
    _require_samples_and_seed(samples, seed)
    return _sample(net, a, b, samples, seed, _STEPS)


def verify_pendant_identities(net: Network, z: int, samples: int, seed: int) -> PendantIdentityCheck:
    """Estimate the absorption time at a unit pendant attached to ``z``.

    Attaches a fresh tip vertex to ``z`` with conductance 1, simulates the
    walk from ``z`` until it reaches the tip, and returns the estimate next
    to the two closed forms it must match: total strength plus one, and
    vertex strength times the return time plus one.
    """
    net._require_vertex(z)
    _require_samples_and_seed(samples, seed)
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
    net._require_vertex(z)
    _require_samples_and_seed(samples, seed)
    extended, tip = net.add_pendant_vertex(z, 1.0)
    return ExcursionCountCheck(
        mean_excursions=_sample(extended, z, tip, samples, seed, _RETURNS),
        expected=net.vertex_strength(z),
    )
