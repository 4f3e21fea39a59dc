"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own code paths:
connectivity and cut-edges use union-find (the library reads one
breadth-first tree), neighbour lists come from the edge tuple alone (the
library caches its own adjacency), the exact hitting-time oracle runs
Gaussian elimination over ``Fraction`` (the library uses floating-point
numpy solves), the float hitting-time
oracle solves one first-step system per target (the library inverts the
grounded Laplacian once), the commute-time oracle grounds the edge-loop
Laplacian at each end of the pair (the library reads every pair off one
grounded inverse), the return-time oracle applies the first-step relation
(the library uses the closed form ``C / C_z``), the Kirchhoff-index oracle
sums ``n / mu`` over the edge-loop Laplacian's spectrum (the library sums
the resistance matrix), Euler's totient comes from trial division (the
library's ``unitary_cayley`` joins residues by ``gcd``), the walk-regularity
oracle multiplies unbounded Python integers (the library compares residues
modulo primes in float64), and the Monte Carlo oracles own their sampler,
``WalkSampler``, and walk each estimator with its own hand-written loop and
no step cap (the library runs one walk kernel, ``montecarlo._sample``).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, combinations

import numpy as np

from ohmwalk import (
    BadParameter,
    McEstimate,
    Network,
    WalkCountMismatch,
    WalkRegularityReport,
    build_network,
    hitting_time_matrix,
)

# 3-regular, connected, 8 vertices: one triangle (0-1-2) feeding a
# triangle-free tail, so per-vertex closed-3-walk counts are (2,2,2,0,...).
CUBIC_UNEVEN_TRIANGLES = [
    (0, 1), (1, 2), (0, 2),
    (0, 3), (1, 4), (2, 5),
    (3, 6), (3, 7), (4, 6), (4, 7), (5, 6), (5, 7),
]

WEIGHTED_TRIANGLE = [(0, 1, 1.0), (0, 2, 2.0), (1, 2, 3.0)]

# (n, edges) whose total strength is past the float64 range: on the triangle
# the conductance sum itself overflows, on Q_3 only its doubling does.
OVERFLOWING_TOTALS = {
    "triangle-1e308": (3, [(0, 1, 1e308), (1, 2, 1e308), (0, 2, 1e308)]),
    "hypercube3-1e307": (8, [(a, a | bit, 1e307) for a in range(8) for bit in (1, 2, 4) if not a & bit]),
}

STAR_K13 = [(0, 1), (0, 2), (0, 3)]


def union_find_connected(n: int, edges) -> bool:
    """Connectivity oracle independent of the library's BFS."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = n
    for a, b, *_ in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            components -= 1
    return components == 1


def connected_graphs_on(n: int):
    """All connected simple graphs on n labeled vertices, as edge lists."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        if len(edges) >= n - 1 and union_find_connected(n, edges):
            yield edges


def dyadic_conductance(rng: np.random.Generator) -> float:
    # Multiples of 1/64 keep strength sums exactly representable.
    return int(rng.integers(1, 641)) / 64.0


def random_connected_network(rng: np.random.Generator, n_min: int = 2, n_max: int = 30) -> Network:
    """Random spanning tree plus extra edges, dyadic positive conductances."""
    n = int(rng.integers(n_min, n_max + 1))
    edges = []
    present = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.append((u, v, dyadic_conductance(rng)))
        present.add((u, v))
    spare = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in present]
    extra = int(rng.integers(0, max(1, len(spare) // 3) + 1))
    for index in rng.permutation(len(spare))[:extra]:
        a, b = spare[index]
        edges.append((a, b, dyadic_conductance(rng)))
    return build_network(n, edges)


def random_corpus(count: int = 200, seed: int = 8201) -> list[Network]:
    rng = np.random.default_rng(seed)
    return [random_connected_network(rng) for _ in range(count)]


def neighbor_lists(net: Network) -> list[list[tuple[int, float]]]:
    """Per-vertex ``(neighbor, conductance)`` pairs sorted by neighbor, read
    from ``net.edges`` alone (the library builds its own adjacency)."""
    lists: list[list[tuple[int, float]]] = [[] for _ in range(net.vertex_count)]
    for a, b, c in net.edges:
        lists[a].append((b, c))
        lists[b].append((a, c))
    return [sorted(pairs) for pairs in lists]


def hitting_times_by_fractions(net: Network, target: int) -> list[Fraction]:
    """Exact expected steps to ``target``, by rational Gaussian elimination.

    Solves the first-step equations h(v) = 1 + sum_y P[v, y] h(y) with
    h(target) = 0 over Fractions; independent of numpy entirely.
    """
    n = net.vertex_count
    rows = []
    for v, pairs in enumerate(neighbor_lists(net)):
        row = [Fraction(0)] * (n + 1)
        if v == target:
            row[v] = Fraction(1)
        else:
            strength = Fraction(0)
            for _, c in pairs:
                strength += Fraction(c)
            row[v] = Fraction(1)
            for y, c in pairs:
                row[y] -= Fraction(c) / strength
            row[n] = Fraction(1)
        rows.append(row)
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = rows[col][col]
        rows[col] = [x / inv for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [rows[r][n] for r in range(n)]


def laplacian_by_edge_loop(net: Network) -> np.ndarray:
    """Weighted Laplacian accumulated one edge at a time."""
    n = net.vertex_count
    lap = np.zeros((n, n))
    for a, b, c in net.edges:
        lap[a, b] -= c
        lap[b, a] -= c
        lap[a, a] += c
        lap[b, b] += c
    return lap


def kirchhoff_index_by_spectrum(net: Network) -> float:
    """Kirchhoff index as ``n * sum(1 / mu)`` over the nonzero eigenvalues of the edge-loop Laplacian."""
    eigenvalues = np.linalg.eigvalsh(laplacian_by_edge_loop(net))
    return float(net.vertex_count * np.sum(1.0 / eigenvalues[1:]))


def totient(n: int) -> int:
    """Euler's totient by trial-division factorization."""
    result = n
    remaining = n
    p = 2
    while p * p <= remaining:
        if remaining % p == 0:
            while remaining % p == 0:
                remaining //= p
            result -= result // p
        p += 1
    if remaining > 1:
        result -= result // remaining
    return result


def _steps_to_by_grounded_solve(lap: np.ndarray, target: int) -> np.ndarray:
    """Expected steps to ``target``: ``L h = s`` off ``target``, ``h[target] = 0``."""
    keep = np.arange(lap.shape[0]) != target
    steps = np.zeros(lap.shape[0])
    steps[keep] = np.linalg.solve(lap[np.ix_(keep, keep)], np.diag(lap)[keep])
    return steps


def commute_time_by_grounded_solves(net: Network, a: int, b: int) -> float:
    """Expected round trip a -> b -> a, by two grounded solves of the edge-loop Laplacian."""
    lap = laplacian_by_edge_loop(net)
    return float(_steps_to_by_grounded_solve(lap, b)[a] + _steps_to_by_grounded_solve(lap, a)[b])


def return_times_by_first_step(net: Network) -> np.ndarray:
    """Per-vertex expected first return ``1 + sum_y P[z, y] H[y, z]``.

    ``P[z, y] = -L[z, y] / s_z`` comes from the edge-loop Laplacian and ``H``
    from ``hitting_time_matrix``.
    """
    lap = laplacian_by_edge_loop(net)
    hitting = hitting_time_matrix(net).hitting
    return 1.0 - np.einsum("zy,yz->z", lap, hitting) / np.diag(lap)


def _hitting_to_target(transition: np.ndarray, b: int) -> np.ndarray:
    """Expected steps to reach ``b`` from every vertex, by one first-step solve."""
    n = transition.shape[0]
    system = np.eye(n) - transition
    system[b, :] = 0.0
    system[b, b] = 1.0
    rhs = np.ones(n)
    rhs[b] = 0.0
    hit = np.linalg.solve(system, rhs)
    hit[b] = 0.0
    return hit


def hitting_times_by_target_solves(net: Network) -> np.ndarray:
    """Hitting-time matrix from ``n`` first-step solves, one per target.

    Column ``b`` solves ``(I - P) h = 1`` with row ``b`` replaced by
    ``h_b = 0``; ``P`` is built from the neighbour lists, not the Laplacian.
    """
    n = net.vertex_count
    transition = np.zeros((n, n))
    for v, pairs in enumerate(neighbor_lists(net)):
        strength = sum(c for _, c in pairs)
        for y, c in pairs:
            transition[v, y] = c / strength
    hitting = np.zeros((n, n))
    for b in range(n):
        hitting[:, b] = _hitting_to_target(transition, b)
    return hitting


def wide_range_network(rng: np.random.Generator, n_min: int = 6, n_max: int = 12) -> Network:
    """Random connected graph with conductances ``10**u``, ``u`` uniform in [-3, 3]."""
    n = int(rng.integers(n_min, n_max + 1))
    pairs = {(int(rng.integers(0, v)), v) for v in range(1, n)}
    spare = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in pairs]
    for index in rng.permutation(len(spare))[: int(rng.integers(0, len(spare) // 2 + 1))]:
        pairs.add(spare[index])
    return build_network(n, [(a, b, 10.0 ** rng.uniform(-3.0, 3.0)) for a, b in sorted(pairs)])


def _int_matmul(left: list[list[int]], right: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*right))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in left]


def walk_regular_by_python_ints(net: Network) -> WalkRegularityReport:
    """The walk-regularity report, from exact Python-int closed-walk counts.

    Same contract as ``check_walk_regular``: irregular degrees report no
    witness, otherwise the first length ``k`` whose diagonal of ``A^k`` is
    not constant gives the witness ``(k, 0, y)`` with the smallest such y.
    """
    n = net.vertex_count
    degrees = list(map(len, neighbor_lists(net)))
    if len(set(degrees)) > 1:
        return WalkRegularityReport(
            is_regular=False, is_walk_regular=False, first_violation=None, checked_k_max=1
        )
    adjacency = [[0] * n for _ in range(n)]
    for a, b, _ in net.edges:
        adjacency[a][b] = 1
        adjacency[b][a] = 1
    power = adjacency
    for k in range(2, n):
        power = _int_matmul(power, adjacency)
        for y in range(1, n):
            if power[y][y] != power[0][0]:
                return WalkRegularityReport(
                    is_regular=True,
                    is_walk_regular=False,
                    first_violation=WalkCountMismatch(k=k, x=0, y=y),
                    checked_k_max=k - 1,
                )
    return WalkRegularityReport(
        is_regular=True, is_walk_regular=True, first_violation=None, checked_k_max=max(1, n - 1)
    )


def hitting_symmetry_defect(net: Network) -> float:
    """Largest relative asymmetry ``|E_aT_b - E_bT_a| / max(1, E_aT_b)``.

    A numerical witness: walk-regular graphs have symmetric hitting times,
    so a certified graph must score ~0 here. The converse does not hold;
    this is a diagnostic, not a certificate.
    """
    hitting = hitting_time_matrix(net).hitting
    gap = np.abs(hitting - hitting.T) / np.maximum(1.0, hitting)
    return float(gap.max())


class WalkSampler:
    """Steps the induced walk using per-vertex cumulative conductance tables.

    From vertex ``y`` the walk moves to neighbor ``z`` with probability
    ``C_yz / C_y``, realized by binary search of a uniform draw against the
    running conductance sums.
    """

    def __init__(self, net: Network):
        if net.vertex_count < 2:
            raise BadParameter("random walk needs at least two vertices")
        self._neighbors: list[list[int]] = []
        self._cumulative: list[list[float]] = []
        for pairs in neighbor_lists(net):
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


def _walker_generators(seed: int, samples: int) -> list[np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(samples)
    return [np.random.Generator(np.random.PCG64(child)) for child in children]


def return_walks_by_loop(net: Network, z: int, samples: int, seed: int) -> list[int]:
    """Per-walker first-return step counts, one hand-written loop per walker."""
    sampler = WalkSampler(net)
    values = []
    for rng in _walker_generators(seed, samples):
        v = z
        steps = 0
        while True:
            v = sampler.step(rng, v)
            steps += 1
            if v == z:
                break
        values.append(steps)
    return values


def hitting_walks_by_loop(net: Network, a: int, b: int, samples: int, seed: int) -> list[int]:
    """Per-walker first-passage step counts from ``a`` to ``b``."""
    sampler = WalkSampler(net)
    values = []
    for rng in _walker_generators(seed, samples):
        v = a
        steps = 0
        while v != b:
            v = sampler.step(rng, v)
            steps += 1
        values.append(steps)
    return values


def excursion_walks_by_loop(net: Network, z: int, samples: int, seed: int) -> list[tuple[int, int]]:
    """Per-walker ``(excursions, steps)`` before absorption at a unit pendant on ``z``.

    Each visit to ``z`` either steps to the tip or starts an excursion that
    is walked out, by an inner loop, until the walk is back at ``z``.
    """
    extended, tip = net.add_pendant_vertex(z, 1.0)
    sampler = WalkSampler(extended)
    values = []
    for rng in _walker_generators(seed, samples):
        excursions = 0
        steps = 0
        while True:
            v = sampler.step(rng, z)
            steps += 1
            if v == tip:
                break
            while v != z:
                v = sampler.step(rng, v)
                steps += 1
            excursions += 1
        values.append((excursions, steps))
    return values


def mc_estimate(values: list[int], seed: int) -> McEstimate:
    """Sample mean and standard error of per-walker values."""
    arr = np.asarray(values, dtype=float)
    samples = len(values)
    stderr = float(arr.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return McEstimate(mean=float(arr.mean()), stderr=stderr, samples=samples, seed=seed)
