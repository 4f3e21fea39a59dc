"""Expected values for every job, computed without ohmwalk's code.

Named families are checked against closed forms: ``C / C_z`` return
times, ``commute = C * R`` (hitting is half of it on vertex-transitive
graphs), ``(n^3 - n) / 12`` Kirchhoff on cycles, and the hypercube
spectrum ``2k`` with multiplicity ``C(d, k)``. Random weighted graphs are
checked against a grounded Laplacian solve, bridges against union-find,
and walk-regularity against int64 matrix powers.
"""

from __future__ import annotations

import math

import numpy as np

from .workloads import Graph


def return_time(graph: Graph, z: int) -> float:
    incident = [c for a, b, c in graph.edges if z in (a, b)]
    return 2.0 * math.fsum(c for _, _, c in graph.edges) / math.fsum(incident)


def _hypercube_resistance(d: int, distance: int) -> float:
    # Eigenvalue 2s has the characters of the s-subsets S of the d bits;
    # (chi_S(a) - chi_S(b))^2 is 4/n when |S & (a ^ b)| is odd, else 0.
    total = 0.0
    for s in range(1, d + 1):
        odd = sum(math.comb(distance, j) * math.comb(d - distance, s - j) for j in range(1, s + 1, 2))
        total += odd / (2 * s)
    return 4.0 * total / (1 << d)


def _cycle_distance(n: int, a: int, b: int) -> int:
    k = abs(a - b)
    return min(k, n - k)


def resistance(graph: Graph, a: int, b: int) -> float:
    if graph.family == "hypercube":
        return _hypercube_resistance(graph.params[0], bin(a ^ b).count("1"))
    if graph.family == "cycle":
        k = _cycle_distance(graph.n, a, b)
        return k * (graph.n - k) / graph.n
    if graph.family == "complete":
        return 2.0 / graph.n
    g = grounded_inverse(graph.n, graph.edges)
    return float(g[a, a] + g[b, b] - 2.0 * g[a, b])


def hitting(graph: Graph, a: int, b: int) -> float:
    if graph.family == "cycle":
        k = _cycle_distance(graph.n, a, b)
        return float(k * (graph.n - k))
    if graph.family in ("hypercube", "complete"):
        # Symmetric hitting times on a vertex-transitive graph: H = C R / 2.
        return len(graph.edges) * resistance(graph, a, b)
    lap = laplacian(graph.n, graph.edges)
    keep = [v for v in range(graph.n) if v != b]
    solution = np.linalg.solve(lap[np.ix_(keep, keep)], np.diag(lap)[keep])
    return float(solution[keep.index(a)])


def kirchhoff(graph: Graph) -> float:
    n = graph.n
    if graph.family == "hypercube":
        d = graph.params[0]
        return n * math.fsum(math.comb(d, k) / (2 * k) for k in range(1, d + 1))
    if graph.family == "cycle":
        return (n**3 - n) / 12
    if graph.family == "complete":
        return float(n - 1)
    g = grounded_inverse(n, graph.edges)
    # R_ab = G_aa + G_bb - 2 G_ab summed over a < b.
    return float(n * np.trace(g) - g.sum())


def laplacian(n: int, edges) -> np.ndarray:
    lap = np.zeros((n, n))
    for a, b, c in edges:
        lap[a, b] -= c
        lap[b, a] -= c
        lap[a, a] += c
        lap[b, b] += c
    return lap


def grounded_inverse(n: int, edges) -> np.ndarray:
    """Inverse of the Laplacian grounded at vertex 0, padded with a zero row and column."""
    g = np.zeros((n, n))
    g[1:, 1:] = np.linalg.inv(laplacian(n, edges)[1:, 1:])
    return g


def is_connected(n: int, edges) -> bool:
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


def non_bridges(n: int, edges) -> list[tuple[int, int]]:
    """Edges whose removal leaves the graph connected, by union-find."""
    return [(a, b) for i, (a, b, _) in enumerate(edges) if is_connected(n, edges[:i] + edges[i + 1 :])]


def walk_regular_witness(n: int, edges) -> int | None:
    """First walk length k whose closed-walk counts differ between vertices.

    ``None`` when the graph is walk-regular. Exact in int64 for the small
    graphs it is used on (counts stay below ``max_degree ** (n - 1)``).
    """
    adjacency = np.zeros((n, n), dtype=np.int64)
    for a, b, _ in edges:
        adjacency[a, b] = adjacency[b, a] = 1
    if max(int(adjacency.sum(axis=1).max()), 2) ** (n - 1) >= 2**63:
        raise ValueError("closed-walk counts would overflow int64")
    power = adjacency
    for k in range(1, n):
        diagonal = np.diag(power)
        if (diagonal != diagonal[0]).any():
            return k
        power = power @ adjacency
    return None
