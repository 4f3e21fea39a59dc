"""Seeded workload plans: which graphs each workload uses and which jobs it sends.

A plan is plain data built from the workload seed with the standard
library's ``random`` module, so it needs neither numpy nor ohmwalk and the
same seed always yields the same plan. The seed picks vertex labels, query
pairs, removed edges, Monte Carlo seeds and the random graphs; graph sizes
and the job mix are fixed per workload, so the work done per round barely
depends on the seed.

A round is the workload's job list in order. The benchmark repeats rounds
as a closed loop with one client: each job starts when the previous one
has returned.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import combinations

WORKLOADS = ("exact-cli", "removal-small", "removal-walk-regular", "mc-verify")

# 3-regular, connected, 8 vertices: one triangle (0-1-2) feeding a
# triangle-free tail, so closed 3-walk counts differ between vertices and
# the walk-regularity certificate fails at k = 3.
UNEVEN_CUBIC = (
    (0, 1), (1, 2), (0, 2),
    (0, 3), (1, 4), (2, 5),
    (3, 6), (3, 7), (4, 6), (4, 7), (5, 6), (5, 7),
)

# Spans each workload must see called in a traced run; a rename that
# silently zeroes a layer fails the run instead.
_SOLVER = ("solver.effective_resistance_matrix", "solver.hitting_time_matrix", "linalg.eigh", "linalg.solve")
_REMOVAL = (
    "network.Network",
    "network.remove_edge",
    "network.is_cut_edge",
    "perturbation.analyze_edge_removal",
    "walk_regular.check_walk_regular",
    *_SOLVER,
)
EXPECTED_SPANS = {
    "exact-cli": ("cli.run_cli", "edgelist.parse_edge_list", "network.Network", "solver.return_time", *_SOLVER),
    "removal-small": _REMOVAL,
    "removal-walk-regular": ("cli.run_cli", "edgelist.parse_edge_list", *_REMOVAL),
    "mc-verify": (
        "cli.run_cli",
        "edgelist.parse_edge_list",
        "solver.return_time",
        "solver.hitting_time_matrix",
        "montecarlo.estimate_hitting_time",
        "montecarlo.estimate_return_time",
        "montecarlo.verify_pendant_identities",
        "numpy.SeedSequence.spawn",
        "numpy.PCG64",
        "numpy.Generator",
    ),
}

@dataclass(frozen=True)
class Graph:
    """One input graph, in the benchmark's own vertex ids ``0..n-1``.

    ``labels[i]`` is the edge-list label written for id ``i``; ``None``
    writes the ids themselves.
    """

    key: str
    family: str
    params: tuple[int, ...]
    n: int
    edges: tuple[tuple[int, int, float], ...]
    labels: tuple[str, ...] | None

    def label(self, v: int) -> str:
        return str(v) if self.labels is None else self.labels[v]


@dataclass(frozen=True)
class Call:
    """One job: a CLI subcommand on a graph file, or the library removal sweep.

    ``query`` holds the vertex ids (benchmark ids) and settings the checker
    needs; ``argv`` is the CLI argument list without ``-i FILE``.
    """

    graph: str
    kind: str
    argv: tuple[str, ...] = ()
    query: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Plan:
    workload: str
    seed: int
    graphs: dict[str, Graph]
    calls: tuple[Call, ...]


# -- graph families, written independently of ohmwalk.generators -----------


def family_edges(family: str, params: tuple[int, ...]) -> tuple[tuple[int, int, float], ...]:
    """Unit edges of a named family, ``a < b``, sorted."""
    if family == "hypercube":
        (d,) = params
        pairs = [(v, v | (1 << j)) for v in range(1 << d) for j in range(d) if not v >> j & 1]
    elif family == "cycle":
        (n,) = params
        pairs = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    elif family == "complete":
        (n,) = params
        pairs = list(combinations(range(n), 2))
    elif family == "unitary-cayley":
        (n,) = params
        pairs = [(x, y) for x, y in combinations(range(n), 2) if math.gcd(y - x, n) == 1]
    elif family == "petersen":
        pairs = [(i, (i + 1) % 5) for i in range(5)]
        pairs += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        pairs += [(i, i + 5) for i in range(5)]
    elif family == "uneven-cubic":
        pairs = list(UNEVEN_CUBIC)
    else:
        raise ValueError(f"unknown family {family!r}")
    return tuple(sorted((min(a, b), max(a, b), 1.0) for a, b in pairs))


def _labels(rng: random.Random, n: int) -> tuple[str, ...]:
    ids = list(range(n))
    rng.shuffle(ids)
    return tuple(f"v{i}" for i in ids)


def _named(rng: random.Random, key: str, family: str, *params: int, relabel: bool = True) -> Graph:
    edges = family_edges(family, params)
    n = 1 + max(b for _, b, _ in edges)
    return Graph(key, family, params, n, edges, _labels(rng, n) if relabel else None)


def random_connected(
    rng: random.Random, n: int, extra: int, decades: float = 0.0
) -> tuple[tuple[int, int, float], ...]:
    """Random spanning tree plus ``extra`` further edges.

    Conductances are ``10**u`` with ``u`` uniform in ``[-decades, decades]``;
    ``decades == 0`` gives a unit graph.
    """
    edges = {}
    for v in range(1, n):
        edges[(rng.randrange(v), v)] = None
    spare = [p for p in combinations(range(n), 2) if p not in edges]
    for pair in rng.sample(spare, min(extra, len(spare))):
        edges[pair] = None
    return tuple(
        sorted((a, b, 10.0 ** rng.uniform(-decades, decades) if decades else 1.0) for a, b in edges)
    )


def bridged_unit_graph(rng: random.Random, n: int, bridges: int, chord_share: float):
    """A random unit graph on ``n`` vertices with exactly ``bridges`` cut-edges.

    A random cycle through ``n - bridges`` vertices, ``chord_share`` of
    its spare pairs as chords, and the other vertices hung on it as a
    random forest, whose edges are the cut-edges. The number of edges and
    of non-bridge edges depends only on the arguments, not on ``rng``.
    """
    order = list(range(n))
    rng.shuffle(order)
    core, forest = order[: n - bridges], order[n - bridges :]
    edges = {(min(a, b), max(a, b)) for a, b in zip(core, core[1:] + core[:1])}
    spare = [(min(a, b), max(a, b)) for a, b in combinations(core, 2) if (min(a, b), max(a, b)) not in edges]
    edges.update(rng.sample(spare, round(chord_share * len(spare))))
    attached = list(core)
    for v in forest:
        u = rng.choice(attached)
        edges.add((min(u, v), max(u, v)))
        attached.append(v)
    return tuple(sorted((a, b, 1.0) for a, b in edges))


# -- workloads --------------------------------------------------------------


def _cli(graph: Graph, command: str, query: dict, *extra: str) -> Call:
    argv = [command, *extra]
    if command in ("hitting", "mc-verify") and "a" in query:
        argv += ["--from", graph.label(query["a"]), "--to", graph.label(query["b"])]
    elif command == "resistance":
        argv += ["--pair", graph.label(query["a"]), graph.label(query["b"])]
    elif command == "remove-edge":
        argv += ["--edge", graph.label(query["a"]), graph.label(query["b"])]
    if "z" in query:
        argv += ["--vertex", graph.label(query["z"])]
    return Call(graph.key, command, tuple(argv), query)


def _pair(rng: random.Random, n: int) -> dict:
    a, b = rng.sample(range(n), 2)
    return {"a": a, "b": b}


def _exact_cli(rng: random.Random) -> tuple[list[Graph], list[Call]]:
    # Q_7, Q_8, the 256-cycle and three random weighted graphs whose
    # conductances span six decades. Sizes are fixed so that the dense
    # solves cost the same for every seed. Six light jobs (one dense
    # eigendecomposition or a closed form), one mid-sized hitting job and
    # six heavy hitting jobs (one solve per target): the median lands on
    # the mid-sized job and the 90th percentile inside the heavy cluster.
    q7 = _named(rng, "q7", "hypercube", 7)
    q8 = _named(rng, "q8", "hypercube", 8)
    c256 = _named(rng, "c256", "cycle", 256)
    rand = []
    for n in (150, 200, 280):
        edges = random_connected(rng, n, 2 * n, decades=3.0)
        rand.append(Graph(f"rand{n}", "random", (n,), n, edges, _labels(rng, n)))
    r150, r200, r280 = rand
    calls = [
        _cli(q7, "return-time", {"z": rng.randrange(q7.n)}),
        _cli(q8, "hitting", _pair(rng, q8.n)),
        _cli(r150, "kirchhoff", {}, "--json"),
        _cli(c256, "hitting", _pair(rng, c256.n)),
        _cli(q7, "resistance", _pair(rng, q7.n)),
        _cli(r150, "hitting", _pair(rng, r150.n)),
        _cli(r280, "return-time", {"z": rng.randrange(r280.n)}),
        _cli(q7, "hitting", _pair(rng, q7.n)),
        _cli(r200, "resistance", _pair(rng, r200.n), "--json"),
        _cli(q8, "hitting", _pair(rng, q8.n)),
        _cli(c256, "kirchhoff", {}),
        _cli(r200, "hitting", _pair(rng, r200.n), "--json"),
        _cli(c256, "hitting", _pair(rng, c256.n)),
    ]
    return [q7, q8, c256, *rand], calls


def _removal_small(rng: random.Random) -> tuple[list[Graph], list[Call]]:
    # Three densities for every n in 5..12: half the vertices on a cycle
    # with a few chords and the rest hung on as bridges, three quarters on
    # a cycle with half its chords, and a cycle with nearly all chords.
    # Each graph's count of non-bridge edges, and so its work, is fixed by
    # n and density; the seed only draws the structure.
    graphs, calls = [], []
    for n in range(5, 13):
        for density, bridges, chord_share in (("sparse", n // 2, 0.25), ("half", n // 4, 0.5), ("dense", 0, 0.85)):
            key = f"n{n}-{density}"
            graphs.append(Graph(key, "random", (n,), n, bridged_unit_graph(rng, n, bridges, chord_share), None))
            calls.append(Call(key, "removals"))
    order = list(range(len(calls)))
    rng.shuffle(order)
    return graphs, [calls[i] for i in order]


def _removal_walk_regular(rng: random.Random) -> tuple[list[Graph], list[Call]]:
    # Walk-regular families with n <= 64, plus one regular graph that is
    # not walk-regular, whose certificate fails at k = 3. The sizes make
    # the job costs a ladder with gaps, so the median and tail percentiles
    # each fall inside one job's samples instead of between two jobs.
    graphs = [
        _named(rng, "uneven-cubic", "uneven-cubic"),
        _named(rng, "petersen", "petersen"),
        _named(rng, "uc12", "unitary-cayley", 12),
        _named(rng, "k20", "complete", 20),
        _named(rng, "c28", "cycle", 28),
        _named(rng, "q5", "hypercube", 5),
        _named(rng, "uc36", "unitary-cayley", 36),
        _named(rng, "k40", "complete", 40),
        _named(rng, "uc48", "unitary-cayley", 48),
        _named(rng, "q6", "hypercube", 6),
    ]
    calls = [Call("uneven-cubic", "walk-regular", ("walk-regular",))]
    for graph in graphs:
        a, b, _ = rng.choice(graph.edges)
        calls.append(_cli(graph, "remove-edge", {"a": a, "b": b}))
    return graphs, calls


def _mc_verify(rng: random.Random) -> tuple[list[Graph], list[Call]]:
    # Set-up-heavy jobs (many walkers on short walks, where building one
    # generator per walker dominates) and stepping-heavy jobs (long
    # hitting walks on cycles), sized as a ladder of costs. The README's
    # golden job is one of them.
    k3 = _named(rng, "k3", "complete", 3, relabel=False)
    q3 = _named(rng, "q3", "hypercube", 3)
    q4 = _named(rng, "q4", "hypercube", 4)
    c20 = _named(rng, "c20", "cycle", 20)
    c30 = _named(rng, "c30", "cycle", 30)

    def mc(graph: Graph, what: str, query: dict, samples: int, seed: int | None = None) -> Call:
        seed = rng.randrange(2**32) if seed is None else seed
        query = {**query, "what": what, "samples": samples, "seed": seed}
        call = _cli(graph, "mc-verify", query, "--what", what, "--samples", str(samples), "--seed", str(seed))
        return call if query.get("golden") else Call(call.graph, call.kind, call.argv + ("--json",), query)

    def vertex(graph: Graph) -> dict:
        return {"z": rng.randrange(graph.n)}

    def antipode(graph: Graph) -> dict:
        a = rng.randrange(graph.n)
        return {"a": a, "b": (a + graph.n // 2) % graph.n}

    calls = [
        mc(k3, "return", vertex(k3), 1000),
        mc(c20, "hitting", antipode(c20), 250),
        mc(q3, "return", vertex(q3), 1500),
        mc(q3, "pendant", vertex(q3), 1500),
        # The median job: its cost is the generators' set-up, which does
        # not depend on the seed, more than the walks, which do.
        mc(k3, "return", vertex(k3), 5000),
        mc(q4, "return", vertex(q4), 4000),
        mc(c30, "hitting", antipode(c30), 900),
        mc(k3, "return", vertex(k3), 20000),
        mc(k3, "pendant", {"z": 0, "golden": True}, 20000, seed=42),
    ]
    return [k3, q3, q4, c20, c30], calls


_BUILDERS = {
    "exact-cli": _exact_cli,
    "removal-small": _removal_small,
    "removal-walk-regular": _removal_walk_regular,
    "mc-verify": _mc_verify,
}


def plan(workload: str, seed: int) -> Plan:
    """The workload's graphs and its round of jobs for ``seed``."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    graphs, calls = _BUILDERS[workload](rng)
    return Plan(workload, seed, {g.key: g for g in graphs}, tuple(calls))
