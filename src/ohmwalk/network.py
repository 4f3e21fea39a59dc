"""Immutable model of a finite connected electric network.

A network is a simple undirected graph on vertices ``0..n-1`` whose edges
carry positive conductances. It doubles as the induced Markov chain: a walk
at ``y`` steps to neighbor ``z`` with probability ``C_yz / C_y``, where
``C_y`` is the sum of conductances incident to ``y``.

All surgery operations (edge removal, pendant attachment) return new
networks; existing values are never mutated, so they are safe to share
across threads. Each network computes each derived report (resistances,
hitting times, the walk-regularity certificate) at most once and hands the
same frozen, read-only report to every later caller. One breadth-first tree
from vertex 0, also built once, answers connectivity and the cut-edges and
bounds the certificate's walk lengths from below.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .errors import (
    BadParameter,
    BadVertexId,
    DisconnectedGraph,
    InvalidEdge,
    NoSuchEdge,
    WouldDisconnect,
)

__all__ = ["Network", "EdgeRef", "build_network"]

_Report = TypeVar("_Report")

# float() converts text and booleans, which are not conductances.
_NOT_CONDUCTANCES = (str, bytes, bytearray, bool, np.bool_)


def _index(value) -> int:
    """``operator.index(value)``, refusing booleans too with TypeError."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError
    return operator.index(value)


def _require_integer(value, name: str) -> int:
    """``value`` as a Python int (any ``operator.index`` type but ``bool``), else :class:`BadParameter`."""
    try:
        return _index(value)
    except TypeError:
        raise BadParameter(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class EdgeRef:
    """An unordered vertex pair naming an edge; stored as Python ints with ``a < b``."""

    a: int
    b: int

    def __post_init__(self):
        try:
            a, b = _index(self.a), _index(self.b)
        except TypeError:
            raise BadVertexId(f"vertex ids must be integers, got ({self.a!r}, {self.b!r})") from None
        if a == b:
            raise BadVertexId(f"edge endpoints must differ, got ({a}, {b})")
        if a < 0 or b < 0:
            raise BadVertexId(f"vertex ids must be nonnegative, got ({a}, {b})")
        object.__setattr__(self, "a", min(a, b))
        object.__setattr__(self, "b", max(a, b))


@dataclass(frozen=True)
class Network:
    """A connected simple graph with positive edge conductances.

    Attributes:
        vertex_count: number of vertices ``n``; ids are ``0..n-1``.
        edges: canonical edge tuple, each entry ``(a, b, conductance)`` with
            ``a < b``, sorted lexicographically. Treat as read-only.

    Construction validates everything: integer vertex ids in range (any
    ``operator.index`` type; floats such as ``1.0`` and booleans are
    refused), no self-loops, no duplicate pairs, conductances numeric
    (strings such as ``"2.5"`` and booleans are refused), positive and
    finite, a total strength inside the float64 range, and connectivity.
    Prefer :func:`build_network` for building from raw edge lists.
    """

    vertex_count: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        n = _require_integer(self.vertex_count, "vertex_count")
        if n < 1:
            raise BadParameter(f"vertex_count must be positive, got {n}")
        canonical = []
        seen: set[tuple[int, int]] = set()
        for edge in self.edges:
            try:
                a, b, c = edge
            except (TypeError, ValueError):
                raise InvalidEdge(f"expected (a, b, conductance) triple, got {edge!r}") from None
            if type(a) is not int or type(b) is not int:  # plain ints skip the conversion
                try:
                    a, b = _index(a), _index(b)
                except TypeError:
                    raise BadVertexId(f"vertex ids must be integers, got ({a!r}, {b!r})") from None
            if not (0 <= a < n) or not (0 <= b < n):
                raise BadVertexId(f"edge ({a}, {b}) references a vertex outside 0..{n - 1}")
            if a == b:
                raise InvalidEdge(f"self-loop at vertex {a}")
            try:
                # The type test keeps floats fast.
                if type(c) is not float and isinstance(c, _NOT_CONDUCTANCES):
                    raise TypeError
                c = float(c)
            except (TypeError, ValueError):
                raise InvalidEdge(f"edge ({a}, {b}) has non-numeric conductance {c!r}") from None
            if not math.isfinite(c) or c <= 0.0:
                raise InvalidEdge(f"edge ({a}, {b}) has nonpositive or non-finite conductance {c}")
            if a > b:
                a, b = b, a
            if (a, b) in seen:
                raise InvalidEdge(f"duplicate edge ({a}, {b})")
            seen.add((a, b))
            canonical.append((a, b, c))
        canonical.sort()
        object.__setattr__(self, "vertex_count", n)
        object.__setattr__(self, "edges", tuple(canonical))
        if self.total_strength == math.inf:
            raise InvalidEdge("total strength (twice the conductance sum) is past the float64 range")
        self._check_connected()

    @classmethod
    def _trusted(cls, vertex_count: int, edges: tuple[tuple[int, int, float], ...]) -> "Network":
        """A network from fields that are already canonical, without validation.

        Only :meth:`remove_edge` calls this: deleting a non-bridge edge from
        a validated network's sorted canonical tuple keeps every invariant
        that ``__post_init__`` checks, connectivity included, so checking
        them again would only repeat work.
        """
        net = object.__new__(cls)
        object.__setattr__(net, "vertex_count", vertex_count)
        object.__setattr__(net, "edges", edges)
        return net

    def _report(self, key: str, compute: Callable[["Network"], _Report]) -> _Report:
        """``compute(self)``, computed on the first call and stored under ``key``.

        The value lives in the instance ``__dict__``, as a ``cached_property``
        does, so it goes when the network goes. An exception is not stored:
        the next call computes again. Callers share the stored value, so it
        must be immutable. Threads racing on the first call may each compute
        it; their results are equal, and later calls get the one stored last.
        """
        try:
            return self.__dict__[key]
        except KeyError:
            report = self.__dict__[key] = compute(self)
            return report

    # -- structural queries -------------------------------------------------

    @cached_property
    def _adjacency(self) -> tuple[dict[int, float], ...]:
        """Per-vertex map of neighbor to conductance, iterating by ascending neighbor."""
        # The canonical edges are sorted with a < b, so each vertex meets its
        # lower neighbors in ascending order before its higher ones: every
        # map is filled in order.
        maps: tuple[dict[int, float], ...] = tuple({} for _ in range(self.vertex_count))
        for a, b, c in self.edges:
            maps[a][b] = c
            maps[b][a] = c
        return maps

    @cached_property
    def _laplacian(self) -> np.ndarray:
        """Read-only weighted Laplacian: diagonal of strengths minus conductances."""
        n = self.vertex_count
        a, b, c = np.fromiter(chain.from_iterable(self.edges), float).reshape(-1, 3).T
        a, b = a.astype(np.intp), b.astype(np.intp)
        lap = np.zeros((n, n))
        lap[a, b] = -c
        lap[b, a] = -c
        lap.flat[:: n + 1] = np.bincount(a, c, n) + np.bincount(b, c, n)
        lap.setflags(write=False)
        return lap

    @property
    def edge_count(self) -> int:
        """Number of edges ``m``."""
        return len(self.edges)

    @cached_property
    def is_unit_conductance(self) -> bool:
        """True iff every edge has conductance exactly 1."""
        return all(c == 1.0 for _, _, c in self.edges)

    def _require_vertex(self, z: int) -> int:
        if type(z) is not int:
            try:
                z = _index(z)
            except TypeError:
                raise BadVertexId(f"vertex id must be an integer, got {z!r}") from None
        if not 0 <= z < self.vertex_count:
            raise BadVertexId(f"vertex {z} outside 0..{self.vertex_count - 1}")
        return z

    def neighbors(self, z: int) -> tuple[tuple[int, float], ...]:
        """(neighbor, conductance) pairs incident to ``z``."""
        return tuple(self._adjacency[self._require_vertex(z)].items())

    def degree(self, z: int) -> int:
        """Number of edges incident to ``z``."""
        return len(self._adjacency[self._require_vertex(z)])

    def has_edge(self, a: int, b: int) -> bool:
        """True iff {a, b} is an edge."""
        a = self._require_vertex(a)
        b = self._require_vertex(b)
        return b in self._adjacency[a]

    def conductance(self, a: int, b: int) -> float:
        """Conductance of edge {a, b}; raises NoSuchEdge if absent."""
        a = self._require_vertex(a)
        b = self._require_vertex(b)
        try:
            return self._adjacency[a][b]
        except KeyError:
            raise NoSuchEdge(f"({a}, {b}) is not an edge") from None

    def vertex_strength(self, z: int) -> float:
        """Sum of conductances incident to ``z`` (degree for unit conductance)."""
        return math.fsum(self._adjacency[self._require_vertex(z)].values())

    @cached_property
    def total_strength(self) -> float:
        """Sum of all vertex strengths; twice the conductance total, 2m for unit edges."""
        # Doubling is exact in binary floating point, so this equals the
        # correctly rounded sum of the per-endpoint multiset. Past the float64
        # range it is inf, which construction refuses.
        try:
            return 2.0 * math.fsum(c for _, _, c in self.edges)
        except OverflowError:
            return math.inf

    @cached_property
    def _tree(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Parent and depth of each vertex in a breadth-first tree from vertex 0.

        The root's parent is -1; unreached vertices have parent and depth -1.
        """
        parent = [-1] * self.vertex_count
        depth = [-1] * self.vertex_count
        depth[0] = 0
        queue = [0]
        for v in queue:  # the loop also visits the vertices appended below
            for w in self._adjacency[v]:
                if depth[w] < 0:
                    parent[w], depth[w] = v, depth[v] + 1
                    queue.append(w)
        return tuple(parent), tuple(depth)

    def _check_connected(self) -> None:
        n = self.vertex_count
        reached = n - self._tree[1].count(-1)
        if reached != n:
            raise DisconnectedGraph(f"graph has {n} vertices but only {reached} are reachable from 0")

    # -- cut edges ------------------------------------------------------------

    @cached_property
    def _bridges(self) -> frozenset[tuple[int, int]]:
        """All cut-edges: the tree edges that no other edge closes a cycle over.

        Each edge off the tree climbs from both ends to where they meet and
        marks each tree edge ``(v, parent[v])`` it crosses by pointing
        ``top[v]`` above ``v``; path halving skips marked stretches."""
        parent, depth = self._tree
        top = list(range(self.vertex_count))

        def lowest_unmarked(v: int) -> int:
            while top[v] != v:
                top[v] = top[top[v]]
                v = top[v]
            return v

        for a, b, _ in self.edges:
            if parent[a] == b or parent[b] == a:  # a tree edge, as the graph is simple
                continue
            a, b = lowest_unmarked(a), lowest_unmarked(b)
            while a != b:
                if depth[a] < depth[b]:
                    a, b = b, a
                top[a] = parent[a]
                a = lowest_unmarked(a)
        return frozenset((min(v, p), max(v, p)) for v, p in enumerate(parent) if v and top[v] == v)

    def is_cut_edge(self, a: int, b: int) -> bool:
        """True iff deleting edge {a, b} would disconnect the graph."""
        if not self.has_edge(a, b):
            raise NoSuchEdge(f"({a}, {b}) is not an edge")
        return (min(a, b), max(a, b)) in self._bridges

    # -- surgeries ------------------------------------------------------------

    def remove_edge(self, a: int, b: int) -> "Network":
        """Return a new network with edge {a, b} deleted.

        Raises:
            BadVertexId: an endpoint is not a vertex.
            NoSuchEdge: the pair is not an edge.
            WouldDisconnect: the edge is a cut-edge.
        """
        if self.is_cut_edge(a, b):
            raise WouldDisconnect(f"({a}, {b}) is a cut-edge; removal would disconnect the graph")
        # The edges are sorted and (a, b) sorts just before (a, b, c).
        i = bisect_left(self.edges, (min(a, b), max(a, b)))
        return Network._trusted(self.vertex_count, self.edges[:i] + self.edges[i + 1:])

    def add_pendant_vertex(self, z: int, conductance: float = 1.0) -> tuple["Network", int]:
        """Attach a fresh degree-1 vertex to ``z`` and return (network, new id).

        The new vertex gets id ``n`` and a single edge to ``z`` with the given
        conductance; total strength grows by twice that conductance.
        """
        z = self._require_vertex(z)
        new_id = self.vertex_count
        extended = self.edges + ((z, new_id, conductance),)
        return Network(self.vertex_count + 1, extended), new_id


def build_network(
    vertex_count: int,
    weighted_edges: Iterable[Sequence],
) -> Network:
    """Validate and build a :class:`Network` from an edge list.

    Args:
        vertex_count: number of vertices; ids must lie in ``0..n-1``.
        weighted_edges: iterable of ``(a, b)`` or ``(a, b, conductance)``;
            omitted conductances default to 1.

    Returns:
        The validated network.

    Raises:
        BadParameter: ``vertex_count`` is not a positive integer.
        BadVertexId: an endpoint is not an integer or is out of range.
        InvalidEdge: self-loop, duplicate pair, bad conductance, or a
            total strength past the float64 range.
        DisconnectedGraph: the edges do not connect all vertices.
    """
    triples = []
    for item in weighted_edges:
        if len(item) == 2:
            triples.append((*item, 1.0))
        elif len(item) == 3:
            triples.append(item)
        else:
            raise InvalidEdge(f"expected (a, b) or (a, b, conductance), got {tuple(item)!r}")
    return Network(vertex_count, tuple(triples))
