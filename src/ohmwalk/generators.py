"""Constructors for the named graph families used as fixtures and oracles.

All generators produce unit-conductance networks. A size argument may be
any ``operator.index`` integer but ``bool``; anything else raises
:class:`BadParameter`.
"""

from __future__ import annotations

import math

from .errors import BadParameter
from .network import Network, _require_integer, build_network

__all__ = ["cycle", "complete", "hypercube", "unitary_cayley", "petersen"]


def cycle(n: int) -> Network:
    """The cycle on ``n`` vertices, ``i ~ (i + 1) mod n``."""
    n = _require_integer(n, "n")
    if n < 3:
        raise BadParameter(f"cycle needs n >= 3, got {n}")
    return build_network(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Network:
    """The complete graph on ``n`` vertices."""
    n = _require_integer(n, "n")
    return build_network(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def hypercube(d: int) -> Network:
    """The ``d``-dimensional cube: vertices are ``0..2^d - 1`` read as bit
    strings, with edges between strings at Hamming distance 1."""
    d = _require_integer(d, "d")
    if d < 1:
        raise BadParameter(f"hypercube needs d >= 1, got {d}")
    n = 1 << d
    edges = [(v, v ^ (1 << j)) for v in range(n) for j in range(d) if v < v ^ (1 << j)]
    return build_network(n, edges)


def unitary_cayley(n: int) -> Network:
    """Circulant graph on ``Z_n`` joining x and y iff gcd(x - y, n) = 1.

    Each vertex has degree phi(n), the count of units mod n. The graph always
    contains the n-cycle through consecutive residues, hence is connected.
    """
    n = _require_integer(n, "n")
    if n < 3:
        raise BadParameter(f"unitary_cayley needs n >= 3, got {n}")
    edges = [(x, y) for x in range(n) for y in range(x + 1, n) if math.gcd(y - x, n) == 1]
    return build_network(n, edges)


def petersen() -> Network:
    """The Petersen graph: outer 5-cycle, inner pentagram, five spokes."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return build_network(10, outer + inner + spokes)

