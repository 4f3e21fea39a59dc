"""Closed forms for the effect of deleting one unit-conductance edge.

Viewing the edge ``ab`` and the rest of the graph as two resistors in
parallel gives the post-removal resistance ``r / (1 - r)`` from the
pre-removal value ``r`` alone, provided the edge is not a cut-edge. On
walk-regular graphs the hitting time across the deleted edge follows the
same way, scaled by the remaining edge count. Each closed form is paired
here with a direct recomputation on the edge-deleted graph so callers can
compare predicted against recomputed values. The original graph's
resistances come from its eigendecomposition. The edge-deleted graph is
recomputed by its own grounded solve of the parent's Laplacian less the
unit edge, which gives the two hitting times across the edge (Tetali
1991), the resistance ``R' = (H'_ab + H'_ba) / C'`` (Chandra et al. 1989)
and the Kirchhoff index ``n tr(G') - 1^T G' 1`` (Ghosh, Boyd & Saberi
2008). So each closed form is checked against a different factorisation
than the one it started from, and never against an update of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import BadParameter, CutEdgeResistance, NonUnitConductance
from .network import EdgeRef, Network, _require_integer
from .solver import _ground, effective_resistance_matrix, hitting_time_matrix
from .walk_regular import check_walk_regular

__all__ = [
    "PerturbationReport",
    "predicted_removed_resistance",
    "resistance_increment",
    "extremal_increment_bounds",
    "removed_edge_hitting_time",
    "analyze_edge_removal",
]

# Resistance this close to 1 means the edge is (numerically) a bridge and
# the parallel-decomposition formulas diverge. Structural cut-edge
# detection happens first; this guard is the second line of defense.
CUT_EDGE_EPS = 1e-9


@dataclass(frozen=True)
class PerturbationReport:
    """Before/after quantities for a single edge removal.

    ``*_predicted`` fields come from the closed forms evaluated on the
    original graph; ``*_direct`` fields are recomputed from scratch on the
    edge-deleted graph. ``hitting_after_predicted`` is present only when
    the walk-regularity certificate holds (``walk_regular`` is True),
    because the hitting-time formula needs that hypothesis.
    """

    edge: EdgeRef
    r_before: float
    r_after_predicted: float
    r_after_direct: float
    r_increment: float
    hitting_before: float
    hitting_after_predicted: Optional[float]
    hitting_after_direct: float
    kirchhoff_before: float
    kirchhoff_after: float
    walk_regular: bool


def _require_formula_range(r_ab: float) -> None:
    if not math.isfinite(r_ab):
        raise BadParameter(f"edge resistance must be finite, got {r_ab}")
    if not 0.0 < r_ab:
        raise BadParameter(f"edge resistance must be positive, got {r_ab}")
    if r_ab >= 1.0 - CUT_EDGE_EPS:
        raise CutEdgeResistance(
            f"edge resistance {r_ab} is numerically 1; the edge is a bridge and the formula diverges"
        )


def predicted_removed_resistance(r_ab: float) -> float:
    """Post-removal resistance across a deleted non-cut unit edge: r/(1-r)."""
    _require_formula_range(r_ab)
    return r_ab / (1.0 - r_ab)


def resistance_increment(r_ab: float) -> float:
    """Resistance gain from deleting the edge: r^2/(1-r)."""
    _require_formula_range(r_ab)
    return r_ab * r_ab / (1.0 - r_ab)


def extremal_increment_bounds(n: int) -> tuple[float, float]:
    """(max, min) of the removal increment over connected unit graphs on n vertices.

    The maximum ``(n-1)^2 / n`` is attained by the n-cycle, the minimum
    ``4 / (n (n-2))`` by the complete graph.
    """
    n = _require_integer(n, "n")
    if n < 3:
        raise BadParameter(f"bounds need n >= 3, got {n}")
    return ((n - 1) ** 2 / n, 4.0 / (n * (n - 2)))


def removed_edge_hitting_time(edge_count: int, r_ab: float) -> float:
    """Hitting time across a deleted edge of a walk-regular graph.

    ``(|E| - 1) * r / (1 - r)`` where ``|E|`` counts edges before removal.
    The caller is responsible for the walk-regularity hypothesis;
    :func:`analyze_edge_removal` enforces it via the certificate.
    """
    edge_count = _require_integer(edge_count, "edge_count")
    if edge_count < 1:
        raise BadParameter(f"edge_count must be positive, got {edge_count}")
    _require_formula_range(r_ab)
    return (edge_count - 1) * r_ab / (1.0 - r_ab)


def analyze_edge_removal(net: Network, a: int, b: int) -> PerturbationReport:
    """Full before/after comparison for deleting edge {a, b}.

    Computes exact resistance, hitting, and Kirchhoff quantities on the
    original graph and evaluates the closed-form predictions. The direct
    values come from one fresh grounded solve of the edge-deleted graph's
    Laplacian ``L'``, which is the original's with the unit edge taken out,
    exactly. With its grounded inverse ``G'`` and total strength
    ``C' = C - 2``, the hitting times ``H'_ab`` and ``H'_ba`` are read as
    :func:`hitting_time_matrix` would give them, bit for bit, then
    ``R'_ab = (H'_ab + H'_ba) / C'`` and the Kirchhoff index is
    ``n tr(G') - 1^T G' 1``.

    Raises:
        BadVertexId: an endpoint is not a vertex.
        NoSuchEdge: {a, b} is not an edge.
        WouldDisconnect: {a, b} is a cut-edge.
        NonUnitConductance: the closed forms assume unit conductances.
    """
    net.remove_edge(a, b)  # refuses missing and cut edges before any indexing
    if not net.is_unit_conductance:
        raise NonUnitConductance("edge-removal analysis assumes unit conductances")

    resistance = effective_resistance_matrix(net)
    hitting = hitting_time_matrix(net)
    r_before = float(resistance.resistance[a, b])
    certificate = check_walk_regular(net)

    lap = net._laplacian.copy()
    lap[a, b] = lap[b, a] = 0.0
    lap[a, a] -= 1.0
    lap[b, b] -= 1.0
    total_after = net.total_strength - 2.0
    green, potential, scale = _ground(lap, total_after)
    # The operations and their order are those of hitting_time_matrix.
    hitting_ab = (green[b, b] - green[a, b]) * scale + potential[a] - potential[b]
    hitting_ba = (green[a, a] - green[b, a]) * scale + potential[b] - potential[a]
    kirchhoff_after = scale * (net.vertex_count * green.trace() - green.sum()) / total_after

    predicted_hit: Optional[float] = None
    if certificate.is_walk_regular:
        predicted_hit = removed_edge_hitting_time(net.edge_count, r_before)

    return PerturbationReport(
        edge=EdgeRef(a, b),
        r_before=r_before,
        r_after_predicted=predicted_removed_resistance(r_before),
        r_after_direct=float((hitting_ab + hitting_ba) / total_after),
        r_increment=resistance_increment(r_before),
        hitting_before=float(hitting.hitting[a, b]),
        hitting_after_predicted=predicted_hit,
        hitting_after_direct=float(hitting_ab),
        kirchhoff_before=resistance.kirchhoff_index,
        kirchhoff_after=float(kirchhoff_after),
        walk_regular=certificate.is_walk_regular,
    )
