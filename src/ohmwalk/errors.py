"""Exception hierarchy shared across the package."""

from __future__ import annotations

__all__ = [
    "OhmwalkError",
    "BadParameter",
    "BadVertexId",
    "InvalidEdge",
    "DisconnectedGraph",
    "NoSuchEdge",
    "WouldDisconnect",
    "CutEdgeResistance",
    "NonUnitConductance",
    "NumericalFailure",
    "WalkLengthExceeded",
    "ParseError",
]


class OhmwalkError(Exception):
    """Base class for all errors raised by this package."""


class BadParameter(OhmwalkError):
    """A scalar argument is outside its admissible range."""


class BadVertexId(OhmwalkError):
    """A vertex argument is out of range, or a vertex pair is degenerate."""


class InvalidEdge(OhmwalkError):
    """An edge is a self-loop, a duplicate, or has a nonpositive conductance."""


class DisconnectedGraph(OhmwalkError):
    """The graph is not connected; network quantities are undefined."""


class NoSuchEdge(OhmwalkError):
    """The named vertex pair is not an edge of the network."""


class WouldDisconnect(OhmwalkError):
    """Removing this edge would disconnect the network (it is a cut-edge)."""


class CutEdgeResistance(OhmwalkError):
    """Edge resistance is numerically 1; the removal formulas diverge."""


class NonUnitConductance(OhmwalkError):
    """Operation requires unit conductance on every edge."""


class NumericalFailure(OhmwalkError):
    """A dense linear-algebra step failed to produce a usable result."""


class WalkLengthExceeded(OhmwalkError):
    """A simulated walk hit the defensive step cap without terminating."""


class ParseError(OhmwalkError):
    """An edge-list document is malformed.

    Attributes:
        line: 1-based line number of the offending record.
        reason: short human-readable description.
    """

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason
