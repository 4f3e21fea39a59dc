"""Plain-text edge-list documents.

Format, one record per line::

    # comment until end of line
    5              <- optional header: vertex count (before any edge)
    a b            <- edge with conductance 1
    a c 2.5        <- edge with explicit conductance

Labels are arbitrary non-whitespace tokens; they map bijectively to
internal ids ``0..n-1`` in order of first appearance. Serializing and
re-parsing preserves the labeled edge multiset and conductances exactly
(17 significant digits).

A :class:`Network` has at least two vertices and is connected, so a
document needs an edge record and every vertex is named on one: a header
above the number of labels describes a disconnected graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BadParameter, BadVertexId, ParseError
from .network import Network

__all__ = ["LabeledNetwork", "parse_edge_list", "format_edge_list"]


@dataclass(frozen=True)
class LabeledNetwork:
    """A network together with the label for each internal vertex id."""

    network: Network
    labels: tuple[str, ...]

    def id_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise BadVertexId(f"unknown vertex label {label!r}") from None


def parse_edge_list(text: str) -> LabeledNetwork:
    """Parse an edge-list document into a validated network.

    Raises:
        ParseError: malformed record, with its line number, or no edge
            record at all.
        InvalidEdge: the conductances' total strength is past the float64 range.
        DisconnectedGraph: the document describes a disconnected graph,
            a header above the number of labels included.
    """
    header: int | None = None
    ids: dict[str, int] = {}  # in order of first appearance
    seen_pairs: set[tuple[int, int]] = set()
    edges: list[tuple[int, int, float]] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        record = raw.split("#", 1)[0].strip()
        if not record:
            continue
        tokens = record.split()
        if len(tokens) == 1:
            if edges or header is not None:
                raise ParseError(line_no, "expected 'label_a label_b [conductance]'")
            try:
                header = int(tokens[0])
            except ValueError:
                raise ParseError(line_no, f"bad vertex-count header {tokens[0]!r}") from None
            if header < 1:
                raise ParseError(line_no, f"vertex count must be positive, got {header}")
            continue
        if len(tokens) > 3:
            raise ParseError(line_no, f"too many fields ({len(tokens)})")
        label_a, label_b = tokens[0], tokens[1]
        if label_a == label_b:
            raise ParseError(line_no, f"self-loop at {label_a!r}")
        conductance = 1.0
        if len(tokens) == 3:
            try:
                conductance = float(tokens[2])
            except ValueError:
                raise ParseError(line_no, f"bad conductance {tokens[2]!r}") from None
            if not math.isfinite(conductance) or conductance <= 0.0:
                raise ParseError(line_no, f"conductance must be positive and finite, got {tokens[2]}")
        for label in (label_a, label_b):
            if label not in ids:
                if header is not None and len(ids) >= header:
                    raise ParseError(line_no, f"label {label!r} exceeds declared vertex count {header}")
                ids[label] = len(ids)
        a, b = ids[label_a], ids[label_b]
        pair = (min(a, b), max(a, b))
        if pair in seen_pairs:
            raise ParseError(line_no, f"duplicate edge {label_a!r} {label_b!r}")
        seen_pairs.add(pair)
        edges.append((a, b, conductance))

    if not edges:
        raise ParseError(1, "no edge records")
    vertex_count = header if header is not None else len(ids)
    network = Network(vertex_count, tuple(edges))
    return LabeledNetwork(network=network, labels=tuple(ids))


def format_edge_list(net: Network, labels: tuple[str, ...] | None = None) -> str:
    """Serialize a network back to the edge-list format.

    Uses ``labels`` when given (one per vertex id), else the ids themselves.
    Conductances are written with 17 significant digits and omitted when 1.
    """
    if labels is None:
        labels = tuple(str(i) for i in range(net.vertex_count))
    if len(labels) != net.vertex_count:
        raise BadParameter(f"need {net.vertex_count} labels, got {len(labels)}")
    seen: set[str] = set()
    for label in labels:
        if not label or label.split() != [label] or "#" in label:
            raise BadParameter(f"label {label!r} is not a plain token")
        if label in seen:
            raise BadParameter(f"label {label!r} is repeated; labels must be distinct")
        seen.add(label)
    lines = [str(net.vertex_count)]
    for a, b, c in net.edges:
        if c == 1.0:
            lines.append(f"{labels[a]} {labels[b]}")
        else:
            lines.append(f"{labels[a]} {labels[b]} {c:.17g}")
    return "\n".join(lines) + "\n"
