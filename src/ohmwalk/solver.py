"""Exact network quantities by dense linear algebra.

Each quantity has one route here; the independent routes that the test
suite compares them against live in ``tests/support.py``. Two
factorisations are used on purpose, so that the suite's
``commute = C * R`` check compares two computations:

* effective resistances and the Kirchhoff index come from the
  pseudoinverse ``P = M M^T`` of the weighted Laplacian, ``M`` its
  eigenvectors scaled by ``1/sqrt(mu)`` (eigendecomposition, one zero mode);
* hitting and commute times come from one solve of the Laplacian grounded
  at a single vertex, bordered in place, whose inverse yields every hitting
  time at once.

Both read the Laplacian that the :class:`Network` builds once and caches.
Return times need neither: they are the closed form ``C / C_z``. The
grounded solve is one private step, ``_ground``. Edge-removal analysis
applies it to the parent's Laplacian less the deleted unit edge and reads
off it the two hitting times across the edge and the Kirchhoff index
``n tr(G') - 1^T G' 1``, so no all-pairs report is built for the
edge-deleted network.
Everything here is deterministic and pure; inputs are never mutated. Each
network computes each report once, on the first call, and every later call
returns that same report: the reports are frozen and their arrays
read-only, so callers share them safely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .network import Network

__all__ = [
    "ResistanceReport",
    "HittingReport",
    "effective_resistance_matrix",
    "hitting_time_matrix",
    "return_time",
]

# Eigenvalues below RANK_TOL * (largest eigenvalue) count as the zero mode.
RANK_TOL = 1e-10

# A hitting report whose Foster defect, vertex by vertex, is past FOSTER_TOL
# is refused. Set against exact rational hitting times: on two triangles
# joined by a bridge of conductance c the defect read 3.6e-11 at c = 1e-5
# (worst error 1.2e-10), 2.0e-10 at 1e-6 (9.3e-10), 7.4e-10 at 3e-7
# (3.7e-9) and 1.8e-8 at 1e-8 (6.0e-8); on 200 random graphs with
# conductances over six decades it stayed under 1.5e-11.
FOSTER_TOL = 1e-10


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
        hitting: ``hitting[a, b]`` is the expected steps from a to b;
            read-only.
        commute: ``hitting + hitting.T``, the expected round trips; read-only.

    Return times are not carried here: :func:`return_time` gives them in
    closed form.
    """

    hitting: np.ndarray
    commute: np.ndarray


def effective_resistance_matrix(net: Network) -> ResistanceReport:
    """All pairwise effective resistances plus the Kirchhoff index.

    The pseudoinverse is ``P = M M^T``, exactly symmetric, with ``M`` the
    eigenvectors of the nonzero eigenvalues ``mu`` (all but the first, in
    ascending order) scaled by ``1/sqrt(mu)``. Resistances follow from
    ``R_ab = P_aa + P_bb - 2 P_ab``; the Kirchhoff index, the sum over
    unordered pairs, is half the sum of that symmetric matrix.

    The report is computed once per network; later calls return the same
    read-only report.

    Raises:
        NumericalFailure: float64 cannot resolve the Laplacian's spectrum,
            or the resistances or their sum are past the float64 range, as
            on a network whose conductances are all near ``1e-308``.
    """
    return net._report("_resistance_report", _resistances)


def _resistances(net: Network) -> ResistanceReport:
    try:
        eigenvalues, vectors = np.linalg.eigh(net._laplacian)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc
    # Connectivity is certified by Network, so a count of zero modes other
    # than one means float64 could not resolve the spectrum, never a
    # disconnected graph.
    largest = float(eigenvalues[-1])
    if largest <= 0.0:
        raise NumericalFailure("Laplacian spectrum is not positive")
    zero_count = int(np.count_nonzero(eigenvalues <= RANK_TOL * largest))
    if zero_count != 1:
        smallest = ", ".join(f"{v:.3g}" for v in eigenvalues[:3])
        raise NumericalFailure(
            f"Laplacian has {zero_count} eigenvalues below {RANK_TOL:g} x the largest "
            f"({largest:.3g}) instead of one zero mode; smallest: {smallest}"
        )
    scaled = vectors[:, 1:] / np.sqrt(eigenvalues[1:])
    # The halves ``(P_aa + P_bb) / 2 - P_ab`` sum to the index, so it stays
    # finite wherever float64 holds it; doubling them is exact, and their
    # diagonal is exactly zero. Each resistance is at most the index, so one
    # past the float64 range makes the sum inf or nan, and the one finite
    # test on the sum judges them all.
    with np.errstate(over="ignore", invalid="ignore"):
        pinv = scaled @ scaled.T
        diag = np.diag(pinv)
        resistance = (diag[:, None] + diag[None, :]) / 2.0 - pinv
        kirchhoff = float(resistance.sum())
        resistance *= 2.0
    if not math.isfinite(kirchhoff):
        raise NumericalFailure("effective resistances or their sum are past the float64 range")
    resistance.setflags(write=False)
    return ResistanceReport(resistance=resistance, kirchhoff_index=kirchhoff)


def hitting_time_matrix(net: Network) -> HittingReport:
    """Hitting and commute times from one grounded Laplacian solve.

    ``G`` is the inverse of the Laplacian grounded at one vertex ``g``,
    with a zero row and column there. It is the inverse of the bordered
    Laplacian, row and column ``g`` zeroed and 1 on their diagonal, with
    ``G_gg`` reset to 0: that matrix is block-diagonal, so LU pivots as on
    the grounded Laplacian alone and row and column ``g`` come out ``e_g``.
    With strengths ``s`` and total strength ``C``, the expected steps from
    ``a`` to ``b`` are
    ``H[a, b] = (G s)_a - (G s)_b - C (G_ab - G_bb)`` (Tetali 1991): the
    column ``H[:, b]`` solves ``L h = s - C e_b`` with ``h_b = 0``.
    The grounded Laplacian is symmetric positive definite, since the network
    is connected.

    The report is computed once per network; later calls return the same
    read-only report.

    Every report is checked against Foster's identity
    ``sum_e c_e R_e = n - 1`` vertex by vertex: the first-step return time
    ``1 + sum_y P[z, y] H[y, z]`` must be ``C / C_z`` at every ``z``, and
    these relations, weighted by ``C_z`` and summed, are Foster's. The
    worst relative defect over ``z``, against :data:`FOSTER_TOL`, flags the
    cancellation that a weak bridge causes in the formula above.

    Raises:
        NumericalFailure: the grounded Laplacian is singular in float64, a
            hitting time is past the float64 range, as when the grounded
            inverse overflows across conductances ``1e300`` and ``1e-10``,
            or the Foster defect is past :data:`FOSTER_TOL`, as on two
            triangles joined by a bridge of conductance ``1e-7``.
    """
    return net._report("_hitting_report", _hitting_times)


def _hitting_times(net: Network) -> HittingReport:
    # A grounded inverse past the float64 range leaves inf or nan in the
    # hitting times; the finite test below refuses them. A finite report's
    # diagonal is exactly zero: ``(G_aa - G_aa) C + (G s)_a - (G s)_a``.
    # The Foster check reads the Laplacian scaled as it was solved, so that
    # subnormal and near-maximal conductances neither underflow nor
    # overflow; summed over z, the defects could cancel in sign.
    lap = net._laplacian
    with np.errstate(over="ignore", invalid="ignore"):
        green, potential, exponent = _ground(lap)
        scale = math.ldexp(net.total_strength, exponent)
        hitting = np.diag(green) - green
        hitting *= scale
        hitting += potential[:, None]
        hitting -= potential
        scaled = np.ldexp(lap, exponent)
        strengths = np.diag(scaled)
        kac = scale / strengths
        first_step = 1.0 - np.einsum("ij,ij->j", scaled, hitting) / strengths
        defect = float(np.max(np.abs(first_step - kac) / kac))
    if not np.isfinite(hitting).all():
        raise NumericalFailure("hitting times are past the float64 range")
    if not defect <= FOSTER_TOL:
        raise NumericalFailure(
            f"hitting times lost precision: Foster defect {defect:.2g} is past {FOSTER_TOL:g}; "
            "conductances spread too widely for float64"
        )
    commute = hitting + hitting.T
    hitting.setflags(write=False)
    commute.setflags(write=False)
    return HittingReport(hitting=hitting, commute=commute)


def _ground(lap: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """One grounded solve of the Laplacian ``lap``.

    Returns ``(green, potential, k)``. With ``2^k`` the power of two that
    brings the largest strength into [1/2, 1), ``green`` is the symmetrised
    inverse of ``2^k lap`` grounded at its strongest vertex, so the grounded
    inverse of :func:`hitting_time_matrix` is ``G = 2^k green``, and
    ``potential`` is ``G s``, ``s`` the strengths. ``lap`` is not changed.
    """
    n = lap.shape[0]
    strengths = np.diag(lap)
    # Ground at the strongest vertex: on random graphs with conductances
    # spread over six decades this kept hitting times within 3e-11 of an
    # 80-bit solve, where grounding at the weakest vertex lost up to 5e-6.
    g = np.argmax(strengths)
    # Scale by the power of two that brings the largest strength into
    # [1/2, 1): the inverse of a Laplacian with subnormal conductances
    # would otherwise leave the float64 range, silently. Scaling is exact,
    # and G s and C G do not change with it.
    exponent = -math.frexp(strengths[g])[1]
    bordered = np.ldexp(lap, exponent)
    strengths = np.ldexp(strengths, exponent)
    bordered[g, :] = 0.0
    bordered[:, g] = 0.0
    bordered[g, g] = 1.0
    try:
        green = np.linalg.solve(bordered, np.eye(n))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"grounded Laplacian is singular: {exc}") from exc
    green[g, g] = 0.0
    green += green.T
    green /= 2.0
    return green, green @ strengths, exponent


def return_time(net: Network, z: int) -> float:
    """Expected first-return steps at ``z``: total strength over vertex strength.

    This closed form is the only route. The test suite checks it against
    the first-step relation ``1 + sum_y P[z, y] H[y, z]`` over the hitting
    times of :func:`hitting_time_matrix`.

    Raises:
        NumericalFailure: the return time is past the float64 range, as at
            a vertex of strength ``1e-10`` in a network of total strength
            ``2e300``.
    """
    value = net.total_strength / net.vertex_strength(z)
    if not math.isfinite(value):
        raise NumericalFailure("return time C / C_z is past the float64 range")
    return value
