"""Certify walk-regularity by exact closed-walk counts, compared modulo primes.

A graph is walk-regular when, for every length ``k >= 2``, all vertices
carry the same number of closed walks of length ``k`` (the diagonal of the
k-th adjacency power is constant). Checking ``k`` up to ``n - 1`` suffices:
every higher power of the adjacency matrix is a linear combination of the
powers below ``n``, so constant diagonals there force constancy for all k.

The counts grow like ``d^k`` on a d-regular graph, so they are compared
modulo a set of primes instead of as integers, and the comparison stays
exact by the Chinese remainder theorem. A closed-walk count of length
``k <= n - 1`` lies in ``[0, d^(n-1)]``, so two counts differ by at most
``d^(n-1)``. Once the product of the primes exceeds that bound, counts that
agree modulo every prime are equal, and counts that differ modulo any prime
differ: verdict and witness are the exact ones.

Residues are carried in float64 so that every power step is one BLAS
matrix product over the stack of primes. An entry of ``power @ A`` sums at
most ``d`` entries of ``power``, because ``A`` is a 0/1 matrix with ``d``
ones per row, so the product is exact while ``d`` times the largest entry
stays below ``2^53``. The stack is reduced modulo its primes whenever the
next product could pass that bound; a prime ``p`` is usable only while
``d * p < 2^53``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BadParameter, NonUnitConductance
from .network import Network

__all__ = [
    "WalkCountMismatch",
    "WalkRegularityReport",
    "check_walk_regular",
]


@dataclass(frozen=True)
class WalkCountMismatch:
    """Witness of non-walk-regularity: at walk length ``k``, vertices ``x``
    and ``y`` have different closed-walk counts."""

    k: int
    x: int
    y: int


@dataclass(frozen=True)
class WalkRegularityReport:
    """Outcome of the closed-walk-count check.

    ``first_violation`` is set only when the graph is regular but fails the
    walk-count test; an irregular degree sequence is reported through
    ``is_regular`` alone. ``checked_k_max`` is the largest walk length whose
    diagonal was verified constant.
    """

    is_regular: bool
    is_walk_regular: bool
    first_violation: Optional[WalkCountMismatch]
    checked_k_max: int


# The 64 largest primes below 2^32. Their product exceeds 2^2047, which is
# the largest closed-walk count bound ``d^(n-1)`` this module can certify.
_PRIMES = (
    4294967291, 4294967279, 4294967231, 4294967197, 4294967189, 4294967161,
    4294967143, 4294967111, 4294967087, 4294967029, 4294966997, 4294966981,
    4294966943, 4294966927, 4294966909, 4294966877, 4294966829, 4294966813,
    4294966769, 4294966667, 4294966661, 4294966657, 4294966651, 4294966639,
    4294966619, 4294966591, 4294966583, 4294966553, 4294966477, 4294966447,
    4294966441, 4294966427, 4294966373, 4294966367, 4294966337, 4294966297,
    4294966243, 4294966237, 4294966231, 4294966217, 4294966187, 4294966177,
    4294966163, 4294966153, 4294966129, 4294966121, 4294966099, 4294966087,
    4294966073, 4294966043, 4294966007, 4294966001, 4294965977, 4294965971,
    4294965967, 4294965949, 4294965937, 4294965911, 4294965887, 4294965847,
    4294965841, 4294965839, 4294965821, 4294965793,
)

# Every integer of magnitude up to 2^53 is exact in float64.
_EXACT_LIMIT = 2**53


def _moduli(degree: int, n: int) -> tuple[int, ...]:
    """Leading primes of the table whose product exceeds ``degree^(n-1)``.

    Raises:
        BadParameter: a needed prime ``p`` has ``degree * p >= 2^53``, or the
            whole table cannot exceed the count bound.
    """
    bound = degree ** (n - 1)
    chosen: list[int] = []
    product = 1
    for p in _PRIMES:
        if product > bound:
            break
        if degree * p >= _EXACT_LIMIT:
            raise BadParameter(
                f"degree {degree} is too large for exact float64 residues: "
                f"degree * {p} reaches 2^53"
            )
        chosen.append(p)
        product *= p
    if product <= bound:
        raise BadParameter(
            f"closed-walk counts up to {degree}^{n - 1} exceed the product of "
            f"the {len(_PRIMES)} tabulated primes; the certificate cannot be exact"
        )
    return tuple(chosen)


def _first_violation(net: Network, degree: int) -> Optional[WalkCountMismatch]:
    """First ``(k, 0, y)`` whose closed-walk counts differ, for ``2 <= k < n``."""
    n = net.vertex_count
    primes = _moduli(degree, n)
    moduli = np.array(primes, dtype=np.float64)[:, None]
    a, b = np.array(net.edges)[:, :2].astype(np.intp).T
    adjacency = np.zeros((n, n))
    adjacency[a, b] = adjacency[b, a] = 1.0
    power = np.repeat(adjacency[None], len(primes), axis=0)
    largest = 1  # bound on every entry of ``power``
    for k in range(2, n):
        if degree * largest >= _EXACT_LIMIT:
            np.fmod(power, moduli[:, :, None], out=power)
            largest = max(primes) - 1
        power = (power.reshape(-1, n) @ adjacency).reshape(power.shape)
        largest *= degree
        diagonal = np.fmod(power.diagonal(axis1=1, axis2=2), moduli)
        differs = (diagonal != diagonal[:, :1]).any(axis=0)
        if differs.any():
            return WalkCountMismatch(k=k, x=0, y=int(differs.argmax()))
    return None


def check_walk_regular(net: Network) -> WalkRegularityReport:
    """Decide walk-regularity of a unit-conductance network.

    Raises:
        NonUnitConductance: the check is combinatorial and only defined for
            the unweighted graph.
        BadParameter: the graph is regular but its closed-walk counts are
            beyond what the prime table can certify exactly.
    """
    if not net.is_unit_conductance:
        raise NonUnitConductance("walk-regularity is defined on unit-conductance graphs")
    n = net.vertex_count
    degrees = [net.degree(z) for z in range(n)]
    if len(set(degrees)) > 1:
        return WalkRegularityReport(
            is_regular=False, is_walk_regular=False, first_violation=None, checked_k_max=1
        )
    if n > 2:  # walk lengths 2..n-1 exist
        violation = _first_violation(net, degrees[0])
        if violation is not None:
            return WalkRegularityReport(
                is_regular=True,
                is_walk_regular=False,
                first_violation=violation,
                checked_k_max=violation.k - 1,
            )
    return WalkRegularityReport(
        is_regular=True, is_walk_regular=True, first_violation=None, checked_k_max=max(1, n - 1)
    )

