"""Certify walk-regularity by exact closed-walk counts, compared modulo primes.

A graph is walk-regular when, for every length ``k >= 2``, all vertices
carry the same number of closed walks of length ``k`` (the diagonal of the
k-th adjacency power is constant). Checking ``k`` up to the degree ``t`` of
a monic polynomial ``p`` with ``p(A) = 0`` suffices: every higher power of
the adjacency matrix is then an integer combination of ``I, A, ..., A^(t-1)``,
so constant diagonals there force constancy for all k. The minimal
polynomial of the symmetric 0/1 matrix ``A`` is ``prod(x - theta)`` over its
``t`` distinct eigenvalues and has integer coefficients ``c_0..c_(t-1), 1``,
so ``t`` can be far below ``n``: 7 on the hypercube ``Q_6``, 2 on a complete
graph. The Cayley-Hamilton polynomial always gives ``t = n``.

One Horner pass ``acc <- acc @ A + c_i I`` both scans the counts and proves
``p(A) = 0``. After the product that raises it to degree ``k``, the
accumulator is ``A^k`` plus lower powers whose diagonals the pass already
found constant, so its diagonal is constant exactly when the closed-walk
counts of length ``k`` are. A mismatch found at some ``k <= t`` is therefore
exact and the first one at any length, whatever ``p`` is; a pass without
one ends with ``p(A)``, which must vanish, and a pass that reaches degree
``n - 1`` has checked every ``k < n``, which Cayley-Hamilton makes enough.
The certificate runs at most two passes, in a fixed order: first one on a
candidate ``p`` read off the float spectrum, with its coefficients
rounded, then, only when that pass does not decide, the plain scan on
``x^(n-1)``. No float tolerance enters the verdict: a wrong candidate only
costs time, as its pass neither finds a mismatch nor ends at zero and the
plain scan decides instead.

The counts grow like ``d^k`` on a d-regular graph, so they are compared
modulo a set of primes instead of as integers, and the comparison stays
exact by the Chinese remainder theorem. A closed-walk count of length
``k <= t`` lies in ``[0, d^t]``, and every entry of ``p(A)`` has magnitude
at most ``sum |c_i| d^i``, which the leading 1 takes to at least ``d^t``.
Once the product of the primes exceeds that sum, counts that agree modulo
every prime are equal, counts that differ modulo any prime differ, and
``p(A)`` vanishing modulo every prime vanishes: verdict and witness are the
exact ones. Each pass runs on the table's leading primes whose product
exceeds its count bound. When ``d^(n-1)`` is past the whole table, the
plain scan cannot run, and the candidate's pass alone certifies, or the
certificate refuses. The memory limit below is checked against the primes
a pass will use before its residues are allocated.

Residues are carried in float64 so that every Horner step is one BLAS
matrix product over the stack of primes. An entry of ``acc @ A`` sums at
most ``d`` entries of ``acc``, because ``A`` is a 0/1 matrix with ``d`` ones
per row, and the step then adds a coefficient residue to the diagonal, so
the step is exact while ``d`` times the largest entry plus the largest
residue stays below ``2^53``. The stack is reduced modulo its primes
whenever the next step could pass that bound, so a prime ``p`` is usable
only while ``(d + 1) * p < 2^53``. On ``x^(n-1)`` every residue is 0 and the
stack is reduced only when the product alone could pass the bound.
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
    diagonal is known constant: ``k - 1`` below a violation, and ``n - 1`` on
    a walk-regular graph, verified up to the degree ``t`` of the polynomial
    whose pass decided and implied beyond it by ``p(A) = 0``.
    """

    is_regular: bool
    is_walk_regular: bool
    first_violation: Optional[WalkCountMismatch]
    checked_k_max: int


# The 64 largest primes below 2^32. Their product exceeds 2^2047, which is
# the largest count bound ``sum |c_i| d^i`` of a pass this module can
# certify; it is ``d^(n-1)`` on the plain scan.
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

# Largest residue stack, ``primes * n * n`` float64 values, that the certificate
# will allocate; each Horner step allocates one more of the same size. It is
# checked before the Laplacian is built, for the primes of the plain scan or,
# past the table, for the fewest a pass could use given the breadth-first
# depth, and again for each pass's own primes before it runs. The largest
# graph of the benchmark, Q_7, needs 1.5 MiB, and of the test suite, Q_8,
# 12 MiB.
MAX_RESIDUE_BYTES = 256 * 2**20

# Eigenvalues of the adjacency closer than this are taken as one root of the
# candidate polynomial, whose float coefficients must lie this close to
# integers below the limit. A wrong guess only costs the plain scan.
_ROOT_GAP = 1e-6
_INTEGER_TOL = 1e-6
_COEFFICIENT_LIMIT = 2**50


def _leading_primes(degree: int, bound: int, table: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    """Leading primes of ``table`` whose product exceeds ``bound``, or None
    when the table runs out first.

    Raises:
        BadParameter: a needed prime ``p`` has ``(degree + 1) * p >= 2^53``.
    """
    product = 1
    for count, p in enumerate(table, start=1):
        if (degree + 1) * p >= _EXACT_LIMIT:
            raise BadParameter(
                f"degree {degree} is too large for exact float64 residues: "
                f"(degree + 1) * {p} reaches 2^53"
            )
        product *= p
        if product > bound:
            return table[:count]
    return None


def _beyond_table(degree: int, n: int) -> BadParameter:
    return BadParameter(
        f"closed-walk counts up to {degree}^{n - 1} exceed the product of "
        f"the {len(_PRIMES)} tabulated primes; the certificate cannot be exact"
    )


def _admit(n: int, primes: tuple[int, ...]) -> None:
    """Refuse a residue stack over ``primes`` that would pass ``MAX_RESIDUE_BYTES``."""
    needed = len(primes) * n * n * 8
    if needed > MAX_RESIDUE_BYTES:
        raise BadParameter(
            f"certifying n={n} needs {len(primes)} primes and {needed} bytes of "
            f"residues, over the limit of {MAX_RESIDUE_BYTES} bytes"
        )


def _scan(adjacency: np.ndarray, degree: int, primes: tuple[int, ...],
          coefficients: list[int]) -> tuple[Optional[WalkCountMismatch], bool]:
    """One Horner pass ``acc <- acc @ A + c_i I`` of the monic polynomial
    ``p`` with ``coefficients`` ``c_0..c_(t-1), 1``, modulo each of ``primes``.

    Returns the first ``(k, 0, y)`` whose closed-walk counts differ, for
    ``2 <= k <= t``, and whether ``p(A)`` vanishes modulo every prime, which
    is only decided when there is no such ``(k, 0, y)``. Exact while the
    product of ``primes`` exceeds ``sum |c_i| d^i``, and while every
    ``|c_i| < 2^53``, so that the float64 residues ``c_i mod p`` are exact.
    """
    n = len(adjacency)
    moduli = np.array(primes, dtype=np.float64)[:, None]
    residues = np.mod(np.array(coefficients[-2::-1], dtype=np.float64)[:, None, None], moduli)
    top = int(residues.max())  # bound on every residue
    acc = np.repeat(adjacency[None], len(primes), axis=0)  # the leading 1, times A
    acc.reshape(len(primes), -1)[:, :: n + 1] += residues[0]
    largest = 1 + top  # bound on every entry of ``acc``
    for k, residue in enumerate(residues[1:], start=2):
        # A product entry sums ``degree`` entries of ``acc``, at most one of
        # them on the diagonal, where the residue is then added.
        if degree * largest + top >= _EXACT_LIMIT:
            np.fmod(acc, moduli[:, :, None], out=acc)
            largest = max(primes) - 1
        acc = (acc.reshape(-1, n) @ adjacency).reshape(acc.shape)
        acc.reshape(len(primes), -1)[:, :: n + 1] += residue
        largest = degree * largest + top
        diagonal = np.fmod(acc.diagonal(axis1=1, axis2=2), moduli)
        differs = diagonal != diagonal[:, :1]
        if differs.any():
            return WalkCountMismatch(k=k, x=0, y=int(differs.any(axis=0).argmax())), False
    return None, not np.fmod(acc, moduli[:, :, None]).any()


def _candidate(adjacency: np.ndarray) -> Optional[list[int]]:
    """A candidate annihilating polynomial, read off the float spectrum.

    It is ``prod(x - theta)`` over the distinct eigenvalues, with its
    coefficients ``c_0..c_(t-1), 1`` rounded to integers; it is only a
    guess, which a pass proves or drops. None when the coefficients are not
    near-integers below ``2^50``.
    """
    roots: list[float] = []
    for theta in np.linalg.eigvalsh(adjacency).tolist():  # ascending
        if not roots or theta - roots[-1] > _ROOT_GAP:
            roots.append(theta)
    coefficients = [1.0]  # lowest degree first
    for theta in sorted(roots, key=abs):  # smallest first: about 100 times less float error
        coefficients = [low - theta * high
                        for low, high in zip([0.0, *coefficients], [*coefficients, 0.0])]
    if not all(abs(c) < _COEFFICIENT_LIMIT for c in coefficients):  # also inf and nan
        return None
    rounded = [round(c) for c in coefficients]
    if any(abs(c - r) > _INTEGER_TOL for c, r in zip(coefficients, rounded)):
        return None
    return rounded


def _first_violation(net: Network, degree: int) -> Optional[WalkCountMismatch]:
    """First ``(k, 0, y)`` whose closed-walk counts differ, for ``2 <= k < n``.

    The candidate's pass runs first, on the leading primes of the table
    whose product exceeds its count bound ``sum |c_i| d^i``. The plain scan
    on ``x^(n-1)``, whose count bound is ``d^(n-1)``, runs only when there
    is no candidate, its count bound is past the table, or its pass does
    not decide. A pass decides when it finds a mismatch or proves
    ``p(A) = 0``; the plain scan, which checks every ``k < n``, decides
    whatever it ends at. Past the table the plain scan cannot run, so there
    only the candidate's pass can certify.

    A connected graph has more distinct adjacency eigenvalues ``t`` than its
    diameter (Brouwer & Haemers, *Spectra of Graphs*, 2012, ch. 1), so past
    the table every pass needs at least the primes past ``d^depth`` of the
    breadth-first tree, and the residue stack is admitted for those before
    the Laplacian is built.

    Raises:
        BadParameter: the residue stack would pass ``MAX_RESIDUE_BYTES``, a
            needed prime is too large for the degree, or no pass within the
            prime table decides.
    """
    n = net.vertex_count
    plain = _leading_primes(degree, degree ** (n - 1), _PRIMES)
    least = plain or _leading_primes(degree, degree ** max(net._tree[1]), _PRIMES)
    if least is not None:
        _admit(n, least)
        # Off the diagonal, a unit-conductance Laplacian is minus the adjacency.
        adjacency = (net._laplacian < 0.0).astype(np.float64)
        # The candidate's pass, when there is a candidate, then the plain scan.
        for coefficients in filter(None, (_candidate(adjacency), [0] * (n - 1) + [1])):
            bound = sum(abs(c) * degree**i for i, c in enumerate(coefficients) if c)
            primes = _leading_primes(degree, bound, _PRIMES)
            if primes is None:  # the count bound is past the table
                continue
            _admit(n, primes)
            violation, vanished = _scan(adjacency, degree, primes, coefficients)
            # A pass of degree n - 1 or more has checked every k < n.
            if violation is not None or vanished or len(coefficients) > n - 1:
                return violation
    raise _beyond_table(degree, n)


def check_walk_regular(net: Network) -> WalkRegularityReport:
    """Decide walk-regularity of a unit-conductance network.

    Raises:
        NonUnitConductance: the check is combinatorial and only defined for
            the unweighted graph.
        BadParameter: the graph is regular but no pass certifies
            it exactly: the count bound of every pass that would decide is
            past the prime table, a needed prime is too large for the
            degree, or a pass's residues would need more than
            ``MAX_RESIDUE_BYTES``.

    The report is computed once per network; later calls return the same
    frozen report.
    """
    if not net.is_unit_conductance:
        raise NonUnitConductance("walk-regularity is defined on unit-conductance graphs")
    return net._report("_walk_regularity_report", _certify)


def _certify(net: Network) -> WalkRegularityReport:
    n = net.vertex_count
    degrees = set(map(len, net._adjacency))
    if len(degrees) > 1:
        return WalkRegularityReport(
            is_regular=False, is_walk_regular=False, first_violation=None, checked_k_max=1
        )
    violation = _first_violation(net, degrees.pop())
    return WalkRegularityReport(
        is_regular=True,
        is_walk_regular=violation is None,
        first_violation=violation,
        checked_k_max=n - 1 if violation is None else violation.k - 1,
    )
