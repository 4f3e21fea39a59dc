"""Acceptance suite: one test per contract criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
[PASS]/[FAIL] lines. Criterion 4 fails by design of the suite, not of the
implementation: brute force shows the minimum removal increment on five
vertices is attained by 51 graphs (every graph with an adjacent pair of
vertices dominating all others, the complete graph among them), so its
"only by the complete graph" clause cannot hold. The assertion message
carries the counterexample; see the unit suite for the true
characterization of the attainers.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from ohmwalk import (
    build_network,
    check_walk_regular,
    complete,
    cycle,
    effective_resistance_matrix,
    estimate_hitting_time,
    estimate_return_time,
    excursion_count_check,
    hitting_time_matrix,
    hypercube,
    kirchhoff_index_from_spectrum,
    petersen,
    removed_edge_hitting_time,
    return_time,
    totient,
    unitary_cayley,
    verify_pendant_identities,
)
from support import (
    CUBIC_UNEVEN_TRIANGLES,
    STAR_K13,
    WEIGHTED_TRIANGLE,
    connected_graphs_on,
    random_corpus,
    return_times_by_first_step,
)

REL = 1e-9


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


def rel_gap(actual, expected):
    return abs(actual - expected) / max(abs(expected), 1e-300)


@pytest.fixture(scope="module")
def corpus():
    return random_corpus(count=200, seed=8201)


@pytest.fixture(scope="module")
def five_vertex_removals():
    records = []
    for edges in connected_graphs_on(5):
        net = build_network(5, edges)
        before = effective_resistance_matrix(net).resistance
        for a, b in edges:
            if net.is_cut_edge(a, b):
                continue
            after = effective_resistance_matrix(net.remove_edge(a, b)).resistance
            records.append((net, (a, b), before, after))
    return records


def test_c01_return_time_closed_form_matches_first_step_solve(corpus):
    with criterion("c01 return-time closed form == first-step solve, 200 random weighted graphs"):
        start = time.perf_counter()
        assert len(corpus) == 200
        for net in corpus:
            assert net.vertex_count <= 30
            first_step = return_times_by_first_step(net)
            for z in range(net.vertex_count):
                closed = return_time(net, z)
                assert abs(closed - first_step[z]) <= REL * closed
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_c02_worked_examples_closed_form_and_direct():
    with criterion("c02 worked examples: cycle/complete/hypercube/unitary-cayley removals"):
        def check(net, expected_before, expected_after):
            a, b, _ = net.edges[0]
            hit_before = hitting_time_matrix(net).hitting[a, b]
            assert rel_gap(hit_before, expected_before) <= REL
            r = effective_resistance_matrix(net).resistance[a, b]
            closed = removed_edge_hitting_time(net.edge_count, r)
            assert rel_gap(closed, expected_after) <= REL
            direct = hitting_time_matrix(net.remove_edge(a, b)).hitting[a, b]
            assert rel_gap(direct, expected_after) <= REL

        for n in range(3, 13):
            check(cycle(n), n - 1, (n - 1) ** 2)
        for n in range(3, 9):
            check(complete(n), n - 1, (n * (n - 1) - 2) / (n - 2))
        check(hypercube(3), 7.0, 15.4)
        for n in range(5, 13):
            half = n * totient(n) / 2
            check(unitary_cayley(n), n - 1, (n - 1) * (half - 1) / (half - n + 1))


def test_c03_removal_prediction_exhaustive_on_five_vertices():
    with criterion("c03 predicted R' == direct recomputation, exhaustive 5-vertex graphs"):
        start = time.perf_counter()
        count = 0
        for edges in connected_graphs_on(5):
            net = build_network(5, edges)
            before = effective_resistance_matrix(net).resistance
            for a, b in edges:
                if net.is_cut_edge(a, b):
                    continue
                r = before[a, b]
                predicted = r / (1.0 - r)
                direct = effective_resistance_matrix(net.remove_edge(a, b)).resistance[a, b]
                assert abs(predicted - direct) <= REL * max(predicted, direct)
                count += 1
        assert count == 3140
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_c04_increment_extremes_attained_only_by_cycle_and_complete(five_vertex_removals):
    with criterion("c04 increment extremes: max 16/5 only C5, min 4/15 only K5"):
        increments = [
            (net, after[edge] - before[edge])
            for net, edge, before, after in five_vertex_removals
        ]
        top = max(v for _, v in increments)
        bottom = min(v for _, v in increments)
        assert rel_gap(top, 16 / 5) <= REL
        assert rel_gap(bottom, 4 / 15) <= REL

        def is_cycle5(net):
            return net.edge_count == 5 and all(net.degree(v) == 2 for v in range(5))

        def is_complete5(net):
            return net.edge_count == 10

        max_attainers = {net.edges for net, v in increments if abs(v - 16 / 5) <= REL * (16 / 5)}
        assert all(is_cycle5(build_network(5, [(a, b) for a, b, _ in e])) for e in max_attainers)

        min_attainers = {net.edges for net, v in increments if abs(v - 4 / 15) <= REL * (4 / 15)}
        non_complete = sorted(e for e in min_attainers
                              if not is_complete5(build_network(5, [(a, b) for a, b, _ in e])))
        assert not non_complete, (
            f"minimum 4/15 is attained by {len(min_attainers)} graphs, not only K5; "
            f"e.g. edge set {non_complete[0]} (an adjacent dominating pair keeps the rim "
            f"current-free, so the hub edge resistance is exactly 2/5)"
        )


def test_c05_no_pairwise_resistance_decreases(five_vertex_removals):
    with criterion("c05 removal never lowers any pairwise resistance (5-vertex enumeration)"):
        for _, _, before, after in five_vertex_removals:
            assert np.all(after >= before - 1e-12)


def test_c06_commute_equals_strength_times_resistance(corpus):
    with criterion("c06 commute(a,b) == total strength * R_ab on the random corpus"):
        for net in corpus:
            commute = hitting_time_matrix(net).commute
            scaled = net.total_strength * effective_resistance_matrix(net).resistance
            gap = np.abs(commute - scaled)
            assert np.all(gap <= REL * np.maximum(commute, 1.0))


def test_c07_walk_regularity_certificates_and_consequences():
    with criterion("c07 walk-regular certificates + hitting = |E|R and symmetry on certified graphs"):
        certified = [cycle(8), complete(6), hypercube(3), petersen(), unitary_cayley(12)]
        for net in certified:
            report = check_walk_regular(net)
            assert report.is_walk_regular, f"n={net.vertex_count} m={net.edge_count}"

        star = check_walk_regular(build_network(4, STAR_K13))
        assert star.is_regular is False
        assert star.is_walk_regular is False
        assert star.first_violation is None

        cubic = check_walk_regular(build_network(8, CUBIC_UNEVEN_TRIANGLES))
        assert cubic.is_regular is True and cubic.is_walk_regular is False
        assert cubic.first_violation is not None and cubic.first_violation.k == 3

        for net in certified:
            hitting = hitting_time_matrix(net).hitting
            resistance = effective_resistance_matrix(net).resistance
            scaled = net.edge_count * resistance
            assert np.all(np.abs(hitting - scaled) <= REL * np.maximum(scaled, 1.0))
            assert np.all(np.abs(hitting - hitting.T) <= REL * np.maximum(hitting, 1.0))


def test_c08_monte_carlo_concordance_and_reproducibility():
    with criterion("c08 MC at seed 42 / 20000 samples matches exact values, bit-identical rerun"):
        start = time.perf_counter()
        ret = estimate_return_time(complete(4), 0, 20000, 42)
        assert abs(ret.mean - 4.0) <= 3 * ret.stderr
        hit = estimate_hitting_time(hypercube(3), 0, 1, 20000, 42)
        assert abs(hit.mean - 7.0) <= 3 * hit.stderr
        pend = verify_pendant_identities(complete(3), 0, 20000, 42)
        assert pend.c_plus_1 == 7.0
        assert abs(pend.lhs.mean - 7.0) <= 3 * pend.lhs.stderr

        assert estimate_return_time(complete(4), 0, 20000, 42) == ret
        assert estimate_hitting_time(hypercube(3), 0, 1, 20000, 42) == hit
        assert verify_pendant_identities(complete(3), 0, 20000, 42) == pend
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_c09_pendant_excursion_counts():
    with criterion("c09 mean excursions before absorption == vertex strength"):
        for net, expected in ((complete(3), 2.0), (build_network(3, WEIGHTED_TRIANGLE), 3.0)):
            check = excursion_count_check(net, 0, 20000, 42)
            assert check.expected == expected
            assert abs(check.mean_excursions.mean - expected) <= 3 * check.mean_excursions.stderr


def test_c10_kirchhoff_pair_sum_against_spectrum():
    with criterion("c10 Kirchhoff pair sum == spectral form; cycle(4) == 5"):
        generator_corpus = (
            [cycle(n) for n in range(3, 13)]
            + [complete(n) for n in range(3, 9)]
            + [hypercube(d) for d in range(1, 5)]
            + [petersen()]
            + [unitary_cayley(n) for n in range(5, 13)]
        )
        for net in generator_corpus:
            pair_sum = effective_resistance_matrix(net).kirchhoff_index
            spectral = kirchhoff_index_from_spectrum(net)
            assert rel_gap(pair_sum, spectral) <= REL
        assert abs(effective_resistance_matrix(cycle(4)).kirchhoff_index - 5.0) <= 1e-12
