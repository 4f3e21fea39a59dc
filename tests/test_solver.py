import math
import sys
from concurrent.futures import ThreadPoolExecutor

import networkx as nx
import numpy as np
import pytest

from ohmwalk import (
    BadParameter,
    BadVertexId,
    NonUnitConductance,
    NumericalFailure,
    build_network,
    check_walk_regular,
    complete,
    cycle,
    effective_resistance_matrix,
    hitting_time_matrix,
    hypercube,
    petersen,
    return_time,
    unitary_cayley,
)
from support import (
    WEIGHTED_TRIANGLE,
    commute_time_by_grounded_solves,
    hitting_times_by_fractions,
    hitting_times_by_target_solves,
    kirchhoff_index_by_spectrum,
    laplacian_by_edge_loop,
    random_corpus,
    return_times_by_first_step,
    wide_range_network,
)

REL = 1e-9
ABS_ZERO = 1e-12


@pytest.fixture(scope="module")
def corpus():
    return random_corpus(count=80, seed=52)


def path3():
    return build_network(3, [(0, 1), (1, 2)])


# Two triangles joined by one very weak edge (2, 3): connected, but the
# Laplacian's second eigenvalue is ~1e-10 of its largest.
WEAK_BRIDGE = 1e-10


def weak_bridge(c=WEAK_BRIDGE):
    return build_network(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3, c)])


def test_laplacian_matches_edge_loop(corpus):
    # Dyadic conductances sum exactly in any order.
    for net in corpus:
        assert np.array_equal(net._laplacian, laplacian_by_edge_loop(net))
    rng = np.random.default_rng(907)
    for _ in range(20):
        net = wide_range_network(rng)
        assert np.allclose(net._laplacian, laplacian_by_edge_loop(net), rtol=1e-14, atol=0.0)


def test_laplacian_is_built_once_and_read_only():
    consumers = (effective_resistance_matrix, hitting_time_matrix, check_walk_regular)
    for consumer in consumers:
        fresh = hypercube(3)
        consumer(fresh)
        assert "_laplacian" in vars(fresh), consumer.__name__
    net = hypercube(3)
    seen = []
    for consumer in consumers:
        consumer(net)
        seen.append(vars(net)["_laplacian"])
    assert all(lap is seen[0] for lap in seen)
    with pytest.raises(ValueError):
        seen[0][0, 1] = 0.0


class TestEffectiveResistance:
    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    def test_complete_edge_value(self, n):
        report = effective_resistance_matrix(complete(n))
        assert report.resistance[0, 1] == pytest.approx(2.0 / n, rel=REL)

    @pytest.mark.parametrize("n", [3, 5, 8, 12])
    def test_cycle_adjacent_value(self, n):
        report = effective_resistance_matrix(cycle(n))
        assert report.resistance[0, 1] == pytest.approx((n - 1) / n, rel=REL)

    def test_hypercube_adjacent_value(self):
        report = effective_resistance_matrix(hypercube(3))
        assert report.resistance[0, 1] == pytest.approx(7.0 / 12.0, rel=REL)

    def test_cycle4_kirchhoff_is_five(self):
        report = effective_resistance_matrix(cycle(4))
        assert report.kirchhoff_index == pytest.approx(5.0, abs=ABS_ZERO)

    def test_series_path(self):
        report = effective_resistance_matrix(path3())
        assert report.resistance[0, 2] == pytest.approx(2.0, rel=REL)

    def test_parallel_conductances_add(self):
        # Conductance 2 edge == resistance 1/2.
        net = build_network(2, [(0, 1, 2.0)])
        report = effective_resistance_matrix(net)
        assert report.resistance[0, 1] == pytest.approx(0.5, rel=REL)

    def test_metric_properties(self, corpus):
        for net in corpus[:40]:
            r = effective_resistance_matrix(net).resistance
            n = net.vertex_count
            assert np.all(np.diag(r) == 0.0)
            assert np.array_equal(r, r.T)
            off = r[~np.eye(n, dtype=bool)]
            assert np.all(off > 0.0)
            # Triangle inequality, all ordered triples at once.
            sums = r[:, :, None] + r[None, :, :]
            assert np.all(r[:, None, :] <= sums + ABS_ZERO)

    def test_matches_networkx(self):
        for net in (cycle(7), hypercube(3), petersen(), build_network(3, WEIGHTED_TRIANGLE)):
            g = nx.Graph()
            g.add_nodes_from(range(net.vertex_count))
            for a, b, c in net.edges:
                g.add_edge(a, b, weight=c)  # invert_weight=False: weights are conductances
            ours = effective_resistance_matrix(net).resistance
            for a in range(net.vertex_count):
                for b in range(a + 1, net.vertex_count):
                    theirs = nx.resistance_distance(g, a, b, weight="weight", invert_weight=False)
                    assert ours[a, b] == pytest.approx(theirs, rel=1e-8)

    def test_edge_resistance_of_symmetric_families(self):
        # Regular edge-transitive families: every edge carries (|V|-1)/|E|.
        for net in [cycle(n) for n in (3, 6, 11)] + [complete(n) for n in (3, 5, 8)] + [
            hypercube(d) for d in (2, 3, 4)
        ]:
            r = effective_resistance_matrix(net).resistance
            expected = (net.vertex_count - 1) / net.edge_count
            for a, b, _ in net.edges:
                assert r[a, b] == pytest.approx(expected, rel=REL)

    def test_exactly_symmetric_at_blocked_sizes(self):
        # Big enough that BLAS splits ``M M^T`` into blocks.
        wide = wide_range_network(np.random.default_rng(150), n_min=150, n_max=150)
        for net in (hypercube(7), wide):
            r = effective_resistance_matrix(net).resistance
            assert np.array_equal(r, r.T)

    def test_kirchhoff_pair_sum_matches_spectrum(self, corpus):
        for net in corpus[:40]:
            pair_sum = effective_resistance_matrix(net).kirchhoff_index
            spectral = kirchhoff_index_by_spectrum(net)
            assert pair_sum == pytest.approx(spectral, rel=REL)

    def test_rejects_singleton(self):
        with pytest.raises(BadParameter):
            effective_resistance_matrix(build_network(1, []))

    def test_weak_bridge_is_numerical_failure_not_disconnected(self):
        with pytest.raises(NumericalFailure, match=r"2 eigenvalues .*smallest: "):
            effective_resistance_matrix(weak_bridge())

    @pytest.mark.parametrize("c", [1e-310, 5e-324, 1e-308])
    def test_resistances_past_float64_range_are_refused(self, c):
        # The triangle's resistances are 2/(3c) and their sum 2/c: past the
        # float64 range at 1e-310 and 5e-324, and the sum alone at 1e-308.
        net = build_network(3, [(0, 1, c), (1, 2, c), (0, 2, c)])
        with pytest.raises(NumericalFailure, match="past the float64 range"):
            effective_resistance_matrix(net)
        h = hitting_time_matrix(net).hitting
        assert np.allclose(h[~np.eye(3, dtype=bool)], 2.0, rtol=REL, atol=0.0)

    @pytest.mark.parametrize("c", [1e-300, 1.3e-308])
    def test_resistances_inside_float64_range_near_its_end(self, c):
        # At 1.3e-308 the index 2/c fits float64 but the full sum, twice
        # the index, does not.
        report = effective_resistance_matrix(build_network(3, [(0, 1, c), (1, 2, c), (0, 2, c)]))
        assert np.allclose(report.resistance[~np.eye(3, dtype=bool)], 2 / (3 * c), rtol=REL, atol=0.0)
        assert report.kirchhoff_index == pytest.approx(2 / c, rel=REL)

    def test_index_and_matrix_come_from_the_same_halves(self, corpus):
        # The matrix is the halves doubled and the index their sum, so half
        # the matrix's sum is the index to the bit.
        for net in corpus:
            report = effective_resistance_matrix(net)
            assert report.resistance.sum() / 2.0 == report.kirchhoff_index


class TestHittingTimes:
    @pytest.mark.parametrize("n", [3, 4, 6, 9])
    def test_cycle_neighbors(self, n):
        report = hitting_time_matrix(cycle(n))
        assert report.hitting[0, 1] == pytest.approx(n - 1, rel=REL)

    def test_hypercube_neighbors(self):
        report = hitting_time_matrix(hypercube(3))
        assert report.hitting[0, 1] == pytest.approx(7.0, rel=REL)

    def test_path_endpoint_values(self):
        report = hitting_time_matrix(path3())
        assert report.hitting[0, 2] == pytest.approx(4.0, rel=REL)
        assert report.hitting[0, 1] == pytest.approx(1.0, rel=REL)
        assert report.hitting[1, 0] == pytest.approx(3.0, rel=REL)

    def test_diagonal_zero_and_offdiagonal_at_least_one(self, corpus):
        for net in corpus[:25]:
            h = hitting_time_matrix(net).hitting
            assert np.all(np.diag(h) == 0.0)
            off = h[~np.eye(net.vertex_count, dtype=bool)]
            assert np.all(off >= 1.0 - 1e-12)

    def test_commute_is_sum_of_directions(self, corpus):
        for net in corpus[:25]:
            report = hitting_time_matrix(net)
            assert np.allclose(report.commute, report.hitting + report.hitting.T, rtol=0, atol=0)

    def test_matches_exact_fraction_oracle(self):
        for net in (path3(), build_network(3, WEIGHTED_TRIANGLE), hypercube(2)):
            report = hitting_time_matrix(net)
            for target in range(net.vertex_count):
                exact = hitting_times_by_fractions(net, target)
                for v in range(net.vertex_count):
                    assert report.hitting[v, target] == pytest.approx(float(exact[v]), rel=1e-12)

    @pytest.mark.parametrize("strongest", [0, 2, 4])
    def test_ground_first_middle_or_last(self, strongest, monkeypatch):
        # A weighted 5-cycle plus heavy chords from ``strongest``, which
        # becomes the ground: its bordered row and column sit first, in the
        # middle or last.
        edges = [(0, 1, 1.5), (1, 2, 0.5), (2, 3, 1.25), (3, 4, 0.75), (0, 4, 2.0)]
        edges += [(strongest, v, 4.0) for v in range(5) if v != strongest and abs(v - strongest) not in (1, 4)]
        net = build_network(5, edges)
        assert np.argmax([net.vertex_strength(v) for v in range(5)]) == strongest
        solved = []
        solve = np.linalg.solve

        def recording_solve(a, b):
            solved.append(a.copy())
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        report = hitting_time_matrix(net)
        ground = np.eye(5)[strongest]
        assert np.array_equal(solved[0][strongest], ground) and np.array_equal(solved[0][:, strongest], ground)
        for target in range(5):
            exact = np.array([float(x) for x in hitting_times_by_fractions(net, target)])
            assert np.allclose(report.hitting[:, target], exact, rtol=REL, atol=0.0)

    def test_matches_pseudoinverse_route(self, corpus):
        # The per-target first-step solves of the oracle, on every corpus graph.
        for net in corpus:
            grounded = hitting_time_matrix(net).hitting
            by_target = hitting_times_by_target_solves(net)
            assert np.allclose(grounded, by_target, rtol=REL, atol=0.0)

    def test_wide_conductance_range_matches_fraction_oracle(self):
        rng = np.random.default_rng(4417)
        for _ in range(12):
            net = wide_range_network(rng)
            h = hitting_time_matrix(net).hitting
            for target in range(net.vertex_count):
                exact = np.array([float(x) for x in hitting_times_by_fractions(net, target)])
                assert np.allclose(h[:, target], exact, rtol=REL, atol=0.0)

    def test_subnormal_conductances_match_fraction_oracle(self):
        # Every conductance is subnormal. Solved unscaled, the grounded
        # inverse left the float64 range and H[0, 1] read 1.75, not 2.
        net = build_network(3, [(0, 1, 1e-308), (1, 2, 1e-308), (0, 2, 1e-308)])
        h = hitting_time_matrix(net).hitting
        for target in range(3):
            exact = np.array([float(x) for x in hitting_times_by_fractions(net, target)])
            assert np.allclose(h[:, target], exact, rtol=REL, atol=0.0)

    def test_hitting_times_past_float64_range_are_refused(self):
        # The exact H[2, 0] is about 2, but the grounded inverse overflows
        # across conductances 1e300 and 1e-10, and inf - inf read nan.
        net = build_network(3, [(0, 1, 1e300), (1, 2, 1e-10)])
        with pytest.raises(NumericalFailure, match="hitting times are past the float64 range"):
            hitting_time_matrix(net)

    @pytest.mark.parametrize("exponent", [-1016, 1010])
    def test_power_of_two_conductance_scale_changes_no_bit(self, exponent):
        # At 2**-1016 the smallest corpus conductance, 1/64, is the smallest
        # normal float64; solved unscaled, 47 of the 200 graphs changed.
        for net in random_corpus():
            scaled = build_network(
                net.vertex_count, [(a, b, math.ldexp(c, exponent)) for a, b, c in net.edges]
            )
            assert np.array_equal(hitting_time_matrix(scaled).hitting, hitting_time_matrix(net).hitting)

    def test_one_solve_per_network(self, monkeypatch):
        calls = []
        solve = np.linalg.solve

        def counting_solve(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        for net in (hypercube(4), build_network(3, WEIGHTED_TRIANGLE), complete(2)):
            calls.clear()
            hitting_time_matrix(net)
            n = net.vertex_count
            assert calls == [(n, n)]

    def test_weak_bridge_within_reach_matches_fraction_oracle(self):
        net = weak_bridge(1e-5)
        h = hitting_time_matrix(net).hitting
        for target in range(net.vertex_count):
            exact = np.array([float(x) for x in hitting_times_by_fractions(net, target)])
            assert np.allclose(h[:, target], exact, rtol=REL, atol=0.0)

    # Unrefused, the worst errors against the rational oracle were 9.3e-10
    # at 1e-6, 3.7e-9 at 3e-7, 1.1e-8 at 1e-7, 6.0e-8 at 1e-8 and 2.5e-6
    # at 1e-10; the threshold keeps a margin below REL.
    @pytest.mark.parametrize("c", [1e-6, 3e-7, 1e-7, 1e-8, WEAK_BRIDGE])
    def test_weak_bridge_is_refused(self, c):
        with pytest.raises(NumericalFailure, match=r"Foster defect .* is past 1e-10"):
            hitting_time_matrix(weak_bridge(c))

    def test_walk_regular_families_are_symmetric(self):
        for net in (cycle(8), complete(6), hypercube(3), petersen()):
            h = hitting_time_matrix(net).hitting
            gap = np.abs(h - h.T) / np.maximum(1.0, np.abs(h))
            assert gap.max() <= REL

    def test_edge_hitting_is_vertices_minus_one(self):
        for net in (cycle(9), complete(7), hypercube(3), unitary_cayley(10)):
            h = hitting_time_matrix(net).hitting
            expected = net.vertex_count - 1
            for a, b, _ in net.edges:
                assert h[a, b] == pytest.approx(expected, rel=REL)
                assert h[b, a] == pytest.approx(expected, rel=REL)


class TestReturnTimes:
    def test_complete4(self):
        assert return_time(complete(4), 0) == pytest.approx(4.0, rel=REL)

    def test_weighted_triangle(self):
        net = build_network(3, WEIGHTED_TRIANGLE)
        assert return_time(net, 0) == pytest.approx(4.0, rel=REL)

    @pytest.mark.parametrize("n", [3, 5, 10])
    def test_cycle_is_n(self, n):
        for z in range(n):
            assert return_time(cycle(n), z) == pytest.approx(float(n), rel=REL)

    def test_closed_form_matches_first_step_solve(self, corpus):
        for net in corpus:
            first_step = return_times_by_first_step(net)
            for z in range(net.vertex_count):
                closed = return_time(net, z)
                assert abs(closed - first_step[z]) <= REL * closed

    def test_return_time_past_float64_range_is_refused(self):
        # C / C_2 is 2e310, which read inf.
        net = build_network(3, [(0, 1, 1e300), (1, 2, 1e-10)])
        with pytest.raises(NumericalFailure, match="return time C / C_z is past the float64 range"):
            return_time(net, 2)
        assert return_time(net, 1) == 2.0

    def test_largest_conductances_inside_float64_range(self):
        # Total strength 6e307 is finite, so the network builds and every
        # quantity matches the unit triangle's.
        net = build_network(3, [(0, 1, 1e307), (1, 2, 1e307), (0, 2, 1e307)])
        assert net.total_strength == 6e307
        assert return_time(net, 0) == 3.0
        unit = hitting_time_matrix(build_network(3, [(0, 1), (1, 2), (0, 2)])).hitting
        np.testing.assert_allclose(hitting_time_matrix(net).hitting, unit, rtol=REL)

    def test_bad_vertex(self):
        with pytest.raises(BadVertexId):
            return_time(complete(3), 3)


class TestCommuteTimes:
    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_cycle_neighbors(self, n):
        commute = hitting_time_matrix(cycle(n)).commute
        assert commute[0, 1] == pytest.approx(2.0 * (n - 1), rel=REL)

    def test_path_endpoints(self):
        assert hitting_time_matrix(path3()).commute[0, 2] == pytest.approx(8.0, rel=REL)

    def test_pendant_round_trip_is_strength_plus_two(self, corpus):
        for net in corpus[:10]:
            z = 0
            extended, tip = net.add_pendant_vertex(z, 1.0)
            expected = net.total_strength + 2.0
            commute = hitting_time_matrix(extended).commute
            assert commute[z, tip] == pytest.approx(expected, rel=REL)

    def test_matches_grounded_solves_oracle(self, corpus):
        for net in corpus:
            commute = hitting_time_matrix(net).commute
            for b in range(1, net.vertex_count):
                oracle = commute_time_by_grounded_solves(net, 0, b)
                assert commute[0, b] == pytest.approx(oracle, rel=REL)

    def test_proportional_to_resistance_times_strength(self, corpus):
        for net in corpus[:40]:
            resistance = effective_resistance_matrix(net).resistance
            commute = hitting_time_matrix(net).commute
            scaled = net.total_strength * resistance
            gap = np.abs(commute - scaled)
            assert np.all(gap <= REL * np.maximum(commute, 1e-300) + ABS_ZERO)

    def test_unit_graphs_use_twice_edge_count(self):
        net = hypercube(3)
        value = hitting_time_matrix(net).commute[0, 1]
        r = effective_resistance_matrix(net).resistance[0, 1]
        assert value == pytest.approx(2 * net.edge_count * r, rel=REL)


class TestReportsComputedOncePerNetwork:
    @pytest.mark.parametrize("route, arrays", [(effective_resistance_matrix, ("resistance",)),
                                               (hitting_time_matrix, ("hitting", "commute")),
                                               (check_walk_regular, ())],
                             ids=["resistance", "hitting", "certificate"])
    def test_second_call_returns_the_same_read_only_report(self, route, arrays):
        net = petersen()
        first = route(net)
        assert route(net) is first
        for name in arrays:
            array = getattr(first, name)
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 1] = 0.0
        assert route(net) is first

    def test_a_failure_is_not_stored(self, monkeypatch):
        net = petersen()

        def failing_solve(*args, **kwargs):
            raise np.linalg.LinAlgError("injected")

        monkeypatch.setattr(np.linalg, "solve", failing_solve)
        with pytest.raises(NumericalFailure, match="injected"):
            hitting_time_matrix(net)
        monkeypatch.undo()
        assert np.array_equal(hitting_time_matrix(net).hitting, hitting_time_matrix(petersen()).hitting)

    def test_threads_racing_on_the_first_call_get_equal_reports(self):
        net = hypercube(5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                reports = list(pool.map(lambda _: hitting_time_matrix(net), range(32), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        stored = hitting_time_matrix(net)
        assert all(np.array_equal(report.hitting, stored.hitting) for report in reports)
        assert hitting_time_matrix(net) is stored

    def test_argument_checks_still_run(self):
        # The certificate's conductance check runs on every call, not only
        # the first.
        weighted = build_network(3, [(0, 1, 2.0), (1, 2), (0, 2)])
        for _ in range(2):
            with pytest.raises(NonUnitConductance):
                check_walk_regular(weighted)
