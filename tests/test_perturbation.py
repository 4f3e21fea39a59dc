import json
import math
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ohmwalk import (
    BadParameter,
    CutEdgeResistance,
    EdgeRef,
    NonUnitConductance,
    NoSuchEdge,
    WouldDisconnect,
    analyze_edge_removal,
    build_network,
    complete,
    cycle,
    effective_resistance_matrix,
    extremal_increment_bounds,
    hitting_time_matrix,
    hypercube,
    petersen,
    predicted_removed_resistance,
    removed_edge_hitting_time,
    resistance_increment,
    unitary_cayley,
)
from ohmwalk import perturbation, solver, walk_regular
from support import (
    CUBIC_UNEVEN_TRIANGLES,
    WEIGHTED_TRIANGLE,
    connected_graphs_on,
    hitting_times_by_fractions,
)

REL = 1e-9


class TestClosedForms:
    @pytest.mark.parametrize("n", [3, 5, 8, 12])
    def test_cycle_edge_resistance_maps_to_path(self, n):
        # Removing a cycle edge leaves n-1 unit resistors in series.
        assert predicted_removed_resistance((n - 1) / n) == pytest.approx(n - 1, rel=REL)

    def test_complete5_edge(self):
        assert predicted_removed_resistance(2 / 5) == pytest.approx(2 / 3, rel=REL)

    def test_half_is_fixed_point(self):
        assert predicted_removed_resistance(0.5) == pytest.approx(1.0, rel=REL)

    def test_increment_examples(self):
        assert resistance_increment(4 / 5) == pytest.approx(16 / 5, rel=REL)
        assert resistance_increment(2 / 5) == pytest.approx(4 / 15, rel=REL)
        assert resistance_increment(0.5) == pytest.approx(0.5, rel=REL)

    @given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
    def test_increment_equals_prediction_minus_input(self, r):
        assert math.isclose(
            resistance_increment(r), predicted_removed_resistance(r) - r, rel_tol=1e-9
        )

    @pytest.mark.parametrize("r", [1.0, 1 - 1e-10, 2.0])
    def test_bridge_resistance_rejected(self, r):
        with pytest.raises(CutEdgeResistance):
            predicted_removed_resistance(r)
        with pytest.raises(CutEdgeResistance):
            resistance_increment(r)

    @pytest.mark.parametrize("r", [0.0, -0.5])
    def test_nonpositive_resistance_rejected(self, r):
        with pytest.raises(BadParameter):
            predicted_removed_resistance(r)

    @pytest.mark.parametrize("r", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize(
        "closed_form",
        [predicted_removed_resistance, resistance_increment, lambda r: removed_edge_hitting_time(3, r)],
        ids=["predicted_removed_resistance", "resistance_increment", "removed_edge_hitting_time"],
    )
    def test_non_finite_resistance_rejected(self, closed_form, r):
        with pytest.raises(BadParameter, match=f"must be finite, got {r}"):
            closed_form(r)


class TestExtremalBounds:
    def test_five(self):
        assert extremal_increment_bounds(5) == pytest.approx((16 / 5, 4 / 15), rel=REL)

    def test_three_coincide(self):
        top, bottom = extremal_increment_bounds(3)
        assert top == pytest.approx(4 / 3, rel=REL)
        assert bottom == pytest.approx(4 / 3, rel=REL)

    def test_six(self):
        assert extremal_increment_bounds(6) == pytest.approx((25 / 6, 1 / 6), rel=REL)

    def test_too_small(self):
        with pytest.raises(BadParameter):
            extremal_increment_bounds(2)


class TestRemovedEdgeHitting:
    @pytest.mark.parametrize("n", [3, 6, 10])
    def test_cycle(self, n):
        value = removed_edge_hitting_time(n, (n - 1) / n)
        assert value == pytest.approx((n - 1) ** 2, rel=REL)

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_complete(self, n):
        value = removed_edge_hitting_time(n * (n - 1) // 2, 2 / n)
        assert value == pytest.approx((n * (n - 1) - 2) / (n - 2), rel=REL)

    def test_hypercube3(self):
        assert removed_edge_hitting_time(12, 7 / 12) == pytest.approx(15.4, rel=REL)

    def test_guards(self):
        with pytest.raises(BadParameter):
            removed_edge_hitting_time(0, 0.5)
        with pytest.raises(CutEdgeResistance):
            removed_edge_hitting_time(5, 1.0)


def test_fractional_counts_are_refused():
    with pytest.raises(BadParameter, match="edge_count must be an integer, got 2.5"):
        removed_edge_hitting_time(2.5, 0.5)
    with pytest.raises(BadParameter, match="edge_count must be an integer, got True"):
        removed_edge_hitting_time(True, 0.5)
    with pytest.raises(BadParameter, match="n must be an integer, got 5.5"):
        extremal_increment_bounds(5.5)
    with pytest.raises(BadParameter, match="n must be an integer, got True"):
        extremal_increment_bounds(True)


def test_numpy_counts_are_accepted():
    assert removed_edge_hitting_time(np.int64(12), 7 / 12) == removed_edge_hitting_time(12, 7 / 12)
    assert extremal_increment_bounds(np.int64(5)) == extremal_increment_bounds(5)


class TestAnalyzeEdgeRemoval:
    def test_hypercube_report(self):
        report = analyze_edge_removal(hypercube(3), 0, 1)
        assert report.edge == EdgeRef(0, 1)
        assert report.r_before == pytest.approx(7 / 12, rel=REL)
        assert report.r_after_predicted == pytest.approx(1.4, rel=REL)
        assert report.r_after_direct == pytest.approx(1.4, rel=REL)
        assert report.r_increment == pytest.approx(report.r_after_predicted - report.r_before, rel=REL)
        assert report.hitting_before == pytest.approx(7.0, rel=REL)
        assert report.walk_regular is True
        assert report.hitting_after_predicted == pytest.approx(15.4, rel=REL)
        assert report.hitting_after_direct == pytest.approx(15.4, rel=REL)
        assert report.kirchhoff_after >= report.kirchhoff_before

    def test_numpy_ids_give_a_json_ready_report(self):
        report = analyze_edge_removal(hypercube(3), np.int64(0), np.int64(1))
        document = json.loads(json.dumps(asdict(report)))
        assert document["edge"] == {"a": 0, "b": 1}

    def test_cycle8(self):
        report = analyze_edge_removal(cycle(8), 2, 3)
        assert report.hitting_before == pytest.approx(7.0, rel=REL)
        assert report.hitting_after_predicted == pytest.approx(49.0, rel=REL)
        assert report.hitting_after_direct == pytest.approx(49.0, rel=REL)

    def test_unitary_cayley5(self):
        report = analyze_edge_removal(unitary_cayley(5), 0, 1)
        assert report.hitting_before == pytest.approx(4.0, rel=REL)
        assert report.hitting_after_predicted == pytest.approx(6.0, rel=REL)
        assert report.hitting_after_direct == pytest.approx(6.0, rel=REL)

    def test_regular_but_not_walk_regular_gets_no_prediction(self):
        net = build_network(8, CUBIC_UNEVEN_TRIANGLES)
        report = analyze_edge_removal(net, 3, 6)
        assert report.walk_regular is False
        assert report.hitting_after_predicted is None
        # The resistance closed form needs no symmetry hypothesis.
        assert report.r_after_direct == pytest.approx(report.r_after_predicted, rel=REL)

    def test_rejects_weighted_network(self):
        with pytest.raises(NonUnitConductance):
            analyze_edge_removal(build_network(3, WEIGHTED_TRIANGLE), 0, 1)

    # The weighted triangle with a pendant vertex 3 at vertex 2: a missing
    # edge is refused first, then a cut-edge, then the weights.
    @pytest.mark.parametrize("edge, error, message", [
        ((0, 3), NoSuchEdge, r"\(0, 3\) is not an edge"),
        ((3, 2), WouldDisconnect, r"\(3, 2\) is a cut-edge"),
        ((0, 1), NonUnitConductance, "assumes unit conductances"),
    ], ids=["missing", "cut", "non-cut"])
    def test_weighted_network_refusal_order(self, edge, error, message):
        net = build_network(4, [*WEIGHTED_TRIANGLE, (2, 3, 2.0)])
        with pytest.raises(error, match=message):
            analyze_edge_removal(net, *edge)

    def test_rejects_missing_edge(self):
        with pytest.raises(NoSuchEdge):
            analyze_edge_removal(cycle(4), 0, 2)

    def test_rejects_cut_edge(self):
        net = build_network(3, [(0, 1), (1, 2)])
        with pytest.raises(WouldDisconnect):
            analyze_edge_removal(net, 0, 1)


# Two triangles joined by a two-edge path, with a pendant vertex: three bridges.
BRIDGED = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 6), (6, 7)]


class TestEveryEdgeOfOneNetwork:
    @pytest.mark.parametrize("build", [petersen, lambda: build_network(8, BRIDGED)],
                             ids=["petersen", "bridged"])
    def test_original_network_is_computed_once(self, build, monkeypatch):
        net = build()
        edges = [(a, b) for a, b, _ in net.edges if not net.is_cut_edge(a, b)]
        counts = Counter()

        def count(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        count(np.linalg, "eigh")
        count(np.linalg, "solve")
        count(walk_regular, "_certify")
        count(solver, "_hitting_times")
        reports = [analyze_edge_removal(net, a, b) for a, b in edges]
        k = len(edges)
        # Each edge-deleted network gets its own solve, but no all-pairs report.
        assert counts == {"eigh": 1, "solve": 1 + k, "_certify": 1, "_hitting_times": 1}
        monkeypatch.undo()
        fresh = [analyze_edge_removal(build_network(net.vertex_count, net.edges), a, b) for a, b in edges]
        assert reports == fresh


@pytest.fixture(scope="module")
def removals():
    """Every (connected 5-vertex graph, non-cut edge) with both resistance
    matrices, computed once."""
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


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_prediction_and_monotonicity_exhaustive(n):
    # Single pass over every connected unit graph on n vertices: the
    # parallel-decomposition prediction must match a fresh recomputation on
    # the reduced graph, and no pairwise resistance may drop.
    for edges in connected_graphs_on(n):
        net = build_network(n, edges)
        before = effective_resistance_matrix(net).resistance
        for a, b in edges:
            if net.is_cut_edge(a, b):
                continue
            after = effective_resistance_matrix(net.remove_edge(a, b)).resistance
            predicted = predicted_removed_resistance(before[a, b])
            assert abs(predicted - after[a, b]) <= REL * max(predicted, after[a, b])
            assert np.all(after >= before - 1e-12)


def assert_direct_side_is_the_reduced_networks(removals, monkeypatch):
    """The report's direct values on each ``(net, a, b)`` against the
    reduced network's own all-pairs report: hitting time and resistance bit
    for bit, the Kirchhoff index within REL, and the Laplacian solved is the
    reduced network's, entry for entry."""
    solved = []
    ground = solver._ground

    def recording(lap, total):
        solved.append(lap.copy())
        return ground(lap, total)

    monkeypatch.setattr(perturbation, "_ground", recording)
    for net, a, b in removals:
        report = analyze_edge_removal(net, a, b)
        reduced = net.remove_edge(a, b)
        after = hitting_time_matrix(reduced)
        total = reduced.total_strength
        assert np.array_equal(solved.pop(), reduced._laplacian)
        assert report.hitting_after_direct == after.hitting[a, b]
        assert report.r_after_direct == after.commute[a, b] / total
        assert report.kirchhoff_after == pytest.approx(after.commute.sum() / (2 * total), rel=REL)
    assert solved == []


class TestExhaustiveFiveVertexEnumeration:
    def test_direct_side_is_the_reduced_networks(self, removals, monkeypatch):
        triples = [(net, a, b) for net, (a, b), _, _ in removals]
        assert_direct_side_is_the_reduced_networks(triples, monkeypatch)

    def test_direct_values_match_the_pseudoinverse_route(self, removals):
        # The report solves the parent's Laplacian less the unit edge and
        # reads R' = (H'_ab + H'_ba) / C' and Kf' = n tr(G') - 1^T G' 1 off
        # it; ``after`` comes from the reduced network's eigendecomposition.
        for net, (a, b), _, after in removals:
            report = analyze_edge_removal(net, a, b)
            assert report.r_after_direct == pytest.approx(after[a, b], rel=REL)
            assert report.kirchhoff_after == pytest.approx(after.sum() / 2, rel=REL)

    def test_enumeration_size(self, removals):
        # 728 connected labeled graphs on 5 vertices minus the 125 trees.
        graphs = {net.edges for net, *_ in removals}
        assert len(graphs) == 603
        assert len(removals) == 3140

    def test_increment_maximum_is_attained_exactly_by_five_cycles(self, removals):
        increments = [(net, edge, after[edge] - before[edge]) for net, edge, before, after in removals]
        best = max(value for *_, value in increments)
        assert best == pytest.approx(16 / 5, rel=REL)
        attainers = {net.edges for net, _, value in increments if abs(value - 16 / 5) <= REL * (16 / 5)}
        assert len(attainers) == 12  # the labeled copies of the 5-cycle: 4!/2
        for edges in attainers:
            net = build_network(5, [(a, b) for a, b, _ in edges])
            assert net.edge_count == 5
            assert all(net.degree(v) == 2 for v in range(5))

    def test_increment_minimum_is_attained_exactly_at_dominating_pairs(self, removals):
        # The complete graph attains the minimum, but not uniquely: whenever
        # both endpoints of an edge are adjacent to every other vertex, the
        # endpoint-swap symmetry keeps the rim current-free, so the edge
        # resistance is exactly 2/5 no matter which rim edges exist.
        worst = min(after[e] - before[e] for _, e, before, after in removals)
        assert worst == pytest.approx(4 / 15, rel=REL)

        def dominating_pair(net, a, b):
            others = set(range(5)) - {a, b}
            return all(net.has_edge(a, v) and net.has_edge(b, v) for v in others)

        attaining = set()
        predicted = set()
        for net, (a, b), before, after in removals:
            key = (net.edges, (a, b))
            if abs((after[a, b] - before[a, b]) - 4 / 15) <= REL * (4 / 15):
                attaining.add(key)
            if dominating_pair(net, a, b):
                predicted.add(key)
        assert attaining == predicted
        complete_graph = complete(5)
        assert complete_graph.edges in {edges for edges, _ in attaining}
        assert len({edges for edges, _ in attaining}) == 51


WALK_REGULAR_CORPUS = (
    [cycle(n) for n in range(3, 13)]
    + [complete(n) for n in range(3, 9)]
    + [hypercube(d) for d in range(2, 5)]  # d=1 is a single cut edge, nothing removable
    + [petersen()]
    + [unitary_cayley(n) for n in range(3, 13)]
)


@pytest.mark.parametrize("net", WALK_REGULAR_CORPUS, ids=lambda g: f"n{g.vertex_count}m{g.edge_count}")
def test_prediction_matches_direct_on_walk_regular_corpus(net):
    a, b, _ = net.edges[0]
    report = analyze_edge_removal(net, a, b)
    assert report.walk_regular is True
    assert report.hitting_after_predicted is not None
    assert abs(report.hitting_after_predicted - report.hitting_after_direct) <= REL * max(
        report.hitting_after_predicted, report.hitting_after_direct
    )


@pytest.mark.parametrize("net", WALK_REGULAR_CORPUS, ids=lambda g: f"n{g.vertex_count}m{g.edge_count}")
def test_hitting_stays_symmetric_after_removal(net):
    a, b, _ = net.edges[0]
    reduced = net.remove_edge(a, b)
    h = hitting_time_matrix(reduced).hitting
    assert h[a, b] == pytest.approx(h[b, a], rel=REL)


@pytest.mark.parametrize("net", WALK_REGULAR_CORPUS, ids=lambda g: f"n{g.vertex_count}m{g.edge_count}")
def test_direct_resistance_matches_exact_commute_time(net):
    # R' = (H'[a, b] + H'[b, a]) / C' by rational elimination on an edge
    # list rebuilt here, sharing no code with the library's solve.
    a, b, _ = net.edges[0]
    kept = [(x, y) for x, y, _ in net.edges if (x, y) != (a, b)]
    reduced = build_network(net.vertex_count, kept)
    commute = hitting_times_by_fractions(reduced, b)[a] + hitting_times_by_fractions(reduced, a)[b]
    exact = float(commute / (2 * len(kept)))
    assert analyze_edge_removal(net, a, b).r_after_direct == pytest.approx(exact, rel=REL)


@pytest.mark.parametrize("net", WALK_REGULAR_CORPUS, ids=lambda g: f"n{g.vertex_count}m{g.edge_count}")
def test_direct_side_is_the_reduced_networks_on_walk_regular_corpus(net, monkeypatch):
    triples = [(net, a, b) for a, b, _ in net.edges if not net.is_cut_edge(a, b)]
    assert_direct_side_is_the_reduced_networks(triples, monkeypatch)


def test_closed_forms_over_the_graph_atlas():
    # Every non-bridge edge of every connected graph on 3..7 vertices, one
    # per isomorphism class (Read & Wilson, An Atlas of Graphs). networkx
    # names the bridges, independently of the library's cut-edge search.
    nx = pytest.importorskip("networkx")
    removals = walk_regular_removals = 0
    for graph in nx.graph_atlas_g():
        n = graph.number_of_nodes()
        if not 3 <= n <= 7 or not nx.is_connected(graph):
            continue
        net = build_network(n, list(graph.edges))
        bridges = {(min(e), max(e)) for e in nx.bridges(graph)}
        for a, b, _ in net.edges:
            if (a, b) in bridges:
                with pytest.raises(WouldDisconnect):
                    analyze_edge_removal(net, a, b)
                continue
            report = analyze_edge_removal(net, a, b)
            assert abs(report.r_after_predicted - report.r_after_direct) <= REL * report.r_after_direct
            removals += 1
            if report.walk_regular:
                predicted, direct = report.hitting_after_predicted, report.hitting_after_direct
                assert abs(predicted - direct) <= REL * direct
                walk_regular_removals += 1
    assert (removals, walk_regular_removals) == (9909, 121)
