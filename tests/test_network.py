import math

import numpy as np
import pytest

from ohmwalk import (
    BadParameter,
    BadVertexId,
    DisconnectedGraph,
    EdgeRef,
    InvalidEdge,
    Network,
    NoSuchEdge,
    WouldDisconnect,
    build_network,
    check_walk_regular,
    complete,
    cycle,
    hypercube,
    petersen,
    unitary_cayley,
)
from ohmwalk import walk_regular
from support import (
    CUBIC_UNEVEN_TRIANGLES,
    OVERFLOWING_TOTALS,
    WEIGHTED_TRIANGLE,
    connected_graphs_on,
    random_corpus,
    union_find_connected,
)


@pytest.fixture(scope="module")
def corpus():
    return random_corpus(count=60, seed=1411)


def triangle():
    return build_network(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])


def path3():
    return build_network(3, [(0, 1, 1), (1, 2, 1)])


def bridges_by_union_find(net):
    """The edges whose removal leaves the rest disconnected, by union-find."""
    pairs = [(a, b) for a, b, _ in net.edges]
    return {e for e in pairs if not union_find_connected(net.vertex_count, [f for f in pairs if f != e])}


def cycles_trees_and_chords(rng, n_max=60):
    """A random unit graph grown from blocks, with its vertex ids shuffled.

    Blocks are long cycles sharing a vertex or hung on a bridge path,
    pendant trees, copies of Petersen or a hypercube, and chords between
    earlier vertices, which close cycles across the breadth-first layers.
    """
    edges, n = [], 1

    def attach(block_n, block_edges, anchor):
        nonlocal n
        edges.extend((a + n, b + n) for a, b in block_edges)
        edges.append((anchor, n))
        n += block_n

    while n < n_max - 16:
        anchor = int(rng.integers(n))
        kind = int(rng.integers(5))
        if kind == 0:  # a cycle through the anchor
            length = int(rng.integers(3, 16))
            ring = [anchor, *range(n, n + length - 1)]
            edges.extend(zip(ring, ring[1:] + ring[:1]))
            n += length - 1
        elif kind == 1:  # a pendant tree
            size = int(rng.integers(1, 7))
            attach(size, [(int(rng.integers(v)), v) for v in range(1, size)], anchor)
        elif kind == 2:  # Petersen or a hypercube, hung on one edge
            family = petersen() if rng.integers(2) else hypercube(int(rng.integers(2, 5)))
            attach(family.vertex_count, [(a, b) for a, b, _ in family.edges], anchor)
        else:  # a chord
            other = int(rng.integers(n))
            if other != anchor and (min(anchor, other), max(anchor, other)) not in {
                (min(a, b), max(a, b)) for a, b in edges
            }:
                edges.append((anchor, other))
    shuffled = rng.permutation(n)
    return build_network(n, [(int(shuffled[a]), int(shuffled[b])) for a, b in edges])


class TestBuild:
    def test_triangle(self):
        net = triangle()
        assert net.vertex_count == 3
        assert net.edge_count == 3

    def test_path(self):
        net = path3()
        assert net.edge_count == 2
        assert net.degree(1) == 2

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraph):
            build_network(4, [(0, 1, 1), (2, 3, 1)])

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidEdge):
            build_network(2, [(0, 0, 1), (0, 1, 1)])

    def test_duplicate_rejected_either_orientation(self):
        with pytest.raises(InvalidEdge):
            build_network(2, [(0, 1, 1), (1, 0, 2)])

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_conductance_rejected(self, bad):
        with pytest.raises(InvalidEdge):
            build_network(2, [(0, 1, bad)])

    def test_out_of_range_vertex(self):
        with pytest.raises(BadVertexId):
            build_network(2, [(0, 5, 1)])

    def test_nonpositive_vertex_count(self):
        with pytest.raises(BadParameter):
            build_network(0, [])

    @pytest.mark.parametrize("build", [lambda: Network(0, ()), lambda: Network(1, ()), lambda: build_network(1, [])],
                             ids=["Network-0", "Network-1", "build_network-1"])
    def test_fewer_than_two_vertices_is_refused(self, build):
        with pytest.raises(BadParameter, match=r"at least two vertices, got vertex_count [01]$"):
            build()

    def test_network_takes_pairs_as_unit_edges(self):
        net = Network(3, ((0, 1), (1, 2, 2.0)))
        assert net == build_network(3, [(0, 1), (1, 2, 2.0)])
        assert net.edges == ((0, 1, 1.0), (1, 2, 2.0))

    @pytest.mark.parametrize("record", [5, None, (0, 1, 1.0, 2), (0,)], ids=["int", "None", "four", "one"])
    def test_record_neither_pair_nor_triple_is_refused(self, record):
        message = r"expected \(a, b\) or \(a, b, conductance\), got "
        with pytest.raises(InvalidEdge, match=message):
            Network(2, (record,))
        with pytest.raises(InvalidEdge, match=message):
            build_network(2, [record])

    @pytest.mark.parametrize("edges", [[(0, 1.7), (1, 2.2)], [(0.0, 1.0), (1, 2)], [(False, True), (1, 2)],
                                       [(0, np.True_), (1, 2)]],
                             ids=["fractional", "integral", "bool", "numpy-bool"])
    def test_float_ids_are_refused_not_truncated(self, edges):
        with pytest.raises(BadVertexId, match="must be integers"):
            build_network(3, edges)

    def test_fractional_vertex_count_is_refused(self):
        with pytest.raises(BadParameter, match="must be an integer, got 2.5"):
            build_network(2.5, [(0, 1)])
        with pytest.raises(BadParameter, match="must be an integer, got True"):
            build_network(True, [])

    def test_network_refuses_a_fractional_id(self):
        with pytest.raises(BadVertexId, match="must be integers"):
            Network(3, ((0, 1.5, 1.0), (1, 2, 1.0)))
        # bool is an int subclass: (False, True) would be the edge (0, 1).
        for flag in (True, np.True_):
            with pytest.raises(BadVertexId, match="must be integers"):
                Network(3, ((0, flag, 1.0), (1, 2, 1.0)))
        with pytest.raises(BadVertexId, match="must be integers"):
            Network(2, ((False, True, 1.0),))

    def test_network_refuses_a_non_numeric_conductance(self):
        with pytest.raises(InvalidEdge, match="non-numeric conductance 'x'"):
            Network(3, ((0, 1, "x"), (1, 2, 1.0)))

    @pytest.mark.parametrize("text", ["2.5", b"2.5", bytearray(b"2.5"), True, np.True_],
                             ids=["str", "bytes", "bytearray", "bool", "numpy-bool"])
    def test_string_conductances_are_refused_not_parsed(self, text):
        with pytest.raises(InvalidEdge, match="non-numeric conductance"):
            Network(2, ((0, 1, text),))
        with pytest.raises(InvalidEdge, match="non-numeric conductance"):
            build_network(2, [(0, 1, text)])

    @pytest.mark.parametrize("name", sorted(OVERFLOWING_TOTALS))
    def test_total_strength_past_float64_range_is_refused(self, name):
        n, edges = OVERFLOWING_TOTALS[name]
        with pytest.raises(InvalidEdge, match="past the float64 range"):
            Network(n, tuple(edges))
        with pytest.raises(InvalidEdge, match="past the float64 range"):
            build_network(n, edges)

    def test_network_refuses_a_fractional_vertex_count(self):
        with pytest.raises(BadParameter, match="must be an integer, got 2.5"):
            Network(2.5, ((0, 1, 1.0),))
        with pytest.raises(BadParameter, match="must be an integer, got True"):
            Network(True, ())

    def test_integer_types_are_stored_as_int_and_float(self):
        net = Network(np.int64(3), ((np.int32(0), np.int64(1), 2), (1, np.uint8(2), np.float32(0.5))))
        assert type(net.vertex_count) is int
        assert net.edges == ((0, 1, 2.0), (1, 2, 0.5))
        assert {type(x) for a, b, c in net.edges for x in (a, b, c)} == {int, float}

    def test_defaults_to_unit_conductance(self):
        net = build_network(2, [(0, 1)])
        assert net.conductance(0, 1) == 1.0

    def test_edges_are_canonical(self):
        net = build_network(3, [(2, 1, 1), (1, 0, 1)])
        assert net.edges == ((0, 1, 1.0), (1, 2, 1.0))

    def test_neighbors_sorted_whatever_the_input_order(self, corpus):
        # Monte Carlo draws index into this order, so it must not depend on input order.
        rng = np.random.default_rng(77)
        for net in corpus:
            shuffled = [net.edges[i] for i in rng.permutation(net.edge_count)]
            flipped = [(b, a, c) if rng.random() < 0.5 else (a, b, c) for a, b, c in shuffled]
            rebuilt = build_network(net.vertex_count, flipped)
            for z in range(net.vertex_count):
                assert rebuilt.neighbors(z) == tuple(sorted(rebuilt.neighbors(z)))
                assert rebuilt.neighbors(z) == net.neighbors(z)

    def test_immutable(self):
        net = triangle()
        with pytest.raises(AttributeError):
            net.vertex_count = 5


class TestStrengths:
    def test_vertex_strength_triangle(self):
        assert triangle().vertex_strength(0) == 2.0

    def test_vertex_strength_weighted(self):
        net = build_network(3, WEIGHTED_TRIANGLE)
        assert net.vertex_strength(0) == 3.0

    def test_vertex_strength_path_middle(self):
        assert path3().vertex_strength(1) == 2.0

    def test_total_strength_examples(self):
        assert triangle().total_strength == 6.0
        assert build_network(3, WEIGHTED_TRIANGLE).total_strength == 12.0
        assert path3().total_strength == 4.0

    def test_bad_vertex(self):
        with pytest.raises(BadVertexId):
            triangle().vertex_strength(7)
        with pytest.raises(BadVertexId):
            triangle().vertex_strength(-1)

    def test_strength_identities_exact(self, corpus):
        # Dyadic conductances make all three quantities exactly equal.
        for net in corpus:
            per_vertex = math.fsum(net.vertex_strength(z) for z in range(net.vertex_count))
            doubled = 2.0 * math.fsum(c for _, _, c in net.edges)
            assert net.total_strength == per_vertex == doubled


class TestCutEdges:
    def test_path_edge_is_cut(self):
        assert path3().is_cut_edge(0, 1) is True

    def test_cycle_edges_are_not_cut(self):
        net = build_network(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        for a, b, _ in net.edges:
            assert net.is_cut_edge(a, b) is False

    def test_complete_edges_are_not_cut(self):
        net = build_network(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
        for a, b, _ in net.edges:
            assert net.is_cut_edge(a, b) is False

    def test_missing_edge(self):
        with pytest.raises(NoSuchEdge):
            path3().is_cut_edge(0, 2)

    def test_matches_remove_and_check_oracle_on_grown_graphs(self):
        rng = np.random.default_rng(7129)
        nets = [cycles_trees_and_chords(rng) for _ in range(40)]
        nets += [petersen(), hypercube(4), cycle(31), complete(6), unitary_cayley(12)]
        assert max(net.vertex_count for net in nets) >= 55
        assert sum(0 < len(bridges_by_union_find(net)) < net.edge_count for net in nets) >= 30
        for net in nets:
            assert net._bridges == bridges_by_union_find(net), net.edges

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_remove_and_check_oracle_exhaustively(self, n):
        for edges in connected_graphs_on(n):
            net = build_network(n, edges)
            for a, b in edges:
                remaining = [e for e in edges if e != (a, b)]
                oracle_says_cut = not union_find_connected(n, remaining)
                assert net.is_cut_edge(a, b) == oracle_says_cut


class TestRemoveEdge:
    def test_cycle_minus_edge_is_path(self):
        net = build_network(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        reduced = net.remove_edge(0, 1)
        assert reduced.edge_count == 3
        assert sorted(reduced.degree(v) for v in range(4)) == [1, 1, 2, 2]

    def test_triangle_minus_edge_is_path(self):
        reduced = triangle().remove_edge(0, 1)
        assert reduced.edges == ((0, 2, 1.0), (1, 2, 1.0))

    def test_bridge_removal_rejected(self):
        with pytest.raises(WouldDisconnect):
            path3().remove_edge(0, 1)

    def test_missing_edge_rejected(self):
        with pytest.raises(NoSuchEdge):
            path3().remove_edge(0, 2)

    def test_original_unchanged(self):
        net = triangle()
        net.remove_edge(0, 1)
        assert net.edge_count == 3

    def test_result_equals_a_validated_network(self, corpus):
        for net in corpus[:25]:
            for a, b, _ in net.edges:
                if net.is_cut_edge(a, b):
                    continue
                reduced = net.remove_edge(a, b)
                validated = Network(net.vertex_count, tuple(e for e in net.edges if e[:2] != (a, b)))
                assert reduced == validated
                assert hash(reduced) == hash(validated)
                assert np.array_equal(reduced._laplacian, validated._laplacian)

    def test_trusted_result_reads_its_tree_like_a_validated_one(self, corpus, monkeypatch):
        # The trusted result skips the connectivity check, so its tree is
        # built on first use, by the cut-edges or the certificate.
        for net in corpus[:25]:
            for a, b, _ in net.edges[:: max(1, net.edge_count // 4)]:
                if net.is_cut_edge(a, b):
                    continue
                reduced = net.remove_edge(a, b)
                assert "_tree" not in vars(reduced)
                validated = Network(net.vertex_count, reduced.edges)
                assert reduced._bridges == validated._bridges == bridges_by_union_find(validated)
                assert reduced._tree == validated._tree
        # A regular graph plus one chord, less that chord, is a trusted
        # regular network. Past the prime table, which two primes make
        # hypercube(5)'s 5^31 counts, its certificate reads the tree's depth.
        def trusted_copy(regular):
            a, b = next((a, b) for a in range(regular.vertex_count)
                        for b in range(a + 1, regular.vertex_count) if not regular.has_edge(a, b))
            return build_network(regular.vertex_count, [*regular.edges, (a, b)]).remove_edge(a, b)

        for regular in [petersen(), hypercube(4), unitary_cayley(12), cycle(9),
                        build_network(8, CUBIC_UNEVEN_TRIANGLES)]:
            reduced = trusted_copy(regular)
            assert "_tree" not in vars(reduced)
            assert check_walk_regular(reduced) == check_walk_regular(regular)
            assert reduced._tree == regular._tree
        monkeypatch.setattr(walk_regular, "_PRIMES", walk_regular._PRIMES[:2])
        regular = hypercube(5)
        reduced = trusted_copy(regular)
        assert "_tree" not in vars(reduced)
        assert check_walk_regular(reduced) == check_walk_regular(regular)
        assert "_tree" in vars(reduced)
        assert reduced._tree == regular._tree

    def test_refusals_keep_their_messages(self):
        net = path3()
        with pytest.raises(WouldDisconnect, match=r"^\(0, 1\) is a cut-edge; removal would disconnect the graph$"):
            net.remove_edge(0, 1)
        with pytest.raises(NoSuchEdge, match=r"^\(0, 2\) is not an edge$"):
            net.remove_edge(0, 2)
        with pytest.raises(BadVertexId, match=r"^vertex 3 outside 0\.\.2$"):
            net.remove_edge(0, 3)

    def test_remove_then_readd_round_trips(self, corpus):
        for net in corpus[:25]:
            removable = [(a, b, c) for a, b, c in net.edges if not net.is_cut_edge(a, b)]
            if not removable:
                continue
            a, b, c = removable[0]
            rebuilt = build_network(
                net.vertex_count, list(net.remove_edge(a, b).edges) + [(a, b, c)]
            )
            assert rebuilt == net


class TestAddPendant:
    def test_triangle_gains_strength_two(self):
        extended, tip = triangle().add_pendant_vertex(0)
        assert extended.vertex_count == 4
        assert tip == 3
        assert extended.total_strength == 8.0
        assert extended.degree(tip) == 1

    def test_path_middle(self):
        extended, tip = path3().add_pendant_vertex(1)
        assert extended.degree(tip) == 1
        assert extended.vertex_strength(1) == 3.0

    def test_weighted_triangle(self):
        net = build_network(3, WEIGHTED_TRIANGLE)
        extended, _ = net.add_pendant_vertex(0, 1.0)
        assert extended.total_strength == 14.0

    def test_strengths_shift_only_at_anchor(self, corpus):
        for net in corpus[:20]:
            z = net.vertex_count // 2
            extended, tip = net.add_pendant_vertex(z, 0.25)
            assert extended.vertex_strength(z) == net.vertex_strength(z) + 0.25
            assert extended.vertex_strength(tip) == 0.25
            for v in range(net.vertex_count):
                if v != z:
                    assert extended.vertex_strength(v) == net.vertex_strength(v)

    def test_bad_vertex(self):
        with pytest.raises(BadVertexId):
            triangle().add_pendant_vertex(9)


class TestEdgeRef:
    def test_normalizes_order(self):
        edge = EdgeRef(3, 1)
        assert (edge.a, edge.b) == (1, 3)

    def test_rejects_degenerate(self):
        with pytest.raises(BadVertexId):
            EdgeRef(2, 2)
        with pytest.raises(BadVertexId):
            EdgeRef(-1, 2)

    def test_rejects_fractional_id(self):
        with pytest.raises(BadVertexId, match="integers"):
            EdgeRef(1.5, 0)
        for flag in (True, np.True_):
            with pytest.raises(BadVertexId, match="integers"):
                EdgeRef(flag, 0)

    def test_rejects_string_ids(self):
        with pytest.raises(BadVertexId, match="integers"):
            EdgeRef("b", "a")

    def test_stores_python_ints(self):
        edge = EdgeRef(np.int64(3), np.int32(1))
        assert (edge.a, edge.b) == (1, 3)
        assert type(edge.a) is int and type(edge.b) is int


def test_numpy_integer_vertex_ids_accepted():
    net = triangle()
    assert net.vertex_strength(np.int64(0)) == 2.0


def test_direct_construction_validates_too():
    with pytest.raises(DisconnectedGraph):
        Network(3, ((0, 1, 1.0),))
