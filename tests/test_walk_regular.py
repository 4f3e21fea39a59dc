import math
from itertools import combinations

import networkx as nx
import numpy as np
import pytest

from ohmwalk import (
    BadParameter,
    NonUnitConductance,
    WalkCountMismatch,
    build_network,
    check_walk_regular,
    complete,
    cycle,
    effective_resistance_matrix,
    hitting_time_matrix,
    hypercube,
    petersen,
    unitary_cayley,
)
from ohmwalk import walk_regular
from support import (
    CUBIC_UNEVEN_TRIANGLES,
    STAR_K13,
    WEIGHTED_TRIANGLE,
    hitting_symmetry_defect,
    walk_regular_by_python_ints,
)

CERTIFIED = [cycle(6), cycle(9), complete(5), hypercube(3), hypercube(4), petersen(),
             unitary_cayley(8), unitary_cayley(12)]


class TestCertificate:
    @pytest.mark.parametrize("net", CERTIFIED, ids=lambda g: f"n{g.vertex_count}m{g.edge_count}")
    def test_symmetric_families_certify(self, net):
        report = check_walk_regular(net)
        assert report.is_regular is True
        assert report.is_walk_regular is True
        assert report.first_violation is None
        assert report.checked_k_max == net.vertex_count - 1

    def test_petersen_details(self):
        report = check_walk_regular(petersen())
        assert report.is_walk_regular and report.checked_k_max == 9

    def test_star_fails_on_degrees(self):
        report = check_walk_regular(build_network(4, STAR_K13))
        assert report.is_regular is False
        assert report.is_walk_regular is False
        assert report.first_violation is None

    def test_uneven_triangle_counts_fail_at_length_three(self):
        report = check_walk_regular(build_network(8, CUBIC_UNEVEN_TRIANGLES))
        assert report.is_regular is True
        assert report.is_walk_regular is False
        assert report.first_violation == WalkCountMismatch(k=3, x=0, y=3)
        assert report.checked_k_max == 2

    def test_violation_witness_has_differing_counts(self):
        # Recount closed 3-walks for the reported vertices independently.
        net = build_network(8, CUBIC_UNEVEN_TRIANGLES)
        violation = check_walk_regular(net).first_violation
        adjacency = np.zeros((8, 8), dtype=np.int64)
        for a, b, _ in net.edges:
            adjacency[a, b] = adjacency[b, a] = 1
        powered = np.linalg.matrix_power(adjacency, violation.k)
        assert powered[violation.x, violation.x] != powered[violation.y, violation.y]

    def test_single_edge_is_vacuously_walk_regular(self):
        report = check_walk_regular(build_network(2, [(0, 1)]))
        assert report.is_walk_regular is True
        assert report.checked_k_max == 1

    def test_rejects_weighted(self):
        with pytest.raises(NonUnitConductance):
            check_walk_regular(build_network(3, WEIGHTED_TRIANGLE))

    def test_counts_stay_exact_beyond_machine_integers(self):
        # Closed-walk counts in complete(24) pass 23^20 > 2^63; any overflow
        # would corrupt the constant-diagonal comparison.
        report = check_walk_regular(complete(24))
        assert report.is_walk_regular is True
        assert report.checked_k_max == 23

    @pytest.mark.parametrize("net", [hypercube(7), unitary_cayley(64)],
                             ids=lambda g: f"n{g.vertex_count}m{g.edge_count}")
    def test_large_families_certify(self, net):
        # Counts reach 7^127 in hypercube(7): 12 primes of the table.
        report = check_walk_regular(net)
        assert report.is_walk_regular is True
        assert report.checked_k_max == net.vertex_count - 1


def random_regular_corpus(count: int = 240, seed: int = 4417):
    """Seeded connected random regular graphs, n in 6..20 and d in 3..5."""
    rng = np.random.default_rng(seed)
    corpus = []
    while len(corpus) < count:
        d = int(rng.integers(3, 6))
        n = int(rng.integers(6, 21))
        if n * d % 2:
            continue
        graph = nx.random_regular_graph(d, n, seed=int(rng.integers(2**31)))
        if nx.is_connected(graph):
            corpus.append(build_network(n, list(graph.edges())))
    return corpus


class TestAgainstPythonInts:
    def test_random_regular_reports_match(self):
        corpus = random_regular_corpus()
        assert len(corpus) >= 200
        for net in corpus:
            assert check_walk_regular(net) == walk_regular_by_python_ints(net), net.edges

    def test_reports_match_when_single_primes_collide(self, monkeypatch):
        # Counts often agree modulo one small prime while differing exactly, so
        # this fails unless every chosen prime is consulted. Shuffling the table
        # puts the smallest primes at every position of the chosen set.
        small = [p for p in range(2, 100) if all(p % q for q in range(2, p))]
        rng = np.random.default_rng(5081)
        for net in random_regular_corpus(count=100, seed=5081):
            monkeypatch.setattr(walk_regular, "_PRIMES", tuple(rng.permutation(small).tolist()))
            assert check_walk_regular(net) == walk_regular_by_python_ints(net), net.edges

    @pytest.mark.parametrize(
        "net",
        [*CERTIFIED, build_network(8, CUBIC_UNEVEN_TRIANGLES), complete(24)],
        ids=lambda g: f"n{g.vertex_count}m{g.edge_count}",
    )
    def test_fixture_reports_match(self, net):
        assert check_walk_regular(net) == walk_regular_by_python_ints(net)


class TestModuli:
    @pytest.mark.parametrize("degree, n", [(1, 3), (2, 64), (3, 8), (7, 128), (23, 24), (63, 64),
                                           (255, 256)])
    def test_product_exceeds_count_bound_and_products_stay_exact(self, degree, n):
        primes = walk_regular._moduli(degree, n)
        assert math.prod(primes) > degree ** (n - 1)
        assert all(degree * p < 2**53 for p in primes)

    def test_table_is_pairwise_coprime(self):
        assert all(math.gcd(p, q) == 1 for p, q in combinations(walk_regular._PRIMES, 2))

    def test_count_bound_beyond_table_raises(self, monkeypatch):
        # hypercube(5) counts reach 5^31 > 2^64: two 32-bit primes cannot tell them apart.
        monkeypatch.setattr(walk_regular, "_PRIMES", walk_regular._PRIMES[:2])
        with pytest.raises(BadParameter, match="exceed the product"):
            check_walk_regular(hypercube(5))
        assert check_walk_regular(hypercube(4)).is_walk_regular

    def test_degree_beyond_float_exactness_raises(self, monkeypatch):
        # 3 * p >= 2^53 for this prime just below 2^52; 2 * p is still exact.
        monkeypatch.setattr(walk_regular, "_PRIMES", (4503599627370449,))
        with pytest.raises(BadParameter, match="2\\^53"):
            check_walk_regular(hypercube(3))
        assert check_walk_regular(cycle(6)).is_walk_regular

    def test_irregular_graphs_never_reach_the_table(self, monkeypatch):
        monkeypatch.setattr(walk_regular, "_PRIMES", ())
        assert check_walk_regular(build_network(4, STAR_K13)).is_regular is False


class TestSymmetryDefect:
    def test_hypercube_is_symmetric(self):
        assert hitting_symmetry_defect(hypercube(3)) <= 1e-9

    def test_petersen_is_symmetric(self):
        assert hitting_symmetry_defect(petersen()) <= 1e-9

    def test_path_defect_value(self):
        # Endpoint-to-center is 1 step, center-to-endpoint is 3: gap 2.
        net = build_network(3, [(0, 1), (1, 2)])
        assert hitting_symmetry_defect(net) == pytest.approx(2.0, rel=1e-9)

    @pytest.mark.parametrize("net", CERTIFIED, ids=lambda g: f"n{g.vertex_count}m{g.edge_count}")
    def test_certified_graphs_have_zero_defect(self, net):
        assert check_walk_regular(net).is_walk_regular
        assert hitting_symmetry_defect(net) <= 1e-9

    @pytest.mark.parametrize("net", CERTIFIED, ids=lambda g: f"n{g.vertex_count}m{g.edge_count}")
    def test_certified_graphs_scale_hitting_with_resistance(self, net):
        hitting = hitting_time_matrix(net).hitting
        resistance = effective_resistance_matrix(net).resistance
        scaled = net.edge_count * resistance
        gap = np.abs(hitting - scaled) / np.maximum(1.0, np.abs(scaled))
        assert gap.max() <= 1e-9
