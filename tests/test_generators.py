import math

import numpy as np
import pytest

from ohmwalk import BadParameter, complete, cycle, hypercube, petersen, unitary_cayley
from support import totient


class TestCycle:
    def test_three_is_triangle(self):
        net = cycle(3)
        assert net.edges == ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0))

    def test_four(self):
        net = cycle(4)
        assert net.vertex_count == 4
        assert net.edge_count == 4
        assert all(net.degree(v) == 2 for v in range(4))

    def test_too_small(self):
        with pytest.raises(BadParameter):
            cycle(2)


class TestComplete:
    def test_two_is_single_edge(self):
        assert complete(2).edges == ((0, 1, 1.0),)

    def test_five(self):
        net = complete(5)
        assert net.edge_count == 10
        assert all(net.degree(v) == 4 for v in range(5))

    def test_too_small(self):
        with pytest.raises(BadParameter, match="at least two vertices, got vertex_count 1"):
            complete(1)


class TestHypercube:
    def test_one_is_single_edge(self):
        assert hypercube(1).edges == ((0, 1, 1.0),)

    def test_three(self):
        net = hypercube(3)
        assert net.vertex_count == 8
        assert net.edge_count == 12
        assert all(net.degree(v) == 3 for v in range(8))

    def test_edges_flip_one_bit(self):
        for a, b, _ in hypercube(4).edges:
            assert bin(a ^ b).count("1") == 1

    def test_regularity_and_count(self):
        for d in range(1, 6):
            net = hypercube(d)
            assert net.edge_count == d * 2 ** (d - 1)
            assert all(net.degree(v) == d for v in range(net.vertex_count))

    def test_too_small(self):
        with pytest.raises(BadParameter):
            hypercube(0)


class TestUnitaryCayley:
    def test_prime_gives_complete(self):
        assert unitary_cayley(5).edges == complete(5).edges

    def test_six_is_hexagon(self):
        net = unitary_cayley(6)
        assert net.edges == (
            (0, 1, 1.0), (0, 5, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0),
        )
        assert all(net.degree(v) == 2 for v in range(6))

    def test_eight(self):
        net = unitary_cayley(8)
        assert net.edge_count == 16
        assert all(net.degree(v) == 4 for v in range(8))

    @pytest.mark.parametrize("n", range(3, 17))
    def test_totient_regular(self, n):
        net = unitary_cayley(n)
        phi = totient(n)
        assert all(net.degree(v) == phi for v in range(n))
        assert 2 * net.edge_count == n * phi

    def test_adjacency_rule(self):
        net = unitary_cayley(12)
        for a in range(12):
            for b in range(a + 1, 12):
                assert net.has_edge(a, b) == (math.gcd(b - a, 12) == 1)

    def test_too_small(self):
        with pytest.raises(BadParameter):
            unitary_cayley(2)


class TestPetersen:
    def test_counts(self):
        net = petersen()
        assert net.vertex_count == 10
        assert net.edge_count == 15
        assert all(net.degree(v) == 3 for v in range(10))

    def test_triangle_free(self):
        # Girth 5: the cube of the adjacency matrix has a zero diagonal.
        net = petersen()
        adjacency = np.zeros((10, 10), dtype=np.int64)
        for a, b, _ in net.edges:
            adjacency[a, b] = adjacency[b, a] = 1
        cubed = np.linalg.matrix_power(adjacency, 3)
        assert np.all(np.diag(cubed) == 0)


class TestSizeArgument:
    @pytest.mark.parametrize("generate, size", [(cycle, 3.5), (hypercube, 2.5), (unitary_cayley, "5"),
                                               (complete, 4.0), (cycle, None), (complete, True)],
                             ids=["cycle-float", "hypercube-float", "unitary_cayley-str",
                                  "complete-integral-float", "cycle-none", "complete-bool"])
    def test_non_integer_is_refused(self, generate, size):
        with pytest.raises(BadParameter, match=r"^[nd] must be an integer, got "):
            generate(size)

    @pytest.mark.parametrize("generate", [cycle, complete, hypercube, unitary_cayley],
                             ids=lambda f: f.__name__)
    def test_numpy_integer_is_accepted(self, generate):
        net = generate(np.int64(4))
        assert net == generate(4)
        assert type(net.vertex_count) is int


class TestTotient:
    @pytest.mark.parametrize("n", range(1, 200))
    def test_matches_gcd_count(self, n):
        brute = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert totient(n) == brute
