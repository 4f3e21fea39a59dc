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

    @pytest.mark.parametrize("net", [hypercube(7), hypercube(8), unitary_cayley(64)],
                             ids=lambda g: f"n{g.vertex_count}m{g.edge_count}")
    def test_large_families_certify(self, net):
        # Counts reach 7^127 in hypercube(7): 12 primes of the table, and
        # 8^255 in hypercube(8): 24 primes. Nine distinct eigenvalues stop
        # hypercube(8) at walk length 8, with 255 lengths implied.
        report = check_walk_regular(net)
        assert report.is_walk_regular is True
        assert report.checked_k_max == net.vertex_count - 1


def blow_up(net, m):
    """Each vertex replaced by m independent copies, each edge by K_{m,m}.

    The adjacency becomes ``A (x) J_m``: eigenvalues ``m * theta`` and 0,
    and closed-walk counts ``m^(k-1)`` times the original ones.
    """
    return build_network(net.vertex_count * m, [(a * m + i, b * m + j) for a, b, _ in net.edges
                                                  for i in range(m) for j in range(m)])


@pytest.fixture
def scans(monkeypatch):
    """``(polynomial degree, prime count)`` of every Horner pass the
    certificate runs: the degree is ``t`` on the candidate's pass and
    ``n - 1`` on the plain scan."""
    passes = []
    scan = walk_regular._scan

    def recording(adjacency, degree, primes, coefficients):
        passes.append((len(coefficients) - 1, len(primes)))
        return scan(adjacency, degree, primes, coefficients)

    monkeypatch.setattr(walk_regular, "_scan", recording)
    return passes


class TestShortRoute:
    @pytest.mark.parametrize("net, t", [(petersen(), 3), (complete(24), 2), (hypercube(6), 7),
                                        (unitary_cayley(48), 5)],
                             ids=["petersen", "complete24", "hypercube6", "unitary_cayley48"])
    def test_scan_stops_at_the_number_of_distinct_eigenvalues(self, net, t, scans):
        # Each count bound sum |c_i| d^i is below 2^32: one prime.
        report = check_walk_regular(net)
        assert scans == [(t, 1)]
        assert report.is_walk_regular and report.checked_k_max == net.vertex_count - 1

    def test_horner_residues_are_reduced_before_they_pass_float_exactness(self, scans, monkeypatch):
        # 2^50 - 27 and 2^50 - 35 are prime. Residues of hypercube(5)'s
        # negative coefficients lie near 2^50, and two products by the
        # 5-regular adjacency take them past 2^53 unless they are reduced.
        monkeypatch.setattr(walk_regular, "_PRIMES", (2**50 - 27, 2**50 - 35))
        assert check_walk_regular(hypercube(5)).is_walk_regular
        assert scans == [(6, 1)]

    def test_long_cycle_keeps_its_candidate(self, scans):
        # Expanded smallest root first, cycle(80)'s 41 distinct eigenvalues
        # round to the integer polynomial, whose count bound needs two primes.
        net = cycle(80)
        assert check_walk_regular(net) == walk_regular_by_python_ints(net)
        assert scans == [(41, 2)]

    def test_primes_too_large_for_the_diagonal_term_are_refused(self):
        # 2 * p < 2^53 <= 3 * p: a product by a 2-regular adjacency stays
        # exact, but each Horner step also adds a residue to the diagonal.
        # The second prime has 3 * p < 2^53.
        with pytest.raises(BadParameter, match=r"\(degree \+ 1\) \* 4503599627370449 reaches 2\^53"):
            walk_regular._leading_primes(2, 2**5, (4503599627370449,))
        assert walk_regular._leading_primes(2, 2**5, (3002399751580319,)) == (3002399751580319,)

    def test_violation_below_the_polynomial_degree_comes_from_the_short_scan(self, scans):
        # 16 vertices, 6-regular, six distinct eigenvalues: the scan stops at
        # k = 5 and finds the uneven triangle counts at k = 3.
        net = blow_up(build_network(8, CUBIC_UNEVEN_TRIANGLES), 2)
        report = check_walk_regular(net)
        assert scans == [(6, 1)]
        assert report.first_violation == WalkCountMismatch(k=3, x=0, y=6)
        assert report == walk_regular_by_python_ints(net)

    @pytest.mark.parametrize("net", [petersen(), unitary_cayley(12), complete(24), hypercube(5),
                                     blow_up(petersen(), 3)],
                             ids=lambda g: f"n{g.vertex_count}m{g.edge_count}")
    def test_perturbed_polynomial_falls_back_to_the_full_scan(self, net, scans, monkeypatch):
        candidate = walk_regular._candidate

        def perturbed(adjacency):
            coefficients = candidate(adjacency)
            return [coefficients[0] + 1, *coefficients[1:]]

        monkeypatch.setattr(walk_regular, "_candidate", perturbed)
        assert check_walk_regular(net) == walk_regular_by_python_ints(net)
        assert len(scans) == 2 and scans[-1][0] == net.vertex_count - 1

    def test_unproven_polynomial_never_certifies(self, scans, monkeypatch):
        # x^2 checks only k = 2, where the counts agree; only the proof that
        # x^2 does not annihilate A keeps the k = 3 witness.
        monkeypatch.setattr(walk_regular, "_candidate", lambda adjacency: [0, 0, 1])
        net = build_network(8, CUBIC_UNEVEN_TRIANGLES)
        assert check_walk_regular(net) == walk_regular_by_python_ints(net)
        assert scans == [(2, 1), (7, 1)]

    def test_violation_at_the_polynomial_degree_comes_from_the_one_pass(self, scans, monkeypatch):
        # x^3 does not annihilate A, but its pass reaches k = 3 and finds the
        # uneven triangle counts there, so no plain scan follows.
        monkeypatch.setattr(walk_regular, "_candidate", lambda adjacency: [0, 0, 0, 1])
        net = build_network(8, CUBIC_UNEVEN_TRIANGLES)
        report = check_walk_regular(net)
        assert scans == [(3, 1)]
        assert report.first_violation == WalkCountMismatch(k=3, x=0, y=3)
        assert report == walk_regular_by_python_ints(net)

    def test_coefficients_past_float_range_give_no_candidate(self):
        # prod(x - theta) over 100..399 overflows float64; rounding inf or
        # nan would raise instead of falling back.
        diagonal = np.diag(np.arange(100.0, 400.0))
        assert walk_regular._candidate(diagonal) is None

    def test_small_graphs_run_the_candidate_pass_first(self, scans):
        # The candidate's pass runs even where it is no shorter than the
        # plain scan: K_2's x^2 - 1 decides in one product, where x^1 would
        # take none, and cycle(3)'s x^2 - x - 2 in one, as x^2 would.
        # cycle(6) has four distinct eigenvalues: three products.
        report = check_walk_regular(build_network(2, [(0, 1)]))
        assert report.is_walk_regular and report.checked_k_max == 1
        assert scans == [(2, 1)]
        scans.clear()
        assert check_walk_regular(cycle(3)).is_walk_regular
        assert scans == [(2, 1)]
        scans.clear()
        assert check_walk_regular(cycle(6)).is_walk_regular
        assert scans == [(4, 1)]


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
    def test_random_regular_reports_match(self, monkeypatch):
        # Whenever there is a candidate, its pass runs first; the plain scan
        # follows only a candidate's pass that does not decide.
        candidate, scan = walk_regular._candidate, walk_regular._scan
        candidates, polynomials = [], []

        def recording_candidate(adjacency):
            candidates.append(candidate(adjacency))
            return candidates[-1]

        def recording_scan(adjacency, degree, primes, coefficients):
            polynomials.append(coefficients)
            return scan(adjacency, degree, primes, coefficients)

        monkeypatch.setattr(walk_regular, "_candidate", recording_candidate)
        monkeypatch.setattr(walk_regular, "_scan", recording_scan)
        corpus = random_regular_corpus()
        assert len(corpus) >= 200
        first = 0
        for net in corpus:
            candidates.clear()
            polynomials.clear()
            assert check_walk_regular(net) == walk_regular_by_python_ints(net), net.edges
            if candidates[0] is not None:
                assert polynomials[0] == candidates[0]
                first += 1
            assert polynomials[1:] in ([], [[0] * (net.vertex_count - 1) + [1]])
        assert first > len(corpus) // 2

    def test_random_regular_reports_match_on_the_plain_scan_alone(self, scans, monkeypatch):
        # Without a candidate the plain scan decides every graph alone, so it
        # keeps its own oracle coverage.
        monkeypatch.setattr(walk_regular, "_candidate", lambda adjacency: None)
        for net in random_regular_corpus():
            scans.clear()
            assert check_walk_regular(net) == walk_regular_by_python_ints(net), net.edges
            assert [degree for degree, _ in scans] == [net.vertex_count - 1]

    def test_reports_match_when_single_primes_collide(self, monkeypatch):
        # Counts often agree modulo one small prime while differing exactly, so
        # this fails unless every chosen prime is consulted. Shuffling the table
        # puts the smallest primes at every position of the chosen set.
        small = [p for p in range(2, 100) if all(p % q for q in range(2, p))]
        rng = np.random.default_rng(5081)
        for net in random_regular_corpus(count=100, seed=5081):
            monkeypatch.setattr(walk_regular, "_PRIMES", tuple(rng.permutation(small).tolist()))
            assert check_walk_regular(net) == walk_regular_by_python_ints(net), net.edges

    def test_blown_up_regular_reports_match(self, scans):
        # A blow-up adds only the eigenvalue 0 to the spectrum while doubling
        # n, so most of these take the candidate's pass, witness included.
        short = 0
        for net in map(blow_up, random_regular_corpus(count=40, seed=6011), [2] * 40):
            scans.clear()
            assert check_walk_regular(net) == walk_regular_by_python_ints(net), net.edges
            short += scans[0][0] < net.vertex_count - 1
        assert short >= 30

    def test_two_jump_circulants_match(self, scans):
        # Every connected circulant C_n(a, b) with n <= 20: up to 11 distinct
        # eigenvalues, which is at most n / 2 + 1, so the candidate's pass
        # always undercuts the plain scan and decides alone, proving p(A) = 0
        # on every one of these walk-regular graphs.
        first = []
        for n in range(5, 21):
            for a, b in combinations(range(1, n // 2 + 1), 2):
                if math.gcd(a, b, n) > 1:
                    continue
                edges = {tuple(sorted((v, (v + j) % n))) for v in range(n) for j in (a, b)}
                net = build_network(n, sorted(edges))
                scans.clear()
                assert check_walk_regular(net) == walk_regular_by_python_ints(net), (n, a, b)
                first.append(len(scans) == 1 and scans[0][0] < n - 1)
        assert len(first) == 248 and all(first)

    @pytest.mark.parametrize(
        "net",
        [*CERTIFIED, build_network(8, CUBIC_UNEVEN_TRIANGLES), complete(24)],
        ids=lambda g: f"n{g.vertex_count}m{g.edge_count}",
    )
    def test_fixture_reports_match(self, net):
        assert check_walk_regular(net) == walk_regular_by_python_ints(net)


def moore_fewest_roots(degree, n):
    """Least diameter plus one that the Moore bound allows: a vertex reaches
    at most ``d (d-1)^(i-1)`` others at distance ``i``."""
    reach, layer, least = 1, degree, 1
    while reach < n:
        reach, layer, least = reach + layer, layer * (degree - 1), least + 1
    return least


def distinct_eigenvalue_count(net):
    adjacency = np.zeros((net.vertex_count, net.vertex_count))
    for a, b, _ in net.edges:
        adjacency[a, b] = adjacency[b, a] = 1.0
    return 1 + int(np.count_nonzero(np.diff(np.linalg.eigvalsh(adjacency)) > 1e-6))


class TestBreadthFirstBound:
    """The certificate's least ``t`` is the breadth-first depth plus one."""

    def test_lies_between_the_moore_bound_and_the_distinct_eigenvalues(self):
        families = [*CERTIFIED, build_network(8, CUBIC_UNEVEN_TRIANGLES), complete(24), hypercube(7),
                    unitary_cayley(64), cycle(66)]
        blown_up = map(blow_up, random_regular_corpus(count=40, seed=6011), [2] * 40)
        for net in (*random_regular_corpus(), *blown_up, *families):
            parent, depth = net._tree
            graph = nx.Graph([(a, b) for a, b, _ in net.edges])
            assert max(depth) == nx.eccentricity(graph, 0)
            assert all(net.has_edge(v, p) and depth[v] == depth[p] + 1
                       for v, p in enumerate(parent) if v)
            degree = net.degree(0)
            least = max(depth) + 1
            assert moore_fewest_roots(degree, net.vertex_count) <= least <= distinct_eigenvalue_count(net)


class TestModuli:
    @pytest.mark.parametrize("degree, n", [(1, 3), (2, 64), (3, 8), (7, 128), (23, 24), (63, 64),
                                           (255, 256)])
    def test_product_exceeds_count_bound_and_products_stay_exact(self, degree, n):
        primes = walk_regular._leading_primes(degree, degree ** (n - 1), walk_regular._PRIMES)
        assert math.prod(primes) > degree ** (n - 1)
        assert all((degree + 1) * p < 2**53 for p in primes)

    def test_table_is_pairwise_coprime(self):
        assert all(math.gcd(p, q) == 1 for p, q in combinations(walk_regular._PRIMES, 2))

    def test_count_bound_beyond_table_raises(self, monkeypatch):
        # cycle(130) counts reach 2^129 > 2^64: two 32-bit primes cannot tell
        # them apart. Float error leaves its 66 distinct eigenvalues no
        # candidate, and the exact one would have a bound past 2^66 anyway.
        monkeypatch.setattr(walk_regular, "_PRIMES", walk_regular._PRIMES[:2])
        net = cycle(130)
        assert walk_regular._leading_primes(2, 2**129, walk_regular._PRIMES) is None
        assert walk_regular._candidate((net._laplacian < 0.0).astype(np.float64)) is None
        with pytest.raises(BadParameter, match="exceed the product"):
            check_walk_regular(net)
        assert check_walk_regular(hypercube(4)).is_walk_regular
        # One prime is not past 2^33 either, the least bound its breadth-first
        # depth allows a pass, so the refusal comes before the Laplacian.
        monkeypatch.setattr(walk_regular, "_PRIMES", walk_regular._PRIMES[:1])
        net = cycle(66)
        with pytest.raises(BadParameter, match="exceed the product of the 1 tabulated primes"):
            check_walk_regular(net)
        assert "_laplacian" not in vars(net)

    def test_count_bound_beyond_table_certifies_on_the_short_route(self, monkeypatch, scans):
        # hypercube(5) counts reach 5^31 > 2^64, but its six distinct
        # eigenvalues bound the candidate's pass by 28 575: one prime.
        monkeypatch.setattr(walk_regular, "_PRIMES", walk_regular._PRIMES[:2])
        net = hypercube(5)
        assert walk_regular._leading_primes(5, 5**31, walk_regular._PRIMES) is None
        assert check_walk_regular(net) == walk_regular_by_python_ints(net)
        assert scans == [(6, 1)]

    @pytest.mark.parametrize("n", [260, 300])
    def test_complete_graphs_past_the_table_certify(self, n, scans):
        # (n-1)^(n-1) passes the table's 2^2047; x^2 - (n-2) x - (n-1) needs one prime.
        assert walk_regular._leading_primes(n - 1, (n - 1) ** (n - 1), walk_regular._PRIMES) is None
        report = check_walk_regular(complete(n))
        assert report.is_walk_regular and report.checked_k_max == n - 1
        assert scans == [(2, 1)]

    def test_unproven_polynomial_past_the_table_raises(self, monkeypatch):
        # Past the table only the candidate's pass can certify; a candidate
        # whose proof fails leaves nothing to fall back to.
        candidate = walk_regular._candidate

        def perturbed(adjacency):
            coefficients = candidate(adjacency)
            return [coefficients[0] + 1, *coefficients[1:]]

        monkeypatch.setattr(walk_regular, "_PRIMES", walk_regular._PRIMES[:2])
        monkeypatch.setattr(walk_regular, "_candidate", perturbed)
        with pytest.raises(BadParameter, match="exceed the product of the 2 tabulated primes"):
            check_walk_regular(hypercube(5))

    def test_residue_memory_past_the_table_is_refused_before_allocating(self, monkeypatch):
        # complete(260): past the table, one prime and a 260 x 260 stack.
        monkeypatch.setattr(walk_regular, "MAX_RESIDUE_BYTES", 260 * 260 * 8 - 1)
        net = complete(260)
        with pytest.raises(BadParameter, match=r"n=260 needs 1 primes and 540800 bytes"):
            check_walk_regular(net)
        assert "_laplacian" not in vars(net)

    def test_degree_beyond_float_exactness_raises(self, monkeypatch):
        # 3 * p < 2^53 <= 4 * p for this prime: a Horner step of a 2-regular
        # graph stays exact, one of a 3-regular graph does not.
        monkeypatch.setattr(walk_regular, "_PRIMES", (3002399751580319,))
        with pytest.raises(BadParameter, match="2\\^53"):
            check_walk_regular(hypercube(3))
        assert check_walk_regular(cycle(6)).is_walk_regular
        # 3 * p >= 2^53 for this prime just below 2^52.
        monkeypatch.setattr(walk_regular, "_PRIMES", (4503599627370449,))
        with pytest.raises(BadParameter, match="2\\^53"):
            check_walk_regular(cycle(6))

    def test_residue_memory_is_refused_before_allocating(self, monkeypatch):
        # hypercube(3): one prime, an 8 x 8 stack of 512 bytes.
        monkeypatch.setattr(walk_regular, "MAX_RESIDUE_BYTES", 511)
        net = hypercube(3)
        with pytest.raises(BadParameter, match=r"n=8 needs 1 primes and 512 bytes"):
            check_walk_regular(net)
        assert "_laplacian" not in vars(net)
        monkeypatch.setattr(walk_regular, "MAX_RESIDUE_BYTES", 512)
        assert check_walk_regular(net).is_walk_regular

    def test_default_memory_limit_admits_q7_and_refuses_cycle_2000(self):
        def primes(degree, n):
            return walk_regular._leading_primes(degree, degree ** (n - 1), walk_regular._PRIMES)

        assert len(primes(7, 128)) * 128 * 128 * 8 == 1.5 * 2**20
        assert len(primes(2, 2000)) == 63
        assert len(primes(2, 2000)) * 2000 * 2000 * 8 > walk_regular.MAX_RESIDUE_BYTES

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
