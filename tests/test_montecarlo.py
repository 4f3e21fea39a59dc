import json
from dataclasses import asdict

import numpy as np
import pytest

import ohmwalk.montecarlo as mc
from ohmwalk import (
    BadParameter,
    BadVertexId,
    WalkLengthExceeded,
    build_network,
    complete,
    cycle,
    estimate_hitting_time,
    estimate_return_time,
    excursion_count_check,
    hypercube,
    petersen,
    return_time,
    verify_pendant_identities,
)
from support import (
    WEIGHTED_TRIANGLE,
    WalkSampler,
    excursion_walks_by_loop,
    hitting_walks_by_loop,
    mc_estimate,
    return_walks_by_loop,
)


def k3():
    return complete(3)


def weighted_triangle():
    return build_network(3, WEIGHTED_TRIANGLE)


class TestDeterminism:
    def test_repeat_runs_are_bit_identical(self):
        first = estimate_return_time(complete(4), 0, 500, 7)
        second = estimate_return_time(complete(4), 0, 500, 7)
        assert first == second

    def test_hitting_repeat_runs_are_bit_identical(self):
        first = estimate_hitting_time(cycle(6), 0, 3, 300, 11)
        second = estimate_hitting_time(cycle(6), 0, 3, 300, 11)
        assert first == second

    def test_different_seeds_differ(self):
        a = estimate_return_time(complete(4), 0, 500, 1)
        b = estimate_return_time(complete(4), 0, 500, 2)
        assert a.mean != b.mean

    def test_estimate_carries_query_tokens(self):
        est = estimate_return_time(complete(4), 0, 123, 99)
        assert est.samples == 123
        assert est.seed == 99


class TestDegenerateWalks:
    def test_single_edge_return_is_exactly_two(self):
        est = estimate_return_time(hypercube(1), 0, 50, 3)
        assert est.mean == 2.0
        assert est.stderr == 0.0

    def test_forced_step_hitting_is_exactly_one(self):
        est = estimate_hitting_time(complete(2), 0, 1, 50, 3)
        assert est.mean == 1.0
        assert est.stderr == 0.0

    def test_single_sample_has_zero_stderr(self):
        est = estimate_return_time(complete(4), 0, 1, 5)
        assert est.stderr == 0.0
        assert est.samples == 1


class TestConcordance:
    def test_return_time_complete4(self):
        est = estimate_return_time(complete(4), 0, 20000, 42)
        assert abs(est.mean - 4.0) <= 3 * est.stderr

    def test_return_time_weighted_triangle(self):
        net = weighted_triangle()
        est = estimate_return_time(net, 0, 20000, 42)
        assert abs(est.mean - return_time(net, 0)) <= 3 * est.stderr
        assert return_time(net, 0) == pytest.approx(4.0)

    def test_hitting_cycle6_neighbors(self):
        est = estimate_hitting_time(cycle(6), 0, 1, 20000, 42)
        assert abs(est.mean - 5.0) <= 3 * est.stderr

    def test_hitting_hypercube3_neighbors(self):
        est = estimate_hitting_time(hypercube(3), 0, 1, 20000, 42)
        assert abs(est.mean - 7.0) <= 3 * est.stderr

    def test_seeded_trials_rarely_miss_at_four_stderr(self):
        cases = (
            [("return", cycle(5), 5.0)] * 2
            + [("hitting", complete(4), 3.0)]
            + [("pendant", k3(), 7.0)]
        )
        trials = 0
        hits = 0
        for base_seed, (kind, net, exact) in enumerate(cases * 30):
            seed = 5000 + base_seed
            if kind == "return":
                est = estimate_return_time(net, 0, 400, seed)
            elif kind == "hitting":
                est = estimate_hitting_time(net, 0, 1, 400, seed)
            else:
                est = verify_pendant_identities(net, 0, 400, seed).lhs
            trials += 1
            hits += abs(est.mean - exact) <= 4 * est.stderr
        assert trials == 120
        assert hits >= int(np.ceil(0.99 * trials))


class TestPendantIdentities:
    def test_triangle(self):
        check = verify_pendant_identities(k3(), 0, 20000, 42)
        assert check.c_plus_1 == 7.0
        assert check.cz_formula == pytest.approx(7.0, rel=1e-12)
        assert abs(check.lhs.mean - check.c_plus_1) <= 3 * check.lhs.stderr

    def test_weighted_triangle(self):
        check = verify_pendant_identities(weighted_triangle(), 0, 20000, 42)
        assert check.c_plus_1 == 13.0
        assert check.cz_formula == pytest.approx(13.0, rel=1e-12)
        assert abs(check.lhs.mean - check.c_plus_1) <= 3 * check.lhs.stderr

    def test_single_edge(self):
        check = verify_pendant_identities(complete(2), 0, 200, 1)
        assert check.c_plus_1 == 3.0


class TestExcursions:
    def test_triangle_expects_two(self):
        check = excursion_count_check(k3(), 0, 20000, 42)
        assert check.expected == 2.0
        assert abs(check.mean_excursions.mean - 2.0) <= 3 * check.mean_excursions.stderr

    def test_weighted_triangle_expects_three(self):
        check = excursion_count_check(weighted_triangle(), 0, 20000, 42)
        assert check.expected == 3.0
        assert abs(check.mean_excursions.mean - 3.0) <= 3 * check.mean_excursions.stderr

    def test_single_edge_expects_one(self):
        check = excursion_count_check(complete(2), 0, 5000, 42)
        assert check.expected == 1.0
        assert abs(check.mean_excursions.mean - 1.0) <= 3 * check.mean_excursions.stderr


class TestWalkSampler:
    def test_steps_stay_on_edges(self):
        net = weighted_triangle()
        sampler = WalkSampler(net)
        rng = np.random.default_rng(0)
        v = 0
        for _ in range(2000):
            w = sampler.step(rng, v)
            assert net.has_edge(v, w)
            v = w

    @pytest.mark.parametrize(
        "net, vertex, seed",
        [
            (weighted_triangle(), 0, 1234),
            (weighted_triangle(), 2, 99),
            (cycle(5), 2, 7),
            (complete(4), 1, 2024),
        ],
        ids=["wtri-0", "wtri-2", "c5", "k4"],
    )
    def test_step_frequencies_match_conductance_ratios(self, net, vertex, seed):
        scipy_stats = pytest.importorskip("scipy.stats")
        sampler = WalkSampler(net)
        rng = np.random.default_rng(seed)
        draws = 30000
        strength = net.vertex_strength(vertex)
        expected = {w: draws * c / strength for w, c in net.neighbors(vertex)}
        counts = dict.fromkeys(expected, 0)
        for _ in range(draws):
            counts[sampler.step(rng, vertex)] += 1
        statistic = sum((counts[w] - expected[w]) ** 2 / expected[w] for w in expected)
        assert statistic < scipy_stats.chi2.ppf(0.999, df=len(expected) - 1)


class TestGuards:
    def test_zero_samples(self):
        with pytest.raises(BadParameter):
            estimate_return_time(k3(), 0, 0, 1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_range(self, seed):
        with pytest.raises(BadParameter):
            estimate_return_time(k3(), 0, 10, seed)

    def test_bad_vertices(self):
        with pytest.raises(BadVertexId):
            estimate_return_time(k3(), 5, 10, 1)
        with pytest.raises(BadVertexId):
            estimate_hitting_time(k3(), 0, 0, 10, 1)

    @pytest.mark.parametrize("estimator", [estimate_return_time, verify_pendant_identities, excursion_count_check])
    @pytest.mark.parametrize(("vertex", "message"), [(5, "outside 0..2"), (1.5, "must be an integer"),
                                                     (True, "must be an integer")])
    def test_vertex_is_checked_before_samples_and_seed(self, estimator, vertex, message):
        with pytest.raises(BadVertexId, match=message):
            estimator(k3(), vertex, 0, -1)

    @pytest.mark.parametrize("estimator", [verify_pendant_identities, excursion_count_check])
    def test_pendant_checks_samples_then_seed(self, estimator):
        with pytest.raises(BadParameter, match="samples"):
            estimator(k3(), 0, 0, -1)
        with pytest.raises(BadParameter, match="seed"):
            estimator(k3(), 0, 10, 2**64)

    def test_fractional_samples(self):
        with pytest.raises(BadParameter, match="samples must be an integer, got 2.5"):
            estimate_return_time(cycle(4), 0, 2.5, 1)
        with pytest.raises(BadParameter, match="samples must be an integer, got True"):
            estimate_return_time(cycle(4), 0, True, 5)

    def test_fractional_seed(self):
        with pytest.raises(BadParameter, match="seed must be an integer, got 1.5"):
            estimate_return_time(cycle(4), 0, 10, 1.5)
        with pytest.raises(BadParameter, match="seed must be an integer, got True"):
            estimate_return_time(cycle(4), 0, 10, True)

    def test_numpy_seed_gives_a_json_ready_estimate(self):
        est = estimate_return_time(cycle(4), 0, np.int64(50), np.int64(3))
        assert type(est.seed) is int and type(est.samples) is int
        assert json.loads(json.dumps(asdict(est)))["seed"] == 3
        assert est == estimate_return_time(cycle(4), 0, 50, 3)

    def test_single_vertex_has_no_walk(self):
        # Construction refuses it, so no walk starts at a vertex without
        # a neighbor.
        with pytest.raises(BadParameter, match="at least two vertices"):
            build_network(1, [])

    def test_walk_cap_is_enforced(self, monkeypatch):
        monkeypatch.setattr(mc, "MAX_WALK_STEPS", 3)
        with pytest.raises(WalkLengthExceeded):
            estimate_hitting_time(cycle(9), 0, 4, 50, 1)


def _with_oracle(kind, net, args, samples, seed):
    """Library estimate, loop-oracle estimate and per-walker step counts."""
    if kind == "return":
        steps = return_walks_by_loop(net, *args, samples, seed)
        return estimate_return_time(net, *args, samples, seed), mc_estimate(steps, seed), steps
    if kind == "hitting":
        steps = hitting_walks_by_loop(net, *args, samples, seed)
        return estimate_hitting_time(net, *args, samples, seed), mc_estimate(steps, seed), steps
    if kind == "pendant":
        (z,) = args
        extended, tip = net.add_pendant_vertex(z, 1.0)
        steps = hitting_walks_by_loop(extended, z, tip, samples, seed)
        return verify_pendant_identities(net, z, samples, seed).lhs, mc_estimate(steps, seed), steps
    walks = excursion_walks_by_loop(net, *args, samples, seed)
    oracle = mc_estimate([count for count, _ in walks], seed)
    return excursion_count_check(net, *args, samples, seed).mean_excursions, oracle, [s for _, s in walks]


KERNEL_CASES = [
    ("return", weighted_triangle(), (0,)),
    ("return", cycle(7), (3,)),
    ("return", hypercube(3), (0,)),
    ("hitting", weighted_triangle(), (0, 2)),
    ("hitting", cycle(6), (0, 3)),
    ("hitting", petersen(), (0, 5)),
    ("pendant", k3(), (0,)),
    ("pendant", weighted_triangle(), (1,)),
    ("excursion", weighted_triangle(), (0,)),
    ("excursion", k3(), (0,)),
    ("excursion", cycle(5), (2,)),
]
KERNEL_IDS = [f"{kind}-n{net.vertex_count}-{args}" for kind, net, args in KERNEL_CASES]


class TestKernelMatchesLoops:
    @pytest.mark.parametrize("seed", [42, 2**32 + 7, 2**64 - 1])
    @pytest.mark.parametrize("kind, net, args", KERNEL_CASES, ids=KERNEL_IDS)
    def test_estimates_equal_the_loop_oracle(self, kind, net, args, seed):
        estimate, oracle, _ = _with_oracle(kind, net, args, 400, seed)
        assert estimate == oracle


class TestStepCap:
    def test_hitting_done_on_the_capped_step_counts(self, monkeypatch):
        monkeypatch.setattr(mc, "MAX_WALK_STEPS", 1)
        assert estimate_hitting_time(complete(2), 0, 1, 20, 3).mean == 1.0

    def test_return_done_on_the_capped_step_counts(self, monkeypatch):
        monkeypatch.setattr(mc, "MAX_WALK_STEPS", 2)
        assert estimate_return_time(complete(2), 0, 20, 3).mean == 2.0

    def test_return_needing_one_more_step_raises(self, monkeypatch):
        monkeypatch.setattr(mc, "MAX_WALK_STEPS", 1)
        with pytest.raises(WalkLengthExceeded):
            estimate_return_time(complete(2), 0, 20, 3)

    @pytest.mark.parametrize("kind", ["return", "hitting", "pendant", "excursion"])
    def test_longest_walk_is_the_boundary(self, kind, monkeypatch):
        net, args = {
            "return": (cycle(5), (0,)),
            "hitting": (cycle(6), (0, 3)),
            "pendant": (k3(), (0,)),
            "excursion": (weighted_triangle(), (0,)),
        }[kind]
        _, oracle, steps = _with_oracle(kind, net, args, 200, 17)
        longest = max(steps)
        monkeypatch.setattr(mc, "MAX_WALK_STEPS", longest)
        assert _with_oracle(kind, net, args, 200, 17)[0] == oracle
        monkeypatch.setattr(mc, "MAX_WALK_STEPS", longest - 1)
        with pytest.raises(WalkLengthExceeded):
            _with_oracle(kind, net, args, 200, 17)
