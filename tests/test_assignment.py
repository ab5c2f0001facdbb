"""Bipartite assignment: instances, matchings, welfare, and the prior."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from fairmix.assignment import (
    AssignmentBatch,
    AssignmentSolution,
    BipartiteInstance,
    InfeasibleError,
    RoundRobinSampler,
    agent_utilities,
    greedy_matching,
    max_matching,
    nash_value,
    nash_welfare,
    ordered_subsets,
    serial_dictatorship_picks,
    solution_value,
    synthetic_instance,
    utilitarian_value,
)
from fairmix.core import Distribution, ParameterError, ScaleError, tv_distance
from fairmix.experiments import bundled_data_path
from fairmix.ingest import bids_to_instance, parse_bids

from conftest import RecordingGenerator, round_robin_reference, unit_round_robin_reference

DEADLOCK = "round robin deadlocked before meeting demand"


def brute_force_max(instance: BipartiteInstance) -> float:
    """Exact optimum by enumerating per-item agent subsets."""
    n_left = instance.n_left
    per_item = [
        list(itertools.combinations(range(n_left), instance.demand))
        for _ in range(instance.n_right)
    ]
    best = -1.0
    for combo in itertools.product(*per_item):
        load = np.zeros(n_left, dtype=int)
        total = 0.0
        ok = True
        for item, agents in enumerate(combo):
            for agent in agents:
                load[agent] += 1
                if load[agent] > instance.load_cap:
                    ok = False
                    break
                total += instance.weights[agent, item]
            if not ok:
                break
        if ok and total > best:
            best = total
    return best


class TestBipartiteInstance:
    def test_negative_weight_rejected(self):
        with pytest.raises(ParameterError):
            BipartiteInstance(np.array([[1.0, -0.5]]))

    def test_demand_exceeding_agents_rejected(self):
        with pytest.raises(InfeasibleError):
            BipartiteInstance(np.ones((2, 3)), demand=3, load_cap=5)

    def test_counting_infeasibility_rejected(self):
        # 3 items x demand 2 = 6 slots > 2 agents x cap 2 = 4.
        with pytest.raises((ParameterError, InfeasibleError)):
            BipartiteInstance(np.ones((2, 3)), demand=2, load_cap=2)

    def test_weights_are_frozen(self):
        inst = BipartiteInstance(np.ones((2, 2)), demand=1, load_cap=1)
        with pytest.raises(ValueError):
            inst.weights[0, 0] = 5.0

    def test_shapes(self):
        inst = synthetic_instance(6, 3, np.random.default_rng(0))
        assert (inst.n_left, inst.n_right) == (6, 3)
        assert inst.weights.shape == (6, 3)
        assert np.all(inst.weights >= 0) and np.all(inst.weights < 1)


class TestAssignmentSolution:
    def test_from_edges_dedups(self):
        sol = AssignmentSolution.from_edges([(0, 0), (0, 0), (1, 0)])
        assert len(sol.edges) == 2

    def test_validate_catches_unmet_demand(self):
        inst = BipartiteInstance(np.ones((2, 2)), demand=1, load_cap=1)
        with pytest.raises(InfeasibleError):
            AssignmentSolution.from_edges([(0, 0)]).validate(inst)

    def test_validate_catches_cap_violation(self):
        inst = BipartiteInstance(np.ones((2, 2)), demand=1, load_cap=1)
        with pytest.raises(InfeasibleError):
            AssignmentSolution.from_edges([(0, 0), (0, 1)]).validate(inst)

    def test_validate_catches_out_of_range(self):
        inst = BipartiteInstance(np.ones((2, 2)), demand=1, load_cap=1)
        with pytest.raises(ParameterError):
            AssignmentSolution.from_edges([(0, 0), (2, 1)]).validate(inst)


class TestWelfare:
    def test_solution_value_and_utilities(self):
        inst = BipartiteInstance(np.array([[2.0, 1.0], [0.5, 3.0]]), 1, 1)
        sol = AssignmentSolution.from_edges([(0, 0), (1, 1)])
        assert solution_value(inst, sol) == pytest.approx(5.0)
        assert agent_utilities(inst, sol).tolist() == [2.0, 3.0]

    def test_nash_welfare_frozen(self):
        assert nash_welfare(np.array([5.0, 5.0])) == pytest.approx(5.0)
        assert nash_welfare(np.array([1.0, 4.0])) == pytest.approx(2.0)
        assert nash_welfare(np.array([0.0, 9.0])) == 0.0

    def test_value_functions_wrap(self):
        inst = BipartiteInstance(np.array([[2.0, 1.0], [0.5, 3.0]]), 1, 1)
        sol = AssignmentSolution.from_edges([(0, 0), (1, 1)])
        assert utilitarian_value(inst)(sol) == pytest.approx(5.0)
        table = np.array([[1.0, 4.0], [4.0, 1.0]])
        nv = nash_value(table)
        assert nv(0) == pytest.approx(2.0)
        assert nv.max_value() == pytest.approx(2.0)


class TestMatchings:
    def test_greedy_hand_case(self):
        inst = BipartiteInstance(np.array([[1.0, 0.9], [0.9, 0.0]]), 1, 1)
        greedy = greedy_matching(inst)
        assert solution_value(inst, greedy) == pytest.approx(1.0)
        best = max_matching(inst)
        assert solution_value(inst, best) == pytest.approx(1.8)

    def test_greedy_is_half_of_max(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            n_left = int(rng.integers(2, 7))
            inst = synthetic_instance(n_left, int(rng.integers(1, n_left + 1)), rng)
            g = solution_value(inst, greedy_matching(inst))
            m = solution_value(inst, max_matching(inst))
            assert m >= g - 1e-12
            assert g >= 0.5 * m - 1e-12

    def test_max_matches_brute_force_small(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            n_left = int(rng.integers(2, 5))
            n_right = int(rng.integers(1, 4))
            demand = int(rng.integers(1, min(n_left, 2) + 1))
            cap = int(rng.integers(1, 4))
            if demand * n_right > cap * n_left:
                continue
            inst = BipartiteInstance(rng.random((n_left, n_right)), demand, cap)
            got = solution_value(inst, max_matching(inst))
            assert got == pytest.approx(brute_force_max(inst), abs=1e-9)

    def test_greedy_strands_where_flow_succeeds(self):
        weights = np.array([[9.0, 9.0, 1.0], [8.0, 8.0, 1.0], [0.1, 0.1, 0.1]])
        inst = BipartiteInstance(weights, demand=2, load_cap=2)
        with pytest.raises(InfeasibleError):
            greedy_matching(inst)
        sol = max_matching(inst)
        sol.validate(inst)

    def test_max_matching_scale_cap(self):
        inst = BipartiteInstance(np.ones((600, 2)), demand=1, load_cap=1)
        with pytest.raises(ScaleError):
            max_matching(inst)

    def test_max_matches_brute_force_on_ties(self):
        # Weights from {0, 0.5, 1} make degenerate programs with many optima.
        rng = np.random.default_rng(43)
        checked = 0
        while checked < 60:
            n_left = int(rng.integers(2, 5))
            n_right = int(rng.integers(1, 4))
            demand = int(rng.integers(1, min(n_left, 3) + 1))
            cap = int(rng.integers(1, 4))
            if demand * n_right > cap * n_left:
                continue
            weights = rng.choice([0.0, 0.5, 1.0], size=(n_left, n_right))
            inst = BipartiteInstance(weights, demand, cap)
            got = solution_value(inst, max_matching(inst))
            assert got == pytest.approx(brute_force_max(inst), abs=1e-9)
            checked += 1

    def test_max_matching_resolves_near_tie(self):
        # The anti-diagonal wins by 3e-9, a gap HiGHS's default tolerances miss.
        s, gap = 0.7, 3e-9
        inst = BipartiteInstance(np.array([[s, s + gap], [s + gap, s]]))
        assert max_matching(inst).edges == {(0, 1), (1, 0)}

    @pytest.mark.parametrize(
        "status, x", [(0, [0.5, 0.5, 0.5, 0.5]), (2, None)], ids=["fractional", "infeasible"]
    )
    def test_max_matching_rejects_bad_lp_result(self, monkeypatch, status, x):
        import scipy.optimize

        result = scipy.optimize.OptimizeResult(
            status=status, x=None if x is None else np.array(x), message="solver says no"
        )
        monkeypatch.setattr(scipy.optimize, "linprog", lambda *args, **kwargs: result)
        with pytest.raises(InfeasibleError, match="solver says no"):
            max_matching(BipartiteInstance(np.ones((2, 2))))


class TestRoundRobin:
    def test_samples_are_feasible(self):
        rng = np.random.default_rng(42)
        inst = BipartiteInstance(rng.random((5, 3)), demand=2, load_cap=2)
        sampler = RoundRobinSampler(inst)
        for _ in range(200):
            sampler.sample(rng).validate(inst)

    def test_unit_path_matches_permutation_law(self):
        # demand=1/cap=1: agents pick favorites in a uniformly random order.
        weights = np.array([[0.9, 0.1], [0.8, 0.7], [0.2, 0.6]])
        inst = BipartiteInstance(weights, demand=1, load_cap=1)
        # Enumerate the law over all 6 agent orders by hand simulation.
        law: dict[tuple, float] = {}
        for perm in itertools.permutations(range(3)):
            taken: set[int] = set()
            edges = []
            for agent in perm:
                if len(taken) == inst.n_right:
                    break
                prefs = np.argsort(-weights[agent], kind="stable")
                for item in prefs:
                    if int(item) not in taken:
                        taken.add(int(item))
                        edges.append((agent, int(item)))
                        break
            key = tuple(sorted(edges))
            law[key] = law.get(key, 0.0) + 1 / 6
        rng = np.random.default_rng(43)
        counts: dict[tuple, int] = {}
        n = 6000
        for _ in range(n):
            key = tuple(sorted(RoundRobinSampler(inst).sample(rng).edges))
            counts[key] = counts.get(key, 0) + 1
        assert set(counts) <= set(law)
        err = sum(abs(counts.get(k, 0) / n - p) for k, p in law.items()) / 2
        assert err < 0.03

    def test_demand_totals(self):
        rng = np.random.default_rng(44)
        inst = BipartiteInstance(rng.random((4, 3)), demand=2, load_cap=2)
        sol = RoundRobinSampler(inst).sample(rng)
        items = [e[1] for e in sol.edges]
        assert sorted(items) == [0, 0, 1, 1, 2, 2]

    def test_symmetric_marginals_roughly_uniform(self):
        inst = BipartiteInstance(np.full((4, 2), 0.5), demand=1, load_cap=1)
        rng = np.random.default_rng(45)
        sampler = RoundRobinSampler(inst)
        hits = np.zeros(4)
        n = 8000
        for _ in range(n):
            for agent, _item in sampler.sample(rng).edges:
                hits[agent] += 1
        # Each agent receives one of 2 slots among 4 agents: marginal 1/2.
        assert np.allclose(hits / n, 0.5, atol=0.03)


class TestUnitBatchSampler:
    """The vectorized unit round robin against the scalar reference loop."""

    def test_picks_match_reference_on_every_order(self):
        # Tie-heavy weights: argmax must break ties to the lowest item index
        # exactly as the reference's stable preference order does.
        rng = np.random.default_rng(46)
        for _ in range(20):
            inst = BipartiteInstance(rng.choice([0.0, 0.5, 1.0], size=(5, 3)))
            orders = np.array(list(itertools.permutations(range(5))))
            agents = orders[:, : inst.n_right]
            items = serial_dictatorship_picks(inst.weights, agents)
            for order, row_agents, row_items in zip(orders, agents, items):
                want = unit_round_robin_reference(inst, order).edges
                assert set(zip(row_agents.tolist(), row_items.tolist())) == want

    def test_ordered_agents_are_uniform(self):
        # The first n_right agents of each draw are uniform over all
        # L! / (L - R)! ordered tuples (60 here).
        inst = BipartiteInstance(np.random.default_rng(47).random((5, 3)))
        n = 60_000
        batch = RoundRobinSampler(inst).sample_many(np.random.default_rng(48), n)
        assert isinstance(batch, AssignmentBatch) and len(batch) == n
        tuples = list(itertools.permutations(range(5), 3))
        index = {t: i for i, t in enumerate(tuples)}  # a repeated agent raises KeyError
        counts = np.bincount([index[tuple(row)] for row in batch.agents.tolist()],
                             minlength=len(tuples))
        # E[TV] ~ sqrt(60 / (2 pi n)) ~ 0.013 for a uniform law.
        assert 0.5 * np.abs(counts / n - 1 / len(tuples)).sum() < 0.03

    def test_ordered_subsets_are_distinct_and_in_range(self):
        rows = ordered_subsets(np.random.default_rng(49), 7, 7, 500)
        assert np.array_equal(np.sort(rows, axis=1), np.tile(np.arange(7), (500, 1)))

    def test_batch_values_equal_solution_value(self):
        rng = np.random.default_rng(50)
        inst = synthetic_instance(30, 6, rng)
        batch = RoundRobinSampler(inst).sample_many(rng, 400)
        values = utilitarian_value(inst).many(batch)
        assert values.shape == (400,)
        for i in range(len(batch)):
            solution = batch[i]
            solution.validate(inst)
            assert abs(values[i] - solution_value(inst, solution)) <= 1e-12

    def test_scalar_sample_is_first_of_a_batch(self):
        rng = np.random.default_rng(51)
        unit = synthetic_instance(8, 3, rng)
        general = BipartiteInstance(rng.random((5, 3)), demand=2, load_cap=2)
        for inst in (unit, general):
            sampler = RoundRobinSampler(inst)
            one = sampler.sample(np.random.default_rng(52))
            assert isinstance(one, AssignmentSolution)
            assert one == sampler.sample_many(np.random.default_rng(52), 1)[0]


def tie_heavy_instances(rng: np.random.Generator, count: int):
    """``count`` general round-robin instances (not unit demand and cap) with
    weights in {0, 0.5, 1}, demand 1-3 and a load cap that is tight or one
    above it."""
    made = 0
    while made < count:
        L, R = int(rng.integers(3, 7)), int(rng.integers(2, 6))
        demand = int(rng.integers(1, 4))
        cap = -(-R * demand // L) + int(rng.integers(0, 2))
        if demand == cap == 1:
            continue
        made += 1
        yield BipartiteInstance(rng.choice([0.0, 0.5, 1.0], size=(L, R)), demand, cap)


class TestGeneralBatchSampler:
    """The batched general round robin against the scalar reference loop."""

    @staticmethod
    def assert_replays_reference(inst: BipartiteInstance, seed: int, n: int) -> bool:
        """Draw ``n`` rows and compare each, edge by edge in pick order, with
        the reference fed the same per-pass orders.  Returns whether the
        batch deadlocked, in which case some row's reference must too."""
        rng = RecordingGenerator(np.random.default_rng(seed))
        try:
            batch = RoundRobinSampler(inst).sample_many(rng, n)
        except InfeasibleError as exc:
            assert str(exc) == DEADLOCK
            stalled = 0
            for i in range(n):
                try:
                    round_robin_reference(inst, rng.orders(i))
                except InfeasibleError as ref_exc:
                    assert str(ref_exc) == DEADLOCK
                    stalled += 1
            assert stalled > 0
            return True
        assert isinstance(batch, AssignmentBatch) and len(batch) == n
        for i in range(n):
            got = list(zip(batch.agents[i].tolist(), batch.items[i].tolist()))
            assert got == round_robin_reference(inst, rng.orders(i)), f"row {i}"
        return False

    def test_mini_bids_replays_reference(self):
        inst = bids_to_instance(parse_bids(bundled_data_path("mini_bids.csv")), demand=3)
        assert (inst.demand, inst.load_cap) == (3, 3)
        assert not self.assert_replays_reference(inst, seed=55, n=3000)

    def test_tie_heavy_instances_replay_reference(self):
        rng = np.random.default_rng(56)
        deadlocked = [
            self.assert_replays_reference(inst, seed=57 + k, n=300)
            for k, inst in enumerate(tie_heavy_instances(rng, 48))
        ]
        assert deadlocked.count(False) >= 40

    def test_deadlock_raises_the_reference_error(self):
        # Agents 0 and 1 both rank item 0 then item 1; agent 2 wants item 2.
        # Pass 1 always gives items 0, 0 and 2; when agent 2 moves last in
        # pass 2, items 0 and 1 are full, agents 0 and 1 are at their cap
        # and agent 2 already holds item 2, whose demand stays unmet.
        weights = np.array([[1.0, 0.5, 0.0], [1.0, 0.5, 0.0], [0.0, 0.0, 1.0]])
        inst = BipartiteInstance(weights, demand=2, load_cap=2)
        outcomes = [self.assert_replays_reference(inst, seed, n=1) for seed in range(30)]
        assert True in outcomes and False in outcomes
        with pytest.raises(InfeasibleError, match=DEADLOCK):
            RoundRobinSampler(inst).sample_many(np.random.default_rng(58), 100)

    def test_batch_values_equal_solution_value(self):
        rng = np.random.default_rng(53)
        inst = BipartiteInstance(rng.random((5, 3)), demand=2, load_cap=2)
        batch = RoundRobinSampler(inst).sample_many(np.random.default_rng(54), 200)
        assert isinstance(batch, AssignmentBatch) and len(batch) == 200
        values = utilitarian_value(inst).many(batch)
        for i in range(len(batch)):
            solution = batch[i]
            solution.validate(inst)
            assert abs(values[i] - solution_value(inst, solution)) <= 1e-12
