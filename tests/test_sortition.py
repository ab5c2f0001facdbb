"""Panel selection: costs, seeding, neighbor-swap prior, and wiring."""

from __future__ import annotations

import dataclasses
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from conftest import RecordingGenerator, random_replace_reference
from fairmix.core import ParameterError
from fairmix.experiments import bundled_data_path
from fairmix.ingest import ADULT_FEATURES, parse_demographics
from fairmix.sortition import (
    PanelBatch,
    RandomReplaceSampler,
    default_replace_count,
    kmeanspp_select,
    likelihood_value,
    panel_cost,
    sortition_fwi_instance,
)


@pytest.fixture(scope="module")
def cloud() -> np.ndarray:
    cfg = dataclasses.replace(ADULT_FEATURES, scale=True)
    return parse_demographics(bundled_data_path("demo_demographics.csv"), cfg)


class TestPanelCost:
    def test_line_hand_value(self):
        points = np.array([[0.0], [2.0]])
        assert panel_cost((0,), points) == pytest.approx(4.0)

    def test_full_panel_zero(self):
        rng = np.random.default_rng(50)
        points = rng.random((20, 3))
        assert panel_cost(tuple(range(20)), points) == 0.0

    def test_empty_panel_rejected(self):
        with pytest.raises(ParameterError):
            panel_cost((), np.zeros((3, 2)))

    def test_monotone_under_added_center(self):
        rng = np.random.default_rng(51)
        points = rng.random((30, 4))
        for _ in range(20):
            size = int(rng.integers(1, 6))
            panel = tuple(sorted(rng.choice(30, size=size, replace=False).tolist()))
            extra = int(rng.integers(30))
            bigger = tuple(sorted(set(panel) | {extra}))
            assert panel_cost(bigger, points) <= panel_cost(panel, points) + 1e-12


class TestLikelihoodValue:
    def test_matches_cost_transform(self):
        rng = np.random.default_rng(52)
        points = rng.random((25, 3))
        value = likelihood_value(points)
        panel = (0, 3, 7)
        want = np.exp(-panel_cost(panel, points) / 25)
        assert value(panel) == pytest.approx(want, rel=1e-12)

    def test_range_and_monotonicity(self):
        rng = np.random.default_rng(53)
        points = rng.random((25, 3))
        value = likelihood_value(points)
        full = tuple(range(25))
        single = (0,)
        assert value(full) == 1.0
        assert 0.0 < value(single) < 1.0


class TestKmeansppSelect:
    def test_panel_is_sorted_distinct(self):
        rng = np.random.default_rng(54)
        points = rng.random((30, 3))
        panel = kmeanspp_select(points, 8, rng)
        assert list(panel) == sorted(set(panel))
        assert len(panel) == 8

    def test_k_bounds(self):
        points = np.zeros((5, 2))
        with pytest.raises(ParameterError):
            kmeanspp_select(points, 0, np.random.default_rng(0))
        with pytest.raises(ParameterError):
            kmeanspp_select(points, 6, np.random.default_rng(0))

    def test_k_equals_n_selects_everything(self):
        rng = np.random.default_rng(55)
        points = rng.random((7, 2))
        assert kmeanspp_select(points, 7, rng) == tuple(range(7))

    def test_more_centers_cut_cost(self):
        rng = np.random.default_rng(56)
        points = np.vstack([rng.normal(c, 0.1, (15, 2)) for c in ((0, 0), (5, 5), (9, 0))])
        c1 = np.mean([panel_cost(kmeanspp_select(points, 1, rng), points) for _ in range(30)])
        c3 = np.mean([panel_cost(kmeanspp_select(points, 3, rng), points) for _ in range(30)])
        assert c3 < 0.2 * c1


def test_default_replace_count_frozen():
    assert default_replace_count(10) == 7
    assert default_replace_count(4) == 3
    assert default_replace_count(1) == 0


class TestRandomReplace:
    @staticmethod
    def _neighbor_sets(points: np.ndarray, q: int) -> dict[int, set[int]]:
        d = cdist(points, points, "sqeuclidean")
        np.fill_diagonal(d, np.inf)
        return {
            c: set(np.argsort(d[c], kind="stable")[:q].tolist())
            for c in range(points.shape[0])
        }

    def test_neighbor_constraint_every_draw(self):
        rng = np.random.default_rng(57)
        points = rng.random((40, 3))
        initial = kmeanspp_select(points, 8, rng)
        q = default_replace_count(8)
        neighbor_sets = self._neighbor_sets(points, q)
        allowed = set().union(*(neighbor_sets[c] for c in initial))
        sampler = RandomReplaceSampler(points, initial)
        for _ in range(1000):
            panel = sampler.sample(rng)
            assert len(set(panel)) == 8
            assert list(panel) == sorted(panel)
            # Every newcomer entered through some member's neighbor list.
            assert set(panel) - set(initial) <= allowed

    def test_single_swap_exact_pairing(self):
        # With q=1 a draw swaps at most one member, so the displaced member
        # and its replacement are identifiable: the replacement must be the
        # displaced member's single nearest neighbor.
        rng = np.random.default_rng(68)
        points = rng.random((40, 3))
        initial = kmeanspp_select(points, 8, rng)
        neighbor_sets = self._neighbor_sets(points, 1)
        sampler = RandomReplaceSampler(points, initial, q=1)
        swaps = 0
        for _ in range(1000):
            panel = sampler.sample(rng)
            departed = set(initial) - set(panel)
            newcomers = set(panel) - set(initial)
            assert len(departed) == len(newcomers) <= 1
            if newcomers:
                swaps += 1
                (c,) = departed
                (p,) = newcomers
                assert p in neighbor_sets[c]
        assert swaps > 500  # collisions are rare, most draws do swap

    def test_q_zero_is_identity(self):
        rng = np.random.default_rng(58)
        points = rng.random((10, 2))
        initial = (1, 4, 7)
        assert RandomReplaceSampler(points, initial, q=0).sample(rng) == initial

    def test_q_above_panel_size_rejected(self):
        points = np.random.default_rng(59).random((10, 2))
        with pytest.raises(ParameterError):
            RandomReplaceSampler(points, (0, 1, 2), q=4)

    def test_full_panel_swaps_collide_to_identity(self):
        # Panel = whole pool: every candidate is seated, so members stay.
        points = np.random.default_rng(60).random((5, 2))
        initial = tuple(range(5))
        out = RandomReplaceSampler(points, initial, q=3).sample(np.random.default_rng(61))
        assert out == initial


@pytest.fixture(scope="module")
def bundled_sampler(cloud) -> RandomReplaceSampler:
    """The sweep's prior shape: bundled pool, k = 10, default q = 7."""
    sampler = RandomReplaceSampler(cloud, kmeanspp_select(cloud, 10, np.random.default_rng(70)))
    assert sampler.q == 7
    return sampler


def clustered_sampler(seed: int) -> RandomReplaceSampler:
    """Three tight clusters of six with 15 of the 18 points on the panel, so
    neighbour lists are full of other reference members."""
    rng = np.random.default_rng(seed)
    points = np.vstack([rng.normal(c, 0.05, (6, 2)) for c in ((0, 0), (3, 0), (0, 3))])
    initial = rng.choice(points.shape[0], size=15, replace=False)
    return RandomReplaceSampler(points, initial, q=6)


def duplicate_sampler(seed: int) -> RandomReplaceSampler:
    """Eight locations, three copies each, 16 of the 24 points on the panel:
    a member's nearest neighbours are its own copies, often seated."""
    rng = np.random.default_rng(seed)
    points = np.repeat(rng.random((8, 3)), 3, axis=0)
    initial = rng.choice(points.shape[0], size=16, replace=False)
    return RandomReplaceSampler(points, initial, q=7)


def replay(sampler: RandomReplaceSampler, n: int, seed: int, events=None):
    """A batch and, row by row, the reference loop on the batch's own
    recorded positions and candidate orders."""
    rec = RecordingGenerator(np.random.default_rng(seed))
    batch = sampler.sample_many(rec, n)
    position_orders, *step_orders = rec.permutations
    want = [
        random_replace_reference(
            sampler, position_orders[i, : sampler.q], [o[i] for o in step_orders], events
        )
        for i in range(n)
    ]
    return batch, want


class TestRandomReplaceBatch:
    def test_bundled_rows_replay_exactly(self, bundled_sampler):
        batch, want = replay(bundled_sampler, 3196, seed=71)
        assert isinstance(batch, PanelBatch) and len(batch) == 3196
        assert batch.members.shape == (3196, 10)
        assert [batch[i] for i in range(len(batch))] == want

    @pytest.mark.parametrize(
        "make, seed", [(clustered_sampler, 72), (clustered_sampler, 73), (duplicate_sampler, 74),
                       (duplicate_sampler, 75)]
    )
    def test_collision_rows_replay_exactly(self, make, seed):
        sampler = make(seed)
        events = Counter()
        batch, want = replay(sampler, 2000, seed=seed + 100, events=events)
        assert [batch[i] for i in range(len(batch))] == want
        # Both collision rules are exercised: a displaced reference member
        # re-enters, and every candidate is seated so the member stays.
        assert events["reentry"] > 0 and events["kept"] > 0

    @pytest.mark.parametrize("q", [0, 1, 5])
    def test_edge_replace_counts_replay(self, q):
        points = np.random.default_rng(76).random((12, 2))
        sampler = RandomReplaceSampler(points, (0, 2, 3, 7, 11), q=q)  # q = 5 is q = k
        batch, want = replay(sampler, 500, seed=77)
        assert [batch[i] for i in range(len(batch))] == want
        if q == 0:
            assert set(want) == {sampler.initial}

    def test_empty_batch(self, bundled_sampler, cloud):
        batch = bundled_sampler.sample_many(np.random.default_rng(78), 0)
        assert len(batch) == 0 and batch.members.shape == (0, 10)
        assert likelihood_value(cloud).many(batch).shape == (0,)

    def test_sample_is_first_row_of_batch_of_one(self, bundled_sampler):
        for seed in range(20):
            one = bundled_sampler.sample(np.random.default_rng(seed))
            assert one == bundled_sampler.sample_many(np.random.default_rng(seed), 1)[0]

    def test_draw_and_value_memory(self, bundled_sampler, cloud):
        # A tail batch at the sweep grid's largest sample size stays small:
        # no (n, n_pool) membership mask and no n_pool x n_pool distances.
        value = likelihood_value(cloud)
        rng = np.random.default_rng(79)
        tracemalloc.start()
        try:
            value.many(bundled_sampler.sample_many(rng, 9588))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3_000_000

    def test_wide_draw_memory(self):
        # k = 40, q = 30: the (n, universe) seat table stays below the
        # (n, q, k) collision comparison it replaced (3.81 MB here).
        points = np.random.default_rng(90).random((1000, 3))
        initial = kmeanspp_select(points, 40, np.random.default_rng(91))
        sampler = RandomReplaceSampler(points, initial, q=30)
        assert sampler.universe.size == 767
        rng = np.random.default_rng(92)
        tracemalloc.start()
        try:
            sampler.sample_many(rng, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3_800_000

    def test_universe_is_members_and_neighbours(self, bundled_sampler):
        want = set(bundled_sampler.initial) | set(bundled_sampler.neighbors.ravel().tolist())
        assert bundled_sampler.universe.tolist() == sorted(want)
        assert bundled_sampler._local_neighbors.dtype == np.uint8


@st.composite
def random_replace_pools(draw):
    """A small pool on a coarse grid (repeated points are likely), a
    reference panel of random size k and a replace count q in [0, k] that
    the pool has enough other points for."""
    n_pool = draw(st.integers(2, 12))
    coords = draw(st.lists(st.integers(0, 2), min_size=2 * n_pool, max_size=2 * n_pool))
    k = draw(st.integers(1, n_pool))
    initial = draw(st.lists(st.integers(0, n_pool - 1), min_size=k, max_size=k, unique=True))
    q = draw(st.integers(0, min(k, n_pool - 1)))  # q neighbours need q other points
    points = np.array(coords, dtype=float).reshape(n_pool, 2)
    return RandomReplaceSampler(points, initial, q=q)


@settings(deadline=None)
@given(sampler=random_replace_pools(), n=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
def test_random_pool_rows_replay_exactly(sampler, n, seed):
    # RecordingGenerator only has ``permuted``: any other RNG use fails here.
    batch, want = replay(sampler, n, seed)
    assert batch.members.shape == (n, len(sampler.initial))
    assert [batch[i] for i in range(n)] == want


class TestPanelValueBatch:
    @staticmethod
    def scalar(value, panels) -> np.ndarray:
        return np.array([value(p) for p in panels])

    def test_batch_values_bit_identical(self, bundled_sampler, cloud):
        value = likelihood_value(cloud)
        for n, seed in ((4794, 80), (5000, 81)):
            batch = bundled_sampler.sample_many(np.random.default_rng(seed), n)
            got = value.many(batch)
            assert np.array_equal(got, self.scalar(value, batch))
            costs = np.array([panel_cost(batch[i], cloud) for i in range(n)])
            assert np.array_equal(got, np.exp(-costs / cloud.shape[0]))

    def test_repeated_panels_and_one_row(self, bundled_sampler, cloud):
        value = likelihood_value(cloud)
        members = bundled_sampler.sample_many(np.random.default_rng(82), 3).members
        repeated = PanelBatch(np.repeat(members, 4, axis=0))
        assert np.array_equal(value.many(repeated), self.scalar(value, repeated))
        one = PanelBatch(members[1:2])
        assert np.array_equal(value.many(one), self.scalar(value, one))

    @pytest.mark.parametrize(
        "panel, match",
        [((-1, 3), r"lie in \[0, 200\)"), ((3, 200), r"lie in \[0, 200\)"), ((3, 3), "distinct")],
    )
    def test_bad_ids_rejected_as_by_scalar_path(self, panel, match):
        # Unchecked, -1 wraps to the last point, 200 is a bare IndexError and
        # (3, 3) is valued as the one-member panel (3,).
        points = np.random.default_rng(83).random((200, 2))
        with pytest.raises(ParameterError, match=match):
            likelihood_value(points).many(PanelBatch(np.array([(0, 1), panel])))
        with pytest.raises(ParameterError, match=match):
            panel_cost(panel, points)

    def test_unsorted_row_rejected(self):
        points = np.random.default_rng(84).random((10, 2))
        with pytest.raises(ParameterError, match="ascending"):
            likelihood_value(points).many(PanelBatch(np.array([[5, 3]])))

    def test_list_of_panels_valued_one_by_one(self, cloud):
        value = likelihood_value(cloud)
        panels = [(0, 5, 9), (1, 2, 3, 4)]
        assert np.array_equal(value.many(panels), self.scalar(value, panels))


class TestFwiWiring:
    def test_full_panel_value_one(self):
        rng = np.random.default_rng(62)
        points = rng.random((12, 2))
        inst = sortition_fwi_instance(points, 12, alpha=0.5, init_rng=rng)
        a = inst.mechanism.run(rng)
        assert inst.value(a) == 1.0

    def test_bundled_cloud_mechanism_beats_prior_mean(self, cloud):
        # Statistical check at panel size 10 on the bundled demographic
        # sample: optimizing draws outscore the perturbed-panel prior.
        inst = sortition_fwi_instance(
            cloud, 10, alpha=0.5, init_rng=np.random.default_rng(63)
        )
        rng = np.random.default_rng(64)
        mech = np.array([inst.value(inst.mechanism.run(rng)) for _ in range(400)])
        prior = np.array([inst.value(inst.prior.sample(rng)) for _ in range(400)])
        se = np.sqrt(mech.var() / 400 + prior.var() / 400)
        assert mech.mean() - prior.mean() >= 3.0 * se

    def test_alpha_sweep_completes_on_bundled_cloud(self, cloud):
        values = []
        for alpha in (0.1, 0.5, 0.9):
            inst = sortition_fwi_instance(
                cloud, 10, alpha=alpha, init_rng=np.random.default_rng(65)
            )
            rng = np.random.default_rng(66)
            from fairmix.mix import simple_mix

            vals = [inst.value(simple_mix(inst, rng)) for _ in range(150)]
            values.append(np.mean(vals))
        assert values[0] < values[-1]
