"""Mixing algorithms: sample counts, trimming, fairness, and batch paths."""

from __future__ import annotations

import dataclasses
import itertools
import math
import types

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairmix.assignment import (
    RoundRobinSampler,
    max_matching,
    synthetic_instance,
    utilitarian_value,
)
from fairmix.core import (
    NORM_TOL,
    Distribution,
    FairPrior,
    InterpolationInstance,
    ParameterError,
    ValueFunction,
    WelfareMechanism,
    expected_value,
    tv_distance,
)
from fairmix.mix import (
    _kept_mass,
    _tails_by_law,
    _tails_by_samples,
    check_algorithm,
    epsilon_mix,
    epsilon_mix_many,
    sample_size,
    simple_mix,
    simple_mix_distribution,
    simple_mix_many,
    trim_weights,
)
from fairmix.sortition import RandomReplaceSampler, likelihood_value

from conftest import (
    make_instance,
    mix_many_reference,
    prior_from_sampler,
    random_instance,
    unit_round_robin_reference_prior,
)


def empirical_law(outputs, n_solutions: int) -> Distribution:
    counts = np.bincount(np.asarray(outputs, dtype=np.int64), minlength=n_solutions)
    return Distribution.from_array(counts / counts.sum())


class _RecordLaw:
    """Stands in for the generator and keeps the law ``rng.choice`` is given."""

    def choice(self, k, size, p):
        self.p = p
        return np.zeros(size, dtype=np.int64)


def exact_tail_law(inst: InterpolationInstance, s: int) -> np.ndarray:
    """The tail law that ``epsilon_mix_many`` draws from on an explicit prior,
    over ``inst.prior.explicit.ids``."""
    rec = _RecordLaw()
    _tails_by_law(inst, s, 1, rec)
    return rec.p


@pytest.mark.parametrize(
    "algorithm,epsilon,n_samples,error",
    [
        ("simple_mix", None, None, None),
        ("epsilon_mix", 0.1, None, None),
        ("epsilon_mix", 0.1, 1, None),
        ("other", None, None, "unknown algorithm 'other'"),
        ("simple_mix", 0.1, None, "epsilon is required"),
        ("epsilon_mix", None, None, "epsilon is required"),
        ("epsilon_mix", None, 5, "epsilon is required"),
        ("simple_mix", None, 5, "samples is meaningless"),
        ("epsilon_mix", 0.0, None, r"epsilon must lie in \(0, 1\), got 0.0"),
        ("epsilon_mix", 1.0, None, r"epsilon must lie in \(0, 1\), got 1.0"),
        ("epsilon_mix", 0.1, 0, "samples must be >= 1, got 0"),
    ],
)
def test_check_algorithm(algorithm, epsilon, n_samples, error):
    if error is None:
        check_algorithm(algorithm, epsilon, n_samples)
    else:
        with pytest.raises(ParameterError, match=error):
            check_algorithm(algorithm, epsilon, n_samples)


class TestSampleSize:
    def test_frozen_values(self):
        assert sample_size(0.0, 0.1) == 2397
        assert sample_size(0.5, 0.1) == 4794
        assert sample_size(0.0, 0.05) == 11805

    def test_grows_with_alpha(self):
        sizes = [sample_size(a, 0.1) for a in (0.0, 0.3, 0.6, 0.9)]
        assert sizes == sorted(sizes) and len(set(sizes)) == len(sizes)

    def test_grows_as_epsilon_shrinks(self):
        assert sample_size(0.0, 0.05) > sample_size(0.0, 0.1)

    @pytest.mark.parametrize("alpha,eps", [(-0.1, 0.1), (1.0, 0.1), (0.5, 0.0), (0.5, 1.0)])
    def test_domain_errors(self, alpha, eps):
        with pytest.raises(ParameterError):
            sample_size(alpha, eps)


class TestTrimWeights:
    def test_frozen_examples(self):
        assert trim_weights(4, 0.5).tolist() == [1.0, 1.0, 0.0, 0.0]
        assert trim_weights(5, 0.3).tolist() == [1.0, 1.0, 1.0, 0.5, 0.0]
        assert trim_weights(4, 0.25).tolist() == [1.0, 1.0, 1.0, 0.0]

    def test_mass_removed_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            s = int(rng.integers(1, 60))
            alpha = float(rng.uniform(0.0, 1.0))
            w = trim_weights(s, alpha)
            assert w.shape == (s,)
            assert w.sum() == pytest.approx(s - alpha * s, abs=1e-9)
            # Weights are non-increasing with at most one fractional entry.
            assert np.all(np.diff(w) <= 1e-12)
            fractional = np.sum((w > 1e-12) & (w < 1 - 1e-12))
            assert fractional <= 1

    def test_alpha_one_rejected(self):
        # At alpha = 1 the mechanism branch always fires; trimming the full
        # sample is undefined and rejected.
        with pytest.raises(ParameterError):
            trim_weights(6, 1.0)


@given(s=st.integers(1, 2000), alpha=st.floats(0.0, 1.0, exclude_max=True))
def test_kept_mass_is_cumulative_trim_weight(s, alpha):
    # W(t) is the one trim formula: the per-sample pick is its search at
    # t = 1..s, and the exact tail law takes its mean over binomial counts.
    kept = _kept_mass(np.arange(1, s + 1), s, alpha)
    np.testing.assert_allclose(kept, np.cumsum(trim_weights(s, alpha)), rtol=0, atol=1e-9)
    assert kept[-1] == pytest.approx((1.0 - alpha) * s, abs=1e-9)


def tail_pick(values: np.ndarray, alpha: float, u: float) -> int:
    """Index that ``_tails_by_samples`` picks from a batch with these values
    when its uniform is ``u``: the batch's samples are their own indices."""
    inst = types.SimpleNamespace(
        alpha=alpha,
        prior=types.SimpleNamespace(sample_many=lambda rng, s: np.arange(s)),
        value=types.SimpleNamespace(many=lambda samples: values),
    )
    return _tails_by_samples(inst, values.size, 1, types.SimpleNamespace(random=lambda: u))[0]


class TestTailPick:
    """The per-sample tail pick without a sort: the rank from the trim split
    in closed form, then the sample at that rank by selection."""

    @pytest.mark.parametrize("kind", ["distinct", "ties", "all-equal"])
    def test_sample_at_rank_is_stable_argsort(self, kind):
        rng = np.random.default_rng(70)
        values = {
            "distinct": rng.random(600),
            "ties": rng.choice([-0.0, 0.0, 0.5, 1.0, 2.0], size=600),
            "all-equal": np.full(600, 3.0),
        }[kind]
        # At alpha = 0 every sample keeps weight 1, so u = (r + 1/2) / s picks rank r.
        got = [tail_pick(values, 0.0, (r + 0.5) / values.size) for r in range(values.size)]
        assert got == np.argsort(-values, kind="stable").tolist()

    def test_picked_rank_is_search_of_kept_mass(self):
        # Values descend with the index, so the picked index is the rank.
        rng = np.random.default_rng(71)
        us = np.concatenate([[0.0, 1.0 - 2.0**-53], rng.random(30)])
        for s in [*range(1, 61), 2397, 4794, 9588]:
            values = -np.arange(s, dtype=float)
            # alpha = k / s puts the boundary weight f at or near 1.
            grid = np.arange(s) / s if s <= 60 else np.linspace(0.0, 0.95, 20)
            alphas = np.concatenate([grid, rng.random(5)])
            for alpha in alphas[alphas < 1.0]:
                kept = _kept_mass(np.arange(1, s + 1), s, alpha)
                want = np.searchsorted(kept, us * kept[-1], side="right")
                assert [tail_pick(values, alpha, u) for u in us] == want.tolist()
                assert want.max() < s


class TestEpsilonMix:
    def test_alpha_one_always_mechanism(self):
        inst = make_instance([1.0, 5.0], [0.9, 0.1], alpha=1.0)
        rng = np.random.default_rng(4)
        assert all(epsilon_mix(inst, 0.1, rng, n_samples=3) == 1 for _ in range(40))

    def test_output_is_plain_int(self):
        inst = make_instance([1.0, 5.0], [0.5, 0.5], alpha=0.3)
        out = epsilon_mix(inst, 0.1, np.random.default_rng(5), n_samples=8)
        assert type(out) is int

    def test_invalid_epsilon_rejected_before_sampling(self):
        inst = make_instance([1.0, 0.0], [0.5, 0.5], alpha=0.5)
        for eps in (0.0, 1.0, -0.2):
            with pytest.raises(ParameterError):
                epsilon_mix(inst, eps, np.random.default_rng(0))

    def test_sample_count_override_is_used(self):
        calls = []

        def sampler(rng):
            calls.append(1)
            return 0

        prior = prior_from_sampler(sampler)
        inst = InterpolationInstance(
            value=ValueFunction.from_array([1.0, 2.0]),
            prior=prior,
            mechanism=WelfareMechanism.constant(1, lam=1.0),
            alpha=0.0,  # never take the mechanism branch
        )
        epsilon_mix(inst, 0.1, np.random.default_rng(6), n_samples=17)
        assert len(calls) == 17

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_bad_sample_count_rejected(self, n_samples):
        inst = make_instance([1.0, 0.0], [0.5, 0.5], alpha=0.5)
        with pytest.raises(ParameterError):
            epsilon_mix_many(inst, 0.1, 5, np.random.default_rng(0), n_samples=n_samples)
        with pytest.raises(ParameterError):
            epsilon_mix(inst, 0.1, np.random.default_rng(0), n_samples=n_samples)

    def test_tail_trim_prefers_high_values(self):
        # With alpha=0.5, half the prior sample mass is trimmed from the
        # low-value tail, so the low-value solution nearly vanishes.
        inst = make_instance([5.0, 1.0], [0.5, 0.5], alpha=0.5)
        rng = np.random.default_rng(7)
        outs = epsilon_mix_many(inst, 0.1, 4000, rng, n_samples=16)
        law = empirical_law(outs, 2)
        assert law[0] > 0.9

    def test_all_tied_values_keep_the_prior_as_tail_law(self):
        # Ties keep draw order, so trimming equal values removes mass from
        # each in proportion to its prior mass, and no id is favoured.
        probs = [0.5, 0.3, 0.2]
        inst = make_instance([2.0, 2.0, 2.0], probs, alpha=0.5, a=2)
        for s in (1, 2, 9, 4794):
            np.testing.assert_allclose(exact_tail_law(inst, s), probs, rtol=0, atol=1e-12)
        n = 20000
        outs = epsilon_mix_many(inst, 0.1, n, np.random.default_rng(8), n_samples=9)
        target = simple_mix_distribution(inst.prior.explicit, 2, 0.5)
        assert tv_distance(empirical_law(outs, 3), target) < 3.0 * np.sqrt(3 / n)

    def test_sampled_prior_ties_keep_draw_order(self):
        # Every batch draws (0,), (2,), (1,); the last two tie on value.  At
        # alpha = 0.7 and s = 3 only the first sorted sample keeps weight,
        # so each tail returns the tied sample drawn first.
        draws = itertools.cycle([(0,), (2,), (1,)])
        values = {(0,): 0.0, (1,): 1.0, (2,): 1.0, "mechanism": 1.0}
        inst = InterpolationInstance(
            value=ValueFunction(values.__getitem__),
            prior=prior_from_sampler(lambda rng: next(draws)),
            mechanism=WelfareMechanism.constant("mechanism"),
            alpha=0.7,
        )
        outs = epsilon_mix_many(inst, 0.1, 200, np.random.default_rng(16), n_samples=3)
        assert set(outs) == {"mechanism", (2,)}

    def test_empirical_fairness(self):
        rng = np.random.default_rng(9)
        inst = random_instance(rng, n_max=10, alpha=0.3)
        outs = epsilon_mix_many(inst, 0.2, 20000, rng)
        n = len(inst.prior.explicit.support)
        law = empirical_law(outs, max(inst.prior.explicit.support) + 1)
        slack = 3.0 * np.sqrt(n / 20000)
        assert tv_distance(law, inst.prior.explicit) <= inst.alpha + slack


class TestSimpleMix:
    def test_alpha_endpoints(self):
        inst = make_instance([1.0, 5.0], [1.0, 0.0], alpha=1.0)
        rng = np.random.default_rng(10)
        assert all(simple_mix(inst, rng) == 1 for _ in range(30))
        inst0 = make_instance([1.0, 5.0], [1.0, 0.0], alpha=0.0)
        assert all(simple_mix(inst0, rng) == 0 for _ in range(30))

    def test_distribution_closed_form(self):
        prior = Distribution({0: 0.2, 1: 0.8})
        law = simple_mix_distribution(prior, a=1, alpha=0.5)
        assert law.as_dict() == pytest.approx({0: 0.1, 1: 0.9}, abs=1e-15)

    def test_distribution_matches_formula_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            inst = random_instance(rng)
            prior = inst.prior.explicit
            a = inst.mechanism.run(rng)
            law = simple_mix_distribution(prior, a, inst.alpha)
            for i in set(prior.support) | {a}:
                want = inst.alpha * (i == a) + (1 - inst.alpha) * prior[i]
                assert law[i] == pytest.approx(want, abs=1e-12)
            assert tv_distance(law, prior) == pytest.approx(
                inst.alpha * (1 - prior[a]), abs=1e-12
            )

    def test_many_matches_closed_form(self):
        inst = make_instance([1.0, 2.0, 4.0], [0.5, 0.3, 0.2], alpha=0.4)
        rng = np.random.default_rng(12)
        outs = simple_mix_many(inst, 30000, rng)
        assert all(type(o) is int for o in outs[:10])
        law = empirical_law(outs, 3)
        target = simple_mix_distribution(inst.prior.explicit, 2, 0.4)
        assert tv_distance(law, target) < 0.02


@pytest.mark.parametrize(
    "run_many",
    [
        lambda inst, n, rng: simple_mix_many(inst, n, rng),
        lambda inst, n, rng: epsilon_mix_many(inst, 0.1, n, rng),
    ],
    ids=["simple_mix_many", "epsilon_mix_many"],
)
def test_run_count_validated(run_many):
    inst = make_instance([1.0, 0.0], [0.5, 0.5], alpha=0.5)
    with pytest.raises(ParameterError, match="run count n"):
        run_many(inst, -2, np.random.default_rng(0))
    assert run_many(inst, 0, np.random.default_rng(0)) == []


@pytest.fixture(scope="module")
def replay_instances() -> dict[str, InterpolationInstance]:
    """One instance per kind of tail sequence that reaches ``_mix_many``; every
    mechanism draws from the run's generator."""
    goods = synthetic_instance(6, 3, np.random.default_rng(20))
    points = np.random.default_rng(21).random((30, 2))
    value4 = ValueFunction.from_array([1.0, 3.0, 2.0, 3.0])
    priors = {
        "ids": (FairPrior.from_distribution(Distribution.from_array([0.1, 0.2, 0.3, 0.4])), value4),
        "numpy-ints": (prior_from_sampler(lambda rng: np.int64(rng.integers(4))), value4),
        "assignments": (FairPrior(RoundRobinSampler(goods).sample_many), utilitarian_value(goods)),
        "panels": (FairPrior(RandomReplaceSampler(points, range(6)).sample_many),
                   likelihood_value(points)),
    }
    mechanism = WelfareMechanism(lambda rng: int(rng.integers(100, 200)))
    return {kind: InterpolationInstance(value, prior, mechanism, 0.5)
            for kind, (prior, value) in priors.items()}


@pytest.mark.parametrize(
    "algorithm, kind, n",
    [
        (algorithm, kind, n)
        for algorithm in ("simple_mix", "epsilon_mix")
        for kind in ("ids", "numpy-ints", "assignments", "panels")
        for n in (0, 1, 7, 20000)
        # long runs only where tails come as an array or a plain list
        if n < 20000 or kind == "ids" or (kind, algorithm) == ("numpy-ints", "simple_mix")
    ],
)
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_mix_many_replays_per_run_loop(monkeypatch, replay_instances, algorithm, kind, n, alpha):
    # Tails placed in one step must give the per-run loop's outputs, with
    # the same Python types, and leave the generator in the same state.
    inst = dataclasses.replace(replay_instances[kind], alpha=alpha)

    def run() -> tuple[list, dict]:
        rng = np.random.default_rng([22, n])
        if algorithm == "simple_mix":
            out = simple_mix_many(inst, n, rng)
        else:
            out = epsilon_mix_many(inst, 0.1, n, rng, n_samples=3)
        return out, rng.bit_generator.state

    got, got_state = run()
    monkeypatch.setattr("fairmix.mix._mix_many", mix_many_reference)
    want, want_state = run()
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]
    assert got_state == want_state


@given(
    s=st.integers(1, 20000),
    alpha=st.floats(0.0, 1.0, exclude_max=True),
    cells=st.lists(st.tuples(st.integers(0, 3), st.floats(1e-10, 1.0)), min_size=1, max_size=8),
)
def test_exact_tail_law_is_alpha_fair(s, alpha, cells):
    # Few distinct values, so most cases tie; masses go down to ~1e-11.
    raw = np.array([w for _, w in cells])
    inst = make_instance([float(v) for v, _ in cells], raw / raw.sum(), alpha)
    prior = inst.prior.explicit
    ids, p = prior.arrays()
    q = exact_tail_law(inst, s)
    assert abs(q.sum() - 1.0) <= 1e-12
    assert np.all((1.0 - alpha) * q <= p + NORM_TOL)
    a = inst.value.argmax()
    full = Distribution.from_arrays(np.append(ids, a), np.append((1.0 - alpha) * q, alpha))
    assert tv_distance(full, prior) <= alpha + NORM_TOL


class TestBatchPathLawEquivalence:
    @pytest.mark.parametrize(
        "values,probs,alpha,s",
        [
            ([2.0, 1.0, 2.0, 1.0, 2.0, 0.0], [0.1, 0.25, 0.05, 0.2, 0.3, 0.1], 0.35, 12),
            ([5.0, 2.0, 2.0, 2.0, 0.0, 0.0], [0.05, 0.2, 0.3, 0.1, 0.15, 0.2], 0.8, 37),
            ([3.0, 3.0, 0.0, 0.0, 1.0], [0.3, 0.1, 0.2, 0.25, 0.15], 0.5, 1),
            ([1.0, 4.0, 1.0, 4.0], [0.4, 0.1, 0.3, 0.2], 0.3, 5),
        ],
        ids=["three-groups-s12", "tied-middle-s37", "one-sample", "two-pairs-s5"],
    )
    def test_exact_law_matches_per_sample_path(self, values, probs, alpha, s):
        inst = make_instance(values, probs, alpha)
        q = exact_tail_law(inst, s)
        # The closed form of E W(C), against its definition as a sum over
        # the binomial counts C of samples valued at least each group.
        order = sorted(set(values), reverse=True)
        at_least = [sum(p for v, p in zip(values, probs) if v >= x) for x in order]
        mean_kept = [
            sum(math.comb(s, c) * P**c * (1 - P) ** (s - c) * _kept_mass(c, s, alpha)
                for c in range(s + 1))
            for P in at_least
        ]
        group_law = np.diff(mean_kept, prepend=0.0) / ((1.0 - alpha) * s)
        mass = np.diff(at_least, prepend=0.0)
        want = [p * group_law[order.index(v)] / mass[order.index(v)] for v, p in zip(values, probs)]
        np.testing.assert_allclose(q, want, rtol=0, atol=1e-12)
        # The same lottery behind a plain batch draw takes the per-sample
        # path; its tail frequencies must match q within sampling error.
        sampled = dataclasses.replace(inst, prior=FairPrior(inst.prior.sample_many))
        n = 20000
        outs = _tails_by_samples(sampled, s, n, np.random.default_rng(13))
        freq = np.bincount(np.asarray(outs), minlength=len(values)) / n
        assert np.all(np.abs(freq - q) <= 5.0 * np.sqrt(q * (1 - q) / n) + 1.0 / n)

    def test_many_without_explicit_prior_loops(self):
        seen = []

        def sampler(rng):
            seen.append(1)
            return int(rng.integers(2))

        prior = prior_from_sampler(sampler)
        inst = InterpolationInstance(
            value=ValueFunction.from_array([1.0, 2.0]),
            prior=prior,
            mechanism=WelfareMechanism.constant(1, lam=1.0),
            alpha=0.0,
        )
        outs = epsilon_mix_many(inst, 0.3, 5, np.random.default_rng(15), n_samples=4)
        assert len(outs) == 5
        assert len(seen) == 20  # 5 runs x 4 samples, no fast path available

    def test_batch_round_robin_matches_reference_tail_mean(self):
        # The vectorized unit round robin and the scalar reference loop give
        # epsilon_mix the same prior, so the mean value of the tail outputs
        # must agree.  Heads return the mechanism's one solution object,
        # which no tail returns.
        goods = synthetic_instance(8, 3, np.random.default_rng(17))
        best = max_matching(goods)
        means, variances = [], []
        for prior, seed in (
            (FairPrior(RoundRobinSampler(goods).sample_many), 18),
            (unit_round_robin_reference_prior(goods), 19),
        ):
            inst = InterpolationInstance(
                value=utilitarian_value(goods),
                prior=prior,
                mechanism=WelfareMechanism.constant(best),
                alpha=0.5,
            )
            outs = epsilon_mix_many(inst, 0.1, 3000, np.random.default_rng(seed), n_samples=20)
            tails = np.array([inst.value(x) for x in outs if x is not best])
            assert tails.size > 1000
            means.append(tails.mean())
            variances.append(tails.var(ddof=1) / tails.size)
        assert abs(means[0] - means[1]) <= 5.0 * np.sqrt(sum(variances))
