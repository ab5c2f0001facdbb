"""Mixing algorithms: sample counts, trimming, fairness, and batch paths."""

from __future__ import annotations

import dataclasses
import itertools
import math

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
    epsilon_mix,
    epsilon_mix_many,
    sample_size,
    simple_mix,
    simple_mix_distribution,
    simple_mix_many,
    trim_weights,
)

from conftest import (
    make_instance,
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
    # W(t) is the one trim formula: the per-sample pick reads it at
    # t = 1..s, and the exact tail law takes its mean over binomial counts.
    kept = _kept_mass(np.arange(1, s + 1), s, alpha)
    np.testing.assert_allclose(kept, np.cumsum(trim_weights(s, alpha)), rtol=0, atol=1e-9)
    assert kept[-1] == pytest.approx((1.0 - alpha) * s, abs=1e-9)


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
