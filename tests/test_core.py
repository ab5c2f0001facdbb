"""Distribution, value-function, and instance primitives."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairmix.core import (
    Distribution,
    FairPrior,
    InterpolationInstance,
    ParameterError,
    ValueFunction,
    WelfareMechanism,
    check_alpha,
    expected_value,
    is_alpha_fair,
    tv_distance,
)

from conftest import make_instance, prior_from_sampler, random_simplex


class TestDistribution:
    def test_requires_normalization(self):
        with pytest.raises(ParameterError):
            Distribution({0: 0.5})

    def test_rejects_negative_probability(self):
        with pytest.raises(ParameterError):
            Distribution({0: 1.2, 1: -0.2})

    def test_rejects_nan_probability(self):
        # A NaN entry fails both "< 0" and "> 0"; it must not be dropped.
        with pytest.raises(ParameterError, match="NaN"):
            Distribution({0: 1.0, 1: float("nan")})

    def test_arrays_are_sorted_and_renormalized(self):
        ids, probs = Distribution({5: 0.75, 2: 0.25 + 1e-12}).arrays()
        assert ids.tolist() == [2, 5]
        assert probs.sum() == pytest.approx(1.0, abs=1e-15)
        assert probs == pytest.approx([0.25, 0.75], abs=1e-11)

    def test_drops_exact_zeros(self):
        d = Distribution({0: 0.5, 1: 0.0, 2: 0.5})
        assert d.support == (0, 2)
        assert d[1] == 0.0

    def test_point_mass(self):
        d = Distribution.point_mass(7)
        assert d.support == (7,)
        assert d[7] == 1.0

    def test_from_array(self):
        d = Distribution.from_array([0.25, 0.0, 0.75])
        assert d.as_dict() == {0: 0.25, 2: 0.75}

    def test_support_sorted(self):
        d = Distribution({5: 0.5, 1: 0.25, 3: 0.25})
        assert d.support == (1, 3, 5)

    def test_lookup_defaults_to_zero(self):
        d = Distribution.point_mass(0)
        assert d[99] == 0.0

    def test_items_iterates_support(self):
        d = Distribution({2: 0.5, 0: 0.5})
        assert list(d.items()) == [(0, 0.5), (2, 0.5)]

    def test_rejects_negative_solution_id(self):
        with pytest.raises(ParameterError, match="solution id -1"):
            Distribution({-1: 1.0})
        with pytest.raises(ParameterError, match="solution id -1"):
            Distribution.from_arrays(np.array([2, -1]), np.array([0.5, 0.5]))

    def test_rejects_non_integral_solution_id(self):
        with pytest.raises(ParameterError, match="solution id 1.5"):
            Distribution({1.5: 1.0})
        with pytest.raises(ParameterError, match="solution ids must be integers"):
            Distribution.from_arrays(np.array([1.5]), np.array([1.0]))

    def test_numpy_integer_ids_accepted(self):
        d = Distribution({np.int64(4): 0.5, np.uint8(1): 0.5})
        assert d.support == (1, 4)
        assert all(type(sid) is int and type(p) is float for sid, p in d.items())

    def test_from_arrays_adds_repeated_ids(self):
        d = Distribution.from_arrays(np.array([3, 1, 3]), np.array([0.25, 0.5, 0.25]))
        assert d.as_dict() == {1: 0.5, 3: 0.5}

    def test_arrays_are_read_only(self):
        d = Distribution({0: 0.5, 2: 0.5})
        for arr in (d.ids, d.probs):
            with pytest.raises(ValueError):
                arr[0] = 1


_WEIGHTS = st.dictionaries(
    st.integers(0, 2000), st.one_of(st.just(0.0), st.floats(1e-6, 1e3)), min_size=1
).filter(lambda w: sum(w.values()) > 0.0)


@given(weights=_WEIGHTS)
def test_distribution_accepts_any_normalized_vector(weights):
    total = sum(weights.values())
    d = Distribution({sid: w / total for sid, w in weights.items()})
    assert d.support == tuple(sorted(sid for sid, w in weights.items() if w > 0.0))
    ids, probs = d.arrays()
    assert ids.tolist() == list(d.support)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


@given(
    weights=_WEIGHTS,
    bad=st.one_of(st.just(float("nan")), st.floats(max_value=0.0, exclude_max=True)),
    bad_id=st.integers(0, 2000),
)
def test_distribution_rejects_nan_or_negative_entry(weights, bad, bad_id):
    total = sum(weights.values())
    entries = {sid: w / total for sid, w in weights.items()}
    entries[bad_id] = bad
    with pytest.raises(ParameterError, match="NaN|negative"):
        Distribution(entries)


class TestTvDistance:
    def test_hand_value(self):
        p = Distribution({0: 0.2, 1: 0.8})
        q = Distribution({0: 0.6, 1: 0.4})
        assert tv_distance(p, q) == pytest.approx(0.4, abs=1e-15)

    def test_disjoint_supports(self):
        assert tv_distance(Distribution.point_mass(0), Distribution.point_mass(1)) == 1.0

    def test_identical_is_zero(self):
        p = Distribution({0: 0.3, 1: 0.7})
        assert tv_distance(p, p) == 0.0

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            p = Distribution.from_array(random_simplex(rng, n))
            q = Distribution.from_array(random_simplex(rng, n))
            d = tv_distance(p, q)
            assert d == pytest.approx(tv_distance(q, p), abs=1e-15)
            assert 0.0 <= d <= 1.0

    def test_alpha_fair_boundary(self):
        p = Distribution({0: 0.2, 1: 0.8})
        q = Distribution({0: 0.6, 1: 0.4})
        assert is_alpha_fair(p, q, 0.4)  # distance exactly 0.4
        assert not is_alpha_fair(p, q, 0.39)


class TestValueFunction:
    def test_from_array_and_call(self):
        v = ValueFunction.from_array([3.0, 1.0, 0.0])
        assert v(0) == 3.0 and v(2) == 0.0
        assert v.max_value() == 3.0

    def test_rejects_negative_values(self):
        with pytest.raises(ParameterError):
            ValueFunction.from_array([1.0, -0.1])

    def test_rejects_non_finite(self):
        with pytest.raises(ParameterError):
            ValueFunction.from_array([1.0, float("nan")])
        with pytest.raises(ParameterError):
            ValueFunction.from_array([1.0, float("inf")])

    def test_argmax_is_first_maximizer(self):
        assert ValueFunction.from_array([1.0, 3.0, 3.0]).argmax() == 1

    def test_wrapped_callable_negative_rejected(self):
        v = ValueFunction(lambda s: -1.0)
        with pytest.raises(ParameterError):
            v(0)


def test_expected_value_hand_case():
    dist = Distribution({0: 0.25, 1: 0.75})
    value = ValueFunction.from_array([4.0, 8.0])
    assert expected_value(dist, value) == pytest.approx(7.0, abs=1e-15)


class TestFairPrior:
    def test_from_distribution_sampling_law(self):
        dist = Distribution({0: 0.2, 1: 0.3, 2: 0.5})
        prior = FairPrior.from_distribution(dist)
        rng = np.random.default_rng(1)
        draws = prior.sample_many(rng, 20000)
        emp = Distribution.from_array(np.bincount(draws, minlength=3) / 20000)
        assert tv_distance(emp, dist) < 0.02
        assert prior.explicit is dist

    def test_single_sample_in_support(self):
        prior = FairPrior.from_distribution(Distribution({3: 0.5, 9: 0.5}))
        rng = np.random.default_rng(2)
        assert all(prior.sample(rng) in (3, 9) for _ in range(20))

    def test_sample_many_falls_back_to_loop(self):
        prior = prior_from_sampler(lambda rng: 42)
        out = prior.sample_many(np.random.default_rng(0), 5)
        assert list(out) == [42] * 5

    def test_sample_many_draws_explicit_lottery_vectorized(self):
        dist = Distribution({3: 0.5, 9: 0.5})
        ids, probs = dist.arrays()
        prior = FairPrior.from_distribution(dist)
        out = prior.sample_many(np.random.default_rng(3), 50)
        assert isinstance(out, np.ndarray) and set(out.tolist()) == {3, 9}
        want = ids[np.random.default_rng(3).choice(probs.size, size=50, p=probs)]
        assert np.array_equal(out, want)  # one vectorized rng.choice

    def test_batch_draw_is_the_primitive(self):
        batches = []

        def draw(rng, n):
            batches.append(n)
            return list(range(n))

        prior = FairPrior(draw)
        assert prior.sample_many(np.random.default_rng(0), 4) == [0, 1, 2, 3]
        assert prior.sample(np.random.default_rng(0)) == 0
        assert batches == [4, 1]

    def test_explicit_sample_stream_unchanged(self):
        # One explicit draw consumes the generator as one scalar rng.choice.
        dist = Distribution({2: 0.1, 5: 0.6, 7: 0.3})
        ids, probs = dist.arrays()
        prior = FairPrior.from_distribution(dist)
        got, want = np.random.default_rng(4), np.random.default_rng(4)
        for _ in range(200):
            assert prior.sample(got) == ids[want.choice(probs.size, p=probs)]
        assert got.random() == want.random()


class TestValueFunctionMany:
    def test_default_loops_over_call(self):
        value = ValueFunction.from_array([1.0, 2.5, 4.0])
        out = value.many([2, 0, 2])
        assert isinstance(out, np.ndarray) and out.tolist() == [4.0, 1.0, 4.0]

    def test_array_backed_indexes_values_without_calling(self):
        value = ValueFunction.from_array([1.0, 2.5, 4.0])
        value._fn = lambda sid: pytest.fail(f"called the wrapped function for {sid!r}")
        assert value.many(np.array([2, 0, 2])).tolist() == [4.0, 1.0, 4.0]
        assert value.many([1]).tolist() == [2.5]

    def test_default_keeps_nonnegative_check(self):
        with pytest.raises(ParameterError):
            ValueFunction(lambda s: -1.0).many([0])

    @pytest.mark.parametrize("sid", [-1, 2, np.int64(-3)])
    def test_array_backed_rejects_id_outside_vector(self, sid):
        # numpy indexing would wrap -1 onto the last value and raise a bare
        # IndexError past the end.
        value = ValueFunction.from_array([1.0, 2.0])
        with pytest.raises(ParameterError, match=f"solution id {sid} is outside"):
            value(sid)
        with pytest.raises(ParameterError, match=f"solution id {sid} is outside"):
            value.many([0, sid, 1])

    @pytest.mark.parametrize("ids", [1.5, [0.5], [1.0], np.array([True, False])])
    def test_array_backed_rejects_non_integer_ids(self, ids):
        # numpy would raise a bare IndexError on floats and read booleans
        # as a mask, returning one value for two solutions.
        value = ValueFunction.from_array([1.0, 2.0])
        with pytest.raises(ParameterError, match="solution ids must be integers"):
            value.many(ids) if isinstance(ids, (list, np.ndarray)) else value(ids)


class TestWelfareMechanism:
    def test_constant_returns_solution(self):
        m = WelfareMechanism.constant(5, lam=0.5)
        assert m.run(np.random.default_rng(0)) == 5
        assert m.lam == 0.5

    @pytest.mark.parametrize("lam", [0.0, -0.5, 1.5])
    def test_lambda_out_of_range(self, lam):
        with pytest.raises(ParameterError):
            WelfareMechanism.constant(0, lam=lam)


class TestInterpolationInstance:
    @pytest.mark.parametrize("alpha", [-0.01, 1.01])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(ParameterError):
            make_instance([1.0, 0.0], [0.5, 0.5], alpha)

    def test_endpoints_allowed(self):
        for alpha in (0.0, 1.0):
            inst = make_instance([1.0, 0.0], [0.5, 0.5], alpha)
            assert inst.alpha == alpha



@pytest.mark.parametrize("alpha", [-0.01, 1.01, float("nan")])
def test_check_alpha_rejects_outside_closed_range(alpha):
    with pytest.raises(ParameterError, match=r"alpha must lie in \[0, 1\]"):
        check_alpha(alpha)
