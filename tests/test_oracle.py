"""Exact oracles: optimal fair lottery, bounds, laws, and guarantee checks."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairmix.core import (
    Distribution,
    ParameterError,
    ScaleError,
    ValueFunction,
    WelfareMechanism,
    expected_value,
    is_alpha_fair,
    tv_distance,
)
from fairmix.oracle import (
    ORACLE_MAX_SOLUTIONS,
    build_p_opt,
    check_guarantees,
    check_individual_fairness,
    estimate_output_law,
    smix_lower_bound,
    v_p_opt,
)
from fairmix.mix import simple_mix_distribution

from conftest import (
    build_p_opt_array_reference,
    build_p_opt_reference,
    grid_search_value,
    make_instance,
    prior_from_sampler,
    random_instance,
    random_simplex,
    tv_distance_reference,
)


WORKED_PRIOR = Distribution({0: 0.2, 1: 0.3, 2: 0.5})
WORKED_VALUE = ValueFunction.from_array([3.0, 1.0, 0.0])


class TestBuildPOpt:
    def test_worked_example(self):
        dec = build_p_opt(WORKED_PRIOR, WORKED_VALUE, alpha=0.4)
        assert dec.opt == 0
        assert dec.p_opt.as_dict() == pytest.approx(
            {0: 0.6, 1: 0.3, 2: 0.1}, abs=1e-12
        )
        assert v_p_opt(dec, WORKED_VALUE) == pytest.approx(2.1, abs=1e-12)
        assert v_p_opt(dec, WORKED_VALUE) == pytest.approx(
            expected_value(dec.p_opt, WORKED_VALUE), abs=1e-12
        )

    def test_alpha_zero_returns_prior(self):
        dec = build_p_opt(WORKED_PRIOR, WORKED_VALUE, alpha=0.0)
        assert tv_distance(dec.p_opt, WORKED_PRIOR) == 0.0
        assert dec.p_alpha_tilde is None

    def test_alpha_one_is_point_mass_on_opt(self):
        dec = build_p_opt(WORKED_PRIOR, WORKED_VALUE, alpha=1.0)
        assert dec.p_opt.as_dict() == {0: 1.0}
        assert dec.p_alpha is None

    def test_result_is_alpha_fair(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            inst = random_instance(rng)
            prior = inst.prior.explicit
            dec = build_p_opt(prior, inst.value, inst.alpha)
            assert is_alpha_fair(dec.p_opt, prior, inst.alpha)

    def test_prior_splits_into_top_and_tail(self):
        # p^f = (1-alpha) * p_alpha + alpha * p_alpha_tilde, exactly.
        rng = np.random.default_rng(21)
        for _ in range(50):
            inst = random_instance(rng, alpha=float(rng.uniform(0.05, 0.95)))
            prior = inst.prior.explicit
            dec = build_p_opt(prior, inst.value, inst.alpha)
            assert dec.p_alpha is not None and dec.p_alpha_tilde is not None
            for i in prior.support:
                mix = (1 - inst.alpha) * dec.p_alpha[i] + inst.alpha * dec.p_alpha_tilde[i]
                assert mix == pytest.approx(prior[i], abs=1e-9)

    def test_value_identity(self):
        # v = alpha * V(opt) + (1 - alpha) * E[V under p_alpha].
        rng = np.random.default_rng(22)
        for _ in range(50):
            inst = random_instance(rng, alpha=float(rng.uniform(0.05, 0.95)))
            prior = inst.prior.explicit
            dec = build_p_opt(prior, inst.value, inst.alpha)
            want = inst.alpha * inst.value(dec.opt) + (1 - inst.alpha) * expected_value(
                dec.p_alpha, inst.value
            )
            assert v_p_opt(dec, inst.value) == pytest.approx(want, abs=1e-9)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            inst = random_instance(rng)
            prior = inst.prior.explicit
            vals = [
                v_p_opt(build_p_opt(prior, inst.value, a), inst.value)
                for a in np.linspace(0.0, 1.0, 11)
            ]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_tiny_masses_are_kept(self, alpha):
        # 20 solutions of mass 5e-10, each below NORM_TOL, valued lowest:
        # removing them whole must not drop their mass from the removed part.
        prior = Distribution({**{i: 5e-10 for i in range(20)}, 20: 1.0 - 20 * 5e-10})
        value = ValueFunction.from_array([0.0] * 20 + [1.0])
        dec = build_p_opt(prior, value, alpha)
        assert dec.p_alpha_tilde is not None
        assert sum(dec.p_alpha_tilde.as_dict().values()) == pytest.approx(1.0, abs=1e-12)
        assert all(dec.p_alpha_tilde[i] == pytest.approx(5e-10 / alpha, rel=1e-9)
                   for i in range(20))
        assert is_alpha_fair(dec.p_opt, prior, alpha)

    def test_large_dirichlet_prior(self):
        rng = np.random.default_rng(24)
        n = 100_000
        prior = Distribution.from_array(rng.dirichlet(np.ones(n)))
        value = ValueFunction.from_array(rng.random(n))
        dec = build_p_opt(prior, value, 0.5)
        assert is_alpha_fair(dec.p_opt, prior, 0.5)

    @pytest.mark.parametrize("alpha", [1.0 - 1e-12, float(np.nextafter(1.0, 0.0))])
    def test_alpha_just_below_one(self, alpha):
        # The kept mass is 1 - alpha only up to rounding of the order of
        # 1 - alpha; scaling by 1 - alpha used to break normalization.
        rng = np.random.default_rng(25)
        for _ in range(20):
            inst = random_instance(rng, alpha=alpha)
            prior = inst.prior.explicit
            dec = build_p_opt(prior, inst.value, alpha)
            assert is_alpha_fair(dec.p_opt, prior, alpha)
            assert v_p_opt(dec, inst.value) == pytest.approx(inst.value.max_value(), rel=1e-9)

    @pytest.mark.parametrize("sid", [-1, 1.5])
    def test_invalid_solution_id_never_reaches_the_oracles(self, sid):
        # -1 would index the last value; 1.5 would be truncated to id 1.
        value = ValueFunction.from_array([1.0, 2.0])
        with pytest.raises(ParameterError, match="solution id"):
            build_p_opt(Distribution({sid: 1.0}), value, 0.5)
        with pytest.raises(ParameterError, match="solution id"):
            grid_search_value(Distribution({sid: 1.0}), value, 0.5)

    def test_removal_order_low_values_first(self):
        # Mass leaves solution 2 (value 0) before solution 1 (value 1).
        dec = build_p_opt(WORKED_PRIOR, WORKED_VALUE, alpha=0.5)
        assert dec.p_opt[2] == pytest.approx(0.0, abs=1e-12)
        assert dec.p_opt[1] == pytest.approx(0.3, abs=1e-12)


class TestSmixLowerBound:
    def test_frozen_values(self):
        assert smix_lower_bound(1.0, 0.5) == pytest.approx(0.75, abs=1e-15)
        assert smix_lower_bound(0.5, 0.1) == pytest.approx(0.5, abs=1e-15)

    def test_formula(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            lam = float(rng.uniform(0.05, 1.0))
            alpha = float(rng.uniform(0.0, 1.0))
            want = min(lam, alpha * lam + (1 - alpha) ** 2)
            assert smix_lower_bound(lam, alpha) == pytest.approx(want, abs=1e-15)


class TestEstimateOutputLaw:
    def test_simple_mix_law_matches_closed_form(self):
        inst = make_instance([1.0, 2.0, 5.0], [0.6, 0.3, 0.1], alpha=0.4)
        law = estimate_output_law("simple_mix", inst, 30000, np.random.default_rng(25))
        target = simple_mix_distribution(inst.prior.explicit, 2, 0.4)
        assert tv_distance(law, target) < 0.02

    def test_epsilon_mix_requires_epsilon(self):
        inst = make_instance([1.0, 2.0], [0.5, 0.5], alpha=0.4)
        with pytest.raises(ParameterError):
            estimate_output_law("epsilon_mix", inst, 10, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "kw,error", [(dict(epsilon=0.1), "epsilon"), (dict(n_samples=5), "samples")]
    )
    def test_simple_mix_takes_no_epsilon_mix_parameters(self, kw, error):
        inst = make_instance([1.0, 2.0], [0.5, 0.5], alpha=0.4)
        with pytest.raises(ParameterError, match=error):
            estimate_output_law("simple_mix", inst, 10, np.random.default_rng(0), **kw)

    def test_unknown_algorithm(self):
        inst = make_instance([1.0, 2.0], [0.5, 0.5], alpha=0.4)
        with pytest.raises(ParameterError):
            estimate_output_law("other", inst, 10, np.random.default_rng(0))

    def test_requires_explicit_prior(self):
        from fairmix.core import InterpolationInstance, WelfareMechanism

        inst = InterpolationInstance(
            value=ValueFunction.from_array([1.0, 2.0]),
            prior=prior_from_sampler(lambda rng: 0),
            mechanism=WelfareMechanism.constant(1),
            alpha=0.5,
        )
        with pytest.raises(ParameterError):
            estimate_output_law("simple_mix", inst, 10, np.random.default_rng(0))

    @pytest.mark.parametrize("output", [1.5, (0, 1)])
    def test_rejects_non_integer_outputs(self, output):
        inst = dataclasses.replace(make_instance([1.0, 2.0], [0.5, 0.5], alpha=0.5),
                                   mechanism=WelfareMechanism.constant(output))
        with pytest.raises(ParameterError, match="integer solution ids"):
            estimate_output_law("simple_mix", inst, 50, np.random.default_rng(0))

    def test_scale_cap(self):
        n = ORACLE_MAX_SOLUTIONS + 1
        inst = make_instance(np.ones(n), np.full(n, 1.0 / n), alpha=0.5, a=0)
        with pytest.raises(ScaleError):
            estimate_output_law("simple_mix", inst, 10, np.random.default_rng(0))


class TestCheckGuarantees:
    def test_both_algorithms_pass_on_honest_instance(self):
        rng = np.random.default_rng(26)
        inst = random_instance(rng, alpha=0.4)
        for eps in (None, 0.2):
            report = check_guarantees(inst, 20000, np.random.default_rng(27), epsilon=eps)
            assert report.passed
            assert report.fairness_ok and report.welfare_ok
            assert report.algorithm == ("simple_mix" if eps is None else "epsilon_mix")

    def test_report_lines_are_key_value(self):
        inst = make_instance([1.0, 2.0], [0.5, 0.5], alpha=0.3)
        report = check_guarantees(inst, 2000, np.random.default_rng(28))
        lines = report.lines()
        assert all("=" in line for line in lines)
        keys = [line.split("=", 1)[0] for line in lines]
        assert keys == sorted(set(keys), key=keys.index)  # stable, no dupes
        assert report.render() == "\n".join(lines) + "\n"

    def test_dishonest_mechanism_fails_welfare(self):
        # Mechanism claims lam=1 but returns the worst solution.
        inst = make_instance([5.0, 0.1], [0.5, 0.5], alpha=0.6, a=1, lam=1.0)
        report = check_guarantees(inst, 4000, np.random.default_rng(29))
        assert not report.welfare_ok
        assert report.retried
        assert not report.passed


class TestIndividualFairness:
    def test_exact_law_passes(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            prior = Distribution.from_array(random_simplex(rng, n))
            a = int(rng.integers(n))
            alpha = float(rng.uniform(0.0, 1.0))
            utilities = rng.random((3, n))
            assert check_individual_fairness(prior, a, alpha, utilities=utilities)

    def test_violating_candidate_rejected(self):
        prior = Distribution({0: 0.5, 1: 0.5})
        bad = Distribution({0: 0.2, 1: 0.8})  # 0.2 < (1-0.4)*0.5
        assert not check_individual_fairness(prior, a=1, alpha=0.4, candidate=bad)

    def test_utilities_need_a_column_per_supported_id(self):
        prior = Distribution({0: 0.5, 3: 0.5})
        with pytest.raises(ParameterError, match="column"):
            check_individual_fairness(prior, 0, 0.3, utilities=np.ones((2, 2)))

    def test_exact_candidate_accepted(self):
        prior = Distribution({0: 0.5, 1: 0.5})
        good = simple_mix_distribution(prior, a=1, alpha=0.4)
        assert check_individual_fairness(prior, a=1, alpha=0.4, candidate=good)


class TestGridSearch:
    @pytest.mark.parametrize("resolution", [0.0, float("nan"), float("inf")])
    def test_rejects_resolution_outside_unit_interval(self, resolution):
        prior = Distribution({0: 0.5, 1: 0.5})
        with pytest.raises(ParameterError, match="resolution"):
            grid_search_value(prior, ValueFunction.from_array([1.0, 0.0]), 0.5, resolution)

    def test_requires_grid_aligned_prior(self):
        prior = Distribution({0: 1 / 3, 1: 2 / 3})
        with pytest.raises(ParameterError):
            grid_search_value(prior, ValueFunction.from_array([1.0, 0.0]), 0.5)

    def test_exact_on_aligned_instance(self):
        # p_opt itself is a grid point here, so the search attains it.
        prior = Distribution({0: 0.5, 1: 0.5})
        value = ValueFunction.from_array([1.0, 0.0])
        best = grid_search_value(prior, value, alpha=0.2, resolution=0.02)
        dec = build_p_opt(prior, value, 0.2)
        assert best == pytest.approx(v_p_opt(dec, value), abs=1e-9)

    def test_never_beats_p_opt_beyond_slack(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            counts = rng.multinomial(50, np.full(n, 1.0 / n))
            counts[0] += 50 - counts.sum()
            prior = Distribution.from_array(counts / 50.0)
            values = rng.random(n)
            value = ValueFunction.from_array(values)
            alpha = float(rng.uniform(0.05, 0.95))
            best = grid_search_value(prior, value, alpha, resolution=0.02)
            dec = build_p_opt(prior, value, alpha)
            assert best <= v_p_opt(dec, value) + 0.02 * value.max_value() + 1e-9


_TIE_VALUES = st.sampled_from([0.0, 0.5, 1.0, 3.0]) | st.floats(0.0, 10.0)


@st.composite
def _oracle_problems(draw):
    """A prior over a subset of ``m`` ids, with value ties and 5e-10 masses."""
    m = draw(st.integers(1, 12))
    values = np.array(draw(st.lists(_TIE_VALUES, min_size=m, max_size=m)))
    support = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True))
    tiny = np.array(draw(st.lists(st.booleans(), min_size=len(support), max_size=len(support))))
    tiny[0] = tiny[0] and not tiny.all()
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(support),
                                     max_size=len(support))))
    probs = np.where(tiny, 5e-10, weights / weights[~tiny].sum() * (1.0 - 5e-10 * tiny.sum()))
    prior = Distribution(dict(zip(support, probs.tolist())))
    if draw(st.booleans()):
        value = ValueFunction.from_array(values)
    else:
        value = ValueFunction(lambda sid: float(values[sid]))
    alpha = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    return prior, value, alpha


def _assert_same_law(got: Distribution | None, want: Distribution | None) -> None:
    if want is None:
        assert got is None
        return
    assert got.support == want.support
    np.testing.assert_allclose(got.probs, want.probs, rtol=0.0, atol=1e-12)


def _assert_same_bits(got: Distribution | None, want) -> None:
    if want is None:
        assert got is None
        return
    assert got.ids.dtype == want[0].dtype and got.ids.tobytes() == want[0].tobytes()
    assert got.probs.dtype == want[1].dtype and got.probs.tobytes() == want[1].tobytes()


def _assert_replays_array_reference(prior: Distribution, value: ValueFunction, alpha: float):
    dec = build_p_opt(prior, value, alpha)
    opt, p_opt, p_alpha, p_alpha_tilde = build_p_opt_array_reference(prior, value, alpha)
    assert dec.opt == opt
    _assert_same_bits(dec.p_opt, p_opt)
    _assert_same_bits(dec.p_alpha, p_alpha)
    _assert_same_bits(dec.p_alpha_tilde, p_alpha_tilde)


@given(problem=_oracle_problems())
def test_build_p_opt_matches_reference_loop(problem):
    prior, value, alpha = problem
    dec = build_p_opt(prior, value, alpha)
    opt, p_opt, p_alpha, p_alpha_tilde = build_p_opt_reference(prior, value, alpha)
    assert dec.opt == opt
    _assert_same_law(dec.p_opt, p_opt)
    _assert_same_law(dec.p_alpha, p_alpha)
    _assert_same_law(dec.p_alpha_tilde, p_alpha_tilde)
    for law in (dec.p_opt, dec.p_alpha, dec.p_alpha_tilde):
        if law is not None:
            assert tv_distance(law, prior) == pytest.approx(
                tv_distance_reference(law, prior), abs=1e-12
            )
    _assert_replays_array_reference(prior, value, alpha)


@pytest.mark.parametrize("n", [1, 7, 1000, 100_000])
@pytest.mark.parametrize("alpha", [0.0, 1.0, "random"])
def test_build_p_opt_replays_array_reference_bits_at_scale(n, alpha):
    # Few distinct values (long ties), a support that skips ids (so opt may
    # be off it), masses of 5e-10 among ordinary ones, and a callable value.
    rng = np.random.default_rng([27, n])
    alpha = float(rng.random()) if alpha == "random" else alpha
    values = np.round(rng.random(n + 5) * 8.0) / 8.0
    ids = np.sort(rng.choice(n + 5, size=n, replace=False))
    tiny = rng.random(n) < 0.2
    tiny[0] = False
    weights = rng.random(n) + 0.01
    probs = np.where(tiny, 5e-10, weights / weights[~tiny].sum() * (1.0 - 5e-10 * tiny.sum()))
    prior = Distribution.from_arrays(ids, probs)
    _assert_replays_array_reference(prior, ValueFunction.from_array(values), alpha)
    if n <= 1000:
        _assert_replays_array_reference(prior, ValueFunction(lambda i: float(values[i])), alpha)
