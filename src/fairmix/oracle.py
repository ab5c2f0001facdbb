"""Exact oracles and empirical checkers for the mixing algorithms.

For small enumerable instances (explicit prior, array-backed value
function) this module constructs the *optimal* lottery subject to the
fairness budget, computes the welfare bounds the algorithms promise
against it, estimates the algorithms' actual output laws by Monte Carlo,
and verifies both the fairness budget and the welfare bounds with
statistical slack.

The optimal lottery has a simple structure: starting from the prior,
remove ``alpha`` probability mass from the lowest-valued support
solutions upward, then place the removed mass on a welfare-maximizing
solution.  :func:`build_p_opt` materializes this construction together
with the mass decomposition it induces; :func:`grid_search_value` is an
independent exhaustive check of its optimality over a probability grid.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any

import numpy as np

from .core import (
    ALGORITHMS,
    NORM_TOL,
    Distribution,
    InterpolationInstance,
    ParameterError,
    ScaleError,
    ValueFunction,
    check_alpha,
    expected_value,
    tv_distance,
)
from .mix import epsilon_mix_many, sample_size, simple_mix_distribution, simple_mix_many

#: Largest enumerable solution space the exact oracles will process.
ORACLE_MAX_SOLUTIONS = 100_000

def _check_scale(n: int) -> None:
    if n > ORACLE_MAX_SOLUTIONS:
        raise ScaleError(
            f"solution space has {n} solutions; exact oracles support at most "
            f"{ORACLE_MAX_SOLUTIONS}"
        )


# ---------------------------------------------------------------------------
# the optimal constrained lottery


@dataclasses.dataclass(frozen=True)
class OptDecomposition:
    """Optimal lottery under a fairness budget, with its mass decomposition.

    ``p_opt`` is the prior with ``alpha`` mass moved from its lowest-valued
    solutions onto ``opt``.  The kept and the removed prior mass, each
    scaled to a probability distribution, are ``p_alpha`` (``None`` when
    no mass is kept, as at ``alpha = 1``) and ``p_alpha_tilde`` (``None``
    when ``alpha = 0``), so the prior is
    ``(1 - alpha) * p_alpha + alpha * p_alpha_tilde``.
    """

    alpha: float
    opt: int
    p_opt: Distribution
    p_alpha: Distribution | None
    p_alpha_tilde: Distribution | None


def build_p_opt(prior: Distribution, value: ValueFunction, alpha: float) -> OptDecomposition:
    """Construct the maximum-value lottery within total-variation ``alpha``.

    Removal order is value ascending with ties broken by id ascending, so
    the construction is fully deterministic.  The welfare-maximizing
    solution is taken over all ids of an array-backed value function (ties
    to the smallest id), otherwise over the prior's support.
    """
    alpha = check_alpha(alpha)
    ids, probs = prior.ids, prior.probs
    _check_scale(ids.size)
    if value.values is not None and ids[-1] >= value.values.size:
        raise ParameterError(
            f"prior support id {ids[-1]} outside value domain of size {value.values.size}"
        )
    vals = value.many(ids)
    opt = value.argmax() if value.values is not None else int(ids[np.argmax(vals)])

    order = np.lexsort((ids, vals))
    p = probs[order]
    before = np.concatenate(([0.0], np.cumsum(p)[:-1]))  # prior mass ahead in removal order
    removed = np.empty_like(probs)
    removed[order] = np.clip(alpha - before, 0.0, p)
    residual = probs - removed
    # Each part is scaled by its own mass: 1 - alpha (or alpha) up to rounding,
    # but near alpha = 1 that rounding is as large as 1 - alpha itself.
    kept = residual.sum()
    p_alpha = Distribution.from_arrays(ids, residual / kept) if alpha < 1.0 and kept > 0.0 else None
    p_alpha_tilde = Distribution.from_arrays(ids, removed / removed.sum()) if alpha > 0.0 else None
    p_opt = Distribution.from_arrays(np.append(ids, opt), np.append(residual, alpha))
    return OptDecomposition(alpha, int(opt), p_opt, p_alpha, p_alpha_tilde)


def v_p_opt(decomp: OptDecomposition, value: ValueFunction) -> float:
    """Value of the optimal constrained lottery, from its decomposition.

    ``alpha * value(opt) + (1 - alpha) * E[value under p_alpha]``; agrees
    with evaluating ``p_opt`` directly.
    """
    top = decomp.alpha * value(decomp.opt)
    if decomp.p_alpha is None:
        return top
    return top + (1.0 - decomp.alpha) * expected_value(decomp.p_alpha, value)


def smix_lower_bound(lam: float, alpha: float) -> float:
    """Welfare factor the single-draw algorithm guarantees against the optimum.

    ``min(lam, alpha * lam + (1 - alpha)**2)``.  The factor is at least
    ``3/4 * lam``, with the minimum attained at ``alpha = 1/2`` when
    ``lam = 1``.

    >>> smix_lower_bound(1.0, 0.5)
    0.75
    >>> smix_lower_bound(0.5, 0.3)
    0.5
    """
    if not 0.0 < lam <= 1.0:
        raise ParameterError(f"lam must lie in (0, 1], got {lam!r}")
    alpha = check_alpha(alpha)
    return min(lam, alpha * lam + (1.0 - alpha) ** 2)


# ---------------------------------------------------------------------------
# Monte Carlo estimation and guarantee checking


def estimate_output_law(
    algorithm: str,
    instance: InterpolationInstance,
    n_runs: int,
    rng: np.random.Generator,
    epsilon: float | None = None,
    n_samples: int | None = None,
) -> Distribution:
    """Empirical output lottery of an algorithm from ``n_runs`` runs.

    Requires an explicit prior (oracle mode) and integer solution ids.
    Runs are independent, so they may be split across substreams and
    merged by frequency sum; this implementation executes them
    sequentially (vectorized internally), which is the deterministic
    degenerate case.
    """
    if algorithm not in ALGORITHMS:
        raise ParameterError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    if instance.prior.explicit is None:
        raise ParameterError("output-law estimation requires an explicit prior (oracle mode)")
    if n_runs < 1:
        raise ParameterError(f"n_runs must be >= 1, got {n_runs!r}")
    _check_scale(len(instance.prior.explicit))

    if algorithm == "epsilon_mix":
        if epsilon is None:
            raise ParameterError("epsilon_mix requires epsilon")
        outputs = epsilon_mix_many(instance, epsilon, n_runs, rng, n_samples=n_samples)
    else:
        outputs = simple_mix_many(instance, n_runs, rng)

    try:
        outputs = np.asarray(outputs)
    except ValueError:  # ragged, such as a tuple among integer ids
        outputs = np.asarray(outputs, dtype=object)
    if outputs.ndim != 1 or outputs.dtype.kind not in "iu":
        raise ParameterError("oracle mode requires integer solution ids from prior and mechanism")
    ids, counts = np.unique(outputs, return_counts=True)
    return Distribution.from_arrays(ids, counts / n_runs)


@dataclasses.dataclass(frozen=True)
class GuaranteeReport:
    """Outcome of one empirical fairness/welfare check.

    Serializes via :meth:`render` as one ``key=value`` line per field, in
    declaration order, then ``passed``.
    """

    algorithm: str
    alpha: float
    lam: float
    epsilon: float | None
    n_runs: int
    n_solutions: int
    tv_emp: float
    tv_slack: float
    welfare_emp: float
    welfare_slack: float
    v_p_opt: float
    bound_factor: float
    welfare_bound: float
    fairness_ok: bool
    welfare_ok: bool
    retried: bool

    @property
    def passed(self) -> bool:
        return self.fairness_ok and self.welfare_ok

    def lines(self) -> list[str]:
        def fmt(v: Any) -> str:
            if v is None:  # the epsilon of a simple_mix check
                return "none"
            return f"{v:.12g}" if isinstance(v, float) else str(v)

        fields = [(f.name, getattr(self, f.name)) for f in dataclasses.fields(self)]
        return [f"{k}={fmt(v)}" for k, v in [*fields, ("passed", self.passed)]]

    def render(self) -> str:
        return "\n".join(self.lines()) + "\n"


def _law_moments(law: Distribution, value: ValueFunction) -> tuple[float, float]:
    values = value.many(law.ids)
    mean = float(law.probs @ values)
    second = float(law.probs @ values**2)
    return mean, max(second - mean * mean, 0.0)


def check_guarantees(
    instance: InterpolationInstance,
    n_runs: int,
    rng: np.random.Generator,
    epsilon: float | None = None,
) -> GuaranteeReport:
    """Empirically verify the fairness budget and the welfare lower bound.

    Checks the sample-trim algorithm when ``epsilon`` is given (welfare
    bound factor ``lam * (1 - epsilon)``) and the single-draw algorithm
    otherwise (bound factor :func:`smix_lower_bound`).

    Fairness: the estimated output law must lie within total-variation
    ``alpha`` of the prior, up to slack ``3 * sqrt(n_solutions / n_runs)``.
    Welfare: the estimated mean value must reach the algorithm's bound
    against the optimal constrained lottery, up to three standard errors.
    A failed check is retried once with four times the runs before being
    reported.
    """
    prior = instance.prior.explicit
    if prior is None:
        raise ParameterError("guarantee checking requires an explicit prior (oracle mode)")
    lam = instance.mechanism.lam
    alpha = instance.alpha
    if epsilon is not None:
        algorithm = "epsilon_mix"
        bound_factor = lam * (1.0 - epsilon)
    else:
        algorithm = "simple_mix"
        bound_factor = smix_lower_bound(lam, alpha)

    decomp = build_p_opt(prior, instance.value, alpha)
    v_opt = v_p_opt(decomp, instance.value)
    welfare_bound = bound_factor * v_opt
    if instance.value.values is not None:
        n_solutions = instance.value.values.size
    else:
        n_solutions = len(prior) + 1

    def attempt(runs: int) -> tuple[bool, bool, float, float, float, float]:
        law = estimate_output_law(algorithm, instance, runs, rng, epsilon=epsilon)
        tv_est = tv_distance(law, prior)
        tv_slack = 3.0 * math.sqrt(n_solutions / runs)
        mean, var = _law_moments(law, instance.value)
        w_slack = 3.0 * math.sqrt(var / runs)
        fair_ok = tv_est <= alpha + tv_slack + NORM_TOL
        welf_ok = mean >= welfare_bound - w_slack - NORM_TOL
        return fair_ok, welf_ok, tv_est, tv_slack, mean, w_slack

    fair_ok, welf_ok, tv_est, tv_slack, mean, w_slack = attempt(n_runs)
    retried = False
    used_runs = n_runs
    if not (fair_ok and welf_ok):
        retried = True
        used_runs = 4 * n_runs
        fair_ok, welf_ok, tv_est, tv_slack, mean, w_slack = attempt(used_runs)

    return GuaranteeReport(
        algorithm=algorithm,
        alpha=alpha,
        lam=lam,
        epsilon=epsilon,
        n_runs=used_runs,
        n_solutions=n_solutions,
        tv_emp=tv_est,
        tv_slack=tv_slack,
        welfare_emp=mean,
        welfare_slack=w_slack,
        v_p_opt=v_opt,
        bound_factor=bound_factor,
        welfare_bound=welfare_bound,
        fairness_ok=fair_ok,
        welfare_ok=welf_ok,
        retried=retried,
    )


def check_individual_fairness(
    prior: Distribution,
    a: int,
    alpha: float,
    utilities: np.ndarray | None = None,
    candidate: Distribution | None = None,
    atol: float = 1e-12,
) -> bool:
    """Verify the single-draw algorithm's per-solution and per-agent floors.

    Every prior-supported solution must keep at least a ``(1 - alpha)``
    fraction of its prior probability (with equality away from the
    mechanism output ``a``), and with a per-agent utility table (rows =
    agents, columns = solution ids) every agent must keep at least a
    ``(1 - alpha)`` fraction of its expected prior utility.  ``candidate``
    defaults to the exact closed-form output lottery.
    """
    alpha = check_alpha(alpha)
    p_s = candidate if candidate is not None else simple_mix_distribution(prior, a, alpha)
    floor = (1.0 - alpha) * prior.probs
    kept = p_s.probs_at(prior.ids)
    if np.any(kept < floor - atol) or np.any((prior.ids != a) & (np.abs(kept - floor) > atol)):
        return False
    if utilities is not None:
        utilities = np.asarray(utilities, dtype=float)
        top = max(prior.ids[-1], p_s.ids[-1])
        if utilities.ndim != 2 or utilities.shape[1] <= top:
            raise ParameterError(f"utilities table needs a column per solution id up to {top}")
        scale = max(1.0, float(np.abs(utilities).max()))
        u_prior = utilities[:, prior.ids] @ prior.probs
        u_mix = utilities[:, p_s.ids] @ p_s.probs
        if np.any(u_mix < (1.0 - alpha) * u_prior - atol * scale):
            return False
    return True


# ---------------------------------------------------------------------------
# independent exhaustive oracle


def grid_search_value(
    prior: Distribution,
    value: ValueFunction,
    alpha: float,
    resolution: float = 0.02,
) -> float:
    """Maximum value over *grid* lotteries within the fairness budget.

    Exhausts (by dynamic programming over mass and deviation units) all
    lotteries whose probabilities are multiples of ``resolution``, keeping
    those within total-variation ``alpha`` of the prior, and returns the
    best value found.  Exact, but requires the prior's probabilities to be
    multiples of ``resolution`` and an array-backed value function.
    """
    alpha = check_alpha(alpha)
    if value.values is None:
        raise ParameterError("grid search requires an enumerable (array-backed) value function")
    if not 0.0 < resolution <= 1.0:
        raise ParameterError(f"resolution must be a finite number in (0, 1], got {resolution!r}")
    units = round(1.0 / resolution)
    if units < 1 or abs(units * resolution - 1.0) > 1e-9:
        raise ParameterError(f"resolution {resolution!r} must evenly divide 1")
    vals = value.values
    n = vals.size
    _check_scale(n * units)

    if prior.ids[-1] >= n:
        raise ParameterError(f"prior support id {prior.ids[-1]} outside value domain of size {n}")
    k = np.round(prior.probs / resolution)
    off_grid = np.abs(k * resolution - prior.probs) > 1e-9
    if off_grid.any():
        bad = prior.ids[off_grid][0]
        raise ParameterError(f"prior mass of solution {bad} is not a multiple of {resolution!r}")
    prior_units = np.zeros(n, dtype=np.int64)
    prior_units[prior.ids] = k

    # Deviation is counted in grid units: placing u units on a solution with
    # prior mass k contributes |u - k| units, and total variation is half the
    # total deviation times the resolution.
    dev_cap = min(2 * units, int(math.floor((2.0 * alpha + 2.0 * NORM_TOL) / resolution)))
    neg = -np.inf
    best = np.full((units + 1, dev_cap + 1), neg)
    best[0, 0] = 0.0
    for sid in range(n):
        k = int(prior_units[sid])
        step = np.full_like(best, neg)
        for u in range(units + 1):
            dev = abs(u - k)
            if dev > dev_cap:
                continue
            gain = u * resolution * vals[sid]
            src = best[: units + 1 - u, : dev_cap + 1 - dev]
            dst = step[u:, dev:]
            np.maximum(dst, src + gain, out=dst)
        best = step
    return float(best[units, :].max())
