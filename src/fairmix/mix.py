"""Randomized mixing algorithms interpolating fairness and welfare.

Both algorithms flip an ``alpha``-biased coin.  On heads they run the
high-welfare mechanism.  On tails they fall back toward the fair prior:

* :func:`simple_mix` returns a single draw from the prior, giving the
  closed-form output lottery ``alpha * point_mass(A) + (1 - alpha) * prior``.
* :func:`epsilon_mix` draws a batch of prior samples, sorts them by value
  (descending), removes an ``alpha`` fraction of the sample weight from the
  low-value tail, and picks one sample in proportion to the surviving
  weights.  The batch size grows like ``1 / ((1 - alpha) * epsilon**2)``
  and controls how much of the optimal constrained welfare is preserved (a
  ``(1 - epsilon)`` factor).

Either way the output lottery stays within total-variation ``alpha`` of the
prior; for :func:`epsilon_mix` this holds for *any* sample count, so the
``n_samples`` override trades welfare, never fairness.

Each algorithm is implemented once, in its ``_many`` form: flip ``n`` alpha
coins, draw every tail, then run the mechanism for each head.  The single
runs are the ``n = 1`` case.  :func:`epsilon_mix_many` draws, sorts, trims
and picks one sample batch per tail; on an explicit prior it draws every
tail from the exact law of that per-sample path instead.

Ties in value keep draw order in the sorted batch, so equal-valued
solutions share tail mass in proportion to prior mass.  Both guarantees
depend on values only: every kept weight is at most 1 whatever the order
among equal values, so the total-variation bound holds, and the welfare
bound is a function of the values.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Sequence

import numpy as np
from scipy.special import bdtr

from .core import Distribution, InterpolationInstance, ParameterError, check_alpha

__all__ = [
    "sample_size",
    "trim_weights",
    "epsilon_mix",
    "epsilon_mix_many",
    "simple_mix",
    "simple_mix_many",
    "simple_mix_distribution",
]


def _check_epsilon(epsilon: float) -> float:
    if not 0.0 < epsilon < 1.0:
        raise ParameterError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    return float(epsilon)


def sample_size(alpha: float, epsilon: float) -> int:
    """Prior-sample batch size used by :func:`epsilon_mix` on tails.

    ``ceil(8 / ((1 - alpha) * epsilon**2) * ln(2 / epsilon))``, which is the
    count needed for the empirical sample batch to represent the prior well
    enough that trimming loses at most an ``epsilon`` fraction of welfare.

    >>> sample_size(0.0, 0.1)
    2397
    >>> sample_size(0.5, 0.1)
    4794
    >>> sample_size(0.0, 0.05)
    11805
    """
    epsilon = _check_epsilon(epsilon)
    if not 0.0 <= alpha < 1.0:
        raise ParameterError(f"alpha must lie in [0, 1) to size samples, got {alpha!r}")
    return math.ceil(8.0 / ((1.0 - alpha) * epsilon**2) * math.log(2.0 / epsilon))


def trim_weights(s: int, alpha: float) -> np.ndarray:
    """Weights over ``s`` value-sorted samples after removing ``alpha * s`` mass.

    Samples are assumed sorted by value descending.  Mass is removed from the
    tail: the lowest-valued samples get weight 0, at most one boundary sample
    keeps a fractional weight, and the rest keep weight 1.  The surviving
    total is ``(1 - alpha) * s``.

    >>> trim_weights(4, 0.5)
    array([1., 1., 0., 0.])
    >>> trim_weights(5, 0.3)
    array([1. , 1. , 1. , 0.5, 0. ])
    """
    if s < 1:
        raise ParameterError(f"sample count must be >= 1, got {s!r}")
    if not 0.0 <= alpha < 1.0:
        raise ParameterError(f"alpha must lie in [0, 1) to trim, got {alpha!r}")
    return np.diff(_kept_mass(np.arange(s + 1), s, alpha))


def _trim_split(s: int, alpha: float) -> tuple[int, float]:
    """``(n1, f)``: trimming ``alpha * s`` mass from the low end of ``s``
    value-sorted samples keeps ``n1`` of weight 1, then one of weight ``f``."""
    k_zero = math.floor(alpha * s)
    return s - 1 - k_zero, 1.0 - (alpha * s - k_zero)


def _kept_mass(t: np.ndarray, s: int, alpha: float) -> np.ndarray:
    """``W(t) = min(t, n1) + f * clip(t - n1, 0, 1)``, the weight kept among
    the first ``t`` of ``s`` value-sorted samples; ``W(s) = (1 - alpha) * s``."""
    n1, f = _trim_split(s, alpha)
    return np.minimum(t, n1) + f * np.clip(t - n1, 0.0, 1.0)


def epsilon_mix(
    instance: InterpolationInstance,
    epsilon: float,
    rng: np.random.Generator,
    n_samples: int | None = None,
) -> Any:
    """One run of the sample-trim-and-pick mixing algorithm.

    With probability ``alpha`` returns the mechanism's output.  Otherwise
    draws ``sample_size(alpha, epsilon)`` prior samples (or ``n_samples``
    if given), trims an ``alpha`` fraction of their weight from the
    low-value end, and returns one sample drawn in proportion to the
    surviving weights.  Equivalent to :func:`epsilon_mix_many` with
    ``n = 1``.
    """
    return epsilon_mix_many(instance, epsilon, 1, rng, n_samples=n_samples)[0]


def simple_mix(instance: InterpolationInstance, rng: np.random.Generator) -> Any:
    """One run of the single-draw mixing algorithm.

    With probability ``alpha`` returns the mechanism's output, otherwise a
    single prior sample.  Equivalent to :func:`simple_mix_many` with
    ``n = 1``.
    """
    return simple_mix_many(instance, 1, rng)[0]


def simple_mix_distribution(prior: Distribution, a: int, alpha: float) -> Distribution:
    """Closed-form output lottery of :func:`simple_mix`.

    ``alpha`` mass on the mechanism output ``a`` plus ``(1 - alpha)`` times
    the prior.

    >>> simple_mix_distribution(Distribution({0: 0.2, 1: 0.8}), 0, 0.5)
    Distribution({0: 0.6, 1: 0.4})
    """
    alpha = check_alpha(alpha)
    return Distribution.from_arrays(
        np.append(prior.ids, a), np.append((1.0 - alpha) * prior.probs, alpha)
    )


# ---------------------------------------------------------------------------
# the algorithms, ``n`` independent runs at a time


def _mix_many(
    instance: InterpolationInstance,
    n: int,
    rng: np.random.Generator,
    draw_tails: Callable[[int], Sequence[Any]],
) -> list[Any]:
    """Flip ``n`` alpha coins, draw every tail, then run the mechanism per head.

    ``draw_tails(m)`` returns the ``m`` tail outputs in run order.
    """
    if n < 0:
        raise ParameterError(f"run count n must be >= 0, got {n!r}")
    heads = rng.random(n) < instance.alpha
    m = int(n - heads.sum())
    tails = iter(draw_tails(m) if m > 0 else ())
    out: list[Any] = []
    for h in heads:
        if h:
            out.append(instance.mechanism.run(rng))
        else:
            drawn = next(tails)
            out.append(int(drawn) if isinstance(drawn, np.integer) else drawn)
    return out


def simple_mix_many(
    instance: InterpolationInstance, n: int, rng: np.random.Generator
) -> list[Any]:
    """``n`` independent runs of the single-draw algorithm (:func:`simple_mix`)."""
    return _mix_many(instance, n, rng, lambda m: instance.prior.sample_many(rng, m))


def epsilon_mix_many(
    instance: InterpolationInstance,
    epsilon: float,
    n: int,
    rng: np.random.Generator,
    n_samples: int | None = None,
) -> list[Any]:
    """``n`` independent runs of the sample-trim-and-pick algorithm
    (:func:`epsilon_mix`).

    On an explicit prior every tail is drawn with one ``rng.choice`` from
    the exact tail law (:func:`_tails_by_law`); otherwise each tail draws,
    values, sorts, trims and picks its own sample batch.
    """
    _check_epsilon(epsilon)
    if n_samples is not None and n_samples < 1:
        raise ParameterError(f"n_samples must be >= 1, got {n_samples!r}")
    alpha = instance.alpha

    def draw_tails(m: int) -> Sequence[Any]:
        s = n_samples if n_samples is not None else sample_size(alpha, epsilon)
        if instance.prior.explicit is not None:
            return _tails_by_law(instance, s, m, rng)
        return _tails_by_samples(instance, s, m, rng)

    return _mix_many(instance, n, rng, draw_tails)


def _tails_by_samples(
    instance: InterpolationInstance, s: int, m: int, rng: np.random.Generator
) -> list[Any]:
    """Tail outcomes for ``m`` runs, each from its own batch of ``s`` draws.

    Each batch is one ``prior.sample_many`` call valued by one
    ``value.many`` call, so a compact batch is never materialized except
    at the picked position.
    """
    kept = _kept_mass(np.arange(1, s + 1), s, instance.alpha)
    out = []
    for _ in range(m):
        samples = instance.prior.sample_many(rng, s)
        order = np.argsort(-instance.value.many(samples), kind="stable")
        picked = int(np.searchsorted(kept, rng.random() * kept[-1], side="right"))
        out.append(samples[int(order[picked])])
    return out


def _tails_by_law(
    instance: InterpolationInstance, s: int, m: int, rng: np.random.Generator
) -> np.ndarray:
    """Tail outcomes for ``m`` runs drawn from the exact per-sample tail law.

    Group the support by equal value.  If ``P`` is the prior mass of the
    groups valued at least as high as a group, a batch holds ``C ~ Bin(s, P)``
    such samples, which keep ``E W(C) = s P F[s-1,P](n1 - 1) +
    (n1 + f) (1 - F[s,P](n1))`` weight in expectation (``F`` the binomial
    CDF).  The group's tail mass is the rise of ``E W`` over the group
    above, split in proportion to prior mass.
    """
    ids, probs = instance.prior.explicit.arrays()
    _, group = np.unique(-instance.value.many(ids), return_inverse=True)  # by value desc
    mass = np.bincount(group, probs)
    p_at_least = np.minimum(np.cumsum(mass), 1.0)  # bdtr is NaN above 1
    n1, f = _trim_split(s, instance.alpha)
    below = bdtr(n1 - 1, s - 1, p_at_least) if n1 > 0 else 0.0  # bdtr is NaN at k = -1
    kept = s * p_at_least * below + (n1 + f) * (1.0 - bdtr(n1, s, p_at_least))
    group_law = np.maximum(np.diff(kept, prepend=0.0), 0.0) / kept[-1]
    q = probs * (group_law / mass)[group]
    return ids[rng.choice(ids.size, m, p=q)]
