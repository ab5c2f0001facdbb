"""Shared builders for the test suite.

Every test seeds its own generator, so the suite is reproducible run to run
without global state.
"""

from __future__ import annotations

import os
from typing import Any, Callable

import numpy as np

import fairmix
from fairmix.assignment import AssignmentSolution, BipartiteInstance, InfeasibleError
from fairmix.core import (
    Distribution,
    FairPrior,
    InterpolationInstance,
    ValueFunction,
    WelfareMechanism,
)


def subprocess_env() -> dict[str, str]:
    """Environment for a child Python that must import the fairmix under test.

    The child may run in another directory, where a relative PYTHONPATH
    entry no longer resolves, so the directory holding the imported fairmix
    goes first.  ``FAIRMIX_OUT_DIR`` is dropped so outputs land where asked.
    """
    env = {k: v for k, v in os.environ.items() if k != "FAIRMIX_OUT_DIR"}
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(fairmix.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def make_instance(
    values,
    probs,
    alpha: float,
    lam: float | None = None,
    a: int | None = None,
) -> InterpolationInstance:
    """Explicit-prior instance over ``len(values)`` integer solutions.

    ``a`` defaults to the argmax (an exact mechanism); ``lam`` defaults to
    the true ratio V(a)/V(Opt), so the declared guarantee is honest.
    """
    value = ValueFunction.from_array(values)
    dist = Distribution.from_array(probs)
    if a is None:
        a = value.argmax()
    if lam is None:
        lam = value(a) / value.max_value() if value.max_value() > 0 else 1.0
    mechanism = WelfareMechanism.constant(a, lam=lam)
    return InterpolationInstance(
        value=value,
        prior=FairPrior.from_distribution(dist),
        mechanism=mechanism,
        alpha=alpha,
    )


def random_simplex(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random full-support probability vector."""
    w = rng.random(n) + 1e-3
    return w / w.sum()


def dyadic_probs(rng: np.random.Generator, n: int, denom_log2: int = 10) -> np.ndarray:
    """Random probabilities that are exact binary fractions (sum exactly 1)."""
    counts = rng.multinomial(2**denom_log2, np.full(n, 1.0 / n))
    return counts / float(2**denom_log2)


def random_instance(
    rng: np.random.Generator,
    n_max: int = 10,
    alpha: float | None = None,
    exact_mechanism: bool = True,
    dyadic: bool = False,
) -> InterpolationInstance:
    """Random enumerable instance with positive max value."""
    n = int(rng.integers(2, n_max + 1))
    values = rng.random(n) * float(rng.choice([1.0, 10.0]))
    values[int(rng.integers(n))] += 0.5  # ensure a clearly positive optimum
    probs = dyadic_probs(rng, n) if dyadic else random_simplex(rng, n)
    if alpha is None:
        alpha = float(rng.uniform(0.05, 0.95))
    if exact_mechanism:
        a = None
    else:
        positive = [i for i, v in enumerate(values) if v > 0]
        a = int(rng.choice(positive))
    return make_instance(values, probs, alpha, a=a)


def unit_round_robin_reference(instance: BipartiteInstance, order) -> AssignmentSolution:
    """Unit-demand, unit-cap round robin with agents picking in ``order``.

    The scalar loop that the vectorized sampler replaced, kept as its law
    reference: each agent takes its favourite free item (ties to the
    lowest item index) until every item is taken.
    """
    pref = np.argsort(-instance.weights, axis=1, kind="stable")
    taken = np.zeros(instance.n_right, dtype=bool)
    edges: list[tuple[int, int]] = []
    for a in order:
        for j in pref[a]:
            if not taken[j]:
                taken[j] = True
                edges.append((int(a), int(j)))
                break
        if len(edges) == instance.n_right:
            break
    return AssignmentSolution.from_edges(edges)


def round_robin_reference(instance: BipartiteInstance, orders) -> list[tuple[int, int]]:
    """Round robin with any demand and cap, pass ``k`` taking agents in ``orders[k]``.

    The scalar loop that the batched sampler replaced, kept as its law
    reference: each agent below its load cap takes its favourite item
    (ties to the lowest item index) that still has demand and that it does
    not hold, until all demand is met.  Returns the ``(agent, item)``
    edges in pick order.  ``orders`` may hold more passes than are used.
    """
    pref = np.argsort(-instance.weights, axis=1, kind="stable")
    L, R = instance.n_left, instance.n_right
    remaining = np.full(R, instance.demand, dtype=int)
    load = np.zeros(L, dtype=int)
    held: list[set[int]] = [set() for _ in range(L)]
    edges: list[tuple[int, int]] = []
    needed = R * instance.demand
    passes = iter(orders)
    while len(edges) < needed:
        progressed = False
        for a in next(passes):
            if load[a] >= instance.load_cap:
                continue
            for j in pref[a]:
                if remaining[j] > 0 and j not in held[a]:
                    remaining[j] -= 1
                    load[a] += 1
                    held[a].add(int(j))
                    edges.append((int(a), int(j)))
                    progressed = True
                    break
            if len(edges) == needed:
                break
        if not progressed:
            raise InfeasibleError("round robin deadlocked before meeting demand")
    return edges


def random_replace_reference(sampler, positions, orders, events=None) -> tuple[int, ...]:
    """The random-replace loop of :class:`fairmix.sortition.RandomReplaceSampler`
    with its random choices given, kept as the batch sampler's law reference.

    Visits ``positions`` in ascending order.  The step at a position tries
    that member's neighbours in the order ``orders[t]`` (``t`` counting the
    steps) and swaps in the first one not on the current panel; if every
    one is, the member stays.  ``events``, a ``Counter`` if given, counts
    ``"reentry"`` (a reference member displaced earlier comes back) and
    ``"kept"`` (every candidate collided).
    """
    current = set(sampler.initial)
    for pos, order in zip(sorted(int(p) for p in positions), orders):
        member = sampler.initial[pos]
        for cand in sampler.neighbors[pos][order]:
            if int(cand) not in current:
                current.discard(member)
                current.add(int(cand))
                if events is not None and int(cand) in sampler.initial:
                    events["reentry"] += 1
                break
        else:
            if events is not None:
                events["kept"] += 1
    return tuple(sorted(current))


class RecordingGenerator:
    """Delegates to a numpy ``Generator`` and keeps a copy of every
    ``permuted`` result, so a batch's per-pass agent orders can be replayed."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.permutations: list[np.ndarray] = []

    def permuted(self, *args, **kwargs) -> np.ndarray:
        out = self.rng.permuted(*args, **kwargs)
        self.permutations.append(out.copy())
        return out

    def orders(self, row: int) -> list[np.ndarray]:
        """The agent order of each pass for batch row ``row``."""
        return [p[row] for p in self.permutations]


def prior_from_sampler(sampler: Callable[[np.random.Generator], Any]) -> FairPrior:
    """Prior from a scalar sampler ``sampler(rng)``; a batch calls it once per draw."""
    return FairPrior(lambda rng, n: [sampler(rng) for _ in range(n)])


def unit_round_robin_reference_prior(instance: BipartiteInstance) -> FairPrior:
    """The reference loop behind a prior: one uniform agent order per draw."""
    return prior_from_sampler(
        lambda rng: unit_round_robin_reference(instance, rng.permutation(instance.n_left))
    )


def build_p_opt_reference(prior: Distribution, value: ValueFunction, alpha: float):
    """Per-id dict loop behind :func:`fairmix.oracle.build_p_opt`, kept as its
    reference.  Returns ``(opt, p_opt, p_alpha, p_alpha_tilde)``.

    Walks the support by (value, id) ascending; each solution gives up the
    part of its mass that the budget left after the mass walked so far
    still covers.  That remainder is ``alpha`` minus a running sum, the
    float arithmetic of the array version's cumulative sum, so the two
    remove the same bits and no boundary rounding can add or drop an entry.
    The kept and removed parts are scaled by their own summed mass.
    """
    support = prior.support
    if value.values is not None:
        opt = value.argmax()
    else:
        opt = min(support, key=lambda i: (-value(i), i))
    residual = prior.as_dict()
    removed = {}
    walked = 0.0
    for sid in sorted(support, key=lambda i: (value(i), i)):
        take = min(residual[sid], max(alpha - walked, 0.0))
        walked += residual[sid]
        residual[sid] -= take
        removed[sid] = take
    p_opt_entries = dict(residual)
    p_opt_entries[opt] = p_opt_entries.get(opt, 0.0) + alpha
    kept, cut = sum(residual.values()), sum(removed.values())
    p_alpha = p_alpha_tilde = None
    if alpha < 1.0 and kept > 0.0:
        p_alpha = Distribution({k: v / kept for k, v in residual.items()})
    if alpha > 0.0:
        p_alpha_tilde = Distribution({k: v / cut for k, v in removed.items()})
    return opt, Distribution(p_opt_entries), p_alpha, p_alpha_tilde


def tv_distance_reference(p: Distribution, q: Distribution) -> float:
    """Set-union loop behind :func:`fairmix.core.tv_distance`, kept as its reference."""
    keys = set(p.as_dict()) | set(q.as_dict())
    return 0.5 * sum(abs(p[k] - q[k]) for k in keys)
