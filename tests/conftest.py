"""Shared builders for the test suite.

Every test seeds its own generator, so the suite is reproducible run to run
without global state.
"""

from __future__ import annotations

import csv
import math
import os
from typing import Any, Callable

import numpy as np

import fairmix
from fairmix.assignment import (
    AssignmentSolution,
    BipartiteInstance,
    InfeasibleError,
    nash_welfare,
)
from fairmix.core import (
    NORM_TOL,
    Distribution,
    FairPrior,
    InterpolationInstance,
    ParameterError,
    ScaleError,
    ValueFunction,
    WelfareMechanism,
    check_alpha,
)
from fairmix.ingest import BidCorpus, DemographicTable
from fairmix.oracle import ORACLE_MAX_SOLUTIONS


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


def ordered_subsets_reference(rng: np.random.Generator, L: int, R: int, n: int) -> np.ndarray:
    """The sort-based ``ordered_subsets`` that the insertion kernel replaced.

    Column ``t`` draws a rank among the ``L - t`` free values and shifts it
    past the row's earlier values, sorted ascending on every column.
    """
    out = np.empty((n, R), dtype=np.intp)
    for t in range(R):
        r = rng.integers(0, L - t, n)
        for earlier in np.sort(out[:, :t], axis=1).T:
            r += r >= earlier
        out[:, t] = r
    return out


def serial_dictatorship_reference(weights: np.ndarray, agents: np.ndarray) -> np.ndarray:
    """The masked-``argmax`` ``serial_dictatorship_picks`` that the
    preference-walk kernel replaced: each turn masks taken items with
    ``-1`` in an ``(n, n_right)`` copy of the agents' weights and takes the
    first maximum."""
    n, m = agents.shape
    rows = np.arange(n)
    taken = np.zeros((n, weights.shape[1]), dtype=bool)
    items = np.empty_like(agents)
    for t in range(m):
        pick = np.where(taken, -1.0, weights[agents[:, t]]).argmax(axis=1)
        taken[rows, pick] = True
        items[:, t] = pick
    return items


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


def canonical_arrays_reference(ids, probs) -> tuple[np.ndarray, np.ndarray]:
    """The canonical form :class:`fairmix.core.Distribution` built from every
    input before already-ascending ids skipped the sort, kept as its bit
    reference: ``np.unique`` the ids, add up repeats with ``np.bincount`` in
    the order given, drop zero entries."""
    ids, inverse = np.unique(np.asarray(ids, dtype=np.int64), return_inverse=True)
    probs = np.bincount(inverse, np.asarray(probs, dtype=float), ids.size)
    return ids[probs > 0.0], probs[probs > 0.0]


def build_p_opt_array_reference(prior: Distribution, value: ValueFunction, alpha: float):
    """The array :func:`fairmix.oracle.build_p_opt` before its rank key, kept
    as its bit reference: removal order from a stable ``np.lexsort``, and
    ``p_opt`` by appending ``opt`` and sorting again.  Returns ``(opt,
    p_opt, p_alpha, p_alpha_tilde)``, each law as canonical ``(ids, probs)``
    arrays (:func:`canonical_arrays_reference`) or ``None``."""
    ids, probs = prior.ids, prior.probs
    vals = value.many(ids)
    opt = value.argmax() if value.values is not None else int(ids[np.argmax(vals)])
    order = np.lexsort((ids, vals))
    p = probs[order]
    before = np.concatenate(([0.0], np.cumsum(p)[:-1]))
    removed = np.empty_like(probs)
    removed[order] = np.clip(alpha - before, 0.0, p)
    residual = probs - removed
    kept, cut = residual.sum(), removed.sum()
    p_alpha = canonical_arrays_reference(ids, residual / kept) if alpha < 1 and kept > 0 else None
    p_alpha_tilde = canonical_arrays_reference(ids, removed / cut) if alpha > 0.0 else None
    p_opt = canonical_arrays_reference(np.append(ids, opt), np.append(residual, alpha))
    return int(opt), p_opt, p_alpha, p_alpha_tilde


def mix_many_reference(instance: InterpolationInstance, n: int, rng, draw_tails) -> list[Any]:
    """The per-run loop of :func:`fairmix.mix._mix_many` before tails were
    placed in one step, kept as its replay reference: walk the coins in run
    order, taking the next tail (numpy integers as ``int``) or running the
    mechanism."""
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


def tv_distance_reference(p: Distribution, q: Distribution) -> float:
    """Set-union loop behind :func:`fairmix.core.tv_distance`, kept as its reference."""
    keys = set(p.as_dict()) | set(q.as_dict())
    return 0.5 * sum(abs(p[k] - q[k]) for k in keys)


def nash_value(utilities: np.ndarray) -> ValueFunction:
    """Value function over solution ids from a per-agent utility table.

    ``utilities[a, i]`` is agent ``a``'s utility under solution ``i``; the
    value of solution ``i`` is the geometric mean of column ``i``.
    """
    table = np.asarray(utilities, dtype=float)
    if table.ndim != 2 or table.size == 0:
        raise ParameterError("utilities must be a non-empty agents x solutions table")
    return ValueFunction.from_array([nash_welfare(table[:, i]) for i in range(table.shape[1])])


def write_bids(corpus: BidCorpus, path: str) -> None:
    """Serialize a corpus back to bid CSV (sorted, with header)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("reviewer", "paper", "bid"))
        for (reviewer, paper), label in sorted(corpus.labels.items()):
            writer.writerow([reviewer, paper, label])


def write_demographics(table: DemographicTable, path: str) -> None:
    """Serialize a projected table back to CSV (header, sorted rows)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.config.columns)
        for row in table.rows:
            writer.writerow(row)


def grid_search_value(
    prior: Distribution,
    value: ValueFunction,
    alpha: float,
    resolution: float = 0.02,
) -> float:
    """Maximum value over *grid* lotteries within the fairness budget: an
    independent exhaustive check of :func:`fairmix.oracle.build_p_opt`.

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
    if n * units > ORACLE_MAX_SOLUTIONS:
        raise ScaleError(f"grid search over {n * units} cells exceeds {ORACLE_MAX_SOLUTIONS}")

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
