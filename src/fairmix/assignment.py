"""Weighted bipartite assignment with demands and load caps.

Left nodes are *agents* (reviewers, claimants), right nodes are *items*
(papers, goods).  A complete assignment gives every item exactly
``demand`` distinct agents while no agent carries more than ``load_cap``
items.  Edge weights are non-negative affinities; the utilitarian value
of an assignment is its total edge weight.

The module provides a deterministic greedy heuristic, an exact
maximum-weight solver for oracle-scale instances (scipy's
``linear_sum_assignment`` at unit demand and cap, otherwise one HiGHS
linear program), and a randomized round-robin mechanism whose output lottery
serves as a fair prior: agents take turns in a fresh uniformly random
order each pass, each picking their favorite item with remaining demand.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterable, Sequence

import numpy as np

from .core import ParameterError, ScaleError, ValueFunction

#: Largest ``n_left + n_right`` the exact solver accepts.
_MAX_EXACT_NODES = 500

#: HiGHS feasibility tolerances; the defaults (1e-7) cannot tell apart
#: optima whose values differ by less than about 3e-8.
_LP_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


class InfeasibleError(ValueError):
    """No complete assignment exists (or a heuristic failed to find one)."""


@dataclasses.dataclass(frozen=True, eq=False)
class BipartiteInstance:
    """A weighted bipartite assignment problem.

    Attributes
    ----------
    weights : ndarray of shape (n_left, n_right)
        Non-negative affinity of each agent for each item.
    demand : int
        Number of distinct agents each item must receive.
    load_cap : int
        Maximum number of items per agent.
    """

    weights: np.ndarray
    demand: int = 1
    load_cap: int = 1

    def __post_init__(self) -> None:
        arr = np.asarray(self.weights, dtype=float)
        if arr.ndim != 2 or arr.size == 0:
            raise ParameterError("weights must be a non-empty 2-d matrix")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
            raise ParameterError("weights must be finite and non-negative")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "weights", arr)
        if int(self.demand) < 1 or int(self.load_cap) < 1:
            raise ParameterError("demand and load_cap must be >= 1")
        object.__setattr__(self, "demand", int(self.demand))
        object.__setattr__(self, "load_cap", int(self.load_cap))
        if self.demand > self.n_left:
            raise InfeasibleError(
                f"items need {self.demand} distinct agents but only {self.n_left} exist"
            )
        if self.n_left * self.load_cap < self.n_right * self.demand:
            raise InfeasibleError(
                f"total load capacity {self.n_left * self.load_cap} cannot cover "
                f"total demand {self.n_right * self.demand}"
            )

    @property
    def n_left(self) -> int:
        return self.weights.shape[0]

    @property
    def n_right(self) -> int:
        return self.weights.shape[1]


@dataclasses.dataclass(frozen=True)
class AssignmentSolution:
    """A complete assignment, as a frozen set of ``(agent, item)`` edges."""

    edges: frozenset[tuple[int, int]]

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]]) -> "AssignmentSolution":
        return cls(frozenset((int(a), int(j)) for a, j in edges))

    def validate(self, instance: BipartiteInstance) -> None:
        """Raise unless this is a complete, cap-respecting assignment."""
        load = np.zeros(instance.n_left, dtype=int)
        fill = np.zeros(instance.n_right, dtype=int)
        for a, j in self.edges:
            if not (0 <= a < instance.n_left and 0 <= j < instance.n_right):
                raise ParameterError(f"edge ({a}, {j}) out of range")
            load[a] += 1
            fill[j] += 1
        if np.any(load > instance.load_cap):
            raise InfeasibleError("an agent exceeds the load cap")
        if np.any(fill != instance.demand):
            raise InfeasibleError("an item does not meet its demand exactly")


@dataclasses.dataclass(frozen=True, eq=False)
class AssignmentBatch:
    """``n`` assignments with ``m`` edges each, as parallel int arrays.

    Row ``i`` holds the edges ``(agents[i, k], items[i, k])``; indexing
    materializes that row as an :class:`AssignmentSolution`.
    """

    agents: np.ndarray
    items: np.ndarray

    def __len__(self) -> int:
        return self.agents.shape[0]

    def __getitem__(self, i: int) -> AssignmentSolution:
        return AssignmentSolution.from_edges(zip(self.agents[i], self.items[i]))


def solution_value(instance: BipartiteInstance, solution: AssignmentSolution) -> float:
    """Utilitarian value: total weight of the assignment's edges."""
    w = instance.weights
    return float(sum(w[a, j] for a, j in solution.edges))


def agent_utilities(instance: BipartiteInstance, solution: AssignmentSolution) -> np.ndarray:
    """Per-agent utility: total weight of each agent's assigned edges."""
    out = np.zeros(instance.n_left, dtype=float)
    for a, j in solution.edges:
        out[a] += instance.weights[a, j]
    return out


def nash_welfare(utils: np.ndarray) -> float:
    """Geometric mean of a utility vector (0 if any utility is 0).

    >>> nash_welfare([1.0, 4.0])
    2.0
    >>> nash_welfare([0.0, 9.0])
    0.0
    """
    utils = np.asarray(utils, dtype=float)
    if np.any(utils < 0.0):
        raise ParameterError("utilities must be non-negative")
    if np.any(utils == 0.0):
        return 0.0
    return float(np.exp(np.mean(np.log(utils))))


class _EdgeSumValue(ValueFunction):
    """Total edge weight, summed over a whole :class:`AssignmentBatch` at once."""

    __slots__ = ("weights",)

    def __init__(self, instance: BipartiteInstance):
        super().__init__(lambda sol: solution_value(instance, sol))
        self.weights = instance.weights

    def many(self, solutions: Sequence[Any]) -> np.ndarray:
        if isinstance(solutions, AssignmentBatch):
            return self.weights[solutions.agents, solutions.items].sum(axis=1)
        return super().many(solutions)


def utilitarian_value(instance: BipartiteInstance) -> ValueFunction:
    """Value function mapping an assignment to its total edge weight."""
    return _EdgeSumValue(instance)


def synthetic_instance(
    n_left: int, n_right: int, rng: np.random.Generator
) -> BipartiteInstance:
    """Goods-division instance: i.i.d. uniform ``[0, 1)`` affinities, unit
    demand and unit load cap."""
    weights = rng.random((n_left, n_right))
    return BipartiteInstance(weights=weights, demand=1, load_cap=1)


# ---------------------------------------------------------------------------
# solvers


def greedy_matching(instance: BipartiteInstance) -> AssignmentSolution:
    """Deterministic greedy assignment by descending edge weight.

    Edges are scanned by weight descending with ties broken by agent then
    item index ascending; an edge is taken whenever both endpoints still
    have room.  Raises :class:`InfeasibleError` if the scan strands an
    item (impossible when caps are slack, possible in tight corner cases).
    """
    L, R = instance.n_left, instance.n_right
    agents, items = np.divmod(np.arange(L * R), R)
    order = np.lexsort((items, agents, -instance.weights.ravel()))
    load = np.zeros(L, dtype=int)
    fill = np.zeros(R, dtype=int)
    edges: list[tuple[int, int]] = []
    needed = R * instance.demand
    for e in order:
        a, j = int(agents[e]), int(items[e])
        if load[a] < instance.load_cap and fill[j] < instance.demand:
            load[a] += 1
            fill[j] += 1
            edges.append((a, j))
            if len(edges) == needed:
                break
    solution = AssignmentSolution.from_edges(edges)
    try:
        solution.validate(instance)
    except InfeasibleError as exc:
        raise InfeasibleError(f"greedy scan stranded an item: {exc}") from exc
    return solution


def max_matching(instance: BipartiteInstance) -> AssignmentSolution:
    """Exact maximum-weight complete assignment.

    With unit demand and unit load cap this is a rectangular assignment
    problem, solved by ``scipy.optimize.linear_sum_assignment``.  Otherwise
    it is one linear program: the variables are the edge indicators
    ``x[a, j]`` in ``[0, 1]``; agent loads are capped at ``load_cap`` and
    item fills equal ``demand``.  This constraint matrix is totally
    unimodular, so HiGHS returns an integral vertex.  Limited to
    oracle-scale instances.
    """
    # Imported here: scipy.optimize adds ~0.3 s to import for callers that never solve.
    from scipy import sparse
    from scipy.optimize import linear_sum_assignment, linprog

    L, R = instance.n_left, instance.n_right
    if L + R > _MAX_EXACT_NODES:
        raise ScaleError(
            f"exact assignment supports at most {_MAX_EXACT_NODES} nodes, got {L + R}"
        )
    if instance.demand == 1 and instance.load_cap == 1:
        solution = AssignmentSolution.from_edges(
            zip(*linear_sum_assignment(instance.weights, maximize=True))
        )
    else:
        result = linprog(
            -instance.weights.ravel(),
            A_ub=sparse.kron(sparse.eye(L), np.ones((1, R)), format="csr"),
            b_ub=np.full(L, instance.load_cap),
            A_eq=sparse.kron(np.ones((1, L)), sparse.eye(R), format="csr"),
            b_eq=np.full(R, instance.demand),
            bounds=(0.0, 1.0),
            method="highs",
            options=_LP_OPTIONS,
        )
        x = result.x.reshape(L, R) if result.status == 0 else None
        if x is None or np.abs(x - np.round(x)).max() > 1e-6:
            raise InfeasibleError(f"exact assignment found no integral optimum: {result.message}")
        solution = AssignmentSolution.from_edges(zip(*np.nonzero(x > 0.5)))
    solution.validate(instance)
    return solution


# ---------------------------------------------------------------------------
# randomized round-robin mechanism (fair prior)


class RoundRobinSampler:
    """Samples complete assignments by randomized round robin.

    Each pass draws a fresh uniformly random agent order; each agent in
    turn takes its favorite item (highest affinity, ties to the lowest
    item index) that still has remaining demand and that the agent does
    not already hold.  Passes repeat until all demand is met.

    :meth:`sample_many` draws a whole batch as an :class:`AssignmentBatch`
    and :meth:`sample` is its first row.  With unit demand and cap this
    is random serial dictatorship: one pass suffices and only the first
    ``n_right`` agents of the order receive an item, so the batch is
    drawn by :func:`ordered_subsets` and :func:`serial_dictatorship_picks`,
    with no sort.  Otherwise :func:`round_robin_picks` runs the passes for
    every row at once, advancing one rank pointer per row and agent.
    """

    def __init__(self, instance: BipartiteInstance):
        self.instance = instance
        self.unit = instance.demand == 1 and instance.load_cap == 1

    def sample(self, rng: np.random.Generator) -> AssignmentSolution:
        return self.sample_many(rng, 1)[0]

    def sample_many(self, rng: np.random.Generator, n: int) -> AssignmentBatch:
        """``n`` independent draws as one :class:`AssignmentBatch`."""
        inst = self.instance
        if self.unit:
            agents = ordered_subsets(rng, inst.n_left, inst.n_right, n)
            return AssignmentBatch(agents, serial_dictatorship_picks(inst.weights, agents))
        return AssignmentBatch(*round_robin_picks(rng, inst, n))


def round_robin_picks(
    rng: np.random.Generator, instance: BipartiteInstance, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Agents and items of ``n`` round-robin draws, each ``(n, n_right * demand)``
    in pick order.

    Every pass draws one agent order per row with a single
    ``rng.permuted`` call, and each turn is one step over the rows that are
    not full and whose turn agent is below its cap.  ``pref[a]`` lists agent
    ``a``'s items by affinity descending, ties to the lowest index, then a
    sentinel that never fills.  Everything an agent holds ranks before its
    last pick, and every item ranked before that pick was full then and
    stays full, so its next pick is the first open item at or after a rank
    pointer one past its last pick.  A turn moves each acting row's pointer
    past full items, takes ``pref[a, ptr]`` unless it is the sentinel, and
    steps past it.  The state is flat per-row vectors, ``ptr`` and ``load``
    at ``row * n_left + agent`` and ``remaining`` at ``row * (n_right + 1) +
    item``, in the narrowest integer type that holds ``demand`` and
    ``n_right + 1``.  Raises :class:`InfeasibleError` when a row goes a whole
    pass without a pick.
    """
    L, R, cap = instance.n_left, instance.n_right, instance.load_cap
    m, width = R * instance.demand, R + 1
    pref = np.full((L, width), R, dtype=np.intp)
    pref[:, :R] = np.argsort(-instance.weights, axis=1, kind="stable")
    pref = pref.ravel()
    counter = np.min_scalar_type(max(instance.demand, width))
    remaining = np.full(n * width, instance.demand, dtype=counter)
    ptr = np.zeros(n * L, dtype=counter)
    load = np.zeros(n * L, dtype=counter)
    agents = np.empty(n * m, dtype=np.intp)
    items = np.empty(n * m, dtype=np.intp)
    filled = np.zeros(n, dtype=np.intp)
    open_rows = np.arange(n)
    while open_rows.size:
        orders = rng.permuted(np.broadcast_to(np.arange(L), (n, L)), axis=1)
        pass_rows, before = open_rows, filled[open_rows]
        for turn in orders.T.copy():
            rows = open_rows
            a = turn[rows]
            slot = rows * L + a
            held = load[slot]
            act = held < cap
            if not act.all():
                rows, a, slot, held = rows[act], a[act], slot[act], held[act]
            base, cell = a * width, rows * width
            p = ptr[slot]
            j = pref[base + p]
            full = np.flatnonzero(remaining[cell + j] == 0)
            while full.size:
                p[full] += 1
                j[full] = pref[base[full] + p[full]]
                full = full[remaining[cell[full] + j[full]] == 0]
            got = j < R
            ptr[slot] = p + got
            if not got.all():
                rows, a, slot, held, cell, j = (
                    rows[got], a[got], slot[got], held[got], cell[got], j[got]
                )
            picks = filled[rows]
            at = rows * m + picks
            agents[at] = a
            items[at] = j
            load[slot] = held + 1
            remaining[cell + j] -= 1
            filled[rows] = picks = picks + 1
            if (picks == m).any():
                open_rows = open_rows[filled[open_rows] < m]
        if (filled[pass_rows] == before).any():
            raise InfeasibleError("round robin deadlocked before meeting demand")
    return agents.reshape(n, m), items.reshape(n, m)


def ordered_subsets(rng: np.random.Generator, L: int, R: int, n: int) -> np.ndarray:
    """``n`` rows of ``R`` distinct ints from ``range(L)``, each row uniform
    over the ``L! / (L - R)!`` ordered tuples.

    Column ``t`` draws its rank among the ``L - t`` values not yet in the
    row, then shifts the rank past the row's earlier values in ascending
    order, which maps it onto the rank-th free value.  ``asc`` keeps the
    earlier values ascending by one ``minimum``/``maximum`` insertion each.
    """
    out = np.empty((n, R), dtype=np.intp)
    asc = np.empty((R, n), dtype=np.intp)
    for t in range(R):
        r = rng.integers(0, L - t, n)
        for earlier in asc[:t]:
            r += r >= earlier
        out[:, t] = r
        for earlier in asc[:t]:
            earlier[...], r = np.minimum(earlier, r), np.maximum(earlier, r)
        asc[t] = r
    return out


def serial_dictatorship_picks(weights: np.ndarray, agents: np.ndarray) -> np.ndarray:
    """Items taken when the agents of each row pick in turn, one item each.

    ``agents`` has shape ``(n, m)`` with ``m <= weights.shape[1]``; each
    agent takes its highest-weight free item, ties to the lowest item
    index.  Each turn steps every row's pointer into the flat preference
    lists ``pref`` (at ``agent * R + rank``) past the row's items in ``taken``.
    """
    (n, m), R = agents.shape, weights.shape[1]
    pref = np.argsort(-weights, axis=1, kind="stable").ravel()
    taken = np.zeros(n * R, dtype=bool)
    cell = np.arange(n) * R
    items = np.empty((m, n), dtype=agents.dtype)
    for t in range(m):
        at = agents[:, t] * R
        while (busy := taken[cell + pref[at]]).any():
            at += busy
        items[t] = j = pref[at]
        taken[cell + j] = True
    return items.T
