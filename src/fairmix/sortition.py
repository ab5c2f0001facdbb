"""Representative panel selection over a demographic point cloud.

A *pool* is a set of points in feature space (one per candidate, built
from numeric and one-hot-encoded categorical attributes).  A *panel* is a
size-``k`` subset of pool indices.  A panel represents the pool well when
every pool point lies close to some panel member, measured by the
quantization cost ``sum_p min_m ||p - m||^2``; :func:`likelihood_value`
turns this cost into a bounded, decreasing value ``exp(-cost / n_pool)``
suitable as a non-negative welfare objective.

Two panel mechanisms are provided: a k-means++ style seeding
(:func:`kmeanspp_select`) that targets low cost, and a neighborhood
perturbation mechanism (:class:`RandomReplaceSampler`) that swaps most of
a fixed reference panel for random nearby candidates, serving as the fair
prior: every candidate close to the reference panel has a chance to serve.
It draws whole batches (:class:`PanelBatch`), valued in one numpy pass.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Sequence

import numpy as np
from scipy.spatial.distance import cdist

from .core import (
    FairPrior,
    InterpolationInstance,
    ParameterError,
    ValueFunction,
    WelfareMechanism,
)

Panel = tuple[int, ...]


@dataclasses.dataclass(frozen=True, eq=False)
class PanelBatch:
    """``n`` panels as the sorted rows of one ``(n, k)`` int array; indexing gives a Panel."""

    members: np.ndarray

    def __len__(self) -> int:
        return self.members.shape[0]

    def __getitem__(self, i: int) -> Panel:
        return tuple(self.members[i].tolist())


def _check_panel(panel: Sequence[int], n_pool: int) -> np.ndarray:
    members = np.asarray(panel, dtype=np.int64)
    if members.ndim != 1 or members.size == 0:
        raise ParameterError("panel must be a non-empty index sequence")
    if members.size != np.unique(members).size:
        raise ParameterError("panel members must be distinct")
    if members.min() < 0 or members.max() >= n_pool:
        raise ParameterError(f"panel indices must lie in [0, {n_pool})")
    return members


def _check_points(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.size == 0:
        raise ParameterError("points must be a non-empty 2-d matrix")
    if not np.all(np.isfinite(pts)):
        raise ParameterError("points must be finite")
    return pts


def panel_cost(panel: Sequence[int], points: np.ndarray) -> float:
    """Quantization cost: total squared distance from each pool point to
    its nearest panel member."""
    pts = _check_points(points)
    members = _check_panel(panel, pts.shape[0])
    d2 = cdist(pts, pts[members], metric="sqeuclidean")
    return float(d2.min(axis=1).sum())


class _PanelValue(ValueFunction):
    """Panel value, computed for a whole :class:`PanelBatch` at once."""

    __slots__ = ("points",)

    def __init__(self, points: np.ndarray):
        super().__init__(lambda panel: float(np.exp(-panel_cost(panel, points) / len(points))))
        self.points = points

    def many(self, solutions: Sequence[Any]) -> np.ndarray:
        """Per row chunk of about 32k floats, a running ``np.minimum`` over one
        ``cdist`` of the distinct members: bit-identical to :func:`panel_cost`."""
        if not isinstance(solutions, PanelBatch):
            return super().many(solutions)
        n_pool = len(self.points)
        distinct = np.unique(solutions.members)
        d2 = cdist(self.points[distinct], self.points, metric="sqeuclidean")
        row_of = np.empty(n_pool, dtype=np.intp)
        row_of[distinct] = np.arange(distinct.size)
        cost = np.empty(len(solutions))
        step = max(1, 32_768 // n_pool)
        for lo in range(0, cost.size, step):
            rows = row_of[solutions.members[lo : lo + step]]
            nearest = d2[rows[:, 0]]
            for col in rows.T[1:]:
                np.minimum(nearest, d2[col], out=nearest)
            cost[lo : lo + step] = nearest.sum(axis=1)
        return np.exp(-cost / n_pool)


def likelihood_value(points: np.ndarray) -> ValueFunction:
    """Panel value ``exp(-panel_cost / n_pool)``.

    A strictly decreasing bijection of cost onto ``(0, 1]``: a cost of 0
    (every point is a member) gives value 1.  The per-point normalization
    keeps the exponent bounded, so the value never underflows and ordering
    between panels is preserved.
    """
    return _PanelValue(_check_points(points))


def kmeanspp_select(points: np.ndarray, k: int, rng: np.random.Generator) -> Panel:
    """Select a size-``k`` panel by k-means++ seeding restricted to pool points.

    The first member is uniform; each further member is drawn with
    probability proportional to the squared distance from the already
    chosen members.  Members are distinct; if every remaining point
    coincides with a chosen member, the rest are drawn uniformly from the
    unchosen indices.
    """
    pts = _check_points(points)
    n_pool = pts.shape[0]
    if not 1 <= k <= n_pool:
        raise ParameterError(f"panel size must lie in [1, {n_pool}], got {k!r}")
    chosen = [int(rng.integers(n_pool))]
    d2 = ((pts - pts[chosen[0]]) ** 2).sum(axis=1)
    while len(chosen) < k:
        total = d2.sum()
        if total > 0.0:
            idx = int(rng.choice(n_pool, p=d2 / total))
        else:
            unchosen = np.setdiff1d(np.arange(n_pool), np.array(chosen))
            idx = int(rng.choice(unchosen))
        chosen.append(idx)
        d2 = np.minimum(d2, ((pts - pts[idx]) ** 2).sum(axis=1))
    return tuple(sorted(chosen))


def default_replace_count(k: int) -> int:
    """Default number of panel members the perturbation mechanism swaps:
    three quarters of the panel, rounded down.

    >>> default_replace_count(10)
    7
    """
    if k < 1:
        raise ParameterError(f"panel size must be >= 1, got {k!r}")
    return (3 * k) // 4


class RandomReplaceSampler:
    """Panel lottery perturbing a fixed reference panel.

    Each sample visits ``q`` uniformly chosen reference positions in
    ascending order and tries that member's ``q`` nearest other pool points
    (``neighbors[pos]``, ties to the lower index) in uniformly random order,
    swapping in the first one not on the current panel: a member displaced
    earlier may come back, one not yet visited blocks.  If every neighbor
    collides the member is kept.  :meth:`sample` is :meth:`sample_many`'s row.
    """

    def __init__(self, points: np.ndarray, initial: Sequence[int], q: int | None = None):
        self.points = _check_points(points)
        members = _check_panel(initial, self.points.shape[0])
        self.initial: Panel = tuple(int(i) for i in sorted(members))
        k = members.size
        self.q = default_replace_count(k) if q is None else int(q)
        if not 0 <= self.q <= k:
            raise ParameterError(f"replace count must lie in [0, {k}], got {self.q!r}")
        self.neighbors = self._neighbor_table()

    def _neighbor_table(self) -> np.ndarray:
        """``(k, q)``: the ``q`` nearest other pool points of each reference member."""
        pts, others = self.points, len(self.points) - 1
        if self.q > others:
            raise ParameterError(
                f"replace count {self.q} needs {self.q} neighbors but pool has {others} others"
            )
        dists = cdist(pts[list(self.initial)], pts, metric="sqeuclidean")
        dists[np.arange(len(self.initial)), self.initial] = np.inf  # not its own neighbor
        return np.argsort(dists, axis=1, kind="stable")[:, : self.q]

    def sample(self, rng: np.random.Generator) -> Panel:
        return self.sample_many(rng, 1)[0]

    def sample_many(self, rng: np.random.Generator, n: int) -> PanelBatch:
        """``n`` independent draws as one :class:`PanelBatch`: one ``rng.permuted``
        call draws all positions, one per step all candidate orders."""
        k, q = len(self.initial), self.q
        small = np.min_scalar_type(k)  # positions and tries index at most k entries
        order = rng.permuted(np.broadcast_to(np.arange(k, dtype=small), (n, k)), axis=1)
        positions = np.sort(order[:, :q], axis=1)
        tries = np.broadcast_to(np.arange(q, dtype=small), (n, q))
        members = np.tile(np.array(self.initial, dtype=np.intp), (n, 1))
        for pos in positions.T:
            cand = self.neighbors[pos[:, None], rng.permuted(tries, axis=1)]
            free = ~(cand[:, :, None] == members[:, None, :]).any(axis=2)
            swap = np.flatnonzero(free.any(axis=1))  # rows where some candidate is free
            members[swap, pos[swap]] = cand[swap, free[swap].argmax(axis=1)]
        members.sort(axis=1)
        return PanelBatch(members)


def sortition_fwi_instance(
    points: np.ndarray,
    n_k: int,
    alpha: float,
    init_rng: np.random.Generator,
) -> InterpolationInstance:
    """Wire the panel-selection problem into an interpolation instance.

    The welfare mechanism is :func:`kmeanspp_select` (randomized per call;
    its declared factor ``lam = 1.0`` is an assumption used only by bound
    reporting).  The fair prior perturbs a fixed reference panel drawn once
    from ``init_rng`` with k-means++, via :class:`RandomReplaceSampler` at
    its default replace count.  The value function is
    :func:`likelihood_value`.
    """
    pts = _check_points(points)
    initial = kmeanspp_select(pts, n_k, init_rng)
    sampler = RandomReplaceSampler(pts, initial)
    mechanism = WelfareMechanism(lambda rng: kmeanspp_select(pts, n_k, rng), lam=1.0)
    return InterpolationInstance(
        value=likelihood_value(pts),
        prior=FairPrior(sampler.sample_many),
        mechanism=mechanism,
        alpha=alpha,
    )
