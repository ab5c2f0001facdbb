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
"""

from __future__ import annotations

from typing import Sequence

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


def likelihood_value(points: np.ndarray) -> ValueFunction:
    """Panel value ``exp(-panel_cost / n_pool)``.

    A strictly decreasing bijection of cost onto ``(0, 1]``: a cost of 0
    (every point is a member) gives value 1.  The per-point normalization
    keeps the exponent bounded, so the value never underflows and ordering
    between panels is preserved.
    """
    pts = _check_points(points)
    n_pool = pts.shape[0]

    def value(panel: Sequence[int]) -> float:
        return float(np.exp(-panel_cost(panel, pts) / n_pool))

    return ValueFunction(value)


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

    Each sample picks ``q`` reference members uniformly at random and
    replaces each with a uniform draw from that member's ``q`` nearest
    other pool points (ties broken by index ascending).  A draw that
    collides with a current panel member is redrawn from the remaining
    neighbors; if all neighbors collide the member is kept unchanged, so
    panels always keep their size and distinctness.
    """

    def __init__(self, points: np.ndarray, initial: Sequence[int], q: int | None = None):
        self.points = _check_points(points)
        members = _check_panel(initial, self.points.shape[0])
        self.initial: Panel = tuple(int(i) for i in sorted(members))
        k = members.size
        self.q = default_replace_count(k) if q is None else int(q)
        if not 0 <= self.q <= k:
            raise ParameterError(f"replace count must lie in [0, {k}], got {self.q!r}")
        self.neighbors = self._neighbor_lists()

    def _neighbor_lists(self) -> dict[int, np.ndarray]:
        """The ``q`` nearest other pool points of each reference member."""
        pts = self.points
        n_pool = pts.shape[0]
        if self.q > n_pool - 1:
            raise ParameterError(
                f"replace count {self.q} needs {self.q} neighbors but pool has {n_pool - 1} others"
            )
        out: dict[int, np.ndarray] = {}
        if self.q == 0:
            return {m: np.empty(0, dtype=np.int64) for m in self.initial}
        member_arr = np.array(self.initial, dtype=np.int64)
        dists = cdist(pts[member_arr], pts, metric="sqeuclidean")
        for row, m in enumerate(member_arr):
            order = np.lexsort((np.arange(n_pool), dists[row]))
            order = order[order != m]
            out[int(m)] = order[: self.q].astype(np.int64)
        return out

    def sample(self, rng: np.random.Generator) -> Panel:
        k = len(self.initial)
        current = set(self.initial)
        to_replace = sorted(rng.choice(k, size=self.q, replace=False).tolist())
        for pos in to_replace:
            member = self.initial[pos]
            candidates = self.neighbors[member]
            replacement = None
            for cand in rng.permutation(candidates):
                if int(cand) not in current:
                    replacement = int(cand)
                    break
            if replacement is not None:
                current.discard(member)
                current.add(replacement)
        return tuple(sorted(current))


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
        prior=FairPrior.from_sampler(sampler.sample),
        mechanism=mechanism,
        alpha=alpha,
    )
