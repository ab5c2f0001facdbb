"""Core model: solution spaces, lotteries, value functions, and instances.

A *solution* is an outcome of some selection problem (an allocation, a
matching, a panel, ...).  Small enumerable problems identify solutions with
integer ids; structured scenarios may use any hashable objects (tuples,
frozen dataclasses).  The mixing algorithms only ever compare solutions by
value, so solutions need no ordering of their own.

A :class:`Distribution` is a sparse lottery over integer solution ids.  A
:class:`FairPrior` wraps batch sampling access to the lottery produced by
some baseline "fair" mechanism; an explicit :class:`Distribution` is optional and
only required by the exact oracles.  A :class:`WelfareMechanism` wraps the
competing high-welfare mechanism together with its multiplicative welfare
guarantee ``lam``.  An :class:`InterpolationInstance` bundles all of the
above with a fairness budget ``alpha``: the maximum total-variation distance
an output lottery may move away from the fair prior.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

#: Absolute tolerance for probability-mass bookkeeping (normalization checks,
#: fairness-budget comparisons, mass-removal arithmetic).
NORM_TOL = 1e-9


class ParameterError(ValueError):
    """A parameter is outside its documented range."""


class ScaleError(ParameterError):
    """An input is too large for an exact (enumerating) code path."""


def check_alpha(alpha: float) -> float:
    """Validate a fairness budget in the closed range ``[0, 1]``."""
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError(f"alpha must lie in [0, 1], got {alpha!r}")
    return float(alpha)


# ---------------------------------------------------------------------------
# distributions


class Distribution:
    """A sparse probability distribution over integer solution ids.

    Stored as two read-only vectors: :attr:`ids`, the support in ascending
    order (``int64``), and :attr:`probs`, their probabilities.  Solution ids
    must be non-negative integers (numpy integers included).  Entries with
    probability exactly zero are dropped on construction, all probabilities
    must be non-negative (NaN is rejected), and the total mass must equal
    one up to :data:`NORM_TOL`.  Instances are immutable.

    >>> d = Distribution({3: 0.25, 1: 0.75, 2: 0.0})
    >>> d.support
    (1, 3)
    >>> d[2]
    0.0
    """

    __slots__ = ("ids", "probs")

    def __init__(self, entries: Mapping[int, float]):
        for sid in entries:
            if not isinstance(sid, (int, np.integer)):
                raise ParameterError(f"solution id {sid!r} is not an integer")
        ids = np.fromiter(entries, dtype=np.int64, count=len(entries))
        self._set(ids, np.array([float(p) for p in entries.values()], dtype=float))

    @classmethod
    def from_arrays(cls, ids: np.ndarray, probs: np.ndarray) -> "Distribution":
        """Build a distribution from parallel id and probability vectors.

        Ids may come in any order; the probabilities of a repeated id add
        up, in the order given.
        """
        dist = cls.__new__(cls)
        dist._set(np.asarray(ids), np.asarray(probs, dtype=float))
        return dist

    @classmethod
    def from_array(cls, probs: Sequence[float]) -> "Distribution":
        """Build a distribution over ids ``0..n-1`` from a dense vector."""
        return cls.from_arrays(np.arange(len(probs)), probs)

    @classmethod
    def point_mass(cls, sid: int) -> "Distribution":
        return cls({sid: 1.0})

    def _set(self, ids: np.ndarray, probs: np.ndarray) -> None:
        """Validate; sum repeats and sort by id (skipped when ids ascend); drop zeros; freeze."""
        if ids.dtype.kind not in "iu":
            raise ParameterError(f"solution ids must be integers, got dtype {ids.dtype}")
        if ids.ndim != 1 or ids.shape != probs.shape:
            raise ParameterError(f"ids {ids.shape} and probs {probs.shape} differ or are not 1-d")
        ids = ids.astype(np.int64)
        if np.any(ids < 0):
            raise ParameterError(f"solution id {ids.min()} is negative")
        bad = np.isnan(probs) | (probs < 0.0)
        if bad.any():
            i = int(np.argmax(bad))
            raise ParameterError(
                f"probability {float(probs[i])!r} of solution {ids[i]} is NaN or negative"
            )
        if not np.all(ids[1:] > ids[:-1]):
            ids, inverse = np.unique(ids, return_inverse=True)
            probs = np.bincount(inverse, probs, ids.size)
        ids, probs = ids[probs > 0.0], probs[probs > 0.0]
        total = float(probs.sum())
        if abs(total - 1.0) > NORM_TOL:
            raise ParameterError(f"probabilities sum to {total!r}, expected 1")
        ids.setflags(write=False)
        probs.setflags(write=False)
        self.ids = ids
        self.probs = probs

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(self.ids.tolist())

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Support ids ascending and their probabilities, renormalized so the
        float sum is one to rounding (numpy's samplers check it)."""
        return self.ids, self.probs / self.probs.sum()

    def probs_at(self, ids: Any) -> np.ndarray:
        """Probabilities of ``ids`` (zero off the support), element-wise."""
        pos = np.minimum(np.searchsorted(self.ids, ids), self.ids.size - 1)
        return np.where(self.ids[pos] == ids, self.probs[pos], 0.0)

    def items(self) -> Iterator[tuple[int, float]]:
        return zip(self.ids.tolist(), self.probs.tolist())

    def as_dict(self) -> dict[int, float]:
        return dict(self.items())

    def __getitem__(self, sid: int) -> float:
        return float(self.probs_at(sid))

    def __len__(self) -> int:
        return self.ids.size

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {v:.6g}" for k, v in self.items())
        return f"Distribution({{{inner}}})"


def tv_distance(p: Distribution, q: Distribution) -> float:
    """Total-variation distance ``0.5 * sum_i |p_i - q_i|``.

    >>> tv_distance(Distribution({0: 0.2, 1: 0.8}), Distribution({0: 0.6, 1: 0.4}))
    0.4
    """
    ids, inverse = np.unique(np.concatenate((p.ids, q.ids)), return_inverse=True)
    diff = np.bincount(inverse, np.concatenate((p.probs, -q.probs)), ids.size)
    return 0.5 * float(np.abs(diff).sum())


def is_alpha_fair(p: Distribution, prior: Distribution, alpha: float) -> bool:
    """Whether ``p`` stays within total-variation ``alpha`` of ``prior``.

    The comparison allows :data:`NORM_TOL` of slack so that lotteries sitting
    exactly on the budget (a common boundary case) are accepted.
    """
    return tv_distance(p, prior) <= check_alpha(alpha) + NORM_TOL


# ---------------------------------------------------------------------------
# value functions


class ValueFunction:
    """Non-negative welfare value attached to each solution.

    Wraps a callable ``solution -> float``.  When the solution space is
    enumerable the ids ``0..n-1`` and their values can be given as a dense
    vector via :meth:`from_array`, which exposes the vector as
    :attr:`values` (its size is the number of solutions) and enables exact
    maximization through :meth:`argmax`.
    """

    __slots__ = ("_fn", "values")

    def __init__(self, fn: Callable[[Any], float], values: np.ndarray | None = None):
        self._fn = fn
        self.values = values

    @classmethod
    def from_array(cls, values: Sequence[float]) -> "ValueFunction":
        """Value function over ids ``0..n-1`` backed by a dense vector."""
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ParameterError("values must be a non-empty 1-d vector")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
            raise ParameterError("values must be finite and non-negative")
        arr = arr.copy()
        arr.setflags(write=False)

        def lookup(sid: Any) -> float:
            return float(arr[_checked_ids(sid, arr.size)])

        return cls(lookup, values=arr)

    def __call__(self, solution: Any) -> float:
        v = float(self._fn(solution))
        if not v >= 0.0:
            raise ParameterError(f"value of {solution!r} is {v!r}, must be >= 0")
        return v

    def many(self, solutions: Sequence[Any]) -> np.ndarray:
        """Values of a batch of solutions, as a float vector.

        An array-backed value function checks the id dtype and range once
        and indexes :attr:`values` once; otherwise the value is called once
        per solution.  Scenarios whose prior draws a compact batch override
        this with a vectorized evaluation.
        """
        if self.values is not None and len(solutions):
            return self.values[_checked_ids(solutions, self.values.size)]
        return np.array([self(x) for x in solutions], dtype=float)

    def argmax(self) -> int:
        """Id of the highest-valued solution; ties go to the smallest id."""
        if self.values is None:
            raise ParameterError("argmax requires an enumerable (array-backed) value function")
        return int(np.argmax(self.values))  # np.argmax returns the first maximizer

    def max_value(self) -> float:
        return self(self.argmax())


def _checked_ids(ids: Any, size: int) -> np.ndarray:
    """``ids`` as an array, once every id is an integer indexing a vector of
    ``size`` (numpy would wrap a negative id onto the end)."""
    ids = np.asarray(ids)
    if ids.dtype.kind not in "iu":
        raise ParameterError(f"solution ids must be integers, got dtype {ids.dtype}")
    lo, hi = ids.min(), ids.max()
    if lo < 0 or hi >= size:
        bad = lo if lo < 0 else hi
        raise ParameterError(f"solution id {bad} is outside [0, {size})")
    return ids


def expected_value(dist: Distribution, value: ValueFunction) -> float:
    """Expected value of ``value`` under the lottery ``dist``.

    >>> expected_value(Distribution({0: 0.5, 1: 0.5}), ValueFunction.from_array([2.0, 4.0]))
    3.0
    """
    return float(dist.probs @ value.many(dist.ids))


# ---------------------------------------------------------------------------
# priors and mechanisms


class FairPrior:
    """Sampling access to the output lottery of a baseline fair mechanism.

    The one primitive is a batch draw: ``draw(rng, n)`` returns a sequence
    of ``n`` independent solutions.  A scenario may return a compact batch
    (for instance :class:`~fairmix.assignment.AssignmentBatch`) whose
    items are materialized only when indexed; :meth:`ValueFunction.many`
    values such a batch without materializing it.  :meth:`sample_many` is
    the batch draw and :meth:`sample` its first element, so one code path
    serves both.  Every scenario prior draws its whole batch in numpy.

    The exact oracles additionally need the lottery itself, supplied as
    ``explicit``; ``draw`` must then draw from it, as
    :meth:`from_distribution` does with one vectorized ``rng.choice``.
    """

    __slots__ = ("_draw", "explicit")

    def __init__(
        self,
        draw: Callable[[np.random.Generator, int], Sequence[Any]],
        explicit: Distribution | None = None,
    ):
        self._draw = draw
        self.explicit = explicit

    @classmethod
    def from_distribution(cls, dist: Distribution) -> "FairPrior":
        """Prior with both sampling access and the explicit lottery."""
        ids, probs = dist.arrays()
        return cls(lambda rng, n: ids[rng.choice(probs.size, size=n, p=probs)], explicit=dist)

    def sample(self, rng: np.random.Generator) -> Any:
        return self._draw(rng, 1)[0]

    def sample_many(self, rng: np.random.Generator, n: int) -> Sequence[Any]:
        return self._draw(rng, n)


class WelfareMechanism:
    """The competing high-welfare (possibly randomized) mechanism.

    ``lam`` is its multiplicative welfare guarantee: every output solution
    ``A`` satisfies ``value(A) >= lam * value(Opt)`` where ``Opt`` is a
    welfare-maximizing solution.  ``lam`` must lie in ``(0, 1]``.
    """

    __slots__ = ("_run", "lam")

    def __init__(self, run: Callable[[np.random.Generator], Any], lam: float = 1.0):
        if not 0.0 < lam <= 1.0:
            raise ParameterError(f"lam must lie in (0, 1], got {lam!r}")
        self._run = run
        self.lam = float(lam)

    @classmethod
    def constant(cls, solution: Any, lam: float = 1.0) -> "WelfareMechanism":
        """Deterministic mechanism that always outputs ``solution``."""
        return cls(lambda rng: solution, lam=lam)

    def run(self, rng: np.random.Generator) -> Any:
        return self._run(rng)


@dataclasses.dataclass(frozen=True)
class InterpolationInstance:
    """One fairness/welfare interpolation problem.

    Attributes
    ----------
    value : ValueFunction
        Welfare of each solution.
    prior : FairPrior
        The fair baseline lottery (sampling access, optionally explicit).
    mechanism : WelfareMechanism
        The high-welfare mechanism with guarantee ``lam``.
    alpha : float
        Fairness budget in ``[0, 1]``: output lotteries must stay within
        total-variation ``alpha`` of the prior.  ``alpha = 0`` forces the
        prior itself, ``alpha = 1`` allows the mechanism unchanged.
    """

    value: ValueFunction
    prior: FairPrior
    mechanism: WelfareMechanism
    alpha: float

    def __post_init__(self) -> None:
        check_alpha(self.alpha)

