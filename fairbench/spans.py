"""Span recorder for the traced benchmark run.

Spans are recorded around public fairmix names, patched where their callers
look them up (a module global or a class attribute).  Each span holds a name,
start, end and parent span; they live in compact arrays until the run ends
and are then written out in one file.  A hooked name that no longer exists
is listed as missing instead of failing the run.

The first component of a span name is its layer (the fairmix module, or
``bench`` for the benchmark's own code and ``trace`` for the recorder's
bookkeeping).  A span's self time is its duration minus the time covered by
its direct children.
"""

from __future__ import annotations

import functools
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording -----------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.starts)
        self.name_ids.append(self._nid(name))
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, before=None, after=None, book=True):
        """``fn`` recorded as span ``name``.

        ``before(args)`` runs before the span opens; ``after(args, result)``
        runs once it has closed, inside a ``trace.bookkeeping`` span unless
        ``book`` is false (for callbacks too cheap to time).
        """
        nid = self._nid(name)
        name_ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self._stack)

        # open()/close() inlined: this runs once per prior draw and value call.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                if not book:
                    after(args, result)
                    return result
                span = self.open("trace.bookkeeping")
                try:
                    after(args, result)
                finally:
                    self.close(span)
            return result

        return wrapper

    def hook(self, owner, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` by a recording wrapper until :meth:`unhook`."""
        if isinstance(owner, type):  # the class's own attribute, not an inherited one
            original = owner.__dict__.get(attr)
        else:
            original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, self.wrap(original, name, **options))
        self._undo.append((owner, attr, original))

    def unhook(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- analysis ------------------------------------------------------

    def summary(self, start: int = 0, stop: int | None = None) -> dict[str, dict[str, float]]:
        """Per span name: outermost call count, inclusive and self seconds,
        over the spans with index in ``[start, stop)`` (which must not be
        nested in spans outside that range).

        A span directly nested in a span of the same name (a wrapper calling
        the wrapped object) counts once, with the outer span's duration.
        """
        names = np.frombuffer(self.name_ids, dtype=np.int32)[start:stop]
        parents = np.frombuffer(self.parents, dtype=np.int32)[start:stop] - start
        ends = np.frombuffer(self.ends, dtype=float)[start:stop]
        dur = ends - np.frombuffer(self.starts, dtype=float)[start:stop]
        nested = parents >= 0
        child = np.zeros(dur.size)
        np.add.at(child, parents[nested], dur[nested])
        self_s = dur - child
        outer = ~nested | (names[np.maximum(parents, 0)] != names)
        k = len(self.names)
        calls = np.bincount(names[outer], minlength=k)
        busy = np.bincount(names[outer], weights=dur[outer], minlength=k)
        own = np.bincount(names, weights=self_s, minlength=k)
        return {name: {"calls": int(calls[i]), "busy_s": float(busy[i]), "self_s": float(own[i])}
                for i, name in enumerate(self.names)}

    def layer_self(self, start: int = 0) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, row in self.summary(start).items():
            out[name.split(".", 1)[0]] += row["self_s"]
        return dict(out)

    def write(self, path: str) -> None:
        """Write every span (name id, start, end, parent id) and the name
        table to one compressed ``.npz`` file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_ids, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=float),
            end=np.frombuffer(self.ends, dtype=float),
            parent=np.frombuffer(self.parents, dtype=np.int32),
        )
