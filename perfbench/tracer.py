"""Outside-in span tracer: times a layer by rebinding the name its caller uses.

A target is a namespace (a module or a class) and an attribute holding a
function. While the tracer is installed, that attribute holds a wrapper
that records one span per call: name, start, end, parent span and episode
id, kept in parallel in-memory lists. Nothing inside the traced package is
edited; `restore` puts every original binding back, also when the traced
code raised.

Self time of a span is its duration minus the durations of its direct
children. The program is single-threaded, so children nest fully inside
their parent and the subtraction is exact.
"""

from __future__ import annotations

import functools
import gzip
import statistics
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One binding to rebind: `owner.attr`, recorded as span `name`.

    `count(counts, args, kwargs, result)` may add exact counts after each
    call; `root` marks a call that starts a new episode id.
    """

    owner: object
    attr: str
    name: str
    count: Callable | None = None
    root: bool = False


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


class Tracer:
    """Install with `with Tracer(targets) as tr:`; read `tr.stats()` after."""

    def __init__(self, targets, clock=time.perf_counter):
        self.targets = list(targets)
        self.clock = clock
        self.counts: dict[str, float] = {}
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.span_episode: list[int] = []
        self._stack: list[int] = []
        self._episode = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for tg in self.targets:
            original = _raw_attr(tg.owner, tg.attr)
            self._saved.append((tg.owner, tg.attr, original))
            # one wrapper per function, so a function bound under two names
            # (a module and the module that imported it) is one layer
            key = id(original)
            if key not in wrappers:
                wrappers[key] = self._wrap(original, tg)
            setattr(tg.owner, tg.attr, wrappers[key])

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def clear(self) -> None:
        """Drop recorded spans and counts; bindings stay as they are."""
        self.counts.clear()
        for lst in (self.span_name, self.span_start, self.span_end,
                    self.span_parent, self.span_episode):
            lst.clear()

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, tg: Target):
        nid = self._name_id(tg.name)
        clock = self.clock
        stack = self._stack
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, episodes = self.span_parent, self.span_episode
        counts, count, root = self.counts, tg.count, tg.root

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if root:
                self._episode += 1
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            episodes.append(self._episode)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    # -- derived numbers --------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.span_start, self.span_end)]
        out = list(own)
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                out[p] -= own[i]
        return out

    def stats(self) -> dict[str, LayerStats]:
        out = {name: LayerStats() for name in self.names}
        selfs = self.self_times()
        for i, nid in enumerate(self.span_name):
            st = out[self.names[nid]]
            st.calls += 1
            st.self_s += selfs[i]
            st.total_s += self.span_end[i] - self.span_start[i]
        return out

    def durations(self, name: str) -> list[float]:
        nid = self._name_ids.get(name)
        return [e - s for n, s, e in zip(self.span_name, self.span_start,
                                         self.span_end) if n == nid]

    def median_ms(self, name: str) -> float:
        d = self.durations(name)
        return statistics.median(d) * 1000.0 if d else 0.0

    def category_self_s(self, categories: dict[str, str],
                        default: str = "other") -> dict[str, float]:
        """Self time summed by category; a span without a category of its
        own inherits its parent's. Parents always precede their children."""
        cats: list[str] = []
        totals: dict[str, float] = {}
        selfs = self.self_times()
        for i, nid in enumerate(self.span_name):
            cat = categories.get(self.names[nid])
            if cat is None:
                p = self.span_parent[i]
                cat = cats[p] if p >= 0 else default
            cats.append(cat)
            totals[cat] = totals.get(cat, 0.0) + selfs[i]
        return totals

    def write_spans(self, path) -> None:
        """Spans as gzipped CSV: name, start_s, end_s, parent, episode."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,start_s,end_s,parent,episode\n")
            for i, nid in enumerate(self.span_name):
                fh.write(f"{i},{self.names[nid]},{self.span_start[i]:.9f},"
                         f"{self.span_end[i]:.9f},{self.span_parent[i]},"
                         f"{self.span_episode[i]}\n")


def _raw_attr(owner, attr: str):
    """The binding itself: for a class, the function in its own dict."""
    if isinstance(owner, type):
        if attr not in vars(owner):
            raise AttributeError(f"{owner.__name__} does not define {attr}")
        return vars(owner)[attr]
    return getattr(owner, attr)
