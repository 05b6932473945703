"""Span tracing around clarikit's public functions, from outside the package.

``Tracer.installed(targets)`` replaces each target function, in every
clarikit module namespace that binds it, with a wrapper that records a span
(name, start, end, parent, instance).  The originals are restored on exit.
Spans stay in memory; per-layer statistics, including self time, are
derived from them afterwards.

A traced run is single-threaded: spans nest by call order on one stack.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable, Iterator

from clarikit.corpus import ClarificationInstance

# Functions whose result is an MMR similarity callable; calls to that
# callable are counted under this name.
SIM_FACTORIES = {"retrieval.tfidf_similarity", "retrieval.embedding_similarity"}
SIM_NAME = "retrieval.mmr_sim"

NAMESPACES = (
    "clarikit",
    "clarikit.corpus",
    "clarikit.retrieval",
    "clarikit.metrics",
    "clarikit.generator",
    "clarikit.harness",
    "clarikit.cli",
    "clarikit.ioutils",
)


@dataclass(frozen=True, slots=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    instance: str | None


class Tracer:
    """Records spans for wrapped calls made on the installing thread.

    Instances: a span that is a direct child of a root span and is named in
    ``opens`` starts a new instance, keyed by the id of its
    ``ClarificationInstance`` argument or else by the next of
    ``instance_ids``.  Later direct children named in ``continues`` stay in
    that instance; any other direct child ends it.  Deeper spans inherit the
    instance of their parent.
    """

    def __init__(
        self,
        opens: Iterable[str] = (),
        continues: Iterable[str] = (),
        instance_ids: Iterable[str] = (),
    ):
        self.opens = frozenset(opens)
        self.continues = frozenset(continues)
        self._ids = iter(instance_ids)
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[tuple[int, str | None]] = []
        self._instance: str | None = None
        self._next_id = 0
        self._thread = threading.get_ident()
        self._wrappers: list[Callable] = []

    def _instance_for(self, name: str, args: tuple) -> str | None:
        if len(self._stack) != 1:
            return self._stack[-1][1] if self._stack else None
        if name in self.opens:
            key = next((a.id for a in args if isinstance(a, ClarificationInstance)), None)
            self._instance = key if key is not None else next(self._ids, None)
        elif name not in self.continues:
            self._instance = None
        return self._instance

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._thread:
                raise RuntimeError(f"traced call to {name} from another thread")
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            instance = self._instance_for(name, (*args, *kwargs.values()))
            self._stack.append((span_id, instance))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append(Span(span_id, parent, name, start, end, instance))
            if name in SIM_FACTORIES:
                return self._count(SIM_NAME, result)
            return result

        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self, targets: Iterable[str]) -> Iterator["Tracer"]:
        """Wrap every ``module.function`` target in all namespaces binding it."""
        patches: list[tuple[object, str, object]] = []
        try:
            for target in targets:
                module_name, func_name = target.split(".")
                original = getattr(importlib.import_module(f"clarikit.{module_name}"), func_name)
                wrapper = self.wrap(target, original)
                self._wrappers.append(wrapper)
                for ns_name in NAMESPACES:
                    namespace = importlib.import_module(ns_name)
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            patches.append((namespace, attr, original))
                            setattr(namespace, attr, wrapper)
            yield self
        finally:
            for namespace, attr, original in reversed(patches):
                setattr(namespace, attr, original)

    def bound_wrappers(self) -> list[str]:
        """Names in clarikit's namespaces that are bound to this tracer's wrappers."""
        wrappers = {id(w) for w in self._wrappers}
        return [
            f"{ns_name}.{attr}"
            for ns_name in NAMESPACES
            for attr, value in vars(importlib.import_module(ns_name)).items()
            if id(value) in wrappers
        ]

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.id, s.parent, s.name, s.start, s.end, s.instance]) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time covered by its direct children.

    Children of one span run one after another on one thread, so their
    durations do not overlap and can simply be subtracted.
    """
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.end - s.start
    return own


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (q in [0, 100])."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def layer_stats(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per function name: calls, total self seconds, p50 and p99 latency in ms."""
    own = self_times(spans)
    durations: dict[str, list[float]] = {}
    self_s: dict[str, float] = {}
    for s in spans:
        durations.setdefault(s.name, []).append(s.end - s.start)
        self_s[s.name] = self_s.get(s.name, 0.0) + own[s.id]
    out = {}
    for name, values in durations.items():
        values.sort()
        out[name] = {
            "calls": len(values),
            "self_s": self_s[name],
            "p50_ms": 1000.0 * percentile(values, 50),
            "p99_ms": 1000.0 * percentile(values, 99),
        }
    return out
