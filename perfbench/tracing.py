"""In-memory span tracing for the benchmark's traced run.

Spans are recorded by wrapping the public functions of the ``lmpcast``
modules from outside: every module attribute bound to a target function
(including names re-imported with ``from .x import y``) is replaced by a
wrapper while tracing is installed, and restored afterwards. ``src/`` is
never modified. A target that no longer exists is reported as unmeasured.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

# Percentiles tried for the tail, highest first.
TAIL_CANDIDATES = (99.99, 99.9, 99.0, 90.0, 50.0)
# A tail percentile must leave at least this many samples above it.
TAIL_MIN_BEYOND = 10


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``lmpcast.<module>.<attr>``.

    ``size`` maps the call's arguments to a work size (summed per name);
    ``on_result`` maps the return value to a named count increment.
    """

    module: str
    attr: str
    size: Callable[[tuple, dict], int] | None = None
    on_result: Callable[[Any], dict[str, int]] | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str


def _rank(pct: float, n: int) -> int:
    # rounding first keeps float error (99.99 / 100 * 1e5) from adding a rank
    return max(1, math.ceil(round(pct / 100.0 * n, 6)))


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of already sorted values."""
    return sorted_values[_rank(pct, len(sorted_values)) - 1]


def tail_percentile(n: int) -> float | None:
    """Highest candidate percentile that leaves >= TAIL_MIN_BEYOND samples above it."""
    for pct in TAIL_CANDIDATES:
        if n - _rank(pct, n) >= TAIL_MIN_BEYOND:
            return pct
    return None


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per-span self time: duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        (s.end - s.start) - covered(children.get(i, []), s.start, s.end)
        for i, s in enumerate(spans)
    ]


@dataclass
class Tracer:
    """Collects spans and counts for the targets while installed."""

    targets: tuple[Target, ...]
    spans: list[Span] = field(default_factory=list)
    sizes: dict[tuple[str, str], int] = field(default_factory=dict)
    counts: dict[tuple[str, str], int] = field(default_factory=dict)
    unmeasured: list[str] = field(default_factory=list)
    run: str = ""
    _stack: list[int] = field(default_factory=list)
    _patches: list[tuple[Any, str, Any]] = field(default_factory=list)

    def install(self, run: str) -> None:
        """Wrap every target; spans recorded until :meth:`uninstall` carry ``run``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.run = run
        modules = [m for n, m in list(sys.modules.items()) if n == "lmpcast" or n.startswith("lmpcast.")]
        for target in self.targets:
            module = sys.modules.get(f"lmpcast.{target.module}")
            original = getattr(module, target.attr, None) if module is not None else None
            if not callable(original):
                if target.name not in self.unmeasured:
                    self.unmeasured.append(target.name)
                continue
            wrapper = self._wrap(target, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, target: Target, original: Callable) -> Callable:
        name = target.name
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if target.size is not None:
                key = (self.run, name)
                self.sizes[key] = self.sizes.get(key, 0) + target.size(args, kwargs)
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.run)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if target.on_result is not None:
                for count, inc in target.on_result(result).items():
                    key = (self.run, count)
                    self.counts[key] = self.counts.get(key, 0) + inc
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", target.attr)
        return traced

    def export(self, path) -> None:
        """Write every span as ``[name, start, end, parent, run]`` JSON rows."""
        payload = {
            "fields": ["name", "start", "end", "parent", "run"],
            "unmeasured": self.unmeasured,
            "spans": [[s.name, s.start, s.end, s.parent, s.run] for s in self.spans],
        }
        with open(path, "w", encoding="utf-8") as out:
            json.dump(payload, out)


@dataclass(frozen=True)
class RunStats:
    """Per-name aggregates of one run's spans."""

    calls: dict[str, int]
    total_s: dict[str, float]
    self_s: dict[str, float]
    durations: dict[str, list[float]]
    inner_calls: dict[tuple[str, str], int]


def run_stats(tracer: Tracer, run: str) -> RunStats:
    """Aggregate the spans of one run: calls, total and self time per name.

    Nested spans of one name (a wrapped function calling itself through
    another wrapped function) are counted once in the total time.
    ``inner_calls[(outer, inner)]`` counts ``inner`` spans below an
    ``outer`` span.
    """
    indices = [i for i, s in enumerate(tracer.spans) if s.run == run]
    spans = [tracer.spans[i] for i in indices]
    local = {g: j for j, g in enumerate(indices)}
    rebased = [
        Span(s.name, s.start, s.end, local.get(s.parent) if s.parent is not None else None, s.run)
        for s in spans
    ]
    selfs = self_times(rebased)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    inner: dict[tuple[str, str], int] = {}
    for j, span in enumerate(rebased):
        calls[span.name] = calls.get(span.name, 0) + 1
        durations.setdefault(span.name, []).append(span.end - span.start)
        self_s[span.name] = self_s.get(span.name, 0.0) + selfs[j]
        ancestors = set()
        parent = span.parent
        while parent is not None:
            ancestors.add(rebased[parent].name)
            parent = rebased[parent].parent
        if span.name not in ancestors:
            total[span.name] = total.get(span.name, 0.0) + (span.end - span.start)
        for outer in ancestors:
            inner[(outer, span.name)] = inner.get((outer, span.name), 0) + 1
    return RunStats(calls, total, self_s, durations, inner)
