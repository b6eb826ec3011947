"""Span tracing from outside the program, and the per-layer ledger.

The benchmark never edits the program to trace it.  Instead it swaps a
layer's public functions for thin wrappers while a traced job runs
and puts the originals back afterwards.  Each wrapper records one span:
name, layer, start and end (``perf_counter_ns``, which is
``CLOCK_MONOTONIC`` and so comparable across processes on one host),
the span that was open when it started (per thread), and the request id
the benchmark loop set (job index or job id).  Spans stay in memory and
are written out when the run ends.

A layer's self time is the time its spans cover minus the time covered
by their wrapped children, so nested calls inside one layer are counted
once and a call into another layer is charged to that layer.  Each
traced job runs inside a root span of the layer ``UNATTRIBUTED``: its
self time is the job's time outside every wrapped call, and the ledger
reports it beside the named layers, not among them.
"""

from __future__ import annotations

import gzip
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

_now = time.perf_counter_ns

#: The layer of a traced job's root span (see the module docstring).
UNATTRIBUTED = "unattributed"
#: Samples of ``(start_ns, end_ns)``: a worker process ran a shard (its
#: result's arrival in the parent, less its in-worker ``wall_seconds``).
WORKER_BUSY = "engine.worker_busy"


class Tracer:
    """In-memory span store plus the patch table that feeds it."""

    def __init__(self) -> None:
        #: One list per span: [name, layer, start_ns, end_ns, parent, rid].
        self.spans: List[list] = []
        #: Named counts, and timestamped samples, that hooks add to.
        self.counts: Dict[str, int] = {}
        self.samples: Dict[str, List[Tuple[int, float]]] = {}
        self.request: Any = None
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, name: str, fn: Callable,
             on_result: Optional[Callable[["Tracer", Any, tuple], None]] = None
             ) -> Callable:
        """``fn`` recording one span per call; ``on_result`` sees the value."""
        spans = self.spans
        stack_of = self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            span = [name, layer, _now(), 0, stack[-1] if stack else -1,
                    self.request]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                value = fn(*args, **kwargs)
            finally:
                span[3] = _now()
                stack.pop()
            if on_result is not None:
                on_result(self, value, args)
            return value

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def steps(self, gen, layer: str, name: str):
        """``gen`` recording one span per step.

        The kernel resumes its processes with ``send`` alone, so the
        wrapper forwards ``send`` values and nothing else.  A step's span
        covers the coroutine body between two yields, including the
        generators it delegates to with ``yield from``.
        """
        spans = self.spans
        stack_of = self._stack
        send = gen.send
        value = None
        while True:
            stack = stack_of()
            span = [name, layer, _now(), 0, stack[-1] if stack else -1,
                    self.request]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                item = send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                span[3] = _now()
                stack.pop()
            value = yield item

    def record(self, name: str, layer: str, start_ns: int, end_ns: int,
               rid: Any = None) -> None:
        """A span measured by hand (e.g. between two progress hooks)."""
        self.spans.append([name, layer, start_ns, end_ns, -1,
                           self.request if rid is None else rid])

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def sample(self, name: str, value: float) -> None:
        """Keep ``value`` with the time it was taken (see ``since``)."""
        self.samples.setdefault(name, []).append((_now(), value))

    # -- patching ---------------------------------------------------------------

    def patch_method(self, cls: type, attr: str, layer: str,
                     on_result=None) -> None:
        """Wrap ``cls.attr`` (plain, class- or static method)."""
        raw = cls.__dict__[attr]
        name = f"{cls.__name__}.{attr}"
        if isinstance(raw, classmethod):
            wrapped: object = classmethod(
                self.wrap(layer, name, raw.__func__, on_result))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(
                self.wrap(layer, name, raw.__func__, on_result))
        else:
            wrapped = self.wrap(layer, name, raw, on_result)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def patch_attr(self, target: object, attr: str, replacement) -> None:
        """Replace ``target.attr`` by a hand-written wrapper."""
        self._patches.append((target, attr, target.__dict__[attr]))
        setattr(target, attr, replacement)

    def patch_function(self, module, attr: str, layer: str,
                       on_result=None) -> None:
        """Wrap a module function everywhere it was imported by name."""
        original = getattr(module, attr)
        traced = self.wrap(layer, f"{module.__name__.rsplit('.', 1)[-1]}"
                                  f".{attr}", original, on_result)
        for other in list(sys.modules.values()):
            if (getattr(other, "__name__", "").startswith("repro")
                    and getattr(other, attr, None) is original):
                self._patches.append((other, attr, original))
                setattr(other, attr, traced)

    def unpatch(self) -> None:
        """Put every original back (reverse order)."""
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    # -- output -----------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write the spans as gzip'd tab-separated lines (see ``read``)."""
        with gzip.open(path, "wt", compresslevel=1,
                       encoding="utf-8") as stream:
            stream.write("name\tlayer\tstart_ns\tend_ns\tparent\trid\n")
            for span in self.spans:
                stream.write("\t".join(map(str, span)) + "\n")


def read_spans(path: str) -> List[list]:
    """Spans written by :meth:`Tracer.write`, request ids as strings."""
    spans = []
    with gzip.open(path, "rt", encoding="utf-8") as stream:
        next(stream)
        for line in stream:
            name, layer, start, end, parent, rid = line.rstrip("\n").split(
                "\t")
            spans.append([name, layer, int(start), int(end), int(parent),
                          rid])
    return spans


def since(spans: List[list], start_ns: int) -> List[list]:
    """The spans that started at or after ``start_ns``, parents re-indexed."""
    kept, index_of = [], {}
    for index, span in enumerate(spans):
        if span[2] >= start_ns:
            index_of[index] = len(kept)
            kept.append(span[:4] + [index_of.get(span[4], -1), span[5]])
    return kept


def self_times(spans: Iterable[list]) -> Dict[str, Dict[str, float]]:
    """Per-layer ``{"self_ns", "calls"}``, children subtracted.

    Parents always precede their children in the list, so one reverse
    pass accumulates each span's child time into its parent.
    """
    spans = list(spans)
    child_ns = [0] * len(spans)
    for index in range(len(spans) - 1, -1, -1):
        parent = spans[index][4]
        if parent >= 0:
            child_ns[parent] += spans[index][3] - spans[index][2]
    layers: Dict[str, Dict[str, float]] = {}
    for index, span in enumerate(spans):
        entry = layers.setdefault(span[1], {"self_ns": 0, "calls": 0})
        entry["self_ns"] += span[3] - span[2] - child_ns[index]
        entry["calls"] += 1
    return layers


def _union(intervals: Iterable[Tuple[int, int]]) -> List[List[int]]:
    merged: List[List[int]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        elif end > start:
            merged.append([start, end])
    return merged


def _minus(intervals: List[List[int]], holes: List[List[int]]
           ) -> List[Tuple[int, int]]:
    """The parts of sorted disjoint ``intervals`` outside ``holes``."""
    left = []
    for start, end in intervals:
        for hole_start, hole_end in holes:
            if hole_end <= start or hole_start >= end:
                continue
            if hole_start > start:
                left.append((start, hole_start))
            start = max(start, hole_end)
        if start < end:
            left.append((start, end))
    return left


def attribute_workers(spans: List[list], intervals, parents,
                      layer: str) -> None:
    """Give ``layer`` the time spans named in ``parents`` waited on
    workers.

    ``intervals`` are ``(start_ns, end_ns)`` pairs during which a worker
    process ran a shard.  Where at least one worker was busy while such
    a span had no wrapped child open, a child span of ``layer`` is
    added, so that the span's self time keeps only what it did while no
    worker ran: spawning, dispatch, transport, idling.
    """
    intervals = list(intervals)
    for index in range(len(spans)):
        span = spans[index]
        if span[0] not in parents:
            continue
        start, end = span[2], span[3]
        busy = _union((max(a, start), min(b, end)) for a, b in intervals
                      if a < end and b > start)
        if not busy:
            continue
        children = _union((child[2], child[3]) for child in spans
                          if child[4] == index)
        for a, b in _minus(busy, children):
            spans.append(["in-worker shards", layer, a, b, index, span[5]])


def durations_us(spans: Iterable[list], name: str) -> List[float]:
    """Total (not self) durations of every span called ``name``, in us."""
    return [(span[3] - span[2]) / 1000.0 for span in spans if span[0] == name]


def named_ns(layers: Dict[str, Dict[str, float]]) -> float:
    """Self time of every layer but ``UNATTRIBUTED``."""
    return sum(entry["self_ns"] for layer, entry in layers.items()
               if layer != UNATTRIBUTED)


def render_ledger(layers: Dict[str, Dict[str, float]], wall_ns: int,
                  untraced_ns: int, title: str) -> str:
    """The ledger table: self time, calls and share per layer."""
    total = max(wall_ns, 1)
    named = named_ns(layers)
    lines = [f"ledger {title}: traced wall {wall_ns / 1e6:.1f} ms, "
             f"untraced wall {untraced_ns / 1e6:.1f} ms, "
             f"tracing overhead {(wall_ns - untraced_ns) / 1e6:+.1f} ms "
             f"({(wall_ns - untraced_ns) / max(untraced_ns, 1):+.1%}); "
             f"named layers cover {named / total:.1%}",
             f"  {'layer':<24} {'self ms':>11} {'calls':>10} {'share':>7}"]
    for layer, entry in sorted(layers.items(),
                               key=lambda item: -item[1]["self_ns"]):
        lines.append(f"  {layer:<24} {entry['self_ns'] / 1e6:>11.2f} "
                     f"{int(entry['calls']):>10} "
                     f"{entry['self_ns'] / total:>7.1%}")
    return "\n".join(lines)
