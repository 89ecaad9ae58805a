"""Spans recorded around calls into obliq's layers, from outside the package.

A probe replaces one attribute (a function bound in a module, or a method on
a class) with a wrapper for the duration of a traced pass and restores it
afterwards. Probes are installed on the binding each caller uses: a module
that did ``from .qmath import embed_operator`` calls its own binding, so that
binding is the one wrapped.

A span records name, start, end, parent span and job id. A layer's self time
is its span's duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 for a root
    job: str | None


@dataclass(frozen=True)
class Probe:
    """Wrap ``owner.attr``.

    ``name`` is the span name, or a function of the call's arguments that
    returns it. With ``span=False`` the call is only counted. ``tally``, when
    given, maps the call's arguments to a byte count added to the counter
    ``<name>.bytes``.
    """

    owner: object
    attr: str
    name: str | Callable[..., str]
    span: bool = True
    tally: Callable[..., int] | None = None


class Tracer:
    """Spans and counters in memory; ``job`` tags the spans opened next."""

    def __init__(self):
        self._spans: list[list] = []  # [name, start, end, parent, job]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.job: str | None = None

    def spans(self) -> list[Span]:
        return [Span(*fields) for fields in self._spans]

    def clear(self) -> None:
        self._spans.clear()
        self.counts.clear()

    def _wrap(self, fn, probe: Probe):
        tracer = self
        namer = probe.name if callable(probe.name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = namer(*args, **kwargs) if namer else probe.name
            if probe.tally is not None:
                tracer.counts[f"{name}.bytes"] += probe.tally(*args, **kwargs)
            if not probe.span:
                tracer.counts[name] += 1
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.job]
            tracer._stack.append(len(tracer._spans))
            tracer._spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()

        return traced

    @contextmanager
    def installed(self, probes: list[Probe]):
        """Install ``probes`` for the duration of the block.

        A probe whose attribute is not defined on its owner raises KeyError:
        when a refactor moves a traced binding, the probes must move with it.
        """
        saved = []
        try:
            for probe in probes:
                current = vars(probe.owner)[probe.attr]
                saved.append((probe.owner, probe.attr, current))
                setattr(probe.owner, probe.attr, self._wrap(current, probe))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for idx, span in enumerate(spans):
        clipped = [
            (max(s, span.start), min(e, span.end))
            for s, e in children.get(idx, ())
            if e > span.start and s < span.end
        ]
        out.append((span.end - span.start) - _covered(clipped))
    return out


def layer_totals(spans: list[Span], counts: Counter) -> dict[str, float]:
    """Per span name: ``<name>.calls`` and ``<name>.self_s``; plus the counters."""
    out: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        out[f"{span.name}.calls"] += 1
        out[f"{span.name}.self_s"] += own
    for name, value in counts.items():
        out[name] += value
    return dict(out)
