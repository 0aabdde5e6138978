"""In-memory spans around calls into curvebench's layers.

The benchmark never edits the program.  For a traced run it replaces the
module attributes through which curvebench calls its own layer functions
with wrappers that record a span per call, and restores them afterwards.
Spans stay in memory until the run writes them out at its end.
"""

import functools
import sys
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: object  # span id or None
    op: object      # operation id or None


@dataclass
class Tracer:
    """Records nested spans; ``enabled`` switches recording off and on."""

    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    enabled: bool = True
    op: object = None
    ops: int = 0
    _stack: list = field(default_factory=list)

    def new_op(self) -> int:
        """Start the next operation; later spans carry its id."""
        self.op = self.ops
        self.ops += 1
        return self.op

    def add(self, name: str, value) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + value

    def begin(self, name: str):
        if not self.enabled:
            return None
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.op)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span) -> None:
        if span is None:
            return
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def call(self, name: str, fn, *args, **kwargs):
        span = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(span)

    def as_json(self) -> dict:
        return {"spans": [asdict(s) for s in self.spans], "counts": dict(self.counts)}


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that its children cover."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


@dataclass(frozen=True)
class Probe:
    """Wrap ``owner.attr`` in a span named ``span``.

    ``on_result(tracer, result)`` records counts from the return value.
    ``new_op`` starts a new operation id at each call.
    """

    owner: object
    attr: str
    span: str
    on_result: object = None
    new_op: bool = False


class Instrumented:
    """Context manager that installs probes and removes them on exit."""

    def __init__(self, tracer: Tracer, probes):
        self.tracer = tracer
        self.probes = list(probes)
        self._saved = []

    def _wrapper(self, probe, original):
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            outer_op = tracer.op
            if probe.new_op:
                tracer.new_op()
            try:
                result = tracer.call(probe.span, original, *args, **kwargs)
            finally:
                tracer.op = outer_op
            if probe.on_result is not None:
                probe.on_result(tracer, result)
            return result

        return wrapper

    def __enter__(self):
        for probe in self.probes:
            original = getattr(probe.owner, probe.attr, None)
            if original is None:
                print(f"trace: {probe.owner.__name__}.{probe.attr} not found; "
                      f"span {probe.span} is not recorded", file=sys.stderr)
                continue
            self._saved.append((probe.owner, probe.attr, original))
            setattr(probe.owner, probe.attr, self._wrapper(probe, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False
