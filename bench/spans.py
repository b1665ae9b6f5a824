"""In-memory span tracer for the benchmark.

A span is one wall-clock interval around a call the benchmark makes into an
effact layer.  Spans nest: each records its parent and the iteration it
belongs to.  Nothing is written until the run ends; `write_trace` then saves
the spans as plain JSON and as Chrome Trace Event JSON (opens in Perfetto).

`NULL` has the same interface and records nothing, so one code path serves
the timed run (tracing off) and the traced run.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float          # time.perf_counter() seconds
    end: float
    parent: int | None
    iteration: int | str  # timed iteration number, or a phase name

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.iteration: int | str = "setup"
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        s = Span(len(self.spans), name, time.perf_counter(), 0.0,
                 self._open[-1] if self._open else None, self.iteration)
        self.spans.append(s)
        self._open.append(s.id)
        try:
            yield
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def count(self, name: str, value: int):
        self.counts[name] = value


class _NullTracer:
    enabled = False
    iteration: int | str = "setup"
    _ctx = nullcontext()

    def span(self, name: str):
        return self._ctx

    def count(self, name: str, value: int):
        pass


NULL = _NullTracer()


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Raises ValueError if a child lies outside its parent or the children
    together exceed the parent's duration.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is None:
            continue
        p = spans[s.parent]
        if s.start < p.start or s.end > p.end:
            raise ValueError(f"span {s.name}#{s.id} lies outside its parent "
                             f"{p.name}#{p.id}")
        covered[p.id] += s.seconds
    out = []
    for s, c in zip(spans, covered):
        if c > s.seconds + 1e-9:
            raise ValueError(f"children of {s.name}#{s.id} cover "
                             f"{c:.6f}s of its {s.seconds:.6f}s")
        out.append(max(s.seconds - c, 0.0))
    return out


def totals_by_iteration(spans: list[Span], seconds) -> dict[str, dict]:
    """name -> {iteration: summed `seconds(span)` of that name's spans}."""
    out: dict[str, dict] = {}
    for s in spans:
        per = out.setdefault(s.name, {})
        per[s.iteration] = per.get(s.iteration, 0.0) + seconds(s)
    return out


def summary(spans: list[Span]) -> dict:
    """Call count, inclusive and self seconds per span name, and self
    seconds per layer in each phase (all timed iterations form one phase)."""
    own = self_seconds(spans)
    names: dict[str, dict] = {}
    layers: dict[str, dict] = {}
    for s, t in zip(spans, own):
        row = names.setdefault(s.name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.seconds
        row["self_s"] += t
        phase = ("iterations" if isinstance(s.iteration, int)
                 else s.iteration.split(".")[0])
        per = layers.setdefault(phase, {})
        per[s.layer] = per.get(s.layer, 0.0) + t
    return {"by_name": names, "self_s_by_layer": layers}


def chrome_trace(spans: list[Span]) -> dict:
    """Chrome Trace Event Format: one complete ("X") event per span."""
    t0 = min((s.start for s in spans), default=0.0)
    return {
        "displayTimeUnit": "ms",
        "traceEvents": [
            {"name": s.name, "cat": s.layer, "ph": "X", "pid": 1, "tid": 1,
             "ts": (s.start - t0) * 1e6, "dur": s.seconds * 1e6,
             "args": {"id": s.id, "parent": s.parent,
                      "iteration": s.iteration}}
            for s in spans],
    }


def write_trace(tracer: Tracer, base) -> tuple[str, str]:
    """Write <base>.spans.json and <base>.trace.json; return both paths."""
    spans_path, chrome_path = f"{base}.spans.json", f"{base}.trace.json"
    with open(spans_path, "w") as f:
        json.dump({"spans": [asdict(s) for s in tracer.spans],
                   "counts": tracer.counts,
                   "summary": summary(tracer.spans)}, f, indent=1)
    with open(chrome_path, "w") as f:
        json.dump(chrome_trace(tracer.spans), f)
    return spans_path, chrome_path
