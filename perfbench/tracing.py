"""Spans around the benchmark's own calls into folkclass, and op counts.

The package is never patched: a span opens and closes in benchmark code,
around one call (or one loop of calls) into a layer's public functions.
Spans live in memory and are written out once, when the benchmark exits.
With tracing off the same `span` calls only count operations.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Tracer:
    """Records spans (when enabled) and counts attempted and failed operations.

    Every span counts `calls` operations; `check` counts one operation per
    output check.  A pass that raises counts one failed operation, in
    run.py's `run_pass`, not here, so an exception crossing nested spans is
    counted once.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.pass_id = ""
        self.failures: list[str] = []

    @contextmanager
    def span(self, layer: str, name: str, calls: int = 1):
        self.attempted += calls
        if not self.enabled:
            yield
            return
        record = {"id": len(self.spans), "layer": layer, "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "pass": self.pass_id, "calls": calls,
                  "start": perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    def check(self, name: str, passes) -> bool:
        """Run one output check; False or an exception counts a failure."""
        self.attempted += 1
        try:
            ok = bool(passes())
            problem = "failed"
        except Exception as exc:      # a broken output must not stop the benchmark
            ok, problem = False, f"raised {exc!r}"
        if not ok:
            self.failed += 1
            self.failures.append(f"{self.pass_id}: check {name} {problem}")
        return ok

    def fail(self, what: str) -> None:
        """Count one failed operation whose attempt was already counted."""
        self.failed += 1
        self.failures.append(f"{self.pass_id}: {what}")

    def pass_spans(self, pass_id: str) -> list[dict]:
        return [s for s in self.spans if s["pass"] == pass_id]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans), encoding="utf-8")


def durations(spans: list[dict]) -> dict[str, float]:
    """Total seconds per `layer.name` over the given spans."""
    out: dict[str, float] = {}
    for s in spans:
        key = f"{s['layer']}.{s['name']}"
        out[key] = out.get(key, 0.0) + (s["end"] - s["start"])
    return out


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per layer spent in its spans but not in their child spans."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                       + s["end"] - s["start"])
    out: dict[str, float] = {}
    for s in spans:
        own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        out[s["layer"]] = out.get(s["layer"], 0.0) + own
    return out
