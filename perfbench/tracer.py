"""In-memory span recorder for the traced benchmark run.

The recorder wraps module attributes that bugsize resolves at call time
(``bugsize.sampler.update_sizes``, ``bugsize.cli.run_all``, ...), so every
call made through such a name opens a span.  The program itself is not
edited: the spans sit at the layer boundaries, seen from outside.  A span
is ``(name, start_ns, end_ns, parent)``; spans live in a list and are only
summarised, or written to disk, after the run.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Span recorder for one serial, single-process run."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int] | None] = []
        self.results: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self) -> tuple[int, int]:
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent

    def _close(self, index: int, parent: int, name: str, start: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        index, parent = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(index, parent, name, start)

    def wrap(self, module, attr: str, name: str, keep_result: bool = False) -> None:
        """Replace ``module.attr`` with a spanning wrapper until ``restore``.

        With ``keep_result`` the wrapper also keeps each return value (a
        float, such as an acceptance fraction) under ``results[name]``.
        """
        original = getattr(module, attr)
        clock = time.perf_counter_ns
        results = self.results[name] if keep_result else None

        def traced(*args, **kwargs):
            index, parent = self._open()
            start = clock()
            try:
                value = original(*args, **kwargs)
            finally:
                self._close(index, parent, name, start)
            if results is not None:
                results.append(float(value))
            return value

        self._patched.append((module, attr, original))
        setattr(module, attr, traced)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive and self time in seconds.

        Self time is a span's duration minus the time its child spans
        cover.  The run is serial, so children never overlap and their
        durations simply add up.
        """
        spans = [s for s in self.spans if s is not None]
        if len(spans) != len(self.spans) or self._stack:
            raise RuntimeError("summary taken while spans are still open")
        child_ns = [0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        for i, (name, start, end, _) in enumerate(spans):
            entry = totals[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_ns[i]
        return {
            name: {"calls": calls, "total_s": total * 1e-9, "self_s": own * 1e-9}
            for name, (calls, total, own) in totals.items()
        }


def write_spans(tracers: list[Tracer], path: Path) -> None:
    """Write every span as a CSV row ``run,index,name,start_ns,end_ns,parent``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("run,index,name,start_ns,end_ns,parent\n")
        for run, tracer in enumerate(tracers):
            for i, (name, start, end, parent) in enumerate(tracer.spans):
                fh.write(f"{run},{i},{name},{start},{end},{parent}\n")
