"""In-memory span and counter recording for the traced benchmark run.

A span is (name, start, end, parent, iteration): `parent` is the index of
the enclosing span and `iteration` groups the spans of one workload
iteration. Spans stay in memory until `write` dumps them at the end of
the run.
"""
from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, iteration]
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.iteration = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.iteration]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counters[self.iteration][name] += value

    def durations(self) -> tuple[dict[int, dict[str, float]], dict[int, dict[str, float]]]:
        """(self time, total time) per iteration and span name.

        Self time is a span's duration minus its children's durations:
        children of one span run one after another inside it, so the sum
        of their durations is the part of the parent's interval they cover.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        own: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        total: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, iteration) in enumerate(self.spans):
            own[iteration][name] += (end - start) - child_time[i]
            total[iteration][name] += end - start
        return own, total

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fields": ["name", "start_s", "end_s", "parent", "iteration"],
            "spans": self.spans,
            "counters": {str(k): dict(v) for k, v in self.counters.items()},
        }
        path.write_text(json.dumps(payload) + "\n")
