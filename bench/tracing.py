"""In-memory spans around the public functions of dsmplan's layers.

While a :meth:`Tracer.request` is open, every public function of the layer
modules is replaced, in every dsmplan namespace that holds it, by a wrapper
that records a span: name, start, end, parent span and request id.  Names
that ``planning`` and ``cli`` import from other layers are replaced too, so
calls made inside ``plan_conversation`` or ``cli.main`` are covered.  The
originals are restored when the request closes, so untraced runs execute
unmodified code.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator

LAYERS = ("manifest", "tokens", "dsm", "sequencing", "clustering", "planning", "simulator", "cli")


@dataclass(slots=True)
class Span:
    name: str  # "<layer>.<function>", or "bench.<operation>" for a request's root
    start: float
    end: float
    parent: int | None
    request: str


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._request = ""
        self._patches: list[tuple[object, str, object, object]] = []  # namespace, attr, original, wrapper
        modules = {layer: importlib.import_module(f"dsmplan.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, fn in vars(module).items():
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for namespace in [importlib.import_module("dsmplan"), *modules.values()]:
            for attr, value in vars(namespace).items():
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((namespace, attr, value, wrappers[value]))

    def _begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._request))
        self._open.append(index)
        return index

    def _finish(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._open.pop()

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._finish(index)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def request(self, operation: str, request: str) -> Iterator[None]:
        """Trace one operation under a root span ``bench.<operation>``."""
        self._request = request
        for namespace, attr, _, wrapper in self._patches:
            setattr(namespace, attr, wrapper)
        index = self._begin(f"bench.{operation}")
        try:
            yield
        finally:
            self._finish(index)
            for namespace, attr, original, _ in self._patches:
                setattr(namespace, attr, original)

    def roots(self, operation: str) -> list[int]:
        return [k for k, s in enumerate(self.spans) if s.name == f"bench.{operation}"]

    def subtree(self, root: int) -> list[int]:
        """Indices of the spans under ``root``, itself excluded."""
        inside = {root}
        for k in range(root + 1, len(self.spans)):
            if self.spans[k].parent not in inside:
                break  # spans are appended in start order, so a subtree is contiguous
            inside.add(k)
        return sorted(inside - {root})

    def breakdown(self, root: int) -> dict[str, float]:
        """Seconds under one root span: each layer's self time, keyed by layer,
        plus each function's inclusive time, keyed by ``<layer>.<function>``."""
        below = self.subtree(root)
        child_time: dict[int, float] = defaultdict(float)
        out: dict[str, float] = defaultdict(float)
        for k in below:
            span = self.spans[k]
            child_time[span.parent] += span.end - span.start
            out[span.name] += span.end - span.start
        for k in below:
            span = self.spans[k]
            out[span.name.split(".")[0]] += span.end - span.start - child_time[k]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")
