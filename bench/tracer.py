"""In-memory span tracer that wraps the codec's public functions from outside.

The program is not edited: each traced function is replaced, at every
module attribute the code calls it through, by a wrapper that records a span
(name, start, end, parent) around the call. Spans stay in memory until the
benchmark writes them out; self times are derived from them afterwards.
`restore` puts every original attribute back.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

# (module, attribute, span name). A function reached through more than one
# module attribute is listed once per attribute, under one span name.
TARGETS = (
    ("lflc.pipeline", "encode_light_field", "pipeline.encode"),
    ("lflc.pipeline", "decode_light_field", "pipeline.decode"),
    ("lflc.pipeline", "optimize_layers", "layers.solve"),
    ("lflc.layers", "optimize_layers", "layers.solve"),
    ("lflc.pipeline", "render_additive", "layers.render"),
    ("lflc.layers", "render_additive", "layers.render"),
    ("lflc.layers", "adjoint_scatter", "layers.adjoint"),
    ("lflc.wbi", "encode_scalable", "wbi.encode"),
    ("lflc.wbi", "solve_codes", "wbi.solve_codes"),
    ("lflc.wbi", "decode_levels", "wbi.decode"),
    ("lflc.dbn", "encode_patches", "dbn.encode_patches"),
    ("lflc.dbn", "decode_patches", "dbn.decode_patches"),
    ("lflc.dbn", "pretrain_stack", "dbn.pretrain"),
    ("lflc.dbn", "finetune", "dbn.finetune"),
    ("lflc.dbn", "cd_update", "dbn.minibatch"),
    ("lflc.dbn", "backprop_gradients", "dbn.minibatch"),
    ("lflc.bitstream", "entropy_encode", "bitstream.entropy_encode"),
    ("lflc.bitstream", "entropy_decode", "bitstream.entropy_decode"),
    ("lflc.bitstream", "write_container", "bitstream.write_container"),
    ("lflc.bitstream", "read_container", "bitstream.read_container"),
    ("lflc.metrics", "rd_sweep", "metrics.rd_sweep"),
    ("lflc.metrics", "bd_metrics", "metrics.bd_metrics"),
)


class Span:
    __slots__ = ("index", "name", "start", "end", "parent", "count")

    def __init__(self, index, name, start, parent, count=0):
        self.index = index
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent  # index of the enclosing span, or -1
        self.count = count  # work units, from the arguments or the result

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_row(self) -> list:
        return [self.index, self.name, self.start, self.end, self.parent, self.count]


def _decisions(name, args, kwargs) -> int:
    """Coded binary decisions of an entropy call: symbols x bit planes."""
    if name == "bitstream.entropy_encode":
        symbols = args[0] if args else kwargs["symbols"]
        bits = args[1] if len(args) > 1 else kwargs["bits"]
        return int(getattr(symbols, "size", len(symbols))) * int(bits)
    if name == "bitstream.entropy_decode":
        count = args[1] if len(args) > 1 else kwargs["count"]
        bits = args[2] if len(args) > 2 else kwargs["bits"]
        return int(count) * int(bits)
    return 0


class Tracer:
    """Records spans around the TARGETS while installed.

    Use as a context manager; leaving it restores every wrapped attribute.
    Attributes that do not exist are skipped and listed in `missing`.
    """

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self._saved: list[tuple[object, str, object]] = []
        self._open_spans: list[int] = []  # the benchmark is one caller, one thread
        self._paused = False

    def _open(self, name: str, count: int = 0) -> Span:
        parent = self._open_spans[-1] if self._open_spans else -1
        span = Span(len(self.spans), name, time.perf_counter(), parent, count)
        self.spans.append(span)
        self._open_spans.append(span.index)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open_spans.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one call."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run untraced (used for output checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _wrap(self, original, name: str):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            if self._paused:
                return original(*args, **kwargs)
            span = self._open(name, _decisions(name, args, kwargs))
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if name == "layers.solve":  # (stack, loss history): accepted steps
                span.count = len(result[1]) - 1
            return result

        traced.__wrapped_by_bench_tracer__ = True
        return traced

    def install(self) -> "Tracer":
        for module_name, attr, name in self.targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.add(name)
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))
        return self

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as handle:
            json.dump({"columns": ["index", "name", "start", "end", "parent", "count"],
                       "spans": [span.as_row() for span in self.spans]}, handle)


def installed_wrappers(targets=TARGETS) -> list[str]:
    """Module attributes that currently hold a tracer wrapper."""
    found = []
    for module_name, attr, _ in targets:
        value = getattr(importlib.import_module(module_name), attr, None)
        if getattr(value, "__wrapped_by_bench_tracer__", False):
            found.append(f"{module_name}.{attr}")
    return found


def self_times(spans) -> dict[int, float]:
    """Span index -> duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for start, end in sorted(children.get(span.index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out[span.index] = span.duration - covered
    return out
