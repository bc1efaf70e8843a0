"""Outside-in tracing of negsup's layers, for the benchmark's traced run.

The tracer wraps public functions of the negsup modules from outside the
program. `from x import f` binds f separately in every importing module,
so install() rebinds each wrapped function under every name in every
loaded negsup module that refers to it (kernels are looked up as module
attributes, so rebinding them in `kernels` covers their callers).

Span wrappers record (name, start, end, parent) in memory; count wrappers
only count calls, for functions called so often that a span would cost
more than the work (embed_text, embed_entity), which also leaves their
time in the caller's self time. Self time is a span's duration minus the
time its direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# (span name, module, function)
SPANS = [
    ("datastore.load", "negsup.datastore", "load_datastore"),
    ("datastore.read_caption_file", "negsup.datastore", "read_caption_file"),
    ("datastore.build_datastore", "negsup.datastore", "build_datastore"),
    ("datastore.retrieve", "negsup.datastore", "retrieve"),
    ("kernels.dot_scores", "negsup.kernels", "dot_scores"),
    ("kernels.attention_core", "negsup.kernels", "attention_core"),
    ("kernels.negative_scores", "negsup.kernels", "negative_scores"),
    ("embedding.load_embedding_file", "negsup.embedding", "load_embedding_file"),
    ("entities.load_vocabulary", "negsup.entities", "load_vocabulary"),
    ("entities.classify_image_entities", "negsup.entities", "classify_image_entities"),
    ("entities.filter_inference", "negsup.entities", "filter_inference"),
    ("entities.filter_training", "negsup.entities", "filter_training"),
    ("entities.extract_entities", "negsup.entities", "extract_entities"),
    ("fusion.clip_score", "negsup.fusion", "clip_score"),
    ("fusion.fuse_sif", "negsup.fusion", "fuse_sif"),
    ("fusion.fuse_retrieval", "negsup.fusion", "fuse_retrieval"),
    ("fusion.map_to_prefix", "negsup.fusion", "map_to_prefix"),
    ("fusion.xavier_weights", "negsup.fusion", "xavier_weights"),
    ("suppression.score_negative_attention", "negsup.suppression", "score_negative_attention"),
    ("suppression.select_tokens", "negsup.suppression", "select_tokens"),
    ("suppression.suppress", "negsup.suppression", "suppress"),
    ("pipeline.read_jsonl", "negsup.pipeline", "read_jsonl"),
    ("pipeline.run_batch", "negsup.pipeline", "run_batch"),
    ("pipeline.standin_decode", "negsup.pipeline", "standin_decode"),
    ("pipeline.write_jsonl", "negsup.pipeline", "write_jsonl"),
    ("metrics.load_instances", "negsup.metrics", "load_instances"),
    ("metrics.evaluate", "negsup.metrics", "evaluate"),
]

# (count name, module, function)
COUNTS = [
    ("embedding.embed_text", "negsup.embedding", "embed_text"),
    ("embedding.embed_entity", "negsup.embedding", "embed_entity"),
]


def _computed_bytes(matrix, query) -> int:
    """Bytes of float64 matrix the scan reads, as computed from its shape."""
    return matrix.shape[0] * matrix.shape[1] * 8


# span name -> quantity summed per call from the call's arguments
MEASURES = {"kernels.dot_scores": _computed_bytes}


class Tracer:
    """In-memory spans and counts, grouped by phase ("setup", "pass", ...)."""

    def __init__(self):
        self.phase = "setup"
        self.spans: dict[str, list] = defaultdict(list)
        self.calls: dict[str, Counter] = defaultdict(Counter)
        self.distinct: dict[str, dict[str, set]] = defaultdict(lambda: defaultdict(set))
        self.measured: dict[str, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._wrappers: dict[tuple[str, str], object] = {}
        self._installed: list[tuple[object, str, object]] = []

    # --- wrapping ------------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        clock = time.perf_counter_ns
        stack = self._stack
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self.spans[self.phase]
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            if measure is not None:
                self.measured[self.phase][name] += measure(*args, **kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return wrapper

    def _count_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(source, text, *args, **kwargs):
            self.calls[self.phase][name] += 1
            self.distinct[self.phase][name].add(text)
            return fn(source, text, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Rebind every traced function in every loaded negsup module."""
        modules = [m for n, m in sys.modules.items() if n == "negsup" or n.startswith("negsup.")]
        for kind, targets in (("span", SPANS), ("count", COUNTS)):
            for name, module, func in targets:
                original = getattr(importlib.import_module(module), func)
                wrapper = self._wrappers.get((module, func))
                if wrapper is None:
                    make = self._span_wrapper if kind == "span" else self._count_wrapper
                    wrapper = self._wrappers[(module, func)] = make(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._installed.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    # --- results -------------------------------------------------------------

    def totals(self, phase: str) -> dict[str, dict[str, int]]:
        """Per span name: calls, inclusive ns and self ns within `phase`."""
        spans = self.spans[phase]
        child_ns = [0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, int]] = defaultdict(lambda: {"calls": 0, "ns": 0, "self_ns": 0})
        for i, (name, start, end, _) in enumerate(spans):
            entry = out[name]
            entry["calls"] += 1
            entry["ns"] += end - start
            entry["self_ns"] += end - start - child_ns[i]
        return dict(out)

    def write(self, path: str) -> None:
        """Write every span and count to `path` as one JSON object."""
        data = {
            "fields": ["name", "start_ns", "end_ns", "parent"],
            "spans": {phase: spans for phase, spans in self.spans.items()},
            "calls": {phase: dict(c) for phase, c in self.calls.items()},
            "measured": {phase: dict(m) for phase, m in self.measured.items()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))
