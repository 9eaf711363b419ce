"""In-memory spans around the public functions of the ``hashrec`` modules.

The package itself carries no instrumentation.  A traced run calls
``install`` once: every listed function is replaced, in every module
that holds a reference to it, by a wrapper that records a span (name,
start, end, parent).  Calls made inside the package therefore nest
under their callers, e.g. ``activation.individual_activations`` under
``activation.recommend_bll_is`` under ``evaluation.run_eval``.  Spans
stay in memory until the run ends and ``write`` dumps them.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

# (module, function) pairs that get a span.  Per-item helpers that run
# once per tweet, per hashtag or per k (tokenize, normalize_hashtag,
# base_level_activation, idf, precision_at_k, ...) are left out: their
# cost is counted in the self time of the span that calls them, and a
# span per item would swamp the functions it is meant to measure.
TRACED_FUNCTIONS: tuple[tuple[str, str], ...] = (
    ("synth", "generate"),
    ("corpus", "load_tweets"),
    ("corpus", "load_follows"),
    ("corpus", "parse_tweets"),
    ("corpus", "parse_follows"),
    ("corpus", "build_corpus"),
    ("corpus", "chronological_split"),
    ("corpus", "build_usage_index"),
    ("corpus", "tweets_to_jsonl"),
    ("corpus", "follows_to_tsv"),
    ("reuse", "category_distribution"),
    ("reuse", "reuse_age_histogram"),
    ("reuse", "fit_power_law"),
    ("activation", "recommend_bll_is"),
    ("activation", "individual_activations"),
    ("activation", "social_activations"),
    ("content", "build_profiles"),
    ("content", "content_scores"),
    ("content", "recommend_bll_isc"),
    ("baselines", "mp_global"),
    ("baselines", "mp_user"),
    ("baselines", "mp_social"),
    ("baselines", "most_recent"),
    ("evaluation", "run_eval"),
    ("evaluation", "query_metrics"),
)

NO_PARENT = -1


class Tracer:
    """Collects spans as ``[name, start, end, parent_index]`` lists."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.calls: dict[str, int] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else NO_PARENT
        self.spans.append([name, self.clock(), math.nan, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def wrap(self, name: str | Callable[..., str], fn: Callable) -> Callable:
        """``fn`` inside a span; ``name`` may be a function of the call's arguments."""
        namer = name if callable(name) else (lambda *args, **kwargs: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(namer(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def write(self, path: str) -> None:
        payload = {"fields": ["name", "start", "end", "parent"], "spans": self.spans, "calls": self.calls}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def _histogram_span_name(corpus, kind: str = "individual", *args, **kwargs) -> str:
    return f"reuse.histogram_{kind}"


def install(tracer: Tracer, package: str = "hashrec") -> Callable[[], None]:
    """Wrap every function in ``TRACED_FUNCTIONS``; return the undo function.

    A module that did ``from hashrec.x import f`` holds its own binding
    of ``f``, so each binding in every loaded ``hashrec`` module is
    replaced, not just the defining one.
    """
    modules = [module for name, module in sorted(sys.modules.items()) if name == package or name.startswith(package + ".")]
    undo: list[tuple[object, str, object]] = []
    for module_name, fn_name in TRACED_FUNCTIONS:
        original = getattr(sys.modules[f"{package}.{module_name}"], fn_name)
        label = _histogram_span_name if fn_name == "reuse_age_histogram" else f"{module_name}.{fn_name}"
        wrapper = tracer.wrap(label, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    undo.append((module, attr, original))
    # mp scans the vocabulary through UsageIndex.hashtags(); count what
    # each call hands out instead of wrapping the per-hashtag probe.
    index_class = sys.modules[f"{package}.corpus"].UsageIndex
    hashtags = index_class.hashtags

    def counted_hashtags(index):
        tags = list(hashtags(index))
        tracer.calls["index.hashtags_yielded"] = tracer.calls.get("index.hashtags_yielded", 0) + len(tags)
        return iter(tags)

    index_class.hashtags = counted_hashtags
    undo.append((index_class, "hashtags", hashtags))

    def restore() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


def covered(intervals: Sequence[tuple[float, float]], start: float, end: float) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _, start, end, parent in spans:
        if parent != NO_PARENT:
            children[parent].append((start, end))
    return [end - start - covered(children[i], start, end) for i, (_, start, end, _) in enumerate(spans)]
