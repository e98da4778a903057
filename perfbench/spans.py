"""Spans around corpusfilter's public functions, recorded from outside the
package.

`Tracer.install` replaces each function named in `TRACED` with a wrapper
in every corpusfilter module that binds it, and `uninstall` puts the
originals back. A span records its name, layer, start and end, the span
that caused it and a count of the work it did. A call made on a worker
thread with no open span of its own is caused by the innermost open span
of the thread that installed the tracer, which is where the program
starts its pools and waits for them.

A layer's self time is a span's busy time minus the part of it that its
child spans cover; children on worker threads may overlap, so coverage is
the union of their intervals.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from time import perf_counter


def _len_arg(i):
    return lambda args, result: len(args[i])


def _result(args, result):
    return int(result)


def _fit_iters(args, result):
    return len(result.wcss_history_ or [])


# layer -> {"function" or "Class.method": count of work done by one call}
TRACED = {
    "kernels": {"hashed_ngram_counts": _len_arg(0)},
    "embedding": {
        "embed_texts": _len_arg(1),
        "embed_batch": _len_arg(1),
        "hashed_ngram_embed": lambda args, result: 1,
        "HashedNgramProvider.embed_batch": _len_arg(1),
        "RemoteProvider.embed_batch": _len_arg(1),
    },
    "classifier": {
        "train_logistic": None,
        "score_batch": _len_arg(1),
        "score": None,
        "evaluate": None,
        "load_classifier": None,
        "save_classifier": None,
    },
    "corpus_io": {
        "ShardStream.__iter__": None,  # counts documents yielded
        "write_shard": _result,
        "sample_documents": None,
        "load_manifest": None,
    },
    "thresholds": {
        "score_corpus": _result,
        "load_scores": None,
        "apply_filter": None,
        "estimate_threshold": None,
        "compare_sampling_strategies": None,
        "estimate_percentile_threshold": None,
    },
    "clustering": {
        "fit_balanced_kmeans": _fit_iters,
        "assign_batch": None,
        "histogram_over_clusters": None,
        "histogram_distance": None,
    },
    "cli": {"main": None},
}
GENERATORS = {"ShardStream.__iter__"}


class Span:
    __slots__ = ("id", "parent", "name", "layer", "start", "end", "busy", "count",
                 "intervals", "resumed")

    def __init__(self, sid, parent, name, layer, start):
        self.id = sid
        self.parent = parent
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.busy = 0.0
        self.count = 0
        self.intervals = None  # generator spans: the intervals they ran in
        self.resumed = start

    def covers(self):
        return self.intervals if self.intervals is not None else [(self.start, self.end)]

    def as_dict(self, self_s: float) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "layer": self.layer, "start": self.start, "end": self.end,
                "busy_s": self.busy, "self_s": self_s, "count": self.count}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- span stack ---------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, layer: str) -> Span:
        stack = self._stack()
        caller = stack or self._main_stack
        parent = caller[-1].id if caller else None
        span = Span(next(self._ids), parent, name, layer, perf_counter())
        stack.append(span)
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        span.busy = span.end - span.start
        self._stack().pop()

    # -- wrappers -------------------------------------------------------------
    def _wrap(self, fn, name, layer, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if counter is not None:
                span.count = counter(args, result)
            return result

        return traced

    def _wrap_generator(self, fn, name, layer):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            # runs at the first next(), so the parent is the consumer
            span = tracer._open(name, layer)
            span.intervals = []
            running = True

            def pause():
                now = perf_counter()
                span.intervals.append((span.resumed, now))
                span.busy += now - span.resumed
                span.end = now
                tracer._stack().pop()

            try:
                for item in inner:
                    span.count += 1
                    pause()
                    running = False
                    yield item
                    tracer._stack().append(span)
                    span.resumed = perf_counter()
                    running = True
            finally:
                if running:
                    pause()
                inner.close()

        return traced

    def install(self) -> None:
        self._main_stack = self._stack()
        self.missing = []
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "corpusfilter" or n.startswith("corpusfilter."))]
        for layer, names in TRACED.items():
            home = sys.modules.get(f"corpusfilter.{layer}")
            for name, counter in names.items():
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(home, owner_name, None) if owner_name else home
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None:
                    self.missing.append(f"{layer}.{name}")
                    continue
                if name in GENERATORS:
                    wrapper = self._wrap_generator(fn, name, layer)
                else:
                    wrapper = self._wrap(fn, name, layer, counter)
                if owner_name:
                    self._patch(owner, attr, wrapper)
                    continue
                for mod in mods:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[Span]) -> dict[int, float]:
    """Busy time of each span not covered by its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        intervals = sorted(
            iv for c in children.get(s.id, ()) for iv in c.covers())
        own = s.covers()
        lo_, hi_ = None, None
        for a, b in intervals:
            if hi_ is None or a > hi_:
                if hi_ is not None:
                    covered += _overlap(lo_, hi_, own)
                lo_, hi_ = a, b
            else:
                hi_ = max(hi_, b)
        if hi_ is not None:
            covered += _overlap(lo_, hi_, own)
        out[s.id] = max(s.busy - covered, 0.0)
    return out


def _overlap(a: float, b: float, own) -> float:
    return sum(max(0.0, min(b, y) - max(a, x)) for x, y in own)


def layer_metrics(spans: list[Span], n_docs: int) -> dict[str, float]:
    """The per-layer metrics of one pass, from its spans."""
    by_id = {s.id: s for s in spans}
    own = self_times(spans)

    def outer(layer, names=None):
        # a layer-wide total skips spans nested in the same layer; a total
        # over named functions skips spans nested in one of those functions
        def nested(s):
            p = by_id.get(s.parent)
            return p is not None and (p.layer == layer if names is None else p.name in names)

        return [s for s in spans if s.layer == layer
                and (names is None or s.name in names) and not nested(s)]

    def busy(layer, names=None):
        return sum(s.busy for s in outer(layer, names))

    def count(layer, names=None):
        return sum(s.count for s in outer(layer, names))

    def self_s(layer, names):
        return sum(own[s.id] for s in spans if s.layer == layer and s.name in names)

    ngram_s = busy("kernels")
    docs_embedded = count("embedding")
    fit_s = busy("clustering", {"fit_balanced_kmeans"})
    fit_iters = count("clustering", {"fit_balanced_kmeans"})
    return {
        "kernels.ngram_s": ngram_s,
        "kernels.mchar_per_s": count("kernels") / ngram_s / 1e6 if ngram_s else 0.0,
        "embedding.embed_s": busy("embedding"),
        "embedding.docs_embedded": docs_embedded,
        "embedding.embeds_per_doc": docs_embedded / n_docs,
        "classifier.score_s": busy("classifier", {"score_batch", "score"}),
        "classifier.train_s": busy("classifier", {"train_logistic"}),
        "corpus_io.read_s": busy("corpus_io", {"ShardStream.__iter__"}),
        "corpus_io.docs_read": count("corpus_io", {"ShardStream.__iter__"}),
        "corpus_io.write_s": busy("corpus_io", {"write_shard"}),
        "corpus_io.docs_written": count("corpus_io", {"write_shard"}),
        "thresholds.score_corpus_s": busy("thresholds", {"score_corpus"}),
        "thresholds.score_corpus_self_s": self_s("thresholds", {"score_corpus"}),
        "thresholds.estimate_s": busy(
            "thresholds", {"estimate_threshold", "compare_sampling_strategies"}),
        "thresholds.load_scores_s": busy("thresholds", {"load_scores"}),
        "thresholds.filter_self_s": self_s("thresholds", {"apply_filter"}),
        "clustering.fit_s": fit_s,
        "clustering.fit_iters": fit_iters,
        "clustering.iter_s": fit_s / fit_iters if fit_iters else 0.0,
        "clustering.histogram_s": busy("clustering", {"histogram_over_clusters"}),
        "cli.self_s": self_s("cli", {"main"}),
    }


def self_by_layer(spans: list[Span]) -> dict[str, float]:
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + own[s.id]
    return out
