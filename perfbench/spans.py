"""Spans around the public functions each neardup module calls, and the
per-layer metrics derived from them.

``from .x import y`` binds ``y`` in every importing module, so a function is
wrapped at each module attribute that holds it, not only where it is
defined; ``predict_rows`` alone is bound in four modules. Classmethods and
methods are wrapped on their class. Nothing under src/ changes.

Every span records its name, start, end and parent. A span's self time is
its duration minus the durations of its direct children. Counters are
computed after the wrapped call returns, inside a ``trace.count`` span, so
their cost is charged to tracing overhead and not to any layer.
"""

import functools
import inspect
import os
import sys
import time

import numpy as np

import neardup
from neardup import ClusterStore, EmbeddingSet
from neardup.embeddings import derive_terms_matrix

# (module of definition, attribute); every neardup module binding the same
# object under any name is patched too.
FUNCTIONS = (
    ("neardup.pipeline", "static_clusters"),
    ("neardup.index", "build_index"),
    ("neardup.index", "serialize_index"),
    ("neardup.index", "load_index"),
    ("neardup.search", "batch_search"),
    ("neardup.classifier", "predict_rows"),
    ("neardup.selection", "select_candidates"),
    ("neardup.selection", "emit_augmentation_labels"),
    ("neardup.clustering", "transitive_closure"),
    ("neardup.clustering", "k_cut"),
    ("neardup.clustering", "choose_head"),
    ("neardup.incremental", "run_nvo"),
    ("neardup.incremental", "run_nvn"),
    ("neardup.incremental", "merge"),
)
METHODS = (
    (ClusterStore, "open"),
    (ClusterStore, "save"),
    (EmbeddingSet, "load"),
    (EmbeddingSet, "save"),
)

# span name -> per-layer metric holding its self time
SELF_TIME = {
    "run_full": "pipeline.write_s",
    "static_clusters": "pipeline.self_s",
    "build_index": "index.build_s",
    "serialize_index": "index.serialize_s",
    "load_index": "index.load_s",
    "batch_search": "search.s",
    "select_candidates": "selection.s",
    "emit_augmentation_labels": "selection.s",
    "transitive_closure": "clustering.closure_s",
    "k_cut": "clustering.cut_s",
    "choose_head": "clustering.choose_head_s",
    "run_incremental": "incremental.self_s",
    "run_nvo": "incremental.nvo_s",
    "run_nvn": "incremental.nvn_s",
    "merge": "incremental.merge_s",
    "ClusterStore.open": "incremental.open_s",
    "ClusterStore.save": "incremental.save_s",
    "EmbeddingSet.load": "embeddings.load_s",
    "EmbeddingSet.save": "embeddings.save_s",
    "predict_rows": "classifier.score_s",
    "trace.count": "trace.count_s",
}

# the span a predict_rows call runs under names its caller
CALLERS = {
    "static_clusters": "pipeline",
    "k_cut": "k_cut",
    "choose_head": "choose_head",
    "select_candidates": "selection",
    "emit_augmentation_labels": "selection",
    "merge": "merge",
}
K_AUG = neardup.PipelineConfig().augmentation.k_aug
REPORT_STAGES = ("index", "search", "select", "closure", "cut")


def metric_names() -> list:
    """Every per-layer metric, in output order."""
    names = [
        "search.s", "search.queries", "search.join_keys", "search.candidate_pairs",
        "search.useful_ratio",
        "classifier.score_s", "classifier.pairs_scored", "classifier.pairs_per_s",
    ]
    for caller in sorted(set(CALLERS.values())):
        names += [
            f"classifier.{caller}.score_s",
            f"classifier.{caller}.pairs_scored",
            f"classifier.{caller}.pairs_per_s",
        ]
    names += [
        "classifier.train_s",
        "clustering.closure_s", "clustering.cut_s", "clustering.cut_rounds",
        "clustering.choose_head_s", "clustering.groups",
        "pipeline.self_s", "pipeline.write_s", "pipeline.edge_ratio",
        "selection.s",
        *[f"selection.pairs_rank_{r}" for r in range(K_AUG + 1)],
        "selection.matches",
        "index.build_s", "index.serialize_s", "index.load_s", "index.bytes",
        "index.terms", "index.postings",
        "embeddings.save_s", "embeddings.load_s", "embeddings.bytes_written",
        "incremental.open_s", "incremental.save_s", "incremental.nvo_s",
        "incremental.nvn_s", "incremental.merge_s", "incremental.self_s",
        "incremental.bytes_written", "incremental.store_files", "incremental.nvo",
        "incremental.nvn_mapped", "incremental.nvn_new", "incremental.aug_labels",
        "corpus.generate_s",
    ]
    for stage in REPORT_STAGES:
        names += [f"report.{stage}_s", f"report.{stage}_gap_s"]
    names += [
        "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s", "trace.count_s",
    ]
    return names


def unit_of(name: str) -> str:
    if name.endswith("pairs_per_s"):
        return "pairs/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(("bytes", "bytes_written")):
        return "bytes"
    return "count"


class Span:
    __slots__ = ("name", "start", "end", "parent", "scoring_calls")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.scoring_calls = 0  # predict_rows calls made directly under this span

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Install wrappers, collect spans and counters, then restore everything."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._undo = []

    # -- spans -------------------------------------------------------------

    def _open(self, name) -> Span:
        span = Span(name, time.perf_counter(), self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def add(self, name, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name, fn, count=None):
        """fn inside a span; count(span, result, arguments) runs in a
        trace.count span, with the call's arguments bound to fn's names."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                counting = self._open("trace.count")
                try:
                    count(span, result, signature.bind(*args, **kwargs).arguments)
                finally:
                    self._close(counting)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapped = self.wrap(attr, original, getattr(self, f"_count_{attr}", None))
            for mod_name, mod in list(sys.modules.items()):
                if not (mod_name == "neardup" or mod_name.startswith("neardup.")):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapped)
                        self._undo.append((mod, name, original))
        for cls, attr in METHODS:
            descriptor = cls.__dict__[attr]
            name = f"{cls.__name__}.{attr}"
            count = getattr(self, f"_count_{cls.__name__}_{attr}", None)
            if isinstance(descriptor, classmethod):
                replacement = classmethod(self.wrap(name, descriptor.__func__, count))
            else:
                replacement = self.wrap(name, descriptor, count)
            setattr(cls, attr, replacement)
            self._undo.append((cls, attr, descriptor))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    # -- counters, one per wrapped function that has any ---------------------

    def _count_batch_search(self, span, result, args):
        queries, index = args["queries"], args["index"]
        self.add("search.queries", len(queries))
        self.add("search.candidate_pairs", sum(len(v) for v in result.values()))
        if len(queries) and len(index.dictionary):
            terms = derive_terms_matrix(queries.bits_matrix(), index.config)
            uniq, per_term = np.unique(terms, return_counts=True)
            lengths = np.array([index.posting_ids(int(t)).size for t in uniq], dtype=np.int64)
            self.add("search.join_keys", int(per_term @ lengths))

    def _count_predict_rows(self, span, result, args):
        pairs = int(np.asarray(args["rows_a"]).size)
        parent = span.parent
        caller = CALLERS.get(parent.name if parent else None)
        self.add("classifier.pairs_scored", pairs)
        if caller is not None:
            self.add(f"classifier.{caller}.pairs_scored", pairs)
            self.add(f"classifier.{caller}.score_s", span.duration)
        if parent is not None:
            if parent.name == "k_cut":
                self.add("clustering.cut_rounds", 1)
            if parent.name == "select_candidates":
                # round r of select_candidates scores augmentation rank r
                self.add(f"selection.pairs_rank_{parent.scoring_calls}", pairs)
            parent.scoring_calls += 1

    def _count_select_candidates(self, span, result, args):
        self.add("selection.matches", len(result))

    def _count_transitive_closure(self, span, result, args):
        self.add("clustering.groups", len(result))

    def _count_static_clusters(self, span, result, args):
        self.add("pipeline.edges", result.edge_count)
        self.add("pipeline.candidate_pairs", result.candidate_pairs)
        for stage in REPORT_STAGES:
            self.add(f"report.{stage}_s", result.timings.get(stage, 0.0))

    def _count_build_index(self, span, result, args):
        self.add("index.terms", len(result.terms))
        self.add("index.postings", result.posting_count())

    def _count_serialize_index(self, span, result, args):
        self.add("index.bytes", len(result))

    def _count_EmbeddingSet_save(self, span, result, args):
        self.add("embeddings.bytes_written", os.path.getsize(args["path"]))

    # -- per-layer metrics ---------------------------------------------------

    def self_times(self) -> dict:
        child_time = {}
        for span in self.spans:
            if span.parent is not None:
                child_time[id(span.parent)] = child_time.get(id(span.parent), 0.0) + span.duration
        out = {}
        for span in self.spans:
            metric = SELF_TIME[span.name]
            out[metric] = out.get(metric, 0.0) + span.duration - child_time.get(id(span), 0.0)
        return out

    def _stage_seconds(self) -> dict:
        """Traced time of each StaticRunResult.timings stage: the spans that
        run directly under static_clusters, by stage."""
        stage_of = {
            "build_index": "index",
            "batch_search": "search",
            "predict_rows": "select",
            "transitive_closure": "closure",
            "k_cut": "cut",
        }
        out = dict.fromkeys(REPORT_STAGES, 0.0)
        for span in self.spans:
            if span.parent is not None and span.parent.name == "static_clusters":
                stage = stage_of.get(span.name)
                if stage is not None:
                    out[stage] += span.duration
        return out

    def metrics(self) -> dict:
        """Per-layer values of everything traced so far (zeros included)."""
        out = dict.fromkeys(metric_names(), 0.0)
        out.update(self.self_times())
        for name, value in self.counts.items():
            if name in out:
                out[name] = value
        # self times, trace.count_s included, sum to this by construction
        out["trace.wall_s"] = sum(s.duration for s in self.spans if s.parent is None)

        joins = out["search.join_keys"]
        out["search.useful_ratio"] = out["search.candidate_pairs"] / joins if joins else 0.0
        cand = self.counts.get("pipeline.candidate_pairs", 0)
        out["pipeline.edge_ratio"] = self.counts.get("pipeline.edges", 0) / cand if cand else 0.0
        for prefix in ["classifier."] + [f"classifier.{c}." for c in sorted(set(CALLERS.values()))]:
            secs = out[f"{prefix}score_s"]
            out[f"{prefix}pairs_per_s"] = out[f"{prefix}pairs_scored"] / secs if secs else 0.0

        # StaticRunResult.timings beside the spans covering the same stage
        for stage, traced in self._stage_seconds().items():
            out[f"report.{stage}_gap_s"] = out[f"report.{stage}_s"] - traced
        return out
