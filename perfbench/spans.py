"""Span tracing around patsim's public functions, from outside the package.

`Tracer.install()` replaces each function in `TARGETS` with a wrapper at
every module attribute that holds it (the defining module and every
module that imported the name), so calls made inside patsim are seen
too. Each call records a span: name, start, end and parent span. Spans
stay in memory; `layer_metrics()` turns them into the per-layer numbers
after the run, and `dump()` writes them out.

A layer's self time is its spans' time minus the time of their child
spans. Every traced call runs on one thread, so children never overlap
and the self times of all spans in a phase, plus the time no span
covers, add up to the phase's wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

import numpy as np

# (module, public function, per-layer self-time metric). Two functions
# may feed one metric.
TARGETS = (
    ("patsim.corpus", "load_corpus", "corpus.load_s"),
    ("patsim.segmenter", "segment_patient", "segmenter.segment_s"),
    ("patsim.segmenter", "build_title_space", "segmenter.title_space_s"),
    ("patsim.segmenter", "expand_prototypes", "segmenter.title_space_s"),
    ("patsim.segmenter", "filter_segments", "segmenter.filter_s"),
    ("patsim.segmenter", "unfiltered_notes", "segmenter.filter_s"),
    ("patsim.vectorizer", "fit_lsa", "vectorizer.tfidf_s"),
    ("patsim.vectorizer", "randomized_svd", "vectorizer.svd_s"),
    ("patsim.vectorizer", "compress_embeddings", "vectorizer.compress_s"),
    ("patsim.vectorizer", "build_patient_matrix", "vectorizer.embed_s"),
    ("patsim.vectorizer", "import_embeddings", "vectorizer.import_s"),
    ("patsim.vectorizer", "load_matrices", "vectorizer.load_matrices_s"),
    ("patsim.kernels", "eds_batch", "kernels.eds_s"),
    ("patsim.kernels", "mms_batch", "kernels.mms_s"),
    ("patsim.kernels", "rv2_batch", "kernels.rv2_s"),
    ("patsim.kernels", "rv2_gram", "kernels.gram_s"),
    ("patsim.engine", "compute_all_pairs", "engine.self_s"),
    ("patsim.engine", "combine_similarities", "engine.combine_s"),
    ("patsim.engine", "persist_similarity", "engine.persist_s"),
    ("patsim.engine", "export_csv", "engine.export_s"),
    ("patsim.evaluation", "evaluate_config", "evaluation.evaluate_s"),
    ("patsim.evaluation", "inter_annotator_agreement", "evaluation.agreement_s"),
    ("patsim.grid", "grid_search", "grid.self_s"),
    ("patsim.grid", "write_report", "grid.report_s"),
)

# span name ("vectorizer.randomized_svd") -> self-time metric
SPAN_METRIC = {f"{m.split('.')[-1]}.{a}": metric for m, a, metric in TARGETS}

# Every per-layer metric with its unit, in the order printed. All are
# printed on every workload; a layer a workload leaves idle reads 0.
LAYER_UNITS = {
    "vectorizer.svd_calls": "count",
    "vectorizer.svd_s": "s",
    "vectorizer.tfidf_s": "s",
    "vectorizer.compress_s": "s",
    "vectorizer.embed_s": "s",
    "vectorizer.import_s": "s",
    "vectorizer.load_matrices_s": "s",
    "kernels.eds_s": "s",
    "kernels.eds_us_per_pair": "us",
    "kernels.eds_iters_mean": "count",
    "kernels.eds_iters_max": "count",
    "kernels.eds_cap_hits": "count",
    "kernels.rv2_s": "s",
    "kernels.mms_s": "s",
    "kernels.gram_s": "s",
    "kernels.rv2_us_per_pair": "us",
    "kernels.mms_us_per_pair": "us",
    "kernels.rv2_gflops": "GFLOP/s",
    "kernels.mms_gflops": "GFLOP/s",
    "kernels.rv2_flop_per_byte": "flop/B",
    "engine.calls": "count",
    "engine.pairs_scored": "count",
    "engine.pairs_read": "count",
    "engine.read_ratio": "ratio",
    "engine.self_s": "s",
    "engine.combine_s": "s",
    "engine.persist_s": "s",
    "engine.export_s": "s",
    "segmenter.segment_s": "s",
    "segmenter.title_space_s": "s",
    "segmenter.filter_s": "s",
    "evaluation.evaluate_s": "s",
    "evaluation.agreement_s": "s",
    "corpus.load_s": "s",
    "grid.self_s": "s",
    "grid.report_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
}

# Operation and byte counts derived from array shapes, not measured.
COMPUTED = ("kernels.rv2_gflops", "kernels.mms_gflops", "kernels.rv2_flop_per_byte")

# Spans whose arguments and result are kept, by reference, for the
# counts derived after the run.
_KEEP = {
    "kernels.eds_batch", "kernels.mms_batch", "kernels.rv2_batch",
    "engine.compute_all_pairs", "engine.combine_similarities",
    "engine.persist_similarity",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "phase", "args", "result")

    def __init__(self, name, start, parent, phase):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.phase = phase
        self.args = None
        self.result = None


class Tracer:
    """Records spans around the calls into patsim's layers.

    Spans are tagged with the current phase ("load" or "run") so set-up
    work and the timed phase are kept apart.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "run"
        self.reads: set[tuple[int, str, str]] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        keep = name in _KEEP

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, 0.0, parent, self.phase)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if keep:
                span.args = args
                span.result = result
            return result

        return wrapper

    def install(self) -> None:
        """Patch every target at every patsim module attribute bound to it."""
        import patsim.engine

        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "patsim" or k.startswith("patsim."))]
        for (modname, attr, _), name in zip(TARGETS, SPAN_METRIC):
            orig = getattr(importlib.import_module(modname), attr)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, orig))

        cls = patsim.engine.SimilarityMatrix
        orig_get = cls.get
        reads = self.reads

        def get(sim, id_a, id_b):
            reads.add((id(sim),) + tuple(sorted((id_a, id_b))))
            return orig_get(sim, id_a, id_b)

        cls.get = get
        self._patches.append((cls, "get", orig_get))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, orig = self._patches.pop()
            setattr(owner, key, orig)

    def dump(self, path: Path, extra: dict) -> None:
        """Write every span (name, start, end, parent, phase) as JSON."""
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [
            [s.name, round(s.start - t0, 9), round(s.end - t0, 9), s.parent, s.phase]
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {**extra, "columns": ["name", "start_s", "end_s", "parent", "phase"],
             "spans": rows}) + "\n", encoding="utf-8")


def _self_times(spans: list[Span]) -> list[float]:
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(
    tracer: Tracer, run_wall: float, untraced_wall: float, eds_iters: list[int],
    eds_cap: int,
) -> dict[str, float]:
    """Per-layer metrics of the timed phase (and set-up loads) from spans."""
    values = {name: 0.0 for name in LAYER_UNITS}
    spans = tracer.spans
    own = _self_times(spans)
    covered = 0.0
    for span, self_s in zip(spans, own):
        values[SPAN_METRIC[span.name]] += self_s
        if span.phase == "run" and span.parent < 0:
            covered += span.end - span.start

    pairs = {"eds": 0, "mms": 0, "rv2": 0}
    flops = {"mms": 0.0, "rv2": 0.0}
    rv2_bytes = 0.0
    scored: dict[int, int] = {}
    members: dict[int, list[int]] = {}
    persisted: set[int] = set()
    for span in spans:
        if span.phase != "run":
            continue
        kind = span.name.split(".")[1]
        if span.name == "vectorizer.randomized_svd":
            values["vectorizer.svd_calls"] += 1
        elif span.name == "kernels.rv2_batch":
            grams, ii, _ = span.args[:3]
            pairs["rv2"] += ii.size
            # one dot product of two gram rows per pair: d^2 multiply-adds
            # over 2 d^2 doubles read (computed from shapes, not measured)
            flops["rv2"] += 2.0 * ii.size * grams.shape[1]
            rv2_bytes += 16.0 * ii.size * grams.shape[1]
        elif span.name in ("kernels.eds_batch", "kernels.mms_batch"):
            rows, offsets, ii, jj = span.args[:4]
            pairs[kind[:3]] += ii.size
            if kind == "mms_batch":
                counts = np.diff(offsets).astype(np.float64)
                # cross matrix a @ b.T per pair: 2 * na * nb * d flops
                flops["mms"] += 2.0 * rows.shape[1] * float(
                    np.dot(counts[ii], counts[jj]))
        elif span.name == "engine.compute_all_pairs":
            values["engine.calls"] += 1
            n = span.result.n
            scored[id(span.result)] = n * (n - 1) // 2
        elif span.name == "engine.combine_similarities":
            members[id(span.result)] = [id(m) for m in span.args[0]]
        elif span.name == "engine.persist_similarity":
            persisted.add(id(span.args[0]))

    # a pair read from an ensemble is read from each of its scored members
    read_pairs = set()
    for sim_id, id_a, id_b in tracer.reads:
        for source in members.get(sim_id, [sim_id]):
            if source in scored:
                read_pairs.add((source, id_a, id_b))
    pairs_read = len(read_pairs) + sum(scored[s] for s in persisted if s in scored)
    values["engine.pairs_scored"] = float(sum(scored.values()))
    values["engine.pairs_read"] = float(pairs_read)
    if scored:
        values["engine.read_ratio"] = pairs_read / sum(scored.values())

    for kind in ("eds", "mms", "rv2"):
        secs = values[f"kernels.{kind}_s"]
        if pairs[kind] and secs > 0:
            values[f"kernels.{kind}_us_per_pair"] = 1e6 * secs / pairs[kind]
    for kind in ("mms", "rv2"):
        secs = values[f"kernels.{kind}_s"]
        if flops[kind] and secs > 0:
            values[f"kernels.{kind}_gflops"] = flops[kind] / secs / 1e9
    if rv2_bytes:
        values["kernels.rv2_flop_per_byte"] = flops["rv2"] / rv2_bytes
    if eds_iters:
        values["kernels.eds_iters_mean"] = float(np.mean(eds_iters))
        values["kernels.eds_iters_max"] = float(max(eds_iters))
        values["kernels.eds_cap_hits"] = float(sum(it >= eds_cap for it in eds_iters))

    values["trace.wall_s"] = run_wall
    values["trace.overhead_s"] = run_wall - untraced_wall
    values["trace.unaccounted_s"] = run_wall - covered
    return values
