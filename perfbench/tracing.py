"""Spans and counters recorded around memtraj's module boundaries.

Nothing in ``src/`` is changed. :func:`instrumented` temporarily replaces a
public function in the namespace of the module that calls it, for example
``memtraj.inference.kmeans`` (the name ``predict_scene`` looks up at call
time), with a wrapper that records a span and bumps the layer's counters.
Spans nest, so each layer's self time is its span minus the child spans
inside it. Everything stays in memory until :meth:`Tracer.write` at the end.

Layers are memtraj's module names; :data:`PER_LAYER` lists every per-layer
metric the traced run reports, in BENCHMARK.json order.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Tracer:
    """In-memory span log with per-name self time and free-form counters."""

    def __init__(self):
        self.t0 = perf_counter()
        self.spans: list[tuple] = []  # (id, trace, parent, name, start, end)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span id, trace id, time covered by children]
        self._next_span = 0
        self._next_trace = 0
        # phase -> "self:<span>" / "total:<span>" -> seconds added during that phase
        self.phases: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._marked: dict[str, float] = {}

    def mark(self, phase: str) -> None:
        """Credit the span time recorded since the previous mark to ``phase``."""
        now = {
            **{f"self:{k}": v for k, v in self.self_s.items()},
            **{f"total:{k}": v for k, v in self.total_s.items()},
        }
        for key, value in now.items():
            self.phases[phase][key] += value - self._marked.get(key, 0.0)
        self._marked = now

    def wrap(self, fn, name: str | None, count=None, new_trace: bool = False):
        """``fn`` recording a span called ``name`` (None: counters only).

        ``count(counts, args, kwargs, result)`` runs after a successful call.
        A span starts a new trace when it has no parent or ``new_trace`` is
        set (one trace per stage, one per predicted scene).
        """
        tracer = self

        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
                count(tracer.counts, args, kwargs, result)
                return result
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = tracer._next_span
            tracer._next_span += 1
            if parent is None or new_trace:
                trace_id = tracer._next_trace
                tracer._next_trace += 1
            else:
                trace_id = parent[1]
            frame = [span_id, trace_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.self_s[name] += duration - frame[2]
                tracer.total_s[name] += duration
                tracer.calls[name] += 1
                if parent is not None:
                    parent[2] += duration
                tracer.spans.append(
                    (span_id, trace_id, None if parent is None else parent[0], name, start, end)
                )
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path: Path, extra: dict) -> None:
        """Dump every span (times in seconds from tracer start) plus ``extra``."""
        spans = [
            {"id": s, "trace": t, "parent": p, "name": n, "start": a - self.t0, "end": b - self.t0}
            for s, t, p, n, a, b in self.spans
        ]
        path.write_text(json.dumps({**extra, "spans": spans}) + "\n", encoding="utf-8")


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def _rows(x) -> int:
    return 1 if getattr(x, "ndim", 1) == 1 else x.shape[0]


def _mlp_macs(net) -> int:
    return sum(a * b for a, b in zip(net.layer_dims[:-1], net.layer_dims[1:]))


def _count_forward(counts, args, kwargs, result):
    rows = _rows(_arg(args, kwargs, 1, "x"))
    counts["numkit.forward_rows"] += rows
    counts["numkit.flop"] += 2 * rows * _mlp_macs(_arg(args, kwargs, 0, "net"))


def _count_backward(counts, args, kwargs, result):
    # One GEMM for the weight gradient and one for the input delta per layer.
    rows = _arg(args, kwargs, 1, "cache").activations[0].shape[0]
    counts["numkit.flop"] += 4 * rows * _mlp_macs(_arg(args, kwargs, 0, "net"))


def _count_manifest(counts, args, kwargs, scenes):
    neighbors = sum(s.n_neighbors for s in scenes)
    counts["datasets.scenes_built"] += len(scenes)
    counts["datasets.neighbors_total"] += neighbors
    split = Path(_arg(args, kwargs, 0, "manifest_path")).stem
    counts[f"inputs.{split}_windows"] = len(scenes)
    counts[f"inputs.{split}_neighbors_mean"] = neighbors / len(scenes) if scenes else 0.0


def _count_filter(counts, args, kwargs, kept):
    counts["membank.entries_in"] += len(_arg(args, kwargs, 0, "bank"))
    counts["membank.entries_kept"] += len(kept)


def _count_save(counts, args, kwargs, result):
    counts["membank.file_bytes"] = Path(_arg(args, kwargs, 1, "path")).stat().st_size


def _count_addresser_epochs(counts, args, kwargs, result):
    counts["addresser.epochs"] += _arg(args, kwargs, 4, "config").epochs_addresser


def _count_selection(counts, args, kwargs, result):
    counts["addresser.selection_scenes"] += len(_arg(args, kwargs, 3, "scenes"))


def _count_selected(counts, args, kwargs, result):
    counts["addresser.selected_epoch"] = result[1]["selected_epoch"]


def _count_scored(counts, args, kwargs, scores):
    counts["addresser.entries_scored"] += len(scores)


def _count_decode(counts, args, kwargs, anchors):
    counts["intention.anchors_decoded"] += len(anchors)


def _count_kmeans(counts, args, kwargs, iset):
    counts["intention.kmeans_iters"] += len(iset.iter_costs)
    counts["intention.kmeans_points"] += len(iset.anchor_assignment)


def _count_fulfilled(counts, args, kwargs, preds):
    counts["fulfillment.trajectories"] += len(preds)


def _plan():
    """(module, attribute, span name, counter, new trace) for every wrapped call site."""
    from memtraj import addresser, datasets, evalkit, features, fulfillment, inference, membank, pipeline

    plan = [
        (pipeline, "stage_train_features", "pipeline.stage_features", None, False),
        (pipeline, "stage_build_memory", "pipeline.stage_bank", None, False),
        (pipeline, "stage_train_addresser", "pipeline.stage_addresser", None, False),
        (pipeline, "stage_train_fulfillment", "pipeline.stage_fulfillment", None, False),
        (pipeline, "artifact_hash", "pipeline.artifact_hash", None, False),
        (pipeline, "load_model_bundle", "pipeline.load_bundle", None, False),
        # The stages load through pipeline's import; the benchmark's test-split
        # load goes through the datasets module itself.
        (pipeline, "load_manifest", "datasets.load_manifest", _count_manifest, False),
        (datasets, "load_manifest", "datasets.load_manifest", _count_manifest, False),
        (pipeline, "train_features", "features.train", None, False),
        (inference, "social_encode", "features.encode", None, False),
        (membank, "social_forward_batch", "features.encode", None, False),
        (addresser, "social_forward_batch", "features.encode", None, False),
        (fulfillment, "social_forward_batch", "features.encode", None, False),
        (pipeline, "bank_init", "membank.init", None, False),
        (pipeline, "bank_filter", "membank.filter", _count_filter, False),
        (pipeline, "bank_save", "membank.save", _count_save, False),
        (pipeline, "bank_load", "membank.load", None, False),
        # The selection loop, not train_addresser, is the span, so the stage's
        # training time is measured (and nonzero) even when it runs 0 epochs.
        (pipeline, "train_addresser_selected", "addresser.train", _count_selected, False),
        (pipeline, "train_addresser", None, _count_addresser_epochs, False),
        (pipeline, "destination_error", "addresser.selection", _count_selection, False),
        (inference, "key_table", "addresser.key_table", None, False),
        (inference, "score_all", "addresser.score", _count_scored, False),
        (pipeline, "ModelBundle", "inference.bundle", None, False),
        (inference, "propose_destinations", "inference.propose", None, False),
        (inference, "predict_scene", "inference.predict", None, True),
        (evalkit, "predict_scene", "inference.predict", None, True),
        (inference, "decode_anchors", "intention.decode", _count_decode, False),
        (inference, "kmeans", "intention.kmeans", _count_kmeans, False),
        (pipeline, "train_fulfillment", "fulfillment.train", None, False),
        (inference, "fulfill_many", "fulfillment.fulfill", _count_fulfilled, False),
        (evalkit, "evaluate", "evalkit.evaluate", None, False),
    ]
    for module in (features, addresser, fulfillment):
        plan += [
            (module, "mlp_forward", "numkit.forward", _count_forward, False),
            (module, "mlp_forward_cached", "numkit.forward", _count_forward, False),
            (module, "mlp_backward_from_cache", "numkit.backward", _count_backward, False),
            (module, "sgd_step", "numkit.sgd", None, False),
        ]
    plan.append((membank, "mlp_forward", "numkit.forward", _count_forward, False))
    return plan


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap every call site in :func:`_plan` for the duration of the block.

    Yields the call sites the program no longer has (``module.attribute``);
    their metrics then read 0 instead of the run failing.
    """
    saved = []
    missing = []
    try:
        for module, attr, name, count, new_trace in _plan():
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module.__name__}.{attr}")
                continue
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, count, new_trace))
        yield missing
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# (metric, unit, source): source "self:<span>" is summed self time, "total:<span>"
# summed span duration, "calls:<span>" the number of spans, anything else a
# counter or a derived value.
PER_LAYER = [
    ("datasets.load_manifest_s", "s", "self:datasets.load_manifest"),
    ("datasets.load_manifest_calls", "count", "calls:datasets.load_manifest"),
    ("datasets.scenes_built", "count", "datasets.scenes_built"),
    ("datasets.neighbors_mean", "count", "datasets.neighbors_mean"),
    ("numkit.forward_calls", "count", "calls:numkit.forward"),
    ("numkit.forward_rows", "count", "numkit.forward_rows"),
    ("numkit.backward_calls", "count", "calls:numkit.backward"),
    ("numkit.sgd_steps", "count", "calls:numkit.sgd"),
    ("numkit.forward_s", "s", "self:numkit.forward"),
    ("numkit.backward_s", "s", "self:numkit.backward"),
    ("numkit.sgd_s", "s", "self:numkit.sgd"),
    ("numkit.gflop_computed", "GFLOP", "numkit.gflop"),
    ("features.train_s", "s", "self:features.train"),
    ("features.encode_s", "s", "self:features.encode"),
    ("features.encode_calls", "count", "calls:features.encode"),
    ("membank.init_s", "s", "self:membank.init"),
    ("membank.filter_s", "s", "self:membank.filter"),
    ("membank.entries_in", "count", "membank.entries_in"),
    ("membank.entries_kept", "count", "membank.entries_kept"),
    ("membank.kept_ratio", "ratio", "membank.kept_ratio"),
    ("membank.save_s", "s", "self:membank.save"),
    ("membank.load_s", "s", "self:membank.load"),
    ("membank.file_bytes", "B", "membank.file_bytes"),
    ("addresser.train_s", "s", "self:addresser.train"),
    ("addresser.epochs", "count", "addresser.epochs"),
    # Snapshot selection runs the whole destination half of predict inside
    # training; its self time would only be the loop, so this one is the
    # span's full duration (its children also count in their own layers).
    ("addresser.selection_s", "s", "total:addresser.selection"),
    ("addresser.selection_scenes", "count", "addresser.selection_scenes"),
    ("addresser.selected_epoch", "count", "addresser.selected_epoch"),
    ("addresser.key_table_s", "s", "self:addresser.key_table"),
    ("addresser.score_s", "s", "self:addresser.score"),
    ("addresser.score_calls", "count", "calls:addresser.score"),
    ("addresser.entries_scored", "count", "addresser.entries_scored"),
    ("inference.propose_self_s", "s", "self:inference.propose"),
    ("inference.predict_self_s", "s", "self:inference.predict"),
    ("inference.bundle_s", "s", "self:inference.bundle"),
    ("intention.decode_s", "s", "self:intention.decode"),
    ("intention.anchors_decoded", "count", "intention.anchors_decoded"),
    ("intention.kmeans_s", "s", "self:intention.kmeans"),
    ("intention.kmeans_calls", "count", "calls:intention.kmeans"),
    ("intention.kmeans_iters", "count", "intention.kmeans_iters"),
    ("intention.kmeans_points", "count", "intention.kmeans_points"),
    ("fulfillment.train_s", "s", "self:fulfillment.train"),
    ("fulfillment.fulfill_s", "s", "self:fulfillment.fulfill"),
    ("fulfillment.trajectories", "count", "fulfillment.trajectories"),
    ("evalkit.evaluate_self_s", "s", "self:evalkit.evaluate"),
    ("pipeline.stage_features_s", "s", "self:pipeline.stage_features"),
    ("pipeline.stage_bank_s", "s", "self:pipeline.stage_bank"),
    ("pipeline.stage_addresser_s", "s", "self:pipeline.stage_addresser"),
    ("pipeline.stage_fulfillment_s", "s", "self:pipeline.stage_fulfillment"),
    ("pipeline.artifact_hash_s", "s", "self:pipeline.artifact_hash"),
    ("pipeline.artifact_hash_calls", "count", "calls:pipeline.artifact_hash"),
    ("pipeline.load_bundle_s", "s", "self:pipeline.load_bundle"),
]


def rollup(tracer: Tracer) -> dict:
    """Per-layer metrics as ``{name: {"value", "unit"}}``."""
    counts = dict(tracer.counts)
    built = counts.get("datasets.scenes_built", 0)
    counts["datasets.neighbors_mean"] = counts.get("datasets.neighbors_total", 0) / built if built else 0.0
    entries_in = counts.get("membank.entries_in", 0)
    counts["membank.kept_ratio"] = counts.get("membank.entries_kept", 0) / entries_in if entries_in else 0.0
    counts["numkit.gflop"] = counts.get("numkit.flop", 0) / 1e9
    metrics = {}
    for metric, unit, source in PER_LAYER:
        kind, _, span = source.partition(":")
        if kind == "self":
            value = tracer.self_s.get(span, 0.0)
        elif kind == "total":
            value = tracer.total_s.get(span, 0.0)
        elif kind == "calls":
            value = tracer.calls.get(span, 0)
        else:
            value = counts.get(source, 0)
        metrics[metric] = {"value": value, "unit": unit}
    return metrics


def stress_shares(tracer: Tracer, train_s: float, eval_s: float) -> dict:
    """The shares NOTES.md predicts for each workload's target layer.

    Layer time is taken from the phase it belongs to (``Tracer.mark``), as a
    share of that phase's wall time; ``eval_s`` covers every evaluate call.
    """

    def train(*keys):
        return sum(tracer.phases["train"].get(k, 0.0) for k in keys) / train_s

    def evaluate(*keys):
        return sum(tracer.phases["evaluate"].get(k, 0.0) for k in keys) / eval_s

    entries_in = tracer.counts.get("membank.entries_in", 0)
    return {
        "train: (addresser.train_s + addresser.selection_s) / train_s": train("self:addresser.train", "total:addresser.selection"),
        "train: membank.filter_s / train_s": train("self:membank.filter"),
        "train: (intention.kmeans_s + intention.decode_s) / evaluate": evaluate("self:intention.kmeans", "self:intention.decode"),
        "crowd: (addresser.score_s + inference.propose_self_s) / evaluate": evaluate("self:addresser.score", "self:inference.propose"),
        "crowd: intention.kmeans_s / evaluate": evaluate("self:intention.kmeans"),
        "crowd: (datasets.load_manifest_s + membank.filter_s) / train_s": train("self:datasets.load_manifest", "self:membank.filter"),
        "membank.kept_ratio": tracer.counts.get("membank.entries_kept", 0) / entries_in if entries_in else 0.0,
    }
