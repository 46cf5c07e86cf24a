"""Spans recorded around ``conet``'s public callables, from outside the program.

A :class:`Tracer` replaces module globals and class attributes of
``conet.*`` with timing wrappers and puts the originals back on
:meth:`Tracer.uninstall`. Each call becomes one span
``[id, name, start, end, parent, thread, attrs]`` kept in memory; a span
opened on a thread with no open span of its own (a study worker) takes
the open command span as its parent. :func:`layer_metrics` turns the
spans of one traced repetition into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import itertools
import os
import statistics
import threading
import time

import numpy as np

EMBEDDING_TABLES = ("P", "P_src", "Q", "Q_t", "Q_s")


def _rows(args, kwargs, result):
    return {"rows": int(np.size(args[1]))}


def _adam_counts(args, kwargs, result):
    grads = args[2]
    embedding = [g for name, g in grads.items() if name in EMBEDDING_TABLES]
    return {
        "elems": sum(int(g.size) for g in grads.values()),
        "embedding_elems": sum(int(g.size) for g in embedding),
        "embedding_live": sum(int(np.count_nonzero(g)) for g in embedding),
    }


def _users(args, kwargs, result):
    return {"users": int(result.num_evaluated_users)}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _positives(trainer, epochs: int) -> int:
    """Positives the first ``epochs`` epochs of ``trainer`` consume.

    Follows from the train split and the settings alone: each domain's
    batch stream cycles over its positives in ``batch_size`` chunks, and
    an epoch takes as many steps as the larger domain has batches.
    """
    cfg = trainer.config
    train = trainer.split.train
    sizes = [train.target.num_interactions]
    if trainer.model.dual:
        sizes.append(train.source.num_interactions)
    batches = [-(-n // cfg.batch_size) for n in sizes]
    steps = max(batches) * epochs
    positives = 0
    for n, per_pass in zip(sizes, batches):
        passes, rest = divmod(steps, per_pass)
        positives += passes * n + rest * cfg.batch_size
    return positives


def fit_examples(args, kwargs, stats):
    """Labelled examples (positives and their negatives) one ``Trainer.fit`` used."""
    trainer = args[0]
    return {"examples": _positives(trainer, len(stats)) * (1 + trainer.config.negative_ratio)}


def epoch_examples(args, kwargs, stats):
    """Labelled examples of the epoch one ``Trainer.train_epoch`` call ran."""
    trainer = args[0]
    positives = _positives(trainer, stats.epoch) - _positives(trainer, stats.epoch - 1)
    return {"examples": positives * (1 + trainer.config.negative_ratio)}


# (module, attribute path, span name, attrs function, options).
# "gen" wraps a generator function and times each resumption; "cpu"
# records the thread's CPU time as well.
PROBES = (
    ("conet.data", "load_interactions", "data.load_interactions", None, ""),
    ("conet.data", "align_domains", "data.align_domains", None, ""),
    ("conet.data", "loo_split", "data.loo_split", None, ""),
    ("conet.data", "save_split_manifest", "data.save_split_manifest", None, ""),
    ("conet.data", "load_split_manifest", "data.load_split_manifest", None, ""),
    ("conet.training", "epoch_batches", "data.batch", None, "gen"),
    ("conet.training", "Trainer.fit", "training.fit", fit_examples, ""),
    ("conet.training", "Trainer.train_epoch", "training.epoch", epoch_examples, ""),
    ("conet.training", "Trainer._train_step", "training.step", None, ""),
    ("conet.training", "Trainer._paired_items", "training.pairing", None, ""),
    ("conet.training", "Trainer._validation_metrics", "training.validation", None, ""),
    ("conet.training", "cross_entropy_from_logits", "training.loss", None, ""),
    ("conet.training", "Adam.step", "training.adam", _adam_counts, ""),
    ("conet.training", "proximal_l1", "training.prox", None, ""),
    ("conet.training", "ModelScorer.score_items", "evaluation.score", None, ""),
    ("conet.evaluation", "evaluate", "evaluation.evaluate", _users, ""),
    ("conet.studies", "evaluate", "evaluation.evaluate", _users, ""),
    ("conet.cli", "evaluate", "evaluation.evaluate", _users, ""),
    ("conet.studies", "_train_and_evaluate", "studies.arm", None, "cpu"),
    ("conet.checkpoint", "save_checkpoint", "checkpoint.save", _file_bytes, ""),
    ("conet.checkpoint", "load_checkpoint", "checkpoint.load", None, ""),
)

# The few boundaries the untraced run needs for its end-to-end metrics;
# each is entered a handful of times per command.
END_TO_END_PROBES = tuple(
    p for p in PROBES
    if p[2] in ("training.fit", "training.epoch") or p[:2] == ("conet.studies", "evaluate")
)


def model_probes():
    """Forward and backward of every model class ``conet.models`` defines."""
    models = importlib.import_module("conet.models")
    probes = []
    for name, cls in sorted(vars(models).items()):
        if isinstance(cls, type) and cls.__module__ == models.__name__:
            for method, span in (("forward_batch", "models.forward"),
                                 ("backward_batch", "models.backward")):
                if method in vars(cls):
                    probes.append(("conet.models", f"{name}.{method}", span, _rows, ""))
    return tuple(probes)


def resolve(module_name: str, path: str):
    """``(owner, attribute)`` of a probe target such as ``Trainer.fit``."""
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for part in owners:
        owner = vars(owner).get(part)
        if owner is None:
            break
    if owner is None or attr not in vars(owner):
        raise LookupError(f"probe target {module_name}.{path} does not exist")
    return owner, attr


class Tracer:
    """Records spans through wrappers it installs and later removes."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed = []
        self._root = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent

    def _close(self, sid, name, start, end, parent, attrs):
        self._stack().pop()
        span = [sid, name, start, end, parent, threading.get_ident(), attrs]
        self.spans.append(span)
        return span

    def run_root(self, name, fn, *args):
        """Call ``fn`` inside the command span ``name``; worker spans nest under it."""
        sid, parent = self._open()
        self._root = sid
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._root = None
            self._close(sid, name, start, time.perf_counter(), parent, None)

    def _wrap(self, fn, name, attrs_fn, cpu):
        tracer = self

        def traced(*args, **kwargs):
            sid, parent = tracer._open()
            cpu_start = time.thread_time() if cpu else 0.0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                attrs = {"cpu": time.thread_time() - cpu_start} if cpu else None
                span = tracer._close(sid, name, start, end, parent, attrs)
            if attrs_fn is not None:
                tracer._count(span, attrs_fn(args, kwargs, result), parent, end)
            return result

        return traced

    def _count(self, span, attrs, parent, start):
        # Counting runs outside the span it describes; a sibling
        # "trace.count" span keeps its cost out of the parent's self time.
        span[6] = {**(span[6] or {}), **attrs}
        self.spans.append([next(self._ids), "trace.count", start, time.perf_counter(),
                           parent, threading.get_ident(), None])

    def _wrap_gen(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    sid, parent = tracer._open()
                    start = time.perf_counter()
                    item = None
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(sid, name, start, time.perf_counter(), parent,
                                      {"examples": 0 if item is None else len(item)})
                    yield item
            finally:
                inner.close()

        return traced

    def install(self, probes) -> None:
        """Wrap every probe target; raises if one is missing."""
        for module_name, path, name, attrs_fn, options in probes:
            try:
                owner, attr = resolve(module_name, path)
            except LookupError:
                self.uninstall()
                raise
            original = vars(owner)[attr]
            if options == "gen":
                wrapper = self._wrap_gen(original, name)
            else:
                wrapper = self._wrap(original, name, attrs_fn, options == "cpu")
            setattr(owner, attr, wrapper)
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Span arithmetic


def union_length(intervals) -> float:
    """Total length covered by ``(start, end)`` intervals, overlaps counted once."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it its child spans cover."""
    children = {}
    for span in spans:
        children.setdefault(span[4], []).append(span)
    result = {}
    for sid, _name, start, end, *_ in spans:
        covered = union_length((max(c[2], start), min(c[3], end))
                               for c in children.get(sid, ()) if c[2] < end and c[3] > start)
        result[sid] = (end - start) - covered
    return result


def ancestors(spans) -> dict:
    """Span id -> names of all its ancestors."""
    by_id = {s[0]: s for s in spans}
    memo = {}

    def names(sid):
        if sid not in memo:
            parent = by_id[sid][4]
            memo[sid] = (names(parent) | {by_id[parent][1]}) if parent in by_id else frozenset()
        return memo[sid]

    for sid in by_id:
        names(sid)
    return memo


def top_level(spans) -> dict:
    """Span id -> id of its outermost ancestor (itself when it has none)."""
    parents = {s[0]: s[4] for s in spans}
    result = {}
    for sid in parents:
        top = sid
        while parents.get(top) in parents:
            top = parents[top]
        result[sid] = top
    return result


def duration(span) -> float:
    return span[3] - span[2]


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced repetition (times in s unless named)."""
    above = ancestors(spans)
    own = self_times(spans)
    by_name = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)

    def total(*names):
        return sum(duration(s) for n in names for s in by_name.get(n, ()))

    def attr(name, key, spans_=None):
        spans_ = by_name.get(name, ()) if spans_ is None else spans_
        return sum((s[6] or {}).get(key, 0) for s in spans_)

    forward = by_name.get("models.forward", ())
    train_fwd = [s for s in forward if "training.step" in above[s[0]]]
    score_fwd = [s for s in forward if "evaluation.evaluate" in above[s[0]]]
    steps_ms = [1000.0 * duration(s) for s in by_name.get("training.step", ())]
    arm_spans = by_name.get("studies.arm", ())
    arms = [duration(s) for s in arm_spans]
    emb_elems = attr("training.adam", "embedding_elems")
    return {
        "data.load_s": total("data.load_interactions", "data.align_domains"),
        "data.split_s": total("data.loo_split"),
        "data.manifest_save_s": total("data.save_split_manifest"),
        "data.manifest_load_s": total("data.load_split_manifest"),
        "data.batch_s": total("data.batch"),
        "data.batches": sum(1 for s in by_name.get("data.batch", ()) if s[6]["examples"]),
        "data.examples": attr("data.batch", "examples"),
        "training.steps": len(steps_ms),
        "training.step_ms": steps_ms,
        "training.step_self_s": sum(own[s[0]] for s in by_name.get("training.step", ())),
        "training.pairing_s": total("training.pairing"),
        "training.adam_s": total("training.adam"),
        "training.adam_elems": attr("training.adam", "elems"),
        "training.adam_live_ratio": (attr("training.adam", "embedding_live") / emb_elems
                                     if emb_elems else 0.0),
        "training.prox_s": total("training.prox"),
        "training.loss_s": total("training.loss"),
        "training.validation_s": total("training.validation"),
        "models.forward_s": sum(duration(s) for s in train_fwd),
        "models.backward_s": total("models.backward"),
        "models.forward_rows": attr("models.forward", "rows", train_fwd),
        "models.score_s": sum(duration(s) for s in score_fwd),
        "models.score_rows": attr("models.forward", "rows", score_fwd),
        "evaluation.evaluate_s": total("evaluation.evaluate"),
        "evaluation.users": attr("evaluation.evaluate", "users"),
        "evaluation.self_s": sum(own[s[0]] for s in by_name.get("evaluation.evaluate", ())),
        "checkpoint.save_s": total("checkpoint.save"),
        "checkpoint.load_s": total("checkpoint.load"),
        "checkpoint.bytes": attr("checkpoint.save", "bytes"),
        "studies.arm_s_p50": statistics.median(arms) if arms else 0.0,
        "studies.arm_s_max": max(arms, default=0.0),
        "studies.arm_wait_s": sum(duration(s) - s[6]["cpu"] for s in arm_spans),
        "cli.self_s": sum(own[s[0]] for s in spans if s[1].startswith("cli.")),
    }
