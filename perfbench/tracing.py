"""Span tracing from outside the program, and the per-layer metrics built on it.

Spans are recorded by temporarily replacing public module attributes and
methods of taxocat with timing wrappers (``Tracer.patch``); nothing under
``src/`` is changed. Each span has a name, the document it belongs to,
start and end, and the span that was open on the same thread when it
began. Spans stay in memory until the run ends.

A span's self time is its duration minus the part of it covered by its
child spans.
"""
from __future__ import annotations

import math
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Sequence


@dataclass
class Span:
    name: str
    doc_id: str | None
    start: float
    parent: int | None
    end: float = 0.0
    ok: bool = False
    info: dict[str, Any] = field(default_factory=dict)


# (owner, attribute, span name, doc id of the call or None, info from (args, result))
Target = tuple[Any, str, str, Callable[[tuple], str | None] | None,
               Callable[[tuple, Any], Mapping[str, Any]] | None]


class Tracer:
    """Thread-safe in-memory span recorder."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, doc_of=None, info_of=None) -> Callable:
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            doc_id = doc_of(args) if doc_of is not None else None
            if doc_id is None and parent is not None:
                doc_id = self.spans[parent].doc_id
            span = Span(name, doc_id, time.perf_counter(), parent)
            with self._lock:
                self.spans.append(span)
                index = len(self.spans) - 1
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                span.ok = True
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if info_of is not None:
                span.info = dict(info_of(args, result))
            return result

        return traced

    @contextmanager
    def patch(self, targets: Sequence[Target]) -> Iterator[None]:
        """Replace each target attribute with a traced wrapper; restore on exit."""
        originals = []
        try:
            for owner, attr, name, doc_of, info_of in targets:
                originals.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), doc_of, info_of))
            yield
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def take(self) -> list[Span]:
        """Return the recorded spans and start a new list."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of intervals."""
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


def self_times(spans: Sequence[Span]) -> list[float]:
    """Per span: duration minus the union of its children's intervals, in seconds."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        (span.end - span.start) - _covered(kids) for span, kids in zip(spans, children)
    ]


def _rank(pct: float, n: int) -> int:
    """Nearest rank (1-based) of the pct-th percentile among n samples."""
    return max(1, math.ceil(pct * n / 100.0 - 1e-9))  # tolerate float error in pct * n


def percentile(samples: Sequence[float], pct: float) -> float:
    return sorted(samples)[_rank(pct, len(samples)) - 1]


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)  # highest first
TAIL_MIN_BEYOND = 10


def tail_percentile(samples: Sequence[float]) -> tuple[float, float] | None:
    """(percentile, value) for the highest of TAIL_PERCENTILES with at least
    TAIL_MIN_BEYOND samples above it.

    A nearest-rank percentile at rank r has n - r samples beyond it. None
    when no candidate qualifies.
    """
    n = len(samples)
    for pct in TAIL_PERCENTILES:
        if n - _rank(pct, n) >= TAIL_MIN_BEYOND:
            return pct, percentile(samples, pct)
    return None


def doc_spans(spans: Sequence[Span]) -> dict[str, tuple[float, float]]:
    """Per document: (first span start, last span end)."""
    out: dict[str, tuple[float, float]] = {}
    for span in spans:
        if span.doc_id is None:
            continue
        first, last = out.get(span.doc_id, (span.start, span.end))
        out[span.doc_id] = (min(first, span.start), max(last, span.end))
    return out


# -- the layers on the classify path -------------------------------------------

TEMPLATES = ("trav_select", "select_one_pass", "rerank", "selectp_leaf", "selectp_parent",
             "decrease_labels")
FLAGS = ("needs-review", "shortfall", "decrease-fallback", "empty-result",
         "ancestor-scores-unavailable")
CLASSIFY_FUNCTIONS = ("classify_trav_select", "classify_select_one_pass", "classify_rerank",
                      "classify_select_pointwise")


def _doc_arg(position: int) -> Callable[[tuple], str]:
    return lambda args: args[position].doc_id


def _spec_doc(args: tuple) -> str | None:
    document = args[1].user_payload.get("document")
    return document.get("doc_id") if isinstance(document, Mapping) else None


def setup_targets() -> list[Target]:
    from taxocat import retrieval, taxonomy

    return [
        (taxonomy, "load_taxonomy", "taxonomy.load", None, None),
        (retrieval, "embed_taxonomy_leaves", "retrieval.index", None, None),
    ]


def batch_targets(provider_cls: type) -> list[Target]:
    """Wrappers for one batch: every layer the classify path calls, outermost first."""
    from taxocat import cli, gateway, postprocess, retrieval, strategies

    def pruned_info(args, pt):
        return {"nodes": len(pt.node_ids)}

    def candidates_info(args, labels):
        return {"candidates": len(labels.leaf_ids)}

    def swaps_info(args, labels):
        return {"swaps": labels.provenance.get("sibling_diversity", {}).get("dropped", 0)}

    targets: list[Target] = [
        # cli binds load_documents by name, so the wrapper goes on cli.
        (cli, "load_documents", "documents.load", None, None),
        (retrieval, "rank_leaves", "retrieval.rank", _doc_arg(0), None),
        (retrieval, "build_pruned_taxonomy", "retrieval.prune", _doc_arg(1), pruned_info),
    ]
    targets += [(strategies, name, "strategies.classify", _doc_arg(0), candidates_info)
                for name in CLASSIFY_FUNCTIONS]
    targets += [
        (postprocess, "postprocess_chain", "postprocess.chain", _doc_arg(0), swaps_info),
        (postprocess, "decrease_labels", "postprocess.decrease", _doc_arg(0), None),
        (gateway.LlmGateway, "call_with_retry", "gateway.call", _spec_doc, None),
        (provider_cls, "complete", "gateway.provider", _spec_doc, None),
    ]
    return targets


SPAN_NAMES = ("documents.load", "retrieval.rank", "retrieval.prune", "strategies.classify",
              "postprocess.chain", "postprocess.decrease", "gateway.call", "gateway.provider")


def layer_metrics(passes: Sequence[Any], records: Sequence[Mapping[str, Any]],
                  parallelism: int, k: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over traced batches.

    Each pass carries `spans`, `wall` (batch seconds), `doc_ids` and
    `calls` (the provider's call log). `records` is the parsed output,
    which is the same for every pass. Times per document are sums over all
    passes divided by all documents.
    """
    n_docs = sum(len(p.doc_ids) for p in passes)
    self_s: dict[str, float] = {name: 0.0 for name in SPAN_NAMES}
    count: dict[str, int] = {name: 0 for name in SPAN_NAMES}
    ok_calls = 0
    load_s: list[float] = []
    pruned_nodes: list[int] = []
    candidates: list[int] = []
    swaps = 0
    decreased: set[tuple[int, str]] = set()
    doc_ms: list[float] = []
    capacity = 0.0
    for i, p in enumerate(passes):
        capacity += parallelism * p.wall
        for span, own in zip(p.spans, self_times(p.spans)):
            self_s[span.name] += own
            count[span.name] += 1
            if span.name == "documents.load":
                load_s.append(span.end - span.start)
            elif span.name == "retrieval.prune":
                pruned_nodes.append(span.info["nodes"])
            elif span.name == "strategies.classify":
                candidates.append(span.info["candidates"])
            elif span.name == "postprocess.chain":
                swaps += span.info["swaps"]
            elif span.name == "postprocess.decrease":
                decreased.add((i, span.doc_id))
            elif span.name == "gateway.call" and span.ok:
                ok_calls += 1
        doc_ms += [1000.0 * (end - start) for start, end in doc_spans(p.spans).values()]

    def per_doc_ms(*names: str) -> float:
        return 1000.0 * sum(self_s[name] for name in names) / n_docs

    def mean(values: Sequence[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    metrics: dict[str, tuple[float, str]] = {
        "documents.load_s": (statistics.median(load_s), "s"),
        "retrieval.rank_ms_per_doc": (per_doc_ms("retrieval.rank"), "ms"),
        "retrieval.prune_ms_per_doc": (per_doc_ms("retrieval.prune"), "ms"),
        "retrieval.pruned_nodes_per_doc": (mean(pruned_nodes), "count"),
        "retrieval.topk_yield": (
            sum(len(r["labels"]) for r in records) / (len(records) * k), "ratio"),
        "strategies.self_ms_per_doc": (per_doc_ms("strategies.classify"), "ms"),
        "strategies.candidates_per_doc": (mean(candidates), "count"),
    }
    for template in TEMPLATES:
        calls = [c for p in passes for c in p.calls if c.template == template]
        metrics[f"gateway.calls.{template}"] = (len(calls) / n_docs, "calls/doc")
        metrics[f"gateway.chars_out.{template}"] = (
            sum(c.chars_out for c in calls) / n_docs, "chars/doc")
    provider_calls = count["gateway.provider"]
    metrics.update({
        "gateway.wait_ms_per_doc": (per_doc_ms("gateway.provider"), "ms"),
        "gateway.self_ms_per_doc": (per_doc_ms("gateway.call"), "ms"),
        "gateway.retry_attempts": (float(provider_calls - count["gateway.call"]), "count"),
        "gateway.parse_ok_share": (ok_calls / provider_calls if provider_calls else 1.0, "ratio"),
        "postprocess.self_ms_per_doc": (
            per_doc_ms("postprocess.chain", "postprocess.decrease"), "ms"),
        "postprocess.decrease_share": (len(decreased) / n_docs, "ratio"),
        "postprocess.sibling_swaps_per_doc": (swaps / n_docs, "count"),
    })
    for flag in FLAGS:
        hits = sum(flag in r.get("flags", ()) for r in records)
        metrics[f"postprocess.flag.{flag}"] = (float(hits), "count")
    tail = tail_percentile(doc_ms)
    tail_pct, tail_value = tail if tail is not None else (100.0, max(doc_ms))
    attributed = sum(self_s.values())
    metrics.update({
        "cli.doc_ms_p50": (percentile(doc_ms, 50.0), "ms"),
        "cli.doc_ms_tail": (tail_value, "ms"),
        "cli.doc_ms_tail_pct": (tail_pct, "pct"),
        "cli.doc_samples": (float(len(doc_ms)), "count"),
        "cli.unattributed_ms_per_doc": (1000.0 * (capacity - attributed) / n_docs, "ms"),
    })
    return metrics
