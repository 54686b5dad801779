"""The classification batch: for each document, retrieve and prune (all
strategies but traversal), ask the LLM strategy, post-process, and write
the record.

Each layer is called through its module attribute, so it can be replaced or
wrapped from outside (tests, tracing) without touching this module.
"""
from __future__ import annotations

import hashlib
import logging
import random
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from . import gateway as gw, ndjson, postprocess, retrieval, strategies
from .documents import Document, DocumentError
from .taxonomy import Taxonomy

logger = logging.getLogger(__name__)

TOP_K_RANGE = (10, 100)
FLAG_HARD_FAILURE = "hard-failure"
# Documents ranked together: one embedding request and one screening
# product per block.
RANK_BLOCK = 8


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for one classification batch."""

    taxonomy_path: Path
    documents_path: Path
    output_path: Path
    method: strategies.Method
    top_k: int
    aggregation: strategies.AggregationFunction
    label_range: tuple[int, int]
    postprocess: postprocess.PostProcessConfig
    include_descriptions: bool
    contextualize: bool
    parallelism: int
    seed: int

    def __post_init__(self):
        if not TOP_K_RANGE[0] <= self.top_k <= TOP_K_RANGE[1]:
            raise ValueError(f"--top-k must be within {TOP_K_RANGE[0]}..{TOP_K_RANGE[1]}")
        if not 1 <= self.label_range[0] <= self.label_range[1]:
            raise ValueError("--min-labels must satisfy 1 <= min <= max")
        if self.parallelism < 1:
            raise ValueError("--parallelism must be >= 1")


def _doc_rng(seed: int, doc_id: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{doc_id}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class _BlockRankings:
    """Each document's top-k leaf ranking, ranked RANK_BLOCK documents at a
    time in input order, by the first worker that takes one of the block's.

    A block whose ranking raises anything but a RefusedError is ranked again
    one document at a time, so each document gets the ranking or the error
    it gets ranked alone.
    """

    def __init__(self, docs: Sequence[Document], taxonomy: Taxonomy,
                 store: retrieval.EmbeddingStore | None, embedder: retrieval.Embedder | None,
                 k: int):
        self._docs = docs
        self._args = (taxonomy, store, embedder, k)
        self._lock = threading.Lock()
        self._ready: dict[int, retrieval.LeafRanking | Exception] = {}

    def take(self, index: int) -> retrieval.LeafRanking:
        """The ranking of docs[index], or its error raised; once per index."""
        with self._lock:
            if index not in self._ready:
                start = index - index % RANK_BLOCK
                block = self._docs[start:start + RANK_BLOCK]
                self._ready.update(zip(range(start, start + len(block)), self._outcomes(block)))
            outcome = self._ready.pop(index)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def _outcomes(self, block: Sequence[Document]) -> list:
        try:
            return retrieval.rank_block(block, *self._args)
        except gw.RefusedError as exc:
            return [exc] * len(block)
        except Exception as exc:
            if len(block) == 1:
                return [exc]
            logger.warning("ranking documents %s to %s together failed (%s: %s); "
                           "ranking them one by one", block[0].doc_id, block[-1].doc_id,
                           type(exc).__name__, exc)
        outcomes: list = []
        for doc in block:
            try:
                outcomes += retrieval.rank_block([doc], *self._args)
            except Exception as exc:
                outcomes.append(exc)
        return outcomes


def classify_document(
    doc: Document,
    taxonomy: Taxonomy,
    ranking: Callable[[], retrieval.LeafRanking],
    gateway: gw.LlmGateway,
    config: RunConfig,
) -> dict[str, Any]:
    """One output record for `doc`; `ranking` gives its top-k leaves, and is
    not called for trav-select.

    Any failure becomes a `hard-failure` record, so one document cannot
    kill the batch; a RefusedError is raised instead, because every later
    document would be refused the same way.
    """
    method = config.method
    try:
        pt = None
        if method is strategies.Method.TRAV_SELECT:
            labels = strategies.classify_trav_select(doc, taxonomy, gateway)
        else:
            pt = retrieval.build_pruned_taxonomy(taxonomy, ranking(), config.top_k)
            if method is strategies.Method.SELECT_ONE_PASS:
                labels = strategies.classify_select_one_pass(doc, taxonomy, pt, gateway)
            elif method is strategies.Method.RERANK:
                labels = strategies.classify_rerank(
                    doc, taxonomy, pt, gateway,
                    fn=config.aggregation, top_n=config.postprocess.max_labels,
                )
            else:
                labels = strategies.classify_select_pointwise(
                    doc, taxonomy, pt, gateway,
                    label_range=config.label_range, contextualize=config.contextualize,
                )
        labels = postprocess.postprocess_chain(
            doc, labels, taxonomy, pt, gateway, config.postprocess,
            rng=_doc_rng(config.seed, doc.doc_id),
        )
    except gw.RefusedError:
        raise
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
        # The record carries the error; the traceback is for debugging only.
        logger.warning("document %s failed: %s", doc.doc_id, error)
        logger.debug("document %s failed", doc.doc_id, exc_info=True)
        return {
            "doc_id": doc.doc_id,
            "method": method.value,
            "labels": [],
            "provenance": {"error": error},
            "flags": [FLAG_HARD_FAILURE, postprocess.FLAG_NEEDS_REVIEW],
        }
    return {
        "doc_id": doc.doc_id,
        "method": labels.method.value,
        "labels": list(labels.leaf_ids),
        "provenance": labels.provenance,
        "flags": list(labels.flags),
    }


def classify_batch(
    docs: Sequence[Document],
    taxonomy: Taxonomy,
    store: retrieval.EmbeddingStore | None,
    embedder: retrieval.Embedder | None,
    gateway: gw.LlmGateway,
    config: RunConfig,
) -> int:
    """Write one record per document to `config.output_path`, in input order;
    return the number of hard failures.

    The output is opened before the first document starts, and each record is
    written as soon as it is next, so an error that stops the batch leaves
    every finished document on disk.
    """
    if not config.include_descriptions:
        # The one place the no-description ablation applies: no prompt sees a
        # description, while the store, embedded from the full taxonomy, does.
        taxonomy = taxonomy.with_nodes(replace(node, description=None) for node in taxonomy)
    failures = 0
    rankings = _BlockRankings(docs, taxonomy, store, embedder, config.top_k)

    def classify_one(index: int) -> dict[str, Any]:
        return classify_document(docs[index], taxonomy, partial(rankings.take, index),
                                 gateway, config)

    def classified() -> Iterator[dict[str, Any]]:
        nonlocal failures
        pool = ThreadPoolExecutor(max_workers=config.parallelism)
        try:
            # pool.map preserves input order; one worker needs no threads
            run = pool.map if config.parallelism > 1 else map
            for record in run(classify_one, range(len(docs))):
                failures += FLAG_HARD_FAILURE in record["flags"]
                yield record
        finally:
            pool.shutdown(cancel_futures=True)

    with closing(classified()) as records:
        ndjson.write_records(config.output_path, records, DocumentError, "output")
    return failures
