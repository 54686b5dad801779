"""The per-document classification path: retrieve and prune (all strategies
but traversal), ask the LLM strategy, post-process, and shape the record.

Each layer is called through its module attribute, so it can be replaced or
wrapped from outside (tests, tracing) without touching this module.
"""
from __future__ import annotations

import hashlib
import logging
import random
from typing import TYPE_CHECKING, Any

from . import gateway as gw, postprocess, retrieval, strategies
from .documents import Document
from .taxonomy import Taxonomy

if TYPE_CHECKING:
    from .cli import RunConfig

logger = logging.getLogger(__name__)


def _doc_rng(seed: int, doc_id: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{doc_id}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def classify_document(
    doc: Document,
    taxonomy: Taxonomy,
    store: retrieval.EmbeddingStore | None,
    embedder: retrieval.Embedder | None,
    gateway: gw.LlmGateway,
    config: RunConfig,
) -> dict[str, Any]:
    """One output record for `doc`.

    Any failure becomes a `hard-failure` record, so one document cannot
    kill the batch; a non-retryable provider error is raised instead,
    because every later document would be rejected the same way.
    """
    method = config.method
    try:
        pt = None
        if method is strategies.Method.TRAV_SELECT:
            labels = strategies.classify_trav_select(doc, taxonomy, gateway)
        else:
            ranking = retrieval.rank_leaves(doc, taxonomy, store, embedder, k=config.top_k)
            pt = retrieval.build_pruned_taxonomy(taxonomy, ranking, config.top_k)
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
    except Exception as exc:
        if isinstance(exc, gw.ProviderError) and not exc.retryable:
            raise
        error = f"{type(exc).__name__}: {exc}"
        # The record carries the error; the traceback is for debugging only.
        logger.warning("document %s failed: %s", doc.doc_id, error)
        logger.debug("document %s failed", doc.doc_id, exc_info=True)
        return {
            "doc_id": doc.doc_id,
            "method": method.value,
            "labels": [],
            "provenance": {"error": error},
            "flags": ["hard-failure", postprocess.FLAG_NEEDS_REVIEW],
        }
    return {
        "doc_id": doc.doc_id,
        "method": labels.method.value,
        "labels": list(labels.leaf_ids),
        "provenance": labels.provenance,
        "flags": list(labels.flags),
    }
