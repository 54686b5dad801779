"""The classification batch: rank the documents a block at a time (all
strategies but traversal), then on a worker prune, ask the LLM strategy and
post-process each document, and write its record in input order.

Each layer is called through its module attribute, so it can be replaced or
wrapped from outside (tests, tracing) without touching this module.
"""
from __future__ import annotations

import hashlib
import itertools
import logging
import random
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from . import gateway as gw, ndjson, postprocess, retrieval, strategies
from .documents import Document, DocumentError
from .taxonomy import Taxonomy

logger = logging.getLogger(__name__)

TOP_K_RANGE = (10, 100)
FLAG_HARD_FAILURE = "hard-failure"
# Documents ranked together: one embedding request and one screening
# product per block.
RANK_BLOCK = 8
# Documents submitted and not yet written, per worker: room for documents
# in retry backoff (up to 8 s each), and memory that does not grow with the batch.
IN_FLIGHT_PER_WORKER = 64


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


def ranked(docs: Iterable[Document], taxonomy: Taxonomy,
           store: retrieval.EmbeddingStore | None, embedder: retrieval.Embedder | None,
           k: int) -> Iterator[tuple[Document, retrieval.LeafRanking | Exception]]:
    """(document, its top-k leaf ranking or the error ranking raised) in input
    order, ranked RANK_BLOCK documents at a time. A block that fails with
    anything but a RefusedError is ranked again one document at a time, as
    each would be alone. A RefusedError is the last item: every later request
    would be refused the same way."""
    args = (taxonomy, store, embedder, k)
    docs = iter(docs)
    while block := list(itertools.islice(docs, RANK_BLOCK)):
        try:
            outcomes: Iterable = retrieval.rank_block(block, *args)
        except Exception as exc:
            outcomes = [exc]
            if len(block) > 1 and not isinstance(exc, gw.RefusedError):
                logger.warning("ranking documents %s to %s together failed (%s: %s); "
                               "ranking them one by one", block[0].doc_id, block[-1].doc_id,
                               type(exc).__name__, exc)
                outcomes = (_rank_alone(doc, args) for doc in block)
        for doc, outcome in zip(block, outcomes):
            yield doc, outcome
            if isinstance(outcome, gw.RefusedError):
                return


def _rank_alone(doc: Document, args: tuple) -> retrieval.LeafRanking | Exception:
    try:
        return retrieval.rank_leaves(doc, *args)
    except Exception as exc:
        return exc


def classify_document(
    doc: Document,
    taxonomy: Taxonomy,
    ranking: retrieval.LeafRanking | Exception | None,
    calls: gw.CallGroup,
    config: RunConfig,
) -> dict[str, Any]:
    """One output record for `doc`, from its top-k leaf ranking or the error
    ranking it raised (`ranked`); trav-select takes None. Every LLM call goes
    through `calls`, held open around all the document's work.

    Any failure becomes a `hard-failure` record, so one document cannot
    kill the batch; a RefusedError is raised instead, because every later
    document would be refused the same way.
    """
    method = config.method
    try:
        pt = None
        with calls:
            if method is strategies.Method.TRAV_SELECT:
                labels = strategies.classify_trav_select(doc, taxonomy, calls)
            else:
                if isinstance(ranking, Exception):
                    raise ranking
                pt = retrieval.build_pruned_taxonomy(taxonomy, ranking, config.top_k)
                if method is strategies.Method.SELECT_ONE_PASS:
                    labels = strategies.classify_select_one_pass(doc, taxonomy, pt, calls)
                elif method is strategies.Method.RERANK:
                    labels = strategies.classify_rerank(
                        doc, taxonomy, pt, calls,
                        fn=config.aggregation, top_n=config.postprocess.max_labels,
                    )
                else:
                    labels = strategies.classify_select_pointwise(
                        doc, taxonomy, pt, calls,
                        label_range=config.label_range, contextualize=config.contextualize,
                    )
            labels = postprocess.postprocess_chain(
                doc, labels, taxonomy, pt, calls, config.postprocess,
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


def _in_order(fn: Callable[[Any], Any], items: Iterable[Any], workers: int) -> Iterator[Any]:
    """fn(item) for each item, in input order: in this thread for one worker, else
    on a pool, with at most IN_FLIGHT_PER_WORKER × workers items not yet yielded."""
    if workers == 1:
        yield from map(fn, items)
        return
    pool = ThreadPoolExecutor(max_workers=workers)
    window: deque[Future] = deque()
    try:
        for item in items:
            window.append(pool.submit(fn, item))
            if len(window) == IN_FLIGHT_PER_WORKER * workers:
                yield window.popleft().result()
        while window:
            yield window.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def classify_batch(
    docs: Iterable[Document],
    taxonomy: Taxonomy,
    store: retrieval.EmbeddingStore | None,
    embedder: retrieval.Embedder | None,
    gateway: gw.LlmGateway,
    config: RunConfig,
) -> int:
    """Write one record per document to `config.output_path`, in input order,
    and return the number of hard failures. This thread ranks the documents
    and writes each record, flushed, as soon as it is next, so a batch that
    stops or is killed keeps every finished document; `config.parallelism`
    workers classify them, each in a call group this thread makes in input order."""
    if not config.include_descriptions:
        # The one place the no-description ablation applies: no prompt sees a
        # description, while the store, embedded from the full taxonomy, does.
        taxonomy = taxonomy.with_nodes(replace(node, description=None) for node in taxonomy)
    work = (((doc, None) for doc in docs) if config.method is strategies.Method.TRAV_SELECT
            else ranked(docs, taxonomy, store, embedder, config.top_k))
    failures = 0

    def classify_one(item: tuple[Document, Any, gw.CallGroup]) -> dict[str, Any]:
        return classify_document(item[0], taxonomy, item[1], item[2], config)

    def counted(record: dict[str, Any]) -> dict[str, Any]:
        nonlocal failures
        failures += FLAG_HARD_FAILURE in record["flags"]
        return record

    admitted = ((doc, ranking, gateway.group()) for doc, ranking in work)
    with closing(_in_order(classify_one, admitted, config.parallelism)) as records:
        ndjson.write_records(config.output_path, map(counted, records), DocumentError, "output")
    return failures
