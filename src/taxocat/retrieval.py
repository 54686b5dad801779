"""Embedding-based leaf ranking and pruned-taxonomy construction.

Leaf nodes are embedded once per taxonomy version (name plus description),
documents on the fly. The leaf vectors are one matrix of unit-norm rows, so
a document's cosine similarity to every leaf is one matrix-vector
contraction; the top-k leaves plus their root paths form the pruned
taxonomy handed to the LLM strategies.
"""
from __future__ import annotations

import hashlib
import os
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Mapping, Protocol, Sequence

import numpy as np

from . import gateway as gw, ndjson
from .documents import Document, document_text
from .taxonomy import Taxonomy, TaxonomyNode

# Similarities are compared at this many decimals, so float noise in the
# last bits cannot break an exact tie; ties then go to the lower leaf id.
SIM_DECIMALS = 12
# Texts per embeddings request.
EMBED_BATCH = 128
# Words whose hash-bag coordinate one HashBagEmbedder remembers.
SLOT_MEMO_SIZE = 1 << 16
_NUMBER_TYPES = frozenset({int, float})  # exact types: rejects bools and numeric strings


class RetrievalError(Exception):
    pass


class IndexIncompleteError(RetrievalError):
    """The embedding store lacks vectors for some required leaves."""

    def __init__(self, missing_ids: Sequence[str]):
        self.missing_ids = tuple(missing_ids)
        shown = ", ".join(self.missing_ids[:10])
        suffix = " ..." if len(self.missing_ids) > 10 else ""
        super().__init__(f"missing embeddings for {len(self.missing_ids)} leaves: {shown}{suffix}")


@dataclass(frozen=True)
class EmbeddingVector:
    values: np.ndarray
    model_tag: str


def node_text(node: TaxonomyNode) -> str:
    """Text a node is embedded as: name, plus ': description' when present."""
    if node.description:
        return f"{node.name}: {node.description}"
    return node.name


def text_sha256(text: str) -> str:
    """Hex sha256 of the UTF-8 text: what a cached row was embedded from."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Embedder(Protocol):
    @property
    def model_tag(self) -> str: ...

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        """Raw rows, not normalised, as a new (len(texts), dim) float64 array."""


class HashBagEmbedder:
    """Deterministic offline embedder: tokens hashed into a bag vector.

    Each token increments one coordinate chosen by a stable digest, and a
    text with no tokens counts once in coordinate 0. Identical texts map to
    identical vectors on every platform, which is all the tests and the
    --mock CLI path need.
    """

    def __init__(self, dim: int = 256):
        if dim < 2:
            raise ValueError("dim must be >= 2")
        self.dim = dim
        # Texts share most of their words, so each word is hashed once.
        self._slots: dict[str, int] = {}

    @property
    def model_tag(self) -> str:
        return f"hash-bag-{self.dim}"

    def embed(self, text: str) -> EmbeddingVector:
        return EmbeddingVector(values=self.embed_many([text])[0], model_tag=self.model_tag)

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        from .textproc import tokenize

        slots = self._slots
        matrix = np.zeros((len(texts), self.dim))
        for row, text in zip(matrix, texts):
            hits = []
            for token in tokenize(text):
                slot = slots.get(token)
                if slot is None:
                    if len(slots) >= SLOT_MEMO_SIZE:
                        slots.clear()
                    digest = hashlib.sha1(token.encode("utf-8")).digest()
                    slot = slots[token] = int.from_bytes(digest[:4], "big") % self.dim
                hits.append(slot)
            # Integer counts, so the float64 row is exact whatever order they add in.
            row[:] = np.bincount(hits or [0], minlength=self.dim)
        return matrix


class HttpEmbedder:
    """Embeddings HTTP client (OpenAI-style request/response shape) for
    config.embedding_endpoint. Each request goes through gateway.post_json
    and gateway.with_retries, as chat calls do, on a session of its own
    keeping config.max_in_flight connections.

    The hosted model is configuration, not a code dependency; the tag
    recorded on vectors is config.embedding_model.
    """

    def __init__(self, config: gw.ProviderConfig, session=None):
        self.config = config
        self.session = gw.http_session(config) if session is None else session

    @property
    def model_tag(self) -> str:
        return self.config.embedding_model

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        """Raw embeddings of `texts` in order, EMBED_BATCH texts per request."""
        rows: list = []
        for start in range(0, len(texts), EMBED_BATCH):
            rows += self._post(texts[start:start + EMBED_BATCH])
        if not rows:
            return np.empty((0, 0))
        if not all(isinstance(row, list) and set(map(type, row)) <= _NUMBER_TYPES for row in rows):
            raise RetrievalError("malformed embedding response: not lists of numbers")
        try:
            return np.array(rows, dtype=np.float64)
        except ValueError as exc:  # ragged rows
            raise RetrievalError(f"malformed embedding response: {exc}") from exc

    def _post(self, texts: Sequence[str]) -> list:
        """The endpoint's embeddings of `texts`, as the reply's JSON, in order."""
        body = {"model": self.config.embedding_model, "input": texts}
        reply = gw.with_retries(
            lambda attempt: gw.post_json(self.session, self.config,
                                         self.config.embedding_endpoint, body),
            self.config.max_retries)
        try:
            data = reply["data"]
            indices = [item["index"] for item in data]
            rows = [item["embedding"] for item in data]
        except (KeyError, IndexError, TypeError) as exc:
            raise RetrievalError(f"malformed embedding response: {exc}") from exc
        if indices != list(range(len(texts))):
            raise RetrievalError(
                f"embedding response for {len(texts)} texts has indices {indices[:10]}"
            )
        return rows


class EmbeddingStore:
    """Node vectors as one read-only matrix of unit-norm rows, ids in row order.

    Each row keeps the text_sha256 of the text it was embedded from. A store
    never changes once built: embed_taxonomy_leaves and load build it.
    """

    def __init__(self, model_tag: str, ids: Sequence[str], matrix: np.ndarray,
                 text_hashes: Sequence[str]):
        ids = tuple(ids)
        if len(matrix) != len(ids):
            raise RetrievalError(f"{len(matrix)} embedding rows for {len(ids)} nodes")
        if len(text_hashes) != len(ids):
            raise RetrievalError(f"{len(text_hashes)} text hashes for {len(ids)} nodes")
        self._row = {node_id: row for row, node_id in enumerate(ids)}
        if len(self._row) != len(ids):
            duplicates = sorted(node_id for node_id, n in Counter(ids).items() if n > 1)
            raise RetrievalError(f"duplicate embedding ids: {', '.join(duplicates[:10])}")
        matrix.flags.writeable = False
        self.model_tag = model_tag
        self.ids = ids
        self.matrix = matrix
        self.text_hashes = tuple(text_hashes)

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._row

    def get(self, node_id: str) -> EmbeddingVector:
        row = self._row.get(node_id)
        if row is None:
            raise IndexIncompleteError([node_id])
        return EmbeddingVector(values=self.matrix[row], model_tag=self.model_tag)

    def save(self, target: str | Path | IO[str]) -> None:
        """Write one record per row, sorted by id; a path is replaced atomically.

        The records go to a temporary file beside the path, which then
        replaces it, so a run that dies mid-write leaves the old file or none.
        """
        records = (
            {"node_id": node_id, "model_tag": self.model_tag,
             "text_sha256": self.text_hashes[row], "vector": self.matrix[row].tolist()}
            for node_id, row in sorted(self._row.items())
        )
        if not isinstance(target, (str, Path)):
            ndjson.write_records(target, records, RetrievalError, "embedding cache")
            return
        target = Path(target)
        temp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
        try:
            ndjson.write_records(temp, records, RetrievalError, "embedding cache")
            os.replace(temp, target)
        except (OSError, RetrievalError) as exc:
            cause = exc.__cause__ or exc  # the codec's error names the temporary file
            raise RetrievalError(f"cannot write embedding cache {target}: "
                                 f"{getattr(cause, 'strerror', None) or cause}") from cause
        finally:
            temp.unlink(missing_ok=True)

    @classmethod
    def load(cls, source: str | Path | IO[str], model_tag: str | None = None) -> "EmbeddingStore":
        """The store a save wrote: every row is checked to be a unit vector of
        one dimension, under one model tag, then copied bit for bit."""
        ids: list[str] = []
        hashes: list[str] = []
        vectors: list[list[float]] = []
        for lineno, record in ndjson.read_records(source, RetrievalError, "embedding cache"):
            vector = record.get("vector")
            if not (
                isinstance(record.get("node_id"), str)
                and isinstance(record.get("model_tag"), str)
                and isinstance(record.get("text_sha256"), str)
                and isinstance(vector, list)
                and set(map(type, vector)) <= _NUMBER_TYPES
            ):
                raise RetrievalError(
                    f"embedding cache line {lineno}: expected {{node_id, model_tag, "
                    "text_sha256, vector: [numbers]}; delete the file to rebuild it")
            model_tag = record["model_tag"] if model_tag is None else model_tag
            if record["model_tag"] != model_tag:
                raise RetrievalError(f"embedding cache line {lineno}: "
                                     f"model_tag {record['model_tag']!r}, expected {model_tag!r}")
            if vectors and len(vector) != len(vectors[0]):
                raise RetrievalError(f"embedding cache line {lineno}: "
                                     f"{len(vector)} numbers, expected {len(vectors[0])}")
            ids.append(record["node_id"])
            hashes.append(record["text_sha256"])
            vectors.append(vector)
        dim = len(vectors[0]) if vectors else 0
        matrix = np.array(vectors, dtype=np.float64).reshape(len(vectors), dim)
        norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
        off = np.flatnonzero(~(np.abs(norms - 1.0) <= 1e-9))
        if len(off):
            raise RetrievalError(f"embedding cache: vector of {ids[off[0]]!r} is not unit "
                                 "length; delete the file to rebuild it")
        return cls("empty" if model_tag is None else model_tag, ids, matrix, hashes)


def _unit_rows(ids: Sequence[str], matrix: np.ndarray) -> np.ndarray:
    """`matrix` with each row divided by its norm, in place; row i embeds ids[i].

    The one place an embedding is normalised. A zero or non-finite norm
    raises RetrievalError naming the first such id.
    """
    if len(matrix) != len(ids):
        raise RetrievalError(f"got {len(matrix)} embeddings for {len(ids)} texts")
    norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
    bad = np.flatnonzero(~(np.isfinite(norms) & (norms > 0.0)))
    if len(bad):
        raise RetrievalError(f"embedding of {ids[bad[0]]!r} has a zero or non-finite norm")
    matrix /= norms[:, np.newaxis]
    return matrix


def embed_taxonomy_leaves(taxonomy: Taxonomy, embedder: Embedder,
                          cached: EmbeddingStore | None = None) -> EmbeddingStore:
    """Store of every leaf's embedding, rows in ascending leaf-id order.

    A leaf whose id and text hash are both in `cached` keeps that row bit
    for bit; only the other leaves are embedded, in one embed_many call.
    Cached rows of ids that are no longer leaves are left out.
    """
    leaves = taxonomy.leaf_ids()
    model_tag = embedder.model_tag
    if cached is not None and cached.model_tag != model_tag:
        raise RetrievalError(f"embedding cache is {cached.model_tag!r}, embedder is {model_tag!r}")
    texts = [node_text(taxonomy.node(leaf_id)) for leaf_id in leaves]
    hashes = [text_sha256(text) for text in texts]
    cached_row = {} if cached is None else {
        key: row for row, key in enumerate(zip(cached.ids, cached.text_hashes))}
    rows = [cached_row.get(key) for key in zip(leaves, hashes)]
    new = [i for i, row in enumerate(rows) if row is None]
    fresh = _unit_rows([leaves[i] for i in new], embedder.embed_many([texts[i] for i in new]))
    if len(new) == len(leaves):
        return EmbeddingStore(model_tag, leaves, fresh, hashes)
    matrix = np.empty((len(leaves), cached.matrix.shape[1]))
    if new:
        if fresh.shape[1] != matrix.shape[1]:
            raise RetrievalError(f"dimension mismatch: {fresh.shape[1]} vs {matrix.shape[1]}")
        matrix[new] = fresh
    kept = [i for i, row in enumerate(rows) if row is not None]
    matrix[kept] = cached.matrix[[rows[i] for i in kept]]
    return EmbeddingStore(model_tag, leaves, matrix, hashes)


# -- ranking and pruning -----------------------------------------------------


@dataclass(frozen=True)
class LeafRanking:
    doc_id: str
    entries: tuple[tuple[str, float], ...]  # (leaf id, similarity), best first

    def __post_init__(self):
        seen = set()
        prev: tuple[float, str] | None = None
        for leaf_id, sim in self.entries:
            if leaf_id in seen:
                raise RetrievalError(f"duplicate leaf {leaf_id!r} in ranking")
            seen.add(leaf_id)
            if not -1.0 <= sim <= 1.0:
                raise RetrievalError(f"similarity out of range for {leaf_id!r}: {sim}")
            key = (-sim, leaf_id)
            if prev is not None and key < prev:
                raise RetrievalError("ranking entries are not sorted")
            prev = key

    def leaf_ids(self) -> tuple[str, ...]:
        return tuple(leaf_id for leaf_id, _ in self.entries)


@dataclass(frozen=True)
class PrunedTaxonomy:
    """Ancestor-closed subtree induced by a document's top-k retrieved leaves."""

    node_ids: frozenset[str]
    leaf_ids: tuple[str, ...]  # retained ranking order


def rank_leaves(
    doc: Document,
    taxonomy: Taxonomy,
    store: EmbeddingStore,
    embedder: Embedder,
    k: int | None = None,
) -> LeafRanking:
    """Rank taxonomy leaves by cosine similarity to the document content.

    Similarities are rounded to SIM_DECIMALS decimals and ties break by
    ascending leaf id, so rankings are reproducible across runs and
    platforms. With `k`, only the best k entries are kept.
    """
    if embedder.model_tag != store.model_tag:
        raise RetrievalError(
            f"embedder is {embedder.model_tag!r} but store is {store.model_tag!r}"
        )
    if k is not None and k < 1:
        raise ValueError("k must be >= 1")
    leaves = taxonomy.leaf_ids()
    if store.ids is not leaves and store.ids != leaves:
        missing = [leaf_id for leaf_id in leaves if leaf_id not in store]
        if missing:
            raise IndexIncompleteError(missing)
        raise RetrievalError("embedding store rows are not the taxonomy's leaves in order")
    matrix = store.matrix
    query = _unit_rows([doc.doc_id], embedder.embed_many([document_text(doc)]))[0]
    if query.shape[0] != matrix.shape[1]:
        raise RetrievalError(f"dimension mismatch: {query.shape[0]} vs {matrix.shape[1]}")
    # einsum, not matrix @ query: that goes to multithreaded BLAS, which costs more CPU here.
    sims = np.einsum("ij,j->i", matrix, query)
    sims = np.round(np.clip(sims, -1.0, 1.0), SIM_DECIMALS)
    keys = -sims  # ascending: best first
    order = np.arange(len(keys))
    if k is not None and k < len(keys):
        kth = np.partition(keys, k - 1)[k - 1]
        order = np.flatnonzero(keys <= kth)  # keeps every leaf tied with the k-th
    # Positions follow the ascending leaf ids, so they break ties.
    order = order[np.lexsort((order, keys[order]))][:k].tolist()
    return LeafRanking(
        doc_id=doc.doc_id,
        entries=tuple(zip([leaves[i] for i in order], sims[order].tolist())),
    )


def build_pruned_taxonomy(taxonomy: Taxonomy, ranking: LeafRanking, k: int) -> PrunedTaxonomy:
    """Top-min(k, #leaves) ranked leaves plus every ancestor on their root paths."""
    if k < 1:
        raise ValueError("k must be >= 1")
    top = ranking.leaf_ids()[:k]
    node_ids: set[str] = set()
    for leaf_id in top:
        # Every collected node's ancestors are collected, so a walk stops at the first one.
        node_id: str | None = leaf_id
        while node_id is not None and node_id not in node_ids:
            node_ids.add(node_id)
            node_id = taxonomy.node(node_id).parent_id
    return PrunedTaxonomy(node_ids=frozenset(node_ids), leaf_ids=tuple(top))


# -- retrieval quality -------------------------------------------------------


@dataclass(frozen=True)
class DepthRecall:
    depth: int
    all_gold_rate: float  # every gold leaf ranked within the top `depth`
    any_gold_rate: float  # at least one gold leaf within the top `depth`


def recall_at_k(
    rankings: Sequence[LeafRanking],
    gold: Mapping[str, Iterable[str]],
    depths: Sequence[int],
) -> list[DepthRecall]:
    """Per-depth hit rates of human-selected labels within the top positions.

    Both an all-gold and an any-gold rate are reported; the stricter
    all-gold variant matches a one-perfect-label-set evaluation setup.
    """
    if not rankings:
        raise RetrievalError("no rankings given")
    missing = [r.doc_id for r in rankings if r.doc_id not in gold]
    if missing:
        raise RetrievalError(f"missing gold entries for: {', '.join(sorted(missing))}")
    gold_sets = {r.doc_id: frozenset(gold[r.doc_id]) for r in rankings}
    results = []
    for depth in depths:
        if depth < 1:
            raise ValueError("depths must be >= 1")
        all_hits = 0
        any_hits = 0
        for ranking in rankings:
            top = frozenset(ranking.leaf_ids()[:depth])
            wanted = gold_sets[ranking.doc_id]
            if wanted and wanted <= top:
                all_hits += 1
            if wanted & top:
                any_hits += 1
        results.append(
            DepthRecall(
                depth=depth,
                all_gold_rate=all_hits / len(rankings),
                any_gold_rate=any_hits / len(rankings),
            )
        )
    return results


def load_gold_labels(source: str | Path | IO[str]) -> dict[str, frozenset[str]]:
    """Read newline-delimited JSON gold labels: {doc_id, gold: [leaf ids]}."""
    gold: dict[str, frozenset[str]] = {}
    for lineno, record in ndjson.read_records(source, RetrievalError, "gold file"):
        if not (
            isinstance(record.get("doc_id"), str)
            and isinstance(record.get("gold"), list)
            and all(isinstance(label, str) for label in record["gold"])
        ):
            raise RetrievalError(f"gold file line {lineno}: expected {{doc_id, gold: [leaf ids]}}")
        doc_id = record["doc_id"]
        if doc_id in gold:
            raise RetrievalError(f"gold file line {lineno}: duplicate doc_id {doc_id!r}")
        gold[doc_id] = frozenset(record["gold"])
    return gold
