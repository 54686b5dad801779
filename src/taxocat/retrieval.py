"""Embedding-based leaf ranking and pruned-taxonomy construction.

Leaf nodes are embedded once per taxonomy version (name plus description),
documents on the fly. The leaf vectors are one matrix of unit-norm rows, so
a document's cosine similarity to every leaf is one matrix-vector
contraction; the top-k leaves plus their root paths form the pruned
taxonomy handed to the LLM strategies.
"""
from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Protocol, Sequence

import numpy as np

from . import ndjson
from .documents import Document, document_text
from .taxonomy import Taxonomy, TaxonomyNode

# Similarities are compared at this many decimals, so float noise in the
# last bits cannot break an exact tie; ties then go to the lower leaf id.
SIM_DECIMALS = 12
# Texts per embeddings request.
EMBED_BATCH = 128
# Words whose hash-bag coordinate one HashBagEmbedder remembers.
SLOT_MEMO_SIZE = 1 << 16


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

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1:
            raise RetrievalError("embedding must be a 1-D vector")
        if not np.all(np.isfinite(arr)):
            raise RetrievalError("embedding contains non-finite values")
        object.__setattr__(self, "values", arr)

    @property
    def dim(self) -> int:
        return int(self.values.shape[0])


def node_text(node: TaxonomyNode) -> str:
    """Text a node is embedded as: name, plus ': description' when present."""
    if node.description:
        return f"{node.name}: {node.description}"
    return node.name


class Embedder(Protocol):
    @property
    def model_tag(self) -> str: ...

    def embed(self, text: str) -> EmbeddingVector: ...

    def embed_many(self, texts: Iterable[str]) -> Iterator[EmbeddingVector]: ...


class HashBagEmbedder:
    """Deterministic offline embedder: tokens hashed into a bag vector.

    Each token increments one coordinate chosen by a stable digest; the
    result is unit-normalized. Identical texts map to identical vectors on
    every platform, which is all the tests and the --mock CLI path need.
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
        from .textproc import tokenize

        slots = self._slots
        vec = np.zeros(self.dim, dtype=np.float64)
        for token in tokenize(text):
            slot = slots.get(token)
            if slot is None:
                if len(slots) >= SLOT_MEMO_SIZE:
                    slots.clear()
                digest = hashlib.sha1(token.encode("utf-8")).digest()
                slot = slots[token] = int.from_bytes(digest[:4], "big") % self.dim
            vec[slot] += 1.0
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            vec[0] = 1.0
            norm = 1.0
        return EmbeddingVector(values=vec / norm, model_tag=self.model_tag)

    def embed_many(self, texts: Iterable[str]) -> Iterator[EmbeddingVector]:
        return map(self.embed, texts)


class HttpEmbedder:
    """Embeddings HTTP client (OpenAI-style request/response shape).

    The hosted model is configuration, not a code dependency; the tag
    recorded on vectors is the configured model name.
    """

    def __init__(
        self,
        endpoint: str,
        model_name: str,
        credentials: str | None = None,
        timeout: float = 60.0,
        session=None,
    ):
        self.endpoint = endpoint
        self.model_name = model_name
        self.credentials = credentials  # environment variable naming the secret
        self.timeout = timeout
        if session is None:
            import requests

            session = requests.Session()
        self.session = session

    @property
    def model_tag(self) -> str:
        return self.model_name

    def embed(self, text: str) -> EmbeddingVector:
        return self._post([text])[0]

    def embed_many(self, texts: Iterable[str]) -> Iterator[EmbeddingVector]:
        """Embeddings of `texts` in order, EMBED_BATCH texts per request."""
        texts = list(texts)
        for start in range(0, len(texts), EMBED_BATCH):
            yield from self._post(texts[start:start + EMBED_BATCH])

    def _post(self, texts: list[str]) -> list[EmbeddingVector]:
        import os

        import requests

        headers = {"Content-Type": "application/json"}
        if self.credentials:
            secret = os.environ.get(self.credentials)
            if not secret:
                raise RetrievalError(f"credential env var {self.credentials!r} is not set")
            headers["Authorization"] = f"Bearer {secret}"
        try:
            response = self.session.post(
                self.endpoint,
                json={"model": self.model_name, "input": texts},
                headers=headers,
                timeout=self.timeout,
            )
        except requests.RequestException as exc:
            raise RetrievalError(f"embedding request failed: {exc}") from exc
        if response.status_code >= 400:
            raise RetrievalError(f"embedding request failed: HTTP {response.status_code}")
        try:
            data = response.json()["data"]
            indices = [item["index"] for item in data]
            rows = [np.array(item["embedding"], dtype=np.float64) for item in data]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise RetrievalError(f"malformed embedding response: {exc}") from exc
        if indices != list(range(len(texts))):
            raise RetrievalError(
                f"embedding response for {len(texts)} texts has indices {indices[:10]}"
            )
        return [EmbeddingVector(values=row, model_tag=self.model_tag) for row in rows]


_NUMBER_TYPES = frozenset({int, float})  # exact types: rejects bools and numeric strings


class EmbeddingStore:
    """Node vectors as one read-only matrix of unit-norm rows, ids in row order.

    A store never changes once built: embed_taxonomy_leaves and load build it.
    """

    def __init__(self, model_tag: str, ids: Sequence[str], matrix: np.ndarray):
        ids = tuple(ids)
        if len(matrix) != len(ids):
            raise RetrievalError(f"{len(matrix)} embedding rows for {len(ids)} nodes")
        self._row = {node_id: row for row, node_id in enumerate(ids)}
        if len(self._row) != len(ids):
            duplicates = sorted(node_id for node_id, n in Counter(ids).items() if n > 1)
            raise RetrievalError(f"duplicate embedding ids: {', '.join(duplicates[:10])}")
        matrix.flags.writeable = False
        self.model_tag = model_tag
        self.ids = ids
        self.matrix = matrix

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
        records = (
            {"node_id": node_id, "model_tag": self.model_tag,
             "vector": self.matrix[self._row[node_id]].tolist()}
            for node_id in sorted(self.ids)
        )
        ndjson.write_records(target, records, RetrievalError, "embedding cache")

    @classmethod
    def load(cls, source: str | Path | IO[str], model_tag: str | None = None) -> "EmbeddingStore":
        ids: list[str] = []
        vectors: list[EmbeddingVector] = []
        for lineno, record in ndjson.read_records(source, RetrievalError, "embedding cache"):
            if not (
                isinstance(record.get("node_id"), str)
                and isinstance(record.get("model_tag"), str)
                and isinstance(record.get("vector"), list)
                and set(map(type, record["vector"])) <= _NUMBER_TYPES
            ):
                raise RetrievalError(
                    f"embedding cache line {lineno}: expected "
                    "{node_id, model_tag, vector: [numbers]}"
                )
            tag = record["model_tag"]
            if model_tag is not None and tag != model_tag:
                raise RetrievalError(
                    f"embedding cache line {lineno}: model_tag {tag!r}, expected {model_tag!r}"
                )
            ids.append(record["node_id"])
            vectors.append(EmbeddingVector(values=np.array(record["vector"]), model_tag=tag))
        # The first line's tag is the store's; _unit_rows rejects any other.
        tag = vectors[0].model_tag if vectors else model_tag or "empty"
        return cls(tag, ids, _unit_rows(tag, ids, vectors))


def _unit_rows(model_tag: str, ids: Sequence[str],
               vectors: Iterable[EmbeddingVector]) -> np.ndarray:
    """A new matrix with each vector normalised into its id's row, checked on the way."""
    matrix = np.empty((0, 0))
    filled = 0
    for node_id, vector in zip(ids, vectors):
        if vector.model_tag != model_tag:
            raise RetrievalError(f"store is {model_tag!r}, got vector for {vector.model_tag!r}")
        if filled == 0:
            matrix = np.empty((len(ids), vector.dim))
        elif vector.dim != matrix.shape[1]:
            raise RetrievalError(f"dimension mismatch: {vector.dim} vs {matrix.shape[1]}")
        norm = float(np.linalg.norm(vector.values))
        if norm == 0.0:
            raise RetrievalError(f"zero-norm embedding for node {node_id!r}")
        np.divide(vector.values, norm, out=matrix[filled])
        filled += 1
    if filled != len(ids):
        raise RetrievalError(f"got {filled} embeddings for {len(ids)} nodes")
    return matrix


def embed_taxonomy_leaves(taxonomy: Taxonomy, embedder: Embedder,
                          cached: EmbeddingStore | None = None) -> EmbeddingStore:
    """Store of every leaf's embedding, rows in ascending leaf-id order.

    A leaf whose id is in `cached` keeps that row bit for bit; only the
    other leaves are embedded, in one embed_many call. Cached rows of ids
    that are no longer leaves are left out.
    """
    leaves = taxonomy.leaf_ids()
    model_tag = embedder.model_tag
    if cached is not None and cached.model_tag != model_tag:
        raise RetrievalError(f"embedding cache is {cached.model_tag!r}, embedder is {model_tag!r}")
    cached_row = {} if cached is None else cached._row
    new = [i for i, leaf_id in enumerate(leaves) if leaf_id not in cached_row]
    new_ids = [leaves[i] for i in new]
    texts = (node_text(taxonomy.node(leaf_id)) for leaf_id in new_ids)
    fresh = _unit_rows(model_tag, new_ids, embedder.embed_many(texts))
    if len(new) == len(leaves):
        return EmbeddingStore(model_tag, leaves, fresh)
    matrix = np.empty((len(leaves), cached.matrix.shape[1]))
    if new:
        if fresh.shape[1] != matrix.shape[1]:
            raise RetrievalError(f"dimension mismatch: {fresh.shape[1]} vs {matrix.shape[1]}")
        matrix[new] = fresh
    kept = [i for i, leaf_id in enumerate(leaves) if leaf_id in cached_row]
    matrix[kept] = cached.matrix[[cached_row[leaves[i]] for i in kept]]
    return EmbeddingStore(model_tag, leaves, matrix)


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

    doc_id: str
    node_ids: frozenset[str]
    leaf_ids: tuple[str, ...]  # retained ranking order
    k: int


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
    query = embedder.embed(document_text(doc)).values
    if query.shape[0] != matrix.shape[1]:
        raise RetrievalError(f"dimension mismatch: {query.shape[0]} vs {matrix.shape[1]}")
    norm = float(np.linalg.norm(query))
    if norm == 0.0:
        raise RetrievalError("cosine similarity undefined for zero-norm vector")
    # einsum, not matrix @ query: that goes to multithreaded BLAS, which costs more CPU here.
    sims = np.einsum("ij,j->i", matrix, query / norm)
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
        node_ids.update(taxonomy.path_to_root(leaf_id))
    return PrunedTaxonomy(
        doc_id=ranking.doc_id, node_ids=frozenset(node_ids), leaf_ids=tuple(top), k=k
    )


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
