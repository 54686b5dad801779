"""Embedding-based leaf ranking and pruned-taxonomy construction.

Leaf nodes are embedded once per taxonomy version (name plus description),
documents on the fly; cosine similarity ranks all leaves and the top-k
leaves plus their root paths form the pruned taxonomy handed to the LLM
strategies. All vectors are unit-normalized at ingest so similarity is a
dot product.
"""
from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Mapping, Protocol, Sequence

import numpy as np

from .documents import Document, document_text
from .taxonomy import Taxonomy, TaxonomyNode


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


def cosine_similarity(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """dot(a, b) / (||a|| * ||b||), clipped to [-1, 1] against float drift."""
    if a.model_tag != b.model_tag:
        raise RetrievalError(f"model_tag mismatch: {a.model_tag!r} vs {b.model_tag!r}")
    if a.dim != b.dim:
        raise RetrievalError(f"dimension mismatch: {a.dim} vs {b.dim}")
    norm_a = float(np.linalg.norm(a.values))
    norm_b = float(np.linalg.norm(b.values))
    if norm_a == 0.0 or norm_b == 0.0:
        raise RetrievalError("cosine similarity undefined for zero-norm vector")
    sim = float(np.dot(a.values, b.values) / (norm_a * norm_b))
    return max(-1.0, min(1.0, sim))


def node_text(node: TaxonomyNode) -> str:
    """Text a node is embedded as: name, plus ': description' when present."""
    if node.description:
        return f"{node.name}: {node.description}"
    return node.name


class Embedder(Protocol):
    @property
    def model_tag(self) -> str: ...

    def embed(self, text: str) -> EmbeddingVector: ...


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

    @property
    def model_tag(self) -> str:
        return f"hash-bag-{self.dim}"

    def embed(self, text: str) -> EmbeddingVector:
        from .textproc import tokenize

        vec = np.zeros(self.dim, dtype=np.float64)
        for token in tokenize(text):
            digest = hashlib.sha1(token.encode("utf-8")).digest()
            vec[int.from_bytes(digest[:4], "big") % self.dim] += 1.0
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            vec[0] = 1.0
            norm = 1.0
        return EmbeddingVector(values=vec / norm, model_tag=self.model_tag)


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
                json={"model": self.model_name, "input": [text]},
                headers=headers,
                timeout=self.timeout,
            )
        except requests.RequestException as exc:
            raise RetrievalError(f"embedding request failed: {exc}") from exc
        if response.status_code >= 400:
            raise RetrievalError(f"embedding request failed: HTTP {response.status_code}")
        try:
            values = response.json()["data"][0]["embedding"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise RetrievalError(f"malformed embedding response: {exc}") from exc
        return EmbeddingVector(values=np.array(values, dtype=np.float64), model_tag=self.model_tag)


_NUMBER_TYPES = frozenset({int, float})  # exact types: rejects bools and numeric strings


class EmbeddingStore:
    """Node-id keyed vector store; concurrent reads, exclusive batch writes."""

    def __init__(self, model_tag: str):
        self.model_tag = model_tag
        self._vectors: dict[str, np.ndarray] = {}
        self._write_lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._vectors)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._vectors

    def get(self, node_id: str) -> EmbeddingVector:
        try:
            values = self._vectors[node_id]
        except KeyError:
            raise IndexIncompleteError([node_id]) from None
        return EmbeddingVector(values=values, model_tag=self.model_tag)

    def add_batch(self, items: Iterable[tuple[str, EmbeddingVector]]) -> None:
        staged = {}
        for node_id, vector in items:
            if vector.model_tag != self.model_tag:
                raise RetrievalError(
                    f"store is {self.model_tag!r}, got vector for {vector.model_tag!r}"
                )
            norm = float(np.linalg.norm(vector.values))
            if norm == 0.0:
                raise RetrievalError(f"zero-norm embedding for node {node_id!r}")
            staged[node_id] = vector.values / norm
        with self._write_lock:
            self._vectors.update(staged)

    def save(self, target: str | Path | IO[str]) -> None:
        def _write(fh: IO[str]) -> None:
            for node_id in sorted(self._vectors):
                record = {
                    "node_id": node_id,
                    "model_tag": self.model_tag,
                    "vector": [float(x) for x in self._vectors[node_id]],
                }
                fh.write(json.dumps(record) + "\n")

        if isinstance(target, (str, Path)):
            with Path(target).open("w", encoding="utf-8") as fh:
                _write(fh)
        else:
            _write(target)

    @classmethod
    def load(cls, source: str | Path | IO[str], model_tag: str | None = None) -> "EmbeddingStore":
        if isinstance(source, (str, Path)):
            with Path(source).open("r", encoding="utf-8") as fh:
                lines = fh.readlines()
        else:
            lines = source.readlines()
        store: EmbeddingStore | None = None
        batch = []
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise RetrievalError(f"embedding cache line {lineno}: invalid JSON") from exc
            if not (
                isinstance(record, dict)
                and isinstance(record.get("node_id"), str)
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
            if store is None:
                store = cls(model_tag=tag)
            batch.append(
                (record["node_id"], EmbeddingVector(values=np.array(record["vector"]), model_tag=tag))
            )
        if store is None:
            store = cls(model_tag=model_tag or "empty")
        store.add_batch(batch)
        return store


def embed_taxonomy_leaves(taxonomy: Taxonomy, embedder: Embedder) -> EmbeddingStore:
    store = EmbeddingStore(model_tag=embedder.model_tag)
    store.add_batch(
        (leaf_id, embedder.embed(node_text(taxonomy.node(leaf_id))))
        for leaf_id in taxonomy.leaf_ids()
    )
    return store


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
) -> LeafRanking:
    """Rank every taxonomy leaf by cosine similarity to the document content.

    Ties break by ascending node id so rankings are reproducible across
    runs and platforms.
    """
    if embedder.model_tag != store.model_tag:
        raise RetrievalError(
            f"embedder is {embedder.model_tag!r} but store is {store.model_tag!r}"
        )
    leaves = taxonomy.leaf_ids()
    missing = [leaf_id for leaf_id in leaves if leaf_id not in store]
    if missing:
        raise IndexIncompleteError(missing)
    doc_vec = embedder.embed(document_text(doc))
    scored = [(leaf_id, cosine_similarity(doc_vec, store.get(leaf_id))) for leaf_id in leaves]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return LeafRanking(doc_id=doc.doc_id, entries=tuple(scored))


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
    if isinstance(source, (str, Path)):
        with Path(source).open("r", encoding="utf-8") as fh:
            lines = fh.readlines()
    else:
        lines = source.readlines()
    gold: dict[str, frozenset[str]] = {}
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise RetrievalError(f"gold file line {lineno}: invalid JSON") from exc
        if not (
            isinstance(record, dict)
            and isinstance(record.get("doc_id"), str)
            and isinstance(record.get("gold"), list)
            and all(isinstance(label, str) for label in record["gold"])
        ):
            raise RetrievalError(f"gold file line {lineno}: expected {{doc_id, gold: [leaf ids]}}")
        doc_id = record["doc_id"]
        if doc_id in gold:
            raise RetrievalError(f"gold file line {lineno}: duplicate doc_id {doc_id!r}")
        gold[doc_id] = frozenset(record["gold"])
    return gold
