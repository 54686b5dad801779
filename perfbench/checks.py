"""Output checks for one classification batch."""
from __future__ import annotations

import json
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from taxocat.documents import Document, document_text
from taxocat.retrieval import Embedder, EmbeddingStore
from taxocat.taxonomy import Taxonomy

# Leaves this close to the k-th best similarity count as inside the top k.
TIE_TOLERANCE = 1e-9


def top_k_leaves(docs: Iterable[Document], taxonomy: Taxonomy, store: EmbeddingStore,
                 embedder: Embedder, k: int) -> dict[str, frozenset[str]]:
    """Each document's top-k leaves by cosine similarity, ties at k-th place included.

    Computed independently of ``retrieval.rank_leaves``, with one matrix
    product per document. Its float rounding can differ from the
    program's, so leaves within TIE_TOLERANCE of the k-th best similarity
    count as inside.
    """
    leaves = taxonomy.leaf_ids()
    matrix = np.stack([store.get(leaf_id).values for leaf_id in leaves])
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    out = {}
    for doc in docs:
        query = embedder.embed(document_text(doc)).values
        sims = matrix @ (query / np.linalg.norm(query))
        kth = np.partition(sims, len(sims) - k)[len(sims) - k] if k < len(sims) else sims.min()
        inside = sims >= kth - TIE_TOLERANCE
        out[doc.doc_id] = frozenset(leaf for leaf, keep in zip(leaves, inside) if keep)
    return out


def check_output(raw: bytes, doc_ids: Sequence[str], taxonomy: Taxonomy, max_labels: int,
                 allowed: Mapping[str, frozenset[str]] | None = None,
                 ) -> tuple[list[dict[str, Any]], list[str]]:
    """Parse an output file and return (records, problems).

    Every line must parse as a JSON object; records follow input order;
    labels are distinct taxonomy leaves, at most max_labels of them and,
    when `allowed` is given, inside that document's top-k leaves.
    """
    problems: list[str] = []
    records: list[dict[str, Any]] = []
    try:
        lines = raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        return [], [f"output is not UTF-8: {exc}"]
    if len(lines) != len(doc_ids):
        problems.append(f"{len(lines)} records for {len(doc_ids)} documents")
    for i, line in enumerate(lines):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"record {i}: invalid JSON ({exc.msg})")
            continue
        if not isinstance(record, dict):
            problems.append(f"record {i}: not a JSON object")
            continue
        records.append(record)
        doc_id = record.get("doc_id")
        if i < len(doc_ids) and doc_id != doc_ids[i]:
            problems.append(f"record {i}: doc_id {doc_id!r}, expected {doc_ids[i]!r}")
            continue
        labels = record.get("labels")
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            problems.append(f"{doc_id}: labels must be a list of ids")
            continue
        if len(set(labels)) != len(labels):
            problems.append(f"{doc_id}: duplicate labels")
        if len(labels) > max_labels:
            problems.append(f"{doc_id}: {len(labels)} labels, max {max_labels}")
        for label in labels:
            if label not in taxonomy or not taxonomy.is_leaf(label):
                problems.append(f"{doc_id}: {label!r} is not a taxonomy leaf")
            elif allowed is not None and label not in allowed.get(doc_id, ()):
                problems.append(f"{doc_id}: {label!r} is outside the document's top-k")
    return records, problems
