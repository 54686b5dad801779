"""Shared test helpers: synthetic taxonomies, documents, scripted providers,
and independent oracle implementations of the mock provider's rule chain.

Oracle helpers deliberately re-implement tokenization, overlap, and the
selection rules from scratch (no taxocat internals) so equivalence tests
compare two independent code paths.
"""
from __future__ import annotations

import json
import random
import re
from collections import defaultdict

import numpy as np

from taxocat.documents import Document
from taxocat.gateway import DEFAULT_OVERLAP_THRESHOLD, mock_complete, mock_gateway
from taxocat.retrieval import HashBagEmbedder, RetrievalError
from taxocat.taxonomy import Taxonomy, TaxonomyNode

VOCAB = [
    "auction", "bargaining", "climate", "credit", "dynamics", "ecology",
    "equilibrium", "finance", "governance", "inference", "labor", "liquidity",
    "markets", "networks", "optimization", "pricing", "regulation", "risk",
    "taxation", "welfare",
]


def make_doc(doc_id: str, title: str, keywords=(), abstract: str = "") -> Document:
    return Document(doc_id=doc_id, title=title, keywords=tuple(keywords), abstract=abstract)


def ternary_taxonomy(with_descriptions: bool = True) -> Taxonomy:
    """3 top-level nodes x 3 mid nodes x 3 leaves = 27 leaves, depth 3."""
    nodes = []
    word = 0

    def next_words(n):
        nonlocal word
        out = [VOCAB[(word + i) % len(VOCAB)] for i in range(n)]
        word += n
        return out

    for r in range(3):
        rid = f"t{r}"
        nodes.append(TaxonomyNode(id=rid, name=" ".join(next_words(2)),
                                  description="studies of " + " ".join(next_words(1))
                                  if with_descriptions else None))
        for m in range(3):
            mid = f"t{r}m{m}"
            nodes.append(TaxonomyNode(id=mid, name=" ".join(next_words(2)), parent_id=rid,
                                      description=" ".join(next_words(2))
                                      if with_descriptions and m % 2 == 0 else None))
            for l in range(3):
                lid = f"t{r}m{m}l{l}"
                nodes.append(TaxonomyNode(id=lid, name=" ".join(next_words(2)), parent_id=mid,
                                          description=" ".join(next_words(2))
                                          if with_descriptions and l % 2 == 0 else None))
    return Taxonomy(nodes)


def vocab_doc(rng: random.Random, doc_id: str) -> Document:
    """Small document over the shared vocabulary so mock overlaps vary."""
    title = " ".join(rng.choice(VOCAB) for _ in range(rng.randint(2, 4)))
    keywords = tuple(rng.choice(VOCAB) for _ in range(rng.randint(0, 3)))
    abstract = " ".join(rng.choice(VOCAB) for _ in range(rng.randint(0, 6)))
    return Document(doc_id=doc_id, title=title, keywords=keywords, abstract=abstract)


def random_forest(rng: random.Random, n_nodes: int, max_depth: int = 9) -> Taxonomy:
    """Random forest of n_nodes; parents drawn among shallower earlier nodes."""
    assert n_nodes >= 1
    n_roots = rng.randint(1, max(1, n_nodes // 10))
    nodes = []
    depths = []
    for i in range(n_nodes):
        nid = f"n{i:05d}"
        if i < n_roots:
            parent, depth = None, 1
        else:
            while True:
                j = rng.randrange(i)
                if depths[j] < max_depth:
                    break
            parent, depth = f"n{j:05d}", depths[j] + 1
        depths.append(depth)
        name = f"{rng.choice(VOCAB)} {rng.choice(VOCAB)} {i}"
        description = " ".join(rng.choice(VOCAB) for _ in range(3)) if rng.random() < 0.4 else None
        nodes.append(TaxonomyNode(id=nid, name=name, description=description, parent_id=parent))
    return Taxonomy(nodes)


# -- similarity oracle -----------------------------------------------------------


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """dot(a, b) / (||a|| * ||b||), clipped to [-1, 1]: the per-pair reference."""
    if a.shape != b.shape:
        raise RetrievalError(f"dimension mismatch: {a.shape} vs {b.shape}")
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        raise RetrievalError("cosine similarity undefined for zero-norm vector")
    sim = float(np.dot(a, b) / (norm_a * norm_b))
    return max(-1.0, min(1.0, sim))


class CountingEmbedder(HashBagEmbedder):
    """Hash-bag embedder that records each embed_many call and its texts."""

    def __init__(self, dim: int = 256):
        super().__init__(dim)
        self.batches: list[list[str]] = []

    def embed_many(self, texts):
        self.batches.append(list(texts))
        return super().embed_many(self.batches[-1])


class ProjectionEmbedder:
    """Dense, non-integer embedder: a text's hash-bag counts times a seeded
    Gaussian matrix. Rows are projected one at a time, so a text's vector
    does not depend on the other texts of its call."""

    def __init__(self, dim: int = 48):
        self.bag = HashBagEmbedder(128)
        self.projection = np.random.default_rng(0).standard_normal((128, dim))
        self.model_tag = f"projection-{dim}"

    def embed_many(self, texts):
        rows = [counts @ self.projection for counts in self.bag.embed_many(texts)]
        return np.array(rows).reshape(len(texts), self.projection.shape[1])


# -- scripted providers --------------------------------------------------------


class RecordingMockProvider:
    """The mock provider's replies, keeping every PromptSpec for transcript checks."""

    def __init__(self, threshold: float = DEFAULT_OVERLAP_THRESHOLD):
        self.threshold = threshold
        self.calls: list = []

    def complete(self, spec, reminder=None):
        self.calls.append(spec)
        return mock_complete(spec, self.threshold)


def recording_mock_gateway(threshold: float = DEFAULT_OVERLAP_THRESHOLD, audit_log=None):
    """A mock_gateway whose provider is a RecordingMockProvider."""
    gateway = mock_gateway(threshold=threshold, audit_log=audit_log)
    gateway.provider = RecordingMockProvider(threshold)
    return gateway


def ask_in_order(gateway, specs) -> list:
    """call_with_retry for every spec at once, through one call group; the
    replies in spec order, so the first failure in spec order is raised."""
    with gateway.group() as calls:
        futures = [calls.submit(spec) for spec in specs]
        return [future.result() for future in futures]


def record_cli_gateways(monkeypatch) -> list:
    """Make the CLI's --mock gateways record their prompts; returns them as they are built."""
    from taxocat import cli

    gateways: list = []

    def build(**kwargs):
        gateways.append(recording_mock_gateway(**kwargs))
        return gateways[-1]

    monkeypatch.setattr(cli.gw, "mock_gateway", build)
    return gateways


class ScriptedProvider:
    """Serves queued raw responses; the last one repeats when exhausted."""

    def __init__(self, *responses: str):
        assert responses
        self._queue = list(responses)
        self.calls: list[tuple] = []

    def complete(self, spec, reminder=None):
        self.calls.append((spec, reminder))
        if len(self._queue) > 1:
            return self._queue.pop(0)
        return self._queue[0]


class TableProvider:
    """Rerank provider answering from a fixed node-id -> score table.

    A call that carries any node id in `fail_ids` raises an `error` (a
    ProviderError class; TransportError by default) instead, so a test
    picks the failing call by its payload, not by call order.
    """

    def __init__(self, table: dict[str, float], fail_ids=(), error=None):
        from taxocat.gateway import TransportError

        self.table = table
        self.calls: list = []
        self.fail_ids = frozenset(fail_ids)
        self.error = error or TransportError

    def complete(self, spec, reminder=None):
        self.calls.append(spec)
        ids = [n["id"] for n in spec.user_payload["nodes"]]
        if self.fail_ids.intersection(ids):
            raise self.error("scripted failure")
        return json.dumps({"scores": [[nid, self.table[nid]] for nid in ids if nid in self.table]})


# -- independent mock-rule oracles ------------------------------------------------

_O_TOKEN = re.compile(r"[a-z0-9]+")


def o_tokens(text: str) -> set[str]:
    return set(_O_TOKEN.findall(text.lower()))


def o_jaccard(a: set[str], b: set[str]) -> float:
    if not a and not b:
        return 0.0
    return len(a & b) / len(a | b)


def o_doc_tokens(doc: Document) -> set[str]:
    return o_tokens(" ".join([doc.title, *doc.keywords, doc.abstract]))


def o_node_tokens(node: TaxonomyNode, include_description: bool = True) -> set[str]:
    text = node.name
    if include_description and node.description:
        words = node.description.split()[:60]
        text += " " + " ".join(words)
    return o_tokens(text)


def o_overlap(doc: Document, node: TaxonomyNode, include_description: bool = True) -> float:
    return o_jaccard(o_doc_tokens(doc), o_node_tokens(node, include_description))


def o_relevancy(overlap: float) -> float:
    return min(1.00, max(0.01, round(overlap, 2)))


def oracle_trav_select(doc: Document, taxonomy: Taxonomy, threshold: float) -> list[str]:
    """Brute-force replay of the traversal rule chain under the mock."""
    children = defaultdict(list)
    roots = []
    for node in taxonomy:
        if node.parent_id is None:
            roots.append(node.id)
        else:
            children[node.parent_id].append(node.id)
    for kids in children.values():
        kids.sort()
    frontier = sorted(roots)
    selected: list[str] = []
    while frontier:
        chosen = [nid for nid in frontier
                  if o_overlap(doc, taxonomy.node(nid)) >= threshold]
        nxt: list[str] = []
        for nid in chosen:
            if children[nid]:
                nxt.extend(children[nid])
            elif nid not in selected:
                selected.append(nid)
        frontier = nxt
    return selected


def oracle_one_pass(doc: Document, taxonomy: Taxonomy, pt, threshold: float) -> set[str]:
    return {
        lid for lid in pt.leaf_ids
        if o_overlap(doc, taxonomy.node(lid)) >= threshold
    }


def oracle_pointwise(doc: Document, taxonomy: Taxonomy, pt, threshold: float,
                     label_range=(1, 5)) -> list[str]:
    """Brute-force replay of the pointwise rule chain, backfill included."""
    leaf_fit = {lid: o_overlap(doc, taxonomy.node(lid)) >= threshold for lid in pt.leaf_ids}
    parent_fit: dict[str, bool] = {}
    parent_rel: dict[str, float] = {}
    for lid in pt.leaf_ids:
        pid = taxonomy.node(lid).parent_id
        if leaf_fit[lid] and pid is not None and pid not in parent_fit:
            overlap = o_overlap(doc, taxonomy.node(pid))
            parent_fit[pid] = overlap >= threshold
            parent_rel[pid] = o_relevancy(overlap)
    survivors = []
    for lid in pt.leaf_ids:
        if not leaf_fit[lid]:
            continue
        pid = taxonomy.node(lid).parent_id
        if pid is not None and not parent_fit[pid]:
            continue
        survivors.append(lid)
    min_labels = label_range[0]
    if len(survivors) >= min_labels:
        return survivors
    index = {lid: i for i, lid in enumerate(pt.leaf_ids)}
    rejected_at_parent = sorted(
        (lid for lid in pt.leaf_ids
         if lid not in survivors and leaf_fit[lid]
         and taxonomy.node(lid).parent_id in parent_fit),
        key=lambda lid: (-parent_rel[taxonomy.node(lid).parent_id], index[lid]),
    )
    result = list(survivors)
    for lid in rejected_at_parent:
        if len(result) >= min_labels:
            break
        result.append(lid)
    for lid in pt.leaf_ids:
        if len(result) >= min_labels:
            break
        if lid not in result:
            result.append(lid)
    return result


def o_pruned_tree(taxonomy: Taxonomy, node_ids) -> list[tuple[str, int, bool]]:
    """(id, depth, is_leaf) of each kept node, by the recursive depth-first walk
    the one-pass tree was first drawn with: tops (kept nodes whose parent is not
    kept) in id order, and under each node its kept children in taxonomy order."""
    out: list[tuple[str, int, bool]] = []

    def visit(node_id: str, depth: int) -> None:
        out.append((node_id, depth, taxonomy.is_leaf(node_id)))
        for child in taxonomy.children(node_id):
            if child in node_ids:
                visit(child, depth + 1)

    tops = sorted(nid for nid in node_ids
                  if taxonomy.node(nid).parent_id is None
                  or taxonomy.node(nid).parent_id not in node_ids)
    for top in tops:
        visit(top, 0)
    return out


def write_ndjson(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
