"""Seeded generator for the benchmark's taxonomy forest and document batches.

Everything is derived from one integer seed, so the same seed always
writes byte-identical files. The program under test only ever sees the
written files.

Forest shape: a fixed number of nodes per level and a fixed number of
parents per level, so every seed yields the same node, leaf and parent
counts; only the wiring and the words change. Node text shares vocabulary
along root paths (a node's description reuses the distinctive words of
its nearest ancestors), which makes the bi-encoder ranking and the mock
provider's overlap rule behave like a topical taxonomy.

Documents are written about one "focus" node: its text, the text of a few
described leaves below it and of their parents, plus generic academic
filler. Word counts stay inside the advisory ranges in
``taxocat.documents``. Per-batch properties (focus level with source-leaf
count, abstract length) are stratified rather than drawn independently,
and the batch's total abstract length is fixed, so batch averages move
little from one seed to the next.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

GENERIC = (
    "analysis", "approach", "assess", "based", "context", "data", "effects",
    "empirical", "evidence", "examine", "findings", "framework", "impact",
    "implications", "including", "literature", "method", "model", "outcomes",
    "policy", "practice", "results", "role", "sample", "show", "studies",
    "study", "theory", "within", "work",
)
_ONSETS = ("b", "c", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
           "br", "cl", "dr", "fr", "gr", "pl", "st", "tr")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "io", "ou")
_CODAS = ("", "", "n", "r", "s", "l", "m", "x", "nd", "st")


@dataclass(frozen=True)
class Node:
    id: str
    name: str
    description: str | None
    parent_id: str | None
    level: int
    own: tuple[str, ...]  # distinctive words, inherited by descendants' text


def _vocabulary(rng: random.Random, size: int) -> list[str]:
    words: set[str] = set()
    while len(words) < size:
        syllables = rng.choice((2, 2, 3))
        word = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(syllables))
        words.add(word + rng.choice(_CODAS))
    return sorted(words)


def _wire_levels(rng: random.Random, level_sizes: Sequence[int],
                 parent_counts: Sequence[int]) -> list[list[int]]:
    """For each level below the first, the index of each node's parent one level up.

    Exactly parent_counts[i] nodes of level i receive children, so leaf
    counts do not depend on the seed.
    """
    wiring = []
    for upper, (n_upper, n_lower) in enumerate(zip(level_sizes, level_sizes[1:])):
        n_parents = parent_counts[upper]
        if not 1 <= n_parents <= min(n_upper, n_lower):
            raise ValueError(f"level {upper + 1}: bad parent count {n_parents}")
        parents = rng.sample(range(n_upper), n_parents)
        assigned = parents + [rng.choice(parents) for _ in range(n_lower - n_parents)]
        rng.shuffle(assigned)
        wiring.append(assigned)
    return wiring


def generate_forest(rng: random.Random, spec: Mapping[str, Any]) -> list[Node]:
    level_sizes = spec["level_sizes"]
    wiring = _wire_levels(rng, level_sizes, spec["parent_counts"])
    vocab = _vocabulary(rng, spec["vocabulary"])
    nodes: list[Node] = []
    by_level: list[list[Node]] = []
    serial = 0
    for level, size in enumerate(level_sizes, start=1):
        row = []
        for i in range(size):
            parent = by_level[-1][wiring[level - 2][i]] if level > 1 else None
            ancestors = []
            up = parent
            while up is not None and len(ancestors) < spec["description_ancestors"]:
                ancestors.append(up)
                up = _parent(nodes, up)
            own = tuple(rng.sample(vocab, 3))
            name_words = ([parent.own[0]] if parent else []) + list(own[:2])
            description = None
            if rng.random() < spec["description_share"]:
                words = list(own) + rng.sample(vocab, spec["description_extra_words"])
                for ancestor in ancestors:
                    words += ancestor.own
                words += rng.sample(GENERIC, spec["description_generic_words"])
                rng.shuffle(words)
                description = " ".join(words).capitalize() + "."
            node = Node(
                id=f"n{serial:05d}",
                name=" ".join(w.capitalize() for w in name_words),
                description=description,
                parent_id=parent.id if parent else None,
                level=level,
                own=own,
            )
            serial += 1
            row.append(node)
            nodes.append(node)
        by_level.append(row)
    return nodes


def _parent(nodes: Sequence[Node], node: Node | None) -> Node | None:
    if node is None or node.parent_id is None:
        return None
    return nodes[int(node.parent_id[1:])]


def _node_words(node: Node) -> list[str]:
    text = node.name + " " + (node.description or "")
    return [w.strip(".,").lower() for w in text.split()]


def _stratified(rng: random.Random, n: int, values: Sequence[Any]) -> list[Any]:
    """n values cycling through `values`, in seeded order."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def _abstract_lengths(body_chars: Sequence[int], jitter: Sequence[float],
                      total: int) -> list[int]:
    """Per-document abstract lengths max(body, scale * jitter) summing to about `total`.

    Fixing the batch's total abstract characters keeps prompt sizes, and
    so the LLM character counts, nearly the same from one seed to the next.
    """
    lo, hi = 0.0, float(total)
    for _ in range(50):
        scale = (lo + hi) / 2
        if sum(max(b, int(scale * j)) for b, j in zip(body_chars, jitter)) < total:
            lo = scale
        else:
            hi = scale
    return [max(b, int(hi * j)) for b, j in zip(body_chars, jitter)]


def generate_documents(rng: random.Random, nodes: Sequence[Node], n_docs: int,
                       spec: Mapping[str, Any]) -> list[dict[str, Any]]:
    children: dict[str, list[Node]] = {}
    for node in nodes:
        if node.parent_id is not None:
            children.setdefault(node.parent_id, []).append(node)

    def described_leaves(node: Node) -> list[Node]:
        kids = children.get(node.id)
        if not kids:
            return [node] if node.description else []
        return [leaf for kid in kids for leaf in described_leaves(kid)]

    below = {n.id: described_leaves(n) for n in nodes if n.level in
             {level for level, _ in spec["strata"]}}
    pools = {
        (level, n_sources): [n for n in nodes if n.level == level
                             and len(below.get(n.id, ())) >= n_sources]
        for level, n_sources in spec["strata"]
    }
    strata = _stratified(rng, n_docs, [tuple(s) for s in spec["strata"]])
    jitter = _stratified(rng, n_docs, [0.6 + 0.8 * (2 * i + 1) / (2 * n_docs)
                                       for i in range(n_docs)])

    drafts = []
    for i in range(n_docs):
        focus = rng.choice(pools[strata[i]])
        sources = rng.sample(below[focus.id], strata[i][1])
        context = [focus] + sorted({_parent(nodes, s) for s in sources
                                    if s.parent_id not in (None, focus.id)},
                                   key=lambda n: n.id)
        body: list[str] = []
        for node in context + sources:
            body += _node_words(node)
        title = [rng.choice(GENERIC).capitalize(), "of"] + focus.name.split()
        for source in sources[:1 + i % 2]:
            title += ["and"] + source.name.split()
        keywords = [" ".join(s.own[:2]) for s in sources[:4]]
        drafts.append((title, keywords, body))

    lengths = _abstract_lengths([len(" ".join(body)) for _, _, body in drafts], jitter,
                                spec["abstract_mean_chars"] * n_docs)
    max_words = spec["abstract_max_words"]  # inside the advisory range of taxocat.documents
    docs = []
    for i, ((title, keywords, body), length) in enumerate(zip(drafts, lengths)):
        filler = rng.sample(GENERIC, spec["doc_generic_words"])
        abstract = body[:max_words]
        chars = len(" ".join(abstract))
        while chars < length and len(abstract) < max_words:
            abstract.append(rng.choice(body + filler))
            chars += 1 + len(abstract[-1])
        docs.append({
            "doc_id": f"doc{i:04d}",
            "title": " ".join(title),
            "keywords": keywords,
            "abstract": " ".join(abstract).capitalize() + ".",
        })
    return docs


def write_inputs(seed: int, forest_spec: Mapping[str, Any], docs_spec: Mapping[str, Any],
                 n_docs: int, workdir: Path) -> tuple[Path, Path]:
    """Write taxonomy.jsonl and documents.jsonl for one seed; returns both paths."""
    rng = random.Random(seed)
    nodes = generate_forest(rng, forest_spec)
    docs = generate_documents(random.Random(f"docs:{seed}:{n_docs}"), nodes, n_docs, docs_spec)
    workdir.mkdir(parents=True, exist_ok=True)
    taxonomy_path = workdir / "taxonomy.jsonl"
    documents_path = workdir / "documents.jsonl"
    with taxonomy_path.open("w", encoding="utf-8") as fh:
        for node in nodes:
            record: dict[str, Any] = {"id": node.id, "name": node.name}
            if node.description is not None:
                record["description"] = node.description
            if node.parent_id is not None:
                record["parent_id"] = node.parent_id
            fh.write(json.dumps(record) + "\n")
    with documents_path.open("w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps(doc) + "\n")
    return taxonomy_path, documents_path
