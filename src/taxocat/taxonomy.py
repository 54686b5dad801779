"""Hierarchical label taxonomy: loading, validation, enrichment, and queries.

The taxonomy is a forest of named nodes (multiple top-level roots are
allowed). Leaves are the only assignable labels. Instances are immutable
after construction; enrichment operations return new Taxonomy values so
runs stay auditable and re-runnable.

Depth convention: top-level nodes sit at depth 1.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping

from . import ndjson


class TaxonomyError(Exception):
    """Base class for taxonomy loading and validation failures."""


class TaxonomyParseError(TaxonomyError):
    """A taxonomy or acronym file could not be read, or a record in it parsed."""


class TaxonomyIntegrityError(TaxonomyError):
    """Structural invariant violated: duplicate id, dangling parent, or cycle."""


@dataclass(frozen=True)
class TaxonomyNode:
    id: str
    name: str
    description: str | None = None
    parent_id: str | None = None
    acronym_expanded: bool = False


@dataclass(frozen=True)
class HierarchyStats:
    leaf_count: int
    parent_count: int
    max_children: int
    avg_children: float
    max_leaf_depth: int
    avg_leaf_depth: float


class Taxonomy:
    """Validated, immutable forest of TaxonomyNodes with parent/child indexes."""

    def __init__(self, nodes: Iterable[TaxonomyNode]):
        self._nodes: dict[str, TaxonomyNode] = {}
        for node in nodes:
            if node.id in self._nodes:
                raise TaxonomyIntegrityError(f"duplicate node id: {node.id!r}")
            if not node.name.strip():
                raise TaxonomyIntegrityError(f"node {node.id!r} has an empty name")
            self._nodes[node.id] = node

        children: dict[str, list[str]] = {nid: [] for nid in self._nodes}
        self._roots: list[str] = []
        for node in self._nodes.values():
            if node.parent_id is None:
                self._roots.append(node.id)
            else:
                if node.parent_id not in self._nodes:
                    raise TaxonomyIntegrityError(
                        f"node {node.id!r} references missing parent {node.parent_id!r}"
                    )
                children[node.parent_id].append(node.id)
        self._roots.sort()
        self._children = {nid: tuple(sorted(kids)) for nid, kids in children.items()}
        self._leaf_ids = tuple(nid for nid in sorted(self._nodes) if not self._children[nid])

        self._depth = self._compute_depths()

    def _compute_depths(self) -> dict[str, int]:
        depths: dict[str, int] = {}
        for nid in self._nodes:
            if nid in depths:
                continue
            chain = []
            cur: str | None = nid
            seen: set[str] = set()
            while cur is not None and cur not in depths:
                if cur in seen:
                    cycle = sorted(seen)
                    raise TaxonomyIntegrityError(
                        f"cycle in parent links involving nodes: {', '.join(cycle)}"
                    )
                seen.add(cur)
                chain.append(cur)
                cur = self._nodes[cur].parent_id
            base = 0 if cur is None else depths[cur]
            for node_id in reversed(chain):
                base += 1
                depths[node_id] = base
        return depths

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[TaxonomyNode]:
        return iter(self._nodes.values())

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def node(self, node_id: str) -> TaxonomyNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise KeyError(f"unknown node id: {node_id!r}") from None

    @property
    def roots(self) -> tuple[str, ...]:
        return tuple(self._roots)

    def children(self, node_id: str) -> tuple[str, ...]:
        """Child ids in ascending order: the taxonomy's own tuple, not a copy."""
        try:
            return self._children[node_id]
        except KeyError:
            raise KeyError(f"unknown node id: {node_id!r}") from None

    def is_leaf(self, node_id: str) -> bool:
        return not self.children(node_id)

    def leaf_ids(self) -> tuple[str, ...]:
        """Leaf ids in ascending order."""
        return self._leaf_ids

    def depth(self, node_id: str) -> int:
        self.node(node_id)
        return self._depth[node_id]

    def path_to_root(self, node_id: str) -> list[str]:
        """Node ids from the given node up to its top-level ancestor, inclusive."""
        path = [self.node(node_id).id]
        while True:
            parent = self._nodes[path[-1]].parent_id
            if parent is None:
                return path
            path.append(parent)

    def with_nodes(self, replacements: Iterable[TaxonomyNode]) -> "Taxonomy":
        """New Taxonomy with the given nodes substituted by id."""
        merged = dict(self._nodes)
        for node in replacements:
            if node.id not in merged:
                raise KeyError(f"unknown node id: {node.id!r}")
            merged[node.id] = node
        return Taxonomy(merged.values())


# -- statistics ------------------------------------------------------------


def hierarchy_stats(taxonomy: Taxonomy) -> HierarchyStats:
    """Counts and averages over the whole forest (averages over parents / leaves only)."""
    leaf_depths = []
    child_counts = []
    for node in taxonomy:
        kids = taxonomy.children(node.id)
        if kids:
            child_counts.append(len(kids))
        else:
            leaf_depths.append(taxonomy.depth(node.id))
    return HierarchyStats(
        leaf_count=len(leaf_depths),
        parent_count=len(child_counts),
        max_children=max(child_counts, default=0),
        avg_children=sum(child_counts) / len(child_counts) if child_counts else 0.0,
        max_leaf_depth=max(leaf_depths, default=0),
        avg_leaf_depth=sum(leaf_depths) / len(leaf_depths) if leaf_depths else 0.0,
    )


# -- file format -----------------------------------------------------------
# One JSON object per line: {"id", "name", "description"?, "parent_id"?}.
# "acronym_expanded" is written only when true so enrichment round-trips.


def load_taxonomy(source: str | Path | IO[str]) -> Taxonomy:
    nodes = []
    for lineno, record in ndjson.read_records(source, TaxonomyParseError, "taxonomy"):
        where = f"taxonomy line {lineno}"
        try:
            node_id = record["id"]
            name = record["name"]
        except KeyError as exc:
            raise TaxonomyParseError(f"{where}: missing field {exc.args[0]!r}") from None
        if not isinstance(node_id, str) or not node_id:
            raise TaxonomyParseError(f"{where}: 'id' must be a non-empty string")
        if not isinstance(name, str) or not name.strip():
            raise TaxonomyParseError(f"{where}: 'name' must be a non-empty string")
        description = record.get("description")
        if description is not None and not isinstance(description, str):
            raise TaxonomyParseError(f"{where}: 'description' must be a string")
        parent_id = record.get("parent_id")
        if parent_id is not None and (not isinstance(parent_id, str) or not parent_id):
            raise TaxonomyParseError(f"{where}: 'parent_id' must be a non-empty string")
        for key, value in (("id", node_id), ("parent_id", parent_id)):
            if value is not None and value.split() != [value]:
                raise TaxonomyParseError(f"{where}: {key!r} must not contain whitespace")
        acronym_expanded = record.get("acronym_expanded", False)
        if not isinstance(acronym_expanded, bool):
            raise TaxonomyParseError(f"{where}: 'acronym_expanded' must be true or false")
        nodes.append(TaxonomyNode(
            id=node_id, name=name, description=description, parent_id=parent_id,
            acronym_expanded=acronym_expanded,
        ))
    return Taxonomy(nodes)


def save_taxonomy(taxonomy: Taxonomy, target: str | Path | IO[str]) -> None:
    records = ({key: value for key, value in vars(node).items()
                if value is not None and value is not False} for node in taxonomy)
    ndjson.write_records(target, records, TaxonomyError, "taxonomy")


# -- acronym expansion -------------------------------------------------------


@dataclass(frozen=True)
class AcronymMap:
    """Whole-token acronym -> expansion mapping applied to node names."""

    entries: Mapping[str, str]

    def __post_init__(self):
        for key, value in self.entries.items():
            if not key or key.split() != [key]:
                raise TaxonomyParseError(f"acronym key must be a single token: {key!r}")
            if not isinstance(value, str) or not value.strip():
                raise TaxonomyParseError(f"empty expansion for acronym {key!r}")

    def __len__(self) -> int:
        return len(self.entries)


def load_acronym_map(source: str | Path | IO[str]) -> AcronymMap:
    """Read a JSON object of {acronym: expansion}; duplicate keys are rejected."""
    with ndjson.reading(source, TaxonomyParseError, "acronym map") as fh:
        text = fh.read()

    def _reject_dupes(pairs):
        out = {}
        for key, value in pairs:
            if key in out:
                raise TaxonomyParseError(f"duplicate acronym key: {key!r}")
            out[key] = value
        return out

    try:
        data = json.loads(text, object_pairs_hook=_reject_dupes)
    except json.JSONDecodeError as exc:
        raise TaxonomyParseError(f"invalid acronym map JSON: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise TaxonomyParseError("acronym map must be a JSON object")
    return AcronymMap(entries=data)


def expand_acronyms(taxonomy: Taxonomy, acronyms: AcronymMap) -> Taxonomy:
    """Replace whole-token acronym matches in node names; idempotent.

    Expanded text is never re-scanned (single alternation pass), and nodes
    already flagged acronym_expanded are left untouched, so applying the
    same map twice changes nothing.
    """
    if not acronyms.entries:
        return taxonomy
    keys = sorted(acronyms.entries, key=len, reverse=True)
    pattern = re.compile("|".join(rf"\b{re.escape(key)}\b" for key in keys))
    changed = []
    for node in taxonomy:
        if node.acronym_expanded:
            continue
        new_name = pattern.sub(lambda m: acronyms.entries[m.group(0)], node.name)
        if new_name != node.name:
            changed.append(replace(node, name=new_name, acronym_expanded=True))
    return taxonomy.with_nodes(changed) if changed else taxonomy


def suggest_acronyms(taxonomy: Taxonomy) -> dict[str, str]:
    """Flag all-caps name tokens that match an ancestor name's initialism.

    Returns {token: ancestor name} candidates for a human-curated acronym
    map. Suggestions are never applied automatically.
    """
    suggestions: dict[str, str] = {}
    for node in taxonomy:
        tokens = re.findall(r"[A-Za-z0-9]+", node.name)
        candidates = [t for t in tokens if len(t) >= 2 and t.isupper()]
        if not candidates:
            continue
        for ancestor_id in taxonomy.path_to_root(node.id)[1:]:
            ancestor = taxonomy.node(ancestor_id)
            words = re.findall(r"[A-Za-z0-9]+", ancestor.name)
            initialism = "".join(w[0] for w in words).upper()
            for token in candidates:
                if token == initialism and token not in suggestions:
                    suggestions[token] = ancestor.name
    return suggestions


# -- description generation ---------------------------------------------------


class DescriptionError(TaxonomyError):
    """Description generation failed or produced empty text."""


def description_exemplars(taxonomy: Taxonomy) -> dict[str, str]:
    """Each undescribed node's exemplar, in node id order: the described node
    nearest to it in depth, the lowest id among the nearest. Empty when no
    node has a description."""
    lowest: dict[int, str] = {}  # depth -> lowest described id there
    missing = []
    for node in taxonomy:
        if not node.description:
            missing.append(node.id)
            continue
        depth = taxonomy.depth(node.id)
        lowest[depth] = min(lowest.get(depth, node.id), node.id)
    if not lowest:
        return {}
    pick = {depth: min(lowest.items(), key=lambda item: (abs(item[0] - depth), item[1]))[1]
            for depth in {taxonomy.depth(nid) for nid in missing}}
    return {nid: pick[taxonomy.depth(nid)] for nid in sorted(missing)}
