"""Label-set refinement: cap at max_labels via an LLM call, enforce sibling diversity.

The decrease step asks the provider to pick the best-fitting labels among
the candidates of any result longer than max_labels. Sibling diversity
stops a result from clustering under one parent by swapping the excess for
the best non-sibling candidates still available in the pruned taxonomy.
"""
from __future__ import annotations

import logging
import random
from dataclasses import dataclass, replace

from . import gateway as gw
from .documents import Document
from .retrieval import PrunedTaxonomy
from .strategies import LabelSet, known_ids, with_flags
from .taxonomy import Taxonomy

logger = logging.getLogger(__name__)

FLAG_DECREASE_FALLBACK = "decrease-fallback"
FLAG_NEEDS_REVIEW = "needs-review"


@dataclass(frozen=True)
class PostProcessConfig:
    max_labels: int = 5
    sibling_cap: int = 3
    apply_sibling: bool = True
    random_decrease: bool = False  # ablation: seeded uniform pick instead of the LLM call

    def __post_init__(self):
        if self.max_labels < 1:
            raise ValueError("max_labels must be >= 1")
        if self.sibling_cap < 1:
            raise ValueError("sibling_cap must be >= 1")


def decrease_labels(
    doc: Document,
    labels: LabelSet,
    taxonomy: Taxonomy,
    gateway: gw.LlmGateway,
    max_labels: int = 5,
) -> LabelSet:
    """Reduce an oversized label set to exactly max_labels.

    The provider sees the candidates with their parent context and returns
    the best ids; anything outside the input set is dropped, and if the
    intersection is not exactly max_labels the labels follow the input
    order (which encodes the strategy's own preference) after the kept ids.
    A call that exhausts its retries falls back to that ordering outright;
    a RefusedError is raised. Every result not made of exactly max_labels
    kept ids is flagged decrease-fallback.
    """
    candidates = list(labels.leaf_ids)
    if len(candidates) <= max_labels:
        return labels

    payloads = []
    for node_id in candidates:
        node = taxonomy.node(node_id)
        parent = taxonomy.node(node.parent_id) if node.parent_id is not None else None
        payloads.append(gw.node_payload(node, parent_name=parent and parent.name))

    returned: list[str] = []
    kept: list[str] = []
    try:
        parsed = gateway.call_with_retry(gw.doc_spec(gw.TemplateId.DECREASE_LABELS, doc, payloads))
        returned = list(parsed.ids)
        kept = known_ids(returned, set(candidates), f"decrease[{doc.doc_id}]")
    except (gw.RetryExhaustedError, gw.TransportError):
        logger.warning("decrease[%s]: provider failed, falling back to input order", doc.doc_id)

    # Kept ids first, then the rest, each in input order (a stable sort).
    final = sorted(candidates, key=lambda nid: nid not in kept)[:max_labels]
    decrease = {"returned": returned, "kept": final}
    out = replace(labels, leaf_ids=tuple(final),
                  provenance={**labels.provenance, "decrease": decrease})
    if len(kept) != max_labels:  # some or all labels came from input order
        out = with_flags(out, FLAG_DECREASE_FALLBACK)
    return out


def random_decrease(labels: LabelSet, max_labels: int, rng: random.Random) -> LabelSet:
    """Ablation stand-in for decrease_labels: seeded uniform choice of max_labels."""
    candidates = list(labels.leaf_ids)
    if len(candidates) <= max_labels:
        return labels
    picked = set(rng.sample(candidates, max_labels))
    final = tuple(nid for nid in candidates if nid in picked)
    decrease = {"random": True, "kept": list(final)}
    return replace(labels, leaf_ids=final, provenance={**labels.provenance, "decrease": decrease})


def enforce_sibling_diversity(
    labels: LabelSet,
    taxonomy: Taxonomy,
    pt: PrunedTaxonomy | None,
    cap: int,
) -> LabelSet:
    """Cap how many selected labels may share one direct parent.

    For each over-represented parent the first `cap` labels (input order)
    stay; the excess is swapped for the best not-yet-selected leaves from
    the pruned-taxonomy ranking whose own parent stays within the cap.
    Without a pruned taxonomy (traversal strategy) the excess is dropped.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    selected = list(labels.leaf_ids)
    parent_of = {nid: taxonomy.node(nid).parent_id for nid in selected}

    kept: list[str] = []
    per_parent: dict[str, int] = {}
    dropped = 0
    for node_id in selected:
        parent_id = parent_of[node_id]
        if parent_id is None:
            kept.append(node_id)
            continue
        if per_parent.get(parent_id, 0) >= cap:
            dropped += 1
            continue
        per_parent[parent_id] = per_parent.get(parent_id, 0) + 1
        kept.append(node_id)
    if not dropped:
        return labels

    replacements: list[str] = []
    if pt is not None:
        chosen = set(kept)
        for candidate in pt.leaf_ids:
            if len(replacements) >= dropped:
                break
            if candidate in chosen:
                continue
            parent_id = taxonomy.node(candidate).parent_id
            if parent_id is not None and per_parent.get(parent_id, 0) >= cap:
                continue
            if parent_id is not None:
                per_parent[parent_id] = per_parent.get(parent_id, 0) + 1
            replacements.append(candidate)
            chosen.add(candidate)

    diversity = {"dropped": dropped, "replacements": list(replacements)}
    return replace(labels, leaf_ids=tuple(kept + replacements),
                   provenance={**labels.provenance, "sibling_diversity": diversity})


def postprocess_chain(
    doc: Document,
    labels: LabelSet,
    taxonomy: Taxonomy,
    pt: PrunedTaxonomy | None,
    gateway: gw.LlmGateway,
    config: PostProcessConfig,
    rng: random.Random | None = None,
) -> LabelSet:
    """Full refinement chain: decrease to max_labels, then sibling diversity.

    Non-empty input of any method always lands in [1, max_labels]; empty
    input passes through flagged for review.
    """
    if not labels.leaf_ids:
        return with_flags(labels, FLAG_NEEDS_REVIEW)
    out = labels
    if len(out.leaf_ids) > config.max_labels:
        if config.random_decrease:
            out = random_decrease(out, config.max_labels, rng or random.Random(0))
        else:
            out = decrease_labels(doc, out, taxonomy, gateway, config.max_labels)
    if config.apply_sibling:
        out = enforce_sibling_diversity(out, taxonomy, pt, config.sibling_cap)
    return out
