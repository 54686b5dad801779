"""Label-set refinement: cap at max_labels via an LLM call, enforce sibling diversity.

The decrease step asks the provider to pick the best-fitting labels among
the candidates of any result longer than max_labels. Sibling diversity
stops a result from clustering under one parent by swapping the excess for
the best non-sibling candidates still available in the pruned taxonomy.
"""
from __future__ import annotations

import logging
import random
from collections import Counter
from dataclasses import dataclass, replace

from . import gateway as gw
from .documents import Document
from .retrieval import PrunedTaxonomy
from .strategies import LabelSet, known_ids, with_flags
from .taxonomy import Taxonomy

logger = logging.getLogger(__name__)

FLAG_DECREASE_FALLBACK = "decrease-fallback"
FLAG_EMPTY_RESULT = "empty-result"
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

    The provider sees the candidates with their parent context and is asked
    for the best max_labels ids. The reply's first max_labels ids that are
    candidates are kept, written in input order (which encodes the
    strategy's own preference); if there are fewer, the other candidates
    follow in input order. A call that exhausts its retries falls back to
    that ordering outright; a RefusedError is raised. Every result not made
    of exactly max_labels kept ids is flagged decrease-fallback.
    """
    candidates = list(labels.leaf_ids)
    if len(candidates) <= max_labels:
        return labels

    payloads = []
    for node_id in candidates:
        node = taxonomy.node(node_id)
        # The parent's name as node_payload shapes every name, on one line.
        parent_name = (gw.node_payload(taxonomy.node(node.parent_id))["name"]
                       if node.parent_id is not None else None)
        payloads.append(gw.node_payload(node, parent_name=parent_name))

    returned: list[str] = []
    kept: list[str] = []
    try:
        spec = gw.doc_spec(gw.TemplateId.DECREASE_LABELS, doc, payloads, max_labels)
        returned = list(gateway.call_with_retry(spec).ids)
        kept = known_ids(returned, set(candidates), f"decrease[{doc.doc_id}]")[:max_labels]
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

    One rule admits every label: a leaf is admitted when it is top-level or
    fewer than `cap` admitted leaves share its parent. The selected labels
    pass it first, in input order. When some are dropped, the pruned
    taxonomy's leaves that were not selected pass it next, in ranking order,
    until as many are admitted as were dropped. Without a pruned taxonomy
    (traversal strategy) the excess is dropped.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    admitted_per_parent: Counter[str] = Counter()

    def admit(node_id: str) -> bool:
        parent_id = taxonomy.node(node_id).parent_id
        if parent_id is None:
            return True
        if admitted_per_parent[parent_id] >= cap:
            return False
        admitted_per_parent[parent_id] += 1
        return True

    kept = [node_id for node_id in labels.leaf_ids if admit(node_id)]
    dropped = len(labels.leaf_ids) - len(kept)
    if not dropped:
        return labels

    # A dropped label cannot pass again: its parent is still at the cap.
    replacements: list[str] = []
    if pt is not None:
        for candidate in pt.leaf_ids:
            if len(replacements) == dropped:
                break
            if candidate not in labels.leaf_ids and admit(candidate):
                replacements.append(candidate)

    diversity = {"dropped": dropped, "replacements": replacements}
    return replace(labels, leaf_ids=tuple(kept + replacements),
                   provenance={**labels.provenance, "sibling_diversity": diversity})


def postprocess_chain(
    doc: Document,
    labels: LabelSet,
    taxonomy: Taxonomy,
    pt: PrunedTaxonomy | None,
    gateway: gw.LlmGateway,
    config: PostProcessConfig,
    rng: random.Random,
) -> LabelSet:
    """Full refinement chain: decrease to max_labels, then sibling diversity.

    Non-empty input of any method always lands in [1, max_labels]. This is
    the one place an empty result is flagged: it passes through with
    empty-result, then needs-review.
    """
    if not labels.leaf_ids:
        return with_flags(labels, FLAG_EMPTY_RESULT, FLAG_NEEDS_REVIEW)
    out = labels
    if len(out.leaf_ids) > config.max_labels:
        if config.random_decrease:
            out = random_decrease(out, config.max_labels, rng)
        else:
            out = decrease_labels(doc, out, taxonomy, gateway, config.max_labels)
    if config.apply_sibling:
        out = enforce_sibling_diversity(out, taxonomy, pt, config.sibling_cap)
    return out
