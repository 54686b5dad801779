"""The four classification strategies over a taxonomy or pruned taxonomy.

* trav_select      — breadth-first traversal, the LLM picks branches per layer
* select_one_pass  — one prompt carrying the whole pruned taxonomy
* rerank           — relevancy scores per node, aggregated along root paths
* select_pointwise — independent per-leaf verdicts gated by parent verdicts

Every strategy returns a LabelSet whose provenance records the verdicts or
scores that justified each label, and whose flags surface degenerate
outcomes instead of silently emitting empty output.
"""
from __future__ import annotations

import logging
from concurrent.futures import Future, as_completed
from dataclasses import dataclass, field, replace
from enum import Enum
from statistics import fmean
from typing import Any, Mapping, Sequence

from . import gateway as gw
from .documents import Document
from .retrieval import PrunedTaxonomy
from .taxonomy import Taxonomy

logger = logging.getLogger(__name__)

FLAG_EMPTY_RESULT = "empty-result"
FLAG_SHORTFALL = "shortfall"
FLAG_ANCESTOR_SCORES_UNAVAILABLE = "ancestor-scores-unavailable"


class StrategyError(Exception):
    pass


class ScoringIncompleteError(StrategyError):
    """The provider returned scores for fewer than half the requested nodes."""


class Method(str, Enum):
    TRAV_SELECT = "trav_select"
    SELECT_ONE_PASS = "select_one_pass"
    RERANK = "rerank"
    SELECT_POINTWISE = "select_pointwise"


class AggregationFunction(str, Enum):
    LEAF_ONLY = "leaf_only"
    AVG_DIRECT_PARENT = "avg_direct_parent"
    AVG_ALL_ANCESTORS = "avg_all_ancestors"
    HARMONIC_ALL_ANCESTORS = "harmonic_all_ancestors"


@dataclass(frozen=True)
class LabelSet:
    doc_id: str
    leaf_ids: tuple[str, ...]
    method: Method
    provenance: Mapping[str, Any] = field(default_factory=dict)
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if len(set(self.leaf_ids)) != len(self.leaf_ids):
            raise StrategyError(f"duplicate labels in LabelSet for {self.doc_id!r}")


def known_ids(ids: Sequence[str], known: set[str], context: str) -> list[str]:
    """Drop provider-returned ids that are not in the candidate set, keeping order."""
    kept = []
    for node_id in ids:
        if node_id in known and node_id not in kept:
            kept.append(node_id)
        elif node_id not in known:
            logger.warning("%s: dropping unknown label id %r", context, node_id)
    return kept


# -- TravSelect ------------------------------------------------------------------


def classify_trav_select(
    doc: Document,
    taxonomy: Taxonomy,
    gateway: gw.LlmGateway,
) -> LabelSet:
    """Layer-by-layer traversal: present each frontier, descend into chosen parents.

    Starts from the top-level nodes; selected leaves accumulate into the
    result and selected parents' children form the next frontier, so the
    loop runs at most max-depth rounds and shows each node once.
    """
    frontier = list(taxonomy.roots)
    selected: list[str] = []
    rounds: list[dict[str, Any]] = []
    flags: list[str] = []
    while frontier:
        nodes = [gw.node_payload(taxonomy.node(nid)) for nid in frontier]
        parsed = gateway.call_with_retry(gw.doc_spec(gw.TemplateId.TRAV_SELECT, doc, nodes))
        chosen = known_ids(parsed.ids, set(frontier), f"trav_select[{doc.doc_id}]")
        rounds.append({"frontier": list(frontier), "selected": list(chosen)})
        if len(rounds) == 1 and not chosen:
            flags.append(FLAG_EMPTY_RESULT)
        next_frontier: list[str] = []
        for node_id in chosen:
            if taxonomy.is_leaf(node_id):
                if node_id not in selected:
                    selected.append(node_id)
            else:
                next_frontier.extend(taxonomy.children(node_id))
        frontier = next_frontier
    if not selected and FLAG_EMPTY_RESULT not in flags:
        flags.append(FLAG_EMPTY_RESULT)
    return LabelSet(
        doc_id=doc.doc_id,
        leaf_ids=tuple(selected),
        method=Method.TRAV_SELECT,
        provenance={"rounds": rounds},
        flags=tuple(flags),
    )


# -- SelectO (one pass) -------------------------------------------------------------


def _pruned_tree_payloads(taxonomy: Taxonomy, pt: PrunedTaxonomy) -> list[dict[str, Any]]:
    """The pruned taxonomy's node payloads in depth-first order, each with its
    depth in the pruned tree and is_leaf (leaf within the full taxonomy).

    The tops are the kept nodes whose parent is not kept, in id order; each
    node's kept children follow it in taxonomy order.
    """
    kept = pt.node_ids
    tops = sorted(nid for nid in kept if taxonomy.node(nid).parent_id not in kept)
    stack = [(nid, 0) for nid in reversed(tops)]
    payloads: list[dict[str, Any]] = []
    while stack:
        node_id, depth = stack.pop()
        children = taxonomy.children(node_id)
        payloads.append(gw.node_payload(taxonomy.node(node_id), depth=depth, is_leaf=not children))
        for child in reversed(children):
            if child in kept:
                stack.append((child, depth + 1))
    return payloads


def classify_select_one_pass(
    doc: Document,
    taxonomy: Taxonomy,
    pt: PrunedTaxonomy,
    gateway: gw.LlmGateway,
) -> LabelSet:
    """Single prompt over the whole pruned taxonomy; keep returned leaf ids."""
    nodes = _pruned_tree_payloads(taxonomy, pt)
    parsed = gateway.call_with_retry(gw.doc_spec(gw.TemplateId.SELECT_ONE_PASS, doc, nodes))
    kept = known_ids(parsed.ids, set(pt.leaf_ids), f"select_one_pass[{doc.doc_id}]")
    flags = (FLAG_EMPTY_RESULT,) if not kept else ()
    return LabelSet(
        doc_id=doc.doc_id,
        leaf_ids=tuple(kept),
        method=Method.SELECT_ONE_PASS,
        provenance={"raw_ids": list(parsed.ids)},
        flags=flags,
    )


# -- Rerank -----------------------------------------------------------------------


def _harmonic_mean(values: Sequence[float]) -> float:
    """`statistics.harmonic_mean` of positive floats, bit for bit: each `1.0 / v`
    has a power-of-two denominator, so the sum over the largest is exact, and
    one `int / int` division rounds it as `Fraction` does. One value is returned as is."""
    if len(values) == 1:
        return values[0]
    ratios = [(1.0 / v).as_integer_ratio() for v in values]
    denominator = max(d for _, d in ratios)
    total = sum(n * (denominator // d) for n, d in ratios)
    return len(values) * denominator / total


def aggregate_score(
    leaf_score: float,
    ancestor_scores: Sequence[float],
    fn: AggregationFunction,
) -> float:
    """Combine a leaf's score with its ancestors' (direct parent first, upward)."""
    if fn is AggregationFunction.LEAF_ONLY:
        return leaf_score
    if fn is AggregationFunction.AVG_DIRECT_PARENT:
        if not ancestor_scores:
            return leaf_score
        return (leaf_score + ancestor_scores[0]) / 2.0
    if fn is AggregationFunction.AVG_ALL_ANCESTORS:
        return fmean([leaf_score, *ancestor_scores])
    if fn is AggregationFunction.HARMONIC_ALL_ANCESTORS:
        values = [leaf_score, *ancestor_scores]
        if any(v <= 0 for v in values):
            raise ValueError("harmonic mean requires strictly positive scores")
        return _harmonic_mean(values)
    raise ValueError(f"unknown aggregation function {fn!r}")


def _rerank_spec(doc: Document, taxonomy: Taxonomy, node_ids: Sequence[str]) -> gw.PromptSpec:
    nodes = [gw.node_payload(taxonomy.node(nid)) for nid in node_ids]
    return gw.doc_spec(gw.TemplateId.RERANK, doc, nodes)


def _read_scores(doc: Document, node_ids: Sequence[str], parsed: gw.Scores) -> dict[str, float]:
    """One scoring reply; unknown ids dropped, missing ids default to 0.01."""
    wanted = set(node_ids)
    scores: dict[str, float] = {}
    for node_id, score in parsed.pairs:
        if node_id in wanted:
            scores[node_id] = score
        else:
            logger.warning("rerank[%s]: dropping unknown scored id %r", doc.doc_id, node_id)
    if len(scores) * 2 < len(node_ids):
        raise ScoringIncompleteError(
            f"got scores for {len(scores)} of {len(node_ids)} requested nodes"
        )
    for node_id in node_ids:
        scores.setdefault(node_id, 0.01)
    return scores


def classify_rerank(
    doc: Document,
    taxonomy: Taxonomy,
    pt: PrunedTaxonomy,
    gateway: gw.LlmGateway,
    fn: AggregationFunction = AggregationFunction.LEAF_ONLY,
    top_n: int = 5,
) -> LabelSet:
    """Score every pruned-taxonomy leaf and its direct parent, then rank.

    The scoring prompt covers leaves and direct parents. When the chosen
    aggregation needs ancestors beyond the direct parent, those are scored
    in a second call sent at the same time; if that call cannot be
    completed, each leaf's direct-parent score stands in for its deeper
    ancestors and the result is flagged. A non-retryable provider error
    from either call is raised.
    """
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    leaves = list(pt.leaf_ids)
    parents: list[str] = []
    for leaf_id in leaves:
        parent_id = taxonomy.node(leaf_id).parent_id
        if parent_id is not None and parent_id not in parents:
            parents.append(parent_id)
    needs_ancestors = fn in (
        AggregationFunction.AVG_ALL_ANCESTORS,
        AggregationFunction.HARMONIC_ALL_ANCESTORS,
    )
    # The deeper ancestors are known before any reply, so their call goes
    # out on the shared pool while this thread asks for the rest.
    first_ids = leaves + parents
    deeper: list[str] = []
    if needs_ancestors:
        first = set(first_ids)
        for leaf_id in leaves:
            for ancestor_id in taxonomy.path_to_root(leaf_id)[2:]:
                if ancestor_id not in first and ancestor_id not in deeper:
                    deeper.append(ancestor_id)
    flags: list[str] = []
    deeper_scores: dict[str, float] = {}
    with gateway.group() as calls:
        deeper_call = calls.submit(_rerank_spec(doc, taxonomy, deeper)) if deeper else None
        scores = _read_scores(
            doc, first_ids, gateway.call_with_retry(_rerank_spec(doc, taxonomy, first_ids))
        )
        # Read inside the block: leaving it cancels a deeper call still queued.
        if deeper_call is not None:
            try:
                deeper_scores = _read_scores(doc, deeper, deeper_call.result())
            except (gw.RetryExhaustedError, gw.ProviderError, ScoringIncompleteError) as exc:
                if isinstance(exc, gw.ProviderError) and not exc.retryable:
                    raise
                logger.warning("rerank[%s]: ancestor scoring unavailable", doc.doc_id)
                flags.append(FLAG_ANCESTOR_SCORES_UNAVAILABLE)

    final: dict[str, float] = {}
    for leaf_id in leaves:
        chain = taxonomy.path_to_root(leaf_id)[1:]
        ancestor_scores: list[float] = []
        if chain:
            parent_score = scores[chain[0]]
            ancestor_scores.append(parent_score)
            if needs_ancestors:
                for ancestor_id in chain[1:]:
                    ancestor_scores.append(deeper_scores.get(ancestor_id, parent_score))
        final[leaf_id] = aggregate_score(scores[leaf_id], ancestor_scores, fn)

    ranked = sorted(leaves, key=lambda nid: (-final[nid], nid))[:top_n]
    return LabelSet(
        doc_id=doc.doc_id,
        leaf_ids=tuple(ranked),
        method=Method.RERANK,
        provenance={
            "aggregation": fn.value,
            "raw_scores": {nid: scores[nid] for nid in sorted(scores)},
            "ancestor_scores": {nid: deeper_scores[nid] for nid in sorted(deeper_scores)},
            "final_scores": {nid: final[nid] for nid in sorted(final)},
        },
        flags=tuple(flags),
    )


# -- SelectP (pointwise) ---------------------------------------------------------------


@dataclass(frozen=True)
class PointwiseTrace:
    """Everything the pointwise pass learned, in pruned-taxonomy leaf order."""

    leaf_order: tuple[str, ...]
    parent_of: Mapping[str, str | None]
    leaf_verdicts: Mapping[str, gw.LeafVerdict]
    parent_verdicts: Mapping[str, gw.ParentVerdict]

    def survivors(self) -> list[str]:
        """Leaves that fit and whose direct parent (if any, if assessed) also fits."""
        out = []
        for leaf_id in self.leaf_order:
            if not self.leaf_verdicts[leaf_id].label_fit:
                continue
            parent_id = self.parent_of[leaf_id]
            if parent_id is not None and parent_id in self.parent_verdicts:
                if not self.parent_verdicts[parent_id].label_fit:
                    continue
            out.append(leaf_id)
        return out


def adjust_label_count(
    trace: PointwiseTrace, label_range: tuple[int, int]
) -> tuple[tuple[str, ...], list[str], bool]:
    """Backfill below-minimum results; oversized results defer to post-processing.

    Returns (leaf ids, backfilled ids, shortfall). Backfill order: leaves
    rejected only at the parent stage, by descending parent relevancy (ties
    by leaf order), then remaining leaves in pruned-taxonomy ranking order.
    """
    min_labels, max_labels = label_range
    if not 1 <= min_labels <= max_labels:
        raise ValueError(f"invalid label range {label_range}")
    chosen = trace.survivors()
    if len(chosen) >= min_labels:
        return tuple(chosen), [], False

    taken = set(chosen)
    rejected_relevancy = {
        leaf_id: trace.parent_verdicts[trace.parent_of[leaf_id]].relevancy_score
        for leaf_id in trace.leaf_order
        if leaf_id not in taken
        and trace.leaf_verdicts[leaf_id].label_fit
        and trace.parent_of[leaf_id] in trace.parent_verdicts
    }
    rest = [leaf_id for leaf_id in trace.leaf_order if leaf_id not in taken]
    rest.sort(key=lambda lid: (lid not in rejected_relevancy, -rejected_relevancy.get(lid, 0.0)))
    backfilled = rest[:min_labels - len(chosen)]
    result = tuple(chosen) + tuple(backfilled)
    return result, backfilled, len(result) < min_labels


def classify_select_pointwise(
    doc: Document,
    taxonomy: Taxonomy,
    pt: PrunedTaxonomy,
    gateway: gw.LlmGateway,
    label_range: tuple[int, int] = (1, 5),
    contextualize: bool = True,
) -> LabelSet:
    """Independent binary verdict per leaf, then per direct parent, then adjust.

    A leaf survives only when its own verdict and its parent's verdict are
    both positive (contextualization); each parent is assessed once per
    document. With contextualize off, leaf verdicts alone decide.

    Every leaf verdict is asked at once through one call group, and a
    parent's as soon as the first fitting leaf under it is known, so no
    parent waits for the slowest leaf. Replies are read in leaf order, then
    in the order of each parent's first fitting leaf, so the first failure
    raised is the one asking leaves and then parents in that order would
    raise. The group's rules hold: after a non-retryable error, calls not
    yet started send nothing, and no call outlives the document.
    """
    parent_of = {leaf_id: taxonomy.node(leaf_id).parent_id for leaf_id in pt.leaf_ids}

    def spec(template_id: gw.TemplateId, node_id: str) -> gw.PromptSpec:
        return gw.doc_spec(template_id, doc, [gw.node_payload(taxonomy.node(node_id))])

    parent_calls: dict[str, Future] = {}
    parent_verdicts: dict[str, gw.ParentVerdict] = {}
    with gateway.group() as calls:
        leaf_calls = {leaf_id: calls.submit(spec(gw.TemplateId.SELECTP_LEAF, leaf_id))
                      for leaf_id in pt.leaf_ids}
        if contextualize:
            leaf_of = {call: leaf_id for leaf_id, call in leaf_calls.items()}
            for call in as_completed(leaf_of):
                if call.exception() is not None:
                    break  # the document fails; reading in leaf order raises
                parent_id = parent_of[leaf_of[call]]
                if (call.result().label_fit and parent_id is not None
                        and parent_id not in parent_calls):
                    parent_calls[parent_id] = calls.submit(
                        spec(gw.TemplateId.SELECTP_PARENT, parent_id))
        leaf_verdicts = {leaf_id: call.result() for leaf_id, call in leaf_calls.items()}
        if contextualize:
            fitting_parents = dict.fromkeys(
                parent_of[leaf_id]
                for leaf_id in pt.leaf_ids
                if leaf_verdicts[leaf_id].label_fit and parent_of[leaf_id] is not None
            )
            parent_verdicts = {pid: parent_calls[pid].result() for pid in fitting_parents}

    trace = PointwiseTrace(
        leaf_order=tuple(pt.leaf_ids),
        parent_of=parent_of,
        leaf_verdicts=leaf_verdicts,
        parent_verdicts=parent_verdicts,
    )
    leaf_ids, backfilled, shortfall = adjust_label_count(trace, label_range)
    flags: list[str] = []
    if shortfall:
        flags.append(FLAG_SHORTFALL)
    if not leaf_ids:
        flags.append(FLAG_EMPTY_RESULT)
    provenance = {
        "leaf_verdicts": {
            lid: {"label_fit": v.label_fit, "main_focus": v.main_focus}
            for lid, v in sorted(leaf_verdicts.items())
        },
        "parent_verdicts": {
            pid: {
                "label_fit": v.label_fit,
                "relevancy_score": v.relevancy_score,
                "main_focus": v.main_focus,
            }
            for pid, v in sorted(parent_verdicts.items())
        },
        "backfilled": list(backfilled),
    }
    return LabelSet(
        doc_id=doc.doc_id,
        leaf_ids=leaf_ids,
        method=Method.SELECT_POINTWISE,
        provenance=provenance,
        flags=tuple(flags),
    )


def with_flags(labels: LabelSet, *new_flags: str) -> LabelSet:
    merged = list(labels.flags)
    for flag in new_flags:
        if flag not in merged:
            merged.append(flag)
    return replace(labels, flags=tuple(merged))
