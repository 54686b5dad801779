"""Decrease-to-five and sibling-diversity refinement."""
from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxocat.gateway import (
    BestLabels,
    LlmGateway,
    ProviderConfig,
    TemplateId,
    TransportError,
    mock_gateway,
)
from taxocat.pipeline import RunConfig, classify_batch
from taxocat.postprocess import (
    FLAG_DECREASE_FALLBACK,
    FLAG_EMPTY_RESULT,
    FLAG_NEEDS_REVIEW,
    PostProcessConfig,
    decrease_labels,
    enforce_sibling_diversity,
    postprocess_chain,
    random_decrease,
)
from taxocat.retrieval import (
    HashBagEmbedder,
    LeafRanking,
    build_pruned_taxonomy,
    embed_taxonomy_leaves,
)
from taxocat.strategies import AggregationFunction, LabelSet, Method
from taxocat.taxonomy import Taxonomy, TaxonomyNode

from .util import (
    ScriptedProvider,
    make_doc,
    o_overlap,
    random_forest,
    recording_mock_gateway,
    ternary_taxonomy,
    vocab_doc,
)


def _fanout_taxonomy(n_parents=4, leaves_per_parent=4):
    words = ["auction", "markets", "risk", "climate", "welfare", "pricing", "labor", "credit"]
    nodes = []
    for p in range(n_parents):
        pid = f"p{p}"
        nodes.append(TaxonomyNode(id=pid, name=f"{words[p % len(words)]} studies"))
        for l in range(leaves_per_parent):
            nodes.append(
                TaxonomyNode(
                    id=f"p{p}l{l}",
                    name=f"{words[(p + l) % len(words)]} {words[(p + l + 1) % len(words)]}",
                    parent_id=pid,
                )
            )
    return Taxonomy(nodes)


def _pt_for(taxonomy, leaf_order=None):
    leaves = list(leaf_order or taxonomy.leaf_ids())
    ranking = LeafRanking(
        doc_id="d",
        entries=tuple((lid, 1.0 - i / (len(leaves) + 1)) for i, lid in enumerate(leaves)),
    )
    return build_pruned_taxonomy(taxonomy, ranking, len(leaves))


def _labels(ids, method=Method.SELECT_ONE_PASS):
    return LabelSet(doc_id="d", leaf_ids=tuple(ids), method=method)


class TestDecreaseLabels:
    def test_mock_keeps_top_five_by_overlap(self, mock_gw):
        tax = _fanout_taxonomy()
        candidates = list(tax.leaf_ids())[:7]
        doc = make_doc("d", "auction markets risk pricing")
        out = decrease_labels(doc, _labels(candidates), tax, mock_gw, max_labels=5)
        # Oracle: top 5 candidates by mock overlap, ties by id.
        ranked = sorted(candidates, key=lambda lid: (-o_overlap(doc, tax.node(lid)), lid))
        assert set(out.leaf_ids) == set(ranked[:5])
        assert len(out.leaf_ids) == 5

    def test_at_limit_is_identity(self, mock_gw):
        tax = _fanout_taxonomy()
        labels = _labels(list(tax.leaf_ids())[:5])
        assert decrease_labels(make_doc("d", "x"), labels, tax, mock_gw) is labels

    def test_partial_return_filled_by_input_order(self):
        tax = _fanout_taxonomy()
        candidates = list(tax.leaf_ids())[:7]
        returned = candidates[1:5]  # 4 valid
        provider = ScriptedProvider(
            '{"best_labels": %s}' % str(returned + ["unknown"]).replace("'", '"')
        )
        gateway = LlmGateway(provider, ProviderConfig())
        out = decrease_labels(make_doc("d", "x"), _labels(candidates), tax, gateway)
        assert len(out.leaf_ids) == 5
        assert set(returned) <= set(out.leaf_ids)
        # Fifth slot is the first candidate not already kept, in input order.
        assert candidates[0] in out.leaf_ids
        assert FLAG_DECREASE_FALLBACK in out.flags

    @pytest.mark.parametrize(("reply", "kept", "fallback"), [
        ([9, 7, 2, 7, 5, 0, 8, 3], [0, 2, 5, 7, 8], False),  # six known ids, first five kept
        ([9, 6, 1, 6, 4, 2, 8], [1, 2, 4, 6, 8], False),  # five known ids
        ([9, 6, 6, 3], [3, 6, 0, 1, 2], True),  # two known ids, padded
    ], ids=["more", "exact", "fewer"])
    def test_reply_filtered_then_taken_in_input_order(self, caplog, reply, kept, fallback):
        # Each reply holds an unknown id (9) and a duplicate, which a parsed
        # reply cannot, so a stub gateway hands it over as it is.
        class Replying:
            def call_with_retry(self, spec):
                return BestLabels(ids=tuple(candidates[i] for i in reply))

        tax = _fanout_taxonomy()
        candidates = list(tax.leaf_ids())[:9] + ["unknown"]
        out = decrease_labels(make_doc("d", "x"), _labels(candidates[:9]), tax, Replying())
        assert list(out.leaf_ids) == [candidates[i] for i in kept]
        assert out.provenance["decrease"] == {"returned": [candidates[i] for i in reply],
                                              "kept": list(out.leaf_ids)}
        assert (FLAG_DECREASE_FALLBACK in out.flags) is fallback
        assert "decrease[d]: dropping unknown label id 'unknown'" in caplog.text

    @given(max_labels=st.integers(1, 7), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_mock_reply_is_kept_whole_at_any_max_labels(self, max_labels, data):
        tax = _fanout_taxonomy()
        leaves = list(tax.leaf_ids())
        candidates = data.draw(st.permutations(leaves))[:data.draw(
            st.integers(max_labels + 1, len(leaves)))]
        words = data.draw(st.lists(st.sampled_from(
            ["auction", "markets", "risk", "climate", "welfare", "pricing", "labor", "credit"]),
            min_size=1, max_size=5))
        doc = make_doc("d", " ".join(words))
        out = decrease_labels(doc, _labels(candidates), tax, mock_gateway(), max_labels)
        # Oracle: the mock's best max_labels by overlap, ties by id, in input order.
        best = sorted(candidates, key=lambda lid: (-o_overlap(doc, tax.node(lid)), lid))
        assert list(out.leaf_ids) == [lid for lid in candidates if lid in best[:max_labels]]
        assert FLAG_DECREASE_FALLBACK not in out.flags

    def test_reply_of_seven_keeps_its_first_three_known_ids(self):
        tax = _fanout_taxonomy()
        candidates = list(tax.leaf_ids())[:9]
        reply = ["unknown"] + [candidates[i] for i in (8, 1, 6, 0, 2, 5)]
        provider = ScriptedProvider(json.dumps({"best_labels": reply}))
        gateway = LlmGateway(provider, ProviderConfig())
        out = decrease_labels(make_doc("d", "x"), _labels(candidates), tax, gateway, max_labels=3)
        assert list(out.leaf_ids) == [candidates[i] for i in (1, 6, 8)]
        assert out.flags == ()
        [(spec, _reminder)] = provider.calls
        assert spec.system_text.count("top 3 labels") == 2

    def test_empty_reply_is_flagged(self):
        tax = _fanout_taxonomy()
        candidates = list(tax.leaf_ids())[:8]
        gateway = LlmGateway(ScriptedProvider('{"best_labels": []}'), ProviderConfig())
        out = decrease_labels(make_doc("d", "x"), _labels(candidates), tax, gateway)
        assert list(out.leaf_ids) == candidates[:5]
        assert out.provenance["decrease"] == {"returned": [], "kept": candidates[:5]}
        assert out.flags == (FLAG_DECREASE_FALLBACK,)

    def test_gateway_failure_falls_back_to_input_order(self):
        class FailingProvider:
            def complete(self, spec, reminder=None):
                raise TransportError("down")

        tax = _fanout_taxonomy()
        candidates = list(tax.leaf_ids())[:9]
        gateway = LlmGateway(FailingProvider(), ProviderConfig(max_retries=0))
        out = decrease_labels(make_doc("d", "x"), _labels(candidates), tax, gateway)
        assert list(out.leaf_ids) == candidates[:5]
        assert FLAG_DECREASE_FALLBACK in out.flags

    def test_never_invents_labels(self, mock_gw):
        tax = _fanout_taxonomy()
        candidates = list(tax.leaf_ids())[:8]
        out = decrease_labels(make_doc("d", "auction"), _labels(candidates), tax, mock_gw)
        assert set(out.leaf_ids) <= set(candidates)

    def test_random_decrease_is_seeded(self):
        tax = _fanout_taxonomy()
        candidates = list(tax.leaf_ids())[:9]
        a = random_decrease(_labels(candidates), 5, random.Random(7))
        b = random_decrease(_labels(candidates), 5, random.Random(7))
        c = random_decrease(_labels(candidates), 5, random.Random(8))
        assert a.leaf_ids == b.leaf_ids
        assert len(a.leaf_ids) == 5
        assert set(a.leaf_ids) <= set(candidates)
        assert a.leaf_ids != c.leaf_ids  # overwhelmingly likely under different seeds


class TestSiblingDiversity:
    def test_excess_replaced_by_ranked_non_siblings(self):
        tax = _fanout_taxonomy(n_parents=3, leaves_per_parent=6)
        siblings = [f"p0l{i}" for i in range(5)]
        replacement_pool = ["p1l0", "p2l0"]
        pt = _pt_for(tax, leaf_order=siblings + replacement_pool + ["p1l1"])
        out = enforce_sibling_diversity(_labels(siblings), tax, pt, cap=3)
        # Oracle: keep first 3 siblings, then the 2 best-ranked non-siblings.
        assert list(out.leaf_ids) == siblings[:3] + replacement_pool

    def test_under_cap_unchanged(self):
        tax = _fanout_taxonomy(n_parents=4, leaves_per_parent=3)
        labels = _labels(["p0l0", "p1l0", "p2l0", "p3l0"])
        out = enforce_sibling_diversity(labels, tax, _pt_for(tax), cap=3)
        assert out is labels

    def test_no_replacements_drops_excess(self):
        tax = _fanout_taxonomy(n_parents=1, leaves_per_parent=2)
        pt = _pt_for(tax)
        out = enforce_sibling_diversity(_labels(["p0l0", "p0l1"]), tax, pt, cap=1)
        assert out.leaf_ids == ("p0l0",)

    def test_without_pt_drops_only(self):
        tax = _fanout_taxonomy()
        out = enforce_sibling_diversity(
            _labels([f"p0l{i}" for i in range(4)], method=Method.TRAV_SELECT), tax, None, cap=3
        )
        assert out.leaf_ids == ("p0l0", "p0l1", "p0l2")

    def test_replacements_respect_cap_everywhere(self):
        rng = random.Random(3)
        tax = _fanout_taxonomy(n_parents=5, leaves_per_parent=8)
        leaves = list(tax.leaf_ids())
        for _ in range(100):
            pt = _pt_for(tax, leaf_order=rng.sample(leaves, len(leaves)))
            picked = rng.sample(leaves, rng.randint(1, 10))
            cap = rng.randint(1, 3)
            out = enforce_sibling_diversity(_labels(picked), tax, pt, cap=cap)
            counts: dict[str, int] = {}
            for lid in out.leaf_ids:
                parent = tax.node(lid).parent_id
                counts[parent] = counts.get(parent, 0) + 1
            assert all(v <= cap for v in counts.values())
            assert len(out.leaf_ids) <= len(picked)
            assert set(out.leaf_ids) <= set(leaves)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.integers(1, 3), st.booleans())
    def test_matches_brute_force_reference(self, seed, n_nodes, cap, with_pt):
        rng = random.Random(seed)
        forest = random_forest(rng, n_nodes, max_depth=rng.randint(2, 4))
        # A random forest's roots rarely stay childless: add top-level leaves.
        tops = [TaxonomyNode(id=f"top{i}", name=f"top {i}") for i in range(rng.randint(0, 3))]
        tax = Taxonomy([*forest, *tops])
        leaves = list(tax.leaf_ids())
        picked = rng.sample(leaves, rng.randint(1, len(leaves)))
        pt = None
        if with_pt:
            pt = _pt_for(tax, leaf_order=rng.sample(leaves, rng.randint(1, len(leaves))))
        out = enforce_sibling_diversity(_labels(picked), tax, pt, cap=cap)
        expected = _sibling_reference(tax, picked, pt and pt.leaf_ids, cap)
        if expected is None:
            assert out.leaf_ids == tuple(picked)
            assert "sibling_diversity" not in out.provenance
        else:
            kept, replacements = expected
            assert out.leaf_ids == tuple(kept + replacements)
            assert out.provenance["sibling_diversity"] == {
                "dropped": len(picked) - len(kept), "replacements": replacements}


def _sibling_reference(taxonomy, picked, candidates, cap):
    """Brute force: a leaf is admitted when it has no parent or fewer than
    `cap` admitted leaves share its parent, counted from scratch each time.
    Returns None when every picked leaf is admitted, else (kept, replacements)."""
    def fits(leaf, admitted):
        parent = taxonomy.node(leaf).parent_id
        siblings = [other for other in admitted if taxonomy.node(other).parent_id == parent]
        return parent is None or len(siblings) < cap

    kept = []
    for leaf in picked:
        if fits(leaf, kept):
            kept.append(leaf)
    if len(kept) == len(picked):
        return None
    replacements = []
    for leaf in candidates or ():
        if len(replacements) == len(picked) - len(kept):
            break
        if leaf not in kept + replacements and fits(leaf, kept + replacements):
            replacements.append(leaf)
    return kept, replacements


class TestChain:
    def test_empty_input_flagged_for_review(self, mock_gw):
        tax = _fanout_taxonomy()
        out = postprocess_chain(
            make_doc("d", "x"), _labels([]), tax, _pt_for(tax), mock_gw, PostProcessConfig(),
            rng=random.Random(0),
        )
        assert out.leaf_ids == ()
        assert out.flags == (FLAG_EMPTY_RESULT, FLAG_NEEDS_REVIEW)

    def test_bounds_hold_for_nonempty_inputs(self, mock_gw):
        rng = random.Random(11)
        tax = _fanout_taxonomy(n_parents=6, leaves_per_parent=6)
        leaves = list(tax.leaf_ids())
        config = PostProcessConfig()
        doc = make_doc("d", "auction markets risk")
        for _ in range(200):
            picked = rng.sample(leaves, rng.randint(1, len(leaves)))
            pt = _pt_for(tax, leaf_order=rng.sample(leaves, len(leaves)))
            out = postprocess_chain(doc, _labels(picked), tax, pt, mock_gw, config, rng=rng)
            assert 1 <= len(out.leaf_ids) <= config.max_labels

    @pytest.mark.parametrize("random_decrease", [False, True], ids=["llm", "no-decrease"])
    @pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
    def test_oversized_input_of_any_method_is_decreased(self, mock_gw, method,
                                                        random_decrease):
        tax = _fanout_taxonomy(n_parents=6, leaves_per_parent=2)
        picked = [f"p{i}l0" for i in range(6)]
        config = PostProcessConfig(apply_sibling=False, random_decrease=random_decrease)
        out = postprocess_chain(make_doc("d", "auction markets"), _labels(picked, method=method),
                                tax, _pt_for(tax), mock_gw, config, rng=random.Random(0))
        assert len(out.leaf_ids) == config.max_labels
        assert set(out.leaf_ids) <= set(picked)
        assert out.provenance["decrease"]["kept"] == list(out.leaf_ids)

    @pytest.mark.parametrize("agg", list(AggregationFunction), ids=lambda a: a.value)
    @pytest.mark.parametrize("max_labels", [1, 3, 5])
    def test_rerank_through_the_pipeline_sends_no_decrease_call(self, tmp_path, agg,
                                                               max_labels):
        tax = ternary_taxonomy()
        embedder = HashBagEmbedder()
        rng = random.Random(5)
        docs = [vocab_doc(rng, f"doc{i}") for i in range(6)]
        gateway = recording_mock_gateway()
        config = RunConfig(
            taxonomy_path=tmp_path, documents_path=tmp_path, output_path=tmp_path / "out.ndjson",
            method=Method.RERANK, top_k=20, aggregation=agg, label_range=(1, max_labels),
            postprocess=PostProcessConfig(max_labels=max_labels), include_descriptions=True,
            contextualize=True, parallelism=1, seed=0,
        )
        assert classify_batch(docs, tax, embed_taxonomy_leaves(tax, embedder), embedder,
                              gateway, config) == 0
        assert {spec.template_id for spec in gateway.provider.calls} == {TemplateId.RERANK}
        for line in config.output_path.read_text().splitlines():
            assert len(json.loads(line)["labels"]) == max_labels

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PostProcessConfig(max_labels=0)
        with pytest.raises(ValueError):
            PostProcessConfig(sibling_cap=0)
