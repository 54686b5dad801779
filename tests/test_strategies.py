"""The four classification strategies against scripted and mock gateways."""
from __future__ import annotations

import random
import statistics
import threading
import time
from contextlib import contextmanager
from concurrent.futures import wait
from statistics import fmean

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taxocat import gateway as gw
from taxocat.gateway import (
    AuthError,
    ClientError,
    LlmGateway,
    ProviderConfig,
    TemplateId,
    TransportError,
    mock_gateway,
)
from taxocat.retrieval import LeafRanking, PrunedTaxonomy, build_pruned_taxonomy
from taxocat.strategies import (
    AggregationFunction,
    FLAG_ANCESTOR_SCORES_UNAVAILABLE,
    FLAG_EMPTY_RESULT,
    LabelSet,
    Method,
    PointwiseTrace,
    ScoringIncompleteError,
    adjust_label_count,
    aggregate_score,
    classify_rerank,
    _pruned_tree_payloads,
    classify_select_one_pass,
    classify_select_pointwise,
    classify_trav_select,
)
from taxocat.taxonomy import Taxonomy, TaxonomyNode

from .util import (
    RecordingMockProvider,
    ScriptedProvider,
    TableProvider,
    ask_in_order,
    make_doc,
    o_pruned_tree,
    oracle_one_pass,
    oracle_pointwise,
    oracle_trav_select,
    o_overlap,
    o_relevancy,
    random_forest,
    recording_mock_gateway,
    ternary_taxonomy,
    vocab_doc,
)

THRESHOLD = 0.2


def scripted_gateway(*responses, max_retries=3):
    provider = ScriptedProvider(*responses)
    return LlmGateway(provider, ProviderConfig(max_retries=max_retries)), provider


def full_pt(taxonomy: Taxonomy, doc_id: str = "d", k: int = 40):
    leaves = list(taxonomy.leaf_ids())
    ranking = LeafRanking(
        doc_id=doc_id,
        entries=tuple((lid, 1.0 - i / (len(leaves) + 1)) for i, lid in enumerate(leaves)),
    )
    return build_pruned_taxonomy(taxonomy, ranking, k)


class TestAggregateScore:
    def test_leaf_only_ignores_ancestors(self):
        assert aggregate_score(0.73, [0.50, 0.90], AggregationFunction.LEAF_ONLY) == 0.73

    def test_avg_direct_parent(self):
        assert aggregate_score(0.80, [0.60], AggregationFunction.AVG_DIRECT_PARENT) == pytest.approx(0.70)
        assert aggregate_score(0.80, [], AggregationFunction.AVG_DIRECT_PARENT) == 0.80

    def test_harmonic_known_value(self):
        # Direct evaluation of 3 / (1/0.8 + 1/0.6 + 1/0.4).
        expected = 3 / (1 / 0.8 + 1 / 0.6 + 1 / 0.4)
        assert expected == pytest.approx(0.5538, abs=1e-4)
        got = aggregate_score(0.80, [0.60, 0.40], AggregationFunction.HARMONIC_ALL_ANCESTORS)
        assert got == pytest.approx(expected, abs=1e-12)

    @given(st.one_of(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8),
                     st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=8)))
    @example([0.91])  # 1 / (1 / 0.91) != 0.91: a lone score comes back as it is
    @settings(max_examples=500)
    def test_harmonic_equals_statistics_bit_for_bit(self, values):
        leaf, *ancestors = values
        got = aggregate_score(leaf, ancestors, AggregationFunction.HARMONIC_ALL_ANCESTORS)
        assert got == statistics.harmonic_mean(values)

    def test_harmonic_rejects_non_positive(self):
        with pytest.raises(ValueError):
            aggregate_score(0.5, [0.0], AggregationFunction.HARMONIC_ALL_ANCESTORS)

    @given(st.floats(0.01, 1.0), st.lists(st.floats(0.01, 1.0), max_size=8))
    @settings(max_examples=300)
    def test_all_functions_agree_on_constant_scores(self, score, _unused):
        ancestors = [score] * len(_unused)
        for fn in AggregationFunction:
            assert aggregate_score(score, ancestors, fn) == pytest.approx(score)

    @given(st.floats(0.01, 1.0), st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8))
    @settings(max_examples=300)
    def test_harmonic_le_arithmetic(self, leaf, ancestors):
        harmonic = aggregate_score(leaf, ancestors, AggregationFunction.HARMONIC_ALL_ANCESTORS)
        arithmetic = aggregate_score(leaf, ancestors, AggregationFunction.AVG_ALL_ANCESTORS)
        assert harmonic <= arithmetic + 1e-12

    @given(
        st.floats(0.01, 0.98),
        st.floats(0.001, 0.02),
        st.lists(st.floats(0.01, 1.0), max_size=5),
        st.sampled_from(list(AggregationFunction)),
    )
    @settings(max_examples=300)
    def test_strictly_increasing_in_leaf_score(self, leaf, bump, ancestors, fn):
        low = aggregate_score(leaf, ancestors, fn)
        high = aggregate_score(leaf + bump, ancestors, fn)
        assert high > low


class TestTravSelect:
    def _two_branch_taxonomy(self):
        return Taxonomy(
            [
                TaxonomyNode(id="b1", name="auction design"),
                TaxonomyNode(id="b2", name="volcano geology"),
                TaxonomyNode(id="b1l1", name="auction markets", parent_id="b1"),
                TaxonomyNode(id="b1l2", name="ecology journals", parent_id="b1"),
                TaxonomyNode(id="b2l1", name="volcano hazards", parent_id="b2"),
                TaxonomyNode(id="b2l2", name="optimization theory", parent_id="b2"),
            ]
        )

    def test_single_forced_path(self, mock_gw):
        doc = make_doc("d", "auction design")
        labels = classify_trav_select(doc, self._two_branch_taxonomy(), mock_gw)
        assert labels.leaf_ids == ("b1l1",)
        assert labels.method is Method.TRAV_SELECT
        assert labels.flags == ()

    def test_two_branches_union_matches_oracle(self, mock_gw):
        doc = make_doc("d", "auction volcano")
        tax = self._two_branch_taxonomy()
        labels = classify_trav_select(doc, tax, mock_gw)
        assert list(labels.leaf_ids) == oracle_trav_select(doc, tax, THRESHOLD)
        assert set(labels.leaf_ids) == {"b1l1", "b2l1"}

    def test_empty_first_round_flagged(self, mock_gw):
        doc = make_doc("d", "completely unrelated words")
        labels = classify_trav_select(doc, self._two_branch_taxonomy(), mock_gw)
        assert labels.leaf_ids == ()
        assert FLAG_EMPTY_RESULT in labels.flags

    def test_rounds_bounded_by_depth_and_no_repeats(self):
        # Depth-6 chain where everything matches: full traversal.
        nodes = []
        parent = None
        for depth in range(1, 7):
            nid = f"c{depth}"
            nodes.append(TaxonomyNode(id=nid, name="alpha", parent_id=parent))
            nodes.append(TaxonomyNode(id=f"s{depth}", name="alpha side", parent_id=parent))
            parent = nid
        tax = Taxonomy(nodes)
        provider = RecordingMockProvider(threshold=THRESHOLD)
        gateway = LlmGateway(provider, ProviderConfig())
        classify_trav_select(make_doc("d", "alpha"), tax, gateway)
        trav_calls = [c for c in provider.calls if c.template_id is TemplateId.TRAV_SELECT]
        assert len(trav_calls) <= max(tax.depth(node.id) for node in tax)
        presented = [n["id"] for call in trav_calls for n in call.user_payload["nodes"]]
        assert len(presented) == len(set(presented))

    def test_unknown_ids_dropped(self):
        gateway, _ = scripted_gateway('{"best_labels": ["b1", "nonsense"]}', '{"best_labels": []}')
        labels = classify_trav_select(make_doc("d", "x"), self._two_branch_taxonomy(), gateway)
        assert labels.leaf_ids == ()


class TestSelectOnePass:
    def test_pass_through_of_known_leaf(self, ternary):
        pt = full_pt(ternary)
        target = pt.leaf_ids[2]
        gateway, _ = scripted_gateway('{"best_labels": ["%s"]}' % target)
        labels = classify_select_one_pass(make_doc("d", "anything"), ternary, pt, gateway)
        assert labels.leaf_ids == (target,)

    def test_unknown_id_dropped_with_result_kept(self, ternary):
        pt = full_pt(ternary)
        target = pt.leaf_ids[0]
        gateway, _ = scripted_gateway('{"best_labels": ["%s", "bogus"]}' % target)
        labels = classify_select_one_pass(make_doc("d", "anything"), ternary, pt, gateway)
        assert labels.leaf_ids == (target,)
        assert labels.provenance["raw_ids"] == [target, "bogus"]

    def test_all_unknown_flags_empty(self, ternary):
        pt = full_pt(ternary)
        gateway, _ = scripted_gateway('{"best_labels": ["bogus"]}')
        labels = classify_select_one_pass(make_doc("d", "anything"), ternary, pt, gateway)
        assert labels.leaf_ids == ()
        assert FLAG_EMPTY_RESULT in labels.flags

    def test_matches_overlap_oracle_on_full_pt(self, ternary, mock_gw):
        rng = random.Random(31)
        for i in range(25):
            doc = vocab_doc(rng, f"d{i}")
            pt = full_pt(ternary, doc_id=doc.doc_id)
            labels = classify_select_one_pass(doc, ternary, pt, mock_gw)
            assert set(labels.leaf_ids) == oracle_one_pass(doc, ternary, pt, THRESHOLD)

    def test_tree_rendering_indents_and_truncates(self, ternary):
        long_description = " ".join(f"w{i}" for i in range(80))
        tax = Taxonomy(
            [
                TaxonomyNode(id="r", name="root node", description=long_description),
                TaxonomyNode(id="c", name="child node", parent_id="r"),
            ]
        )
        gateway = recording_mock_gateway()
        classify_select_one_pass(make_doc("d", "root"), tax, full_pt(tax), gateway)
        (spec,) = gateway.provider.calls
        tree = spec.user_text.split("\nTaxonomy:\n")[1].splitlines()
        assert tree == ["r | root node | " + " ".join(f"w{i}" for i in range(60)),
                        "  c | child node"]
        assert [node["is_leaf"] for node in spec.user_payload["nodes"]] == [False, True]


class TestPrunedTreeWalk:
    """The one-pass tree's walk against the recursive walk in util.o_pruned_tree."""

    @staticmethod
    def walked(tax, pt):
        return [(p["id"], p["depth"], p["is_leaf"]) for p in _pruned_tree_payloads(tax, pt)]

    @pytest.mark.parametrize("k", [1, 3, 17, 40, 10_000])
    def test_build_pruned_taxonomy_trees_match_recursive_walk(self, k):
        rng = random.Random(k)
        for _ in range(15):
            tax = random_forest(rng, rng.randint(1, 400), max_depth=rng.randint(2, 9))
            leaves = rng.sample(tax.leaf_ids(), len(tax.leaf_ids()))
            ranking = LeafRanking(doc_id="d", entries=tuple(
                (lid, 1.0 - i / (len(leaves) + 1)) for i, lid in enumerate(leaves)))
            pt = build_pruned_taxonomy(tax, ranking, k)
            assert pt.node_ids == {nid for lid in pt.leaf_ids for nid in tax.path_to_root(lid)}
            assert self.walked(tax, pt) == o_pruned_tree(tax, pt.node_ids)

    def test_hand_built_non_closed_trees_match_recursive_walk(self):
        rng = random.Random(23)
        for _ in range(40):
            tax = random_forest(rng, rng.randint(1, 200), max_depth=rng.randint(2, 9))
            kept = frozenset(rng.sample([n.id for n in tax], rng.randint(1, len(tax))))
            leaves = tuple(lid for lid in tax.leaf_ids() if lid in kept)
            pt = PrunedTaxonomy(node_ids=kept, leaf_ids=leaves)
            assert self.walked(tax, pt) == o_pruned_tree(tax, kept)


def _chain_taxonomy():
    """Three-level taxonomy so rerank has ancestors beyond direct parents."""
    nodes = []
    for top in range(2):
        tid = f"g{top}"
        nodes.append(TaxonomyNode(id=tid, name=f"grand {top}"))
        for mid in range(2):
            mid_id = f"g{top}p{mid}"
            nodes.append(TaxonomyNode(id=mid_id, name=f"parent {top}{mid}", parent_id=tid))
            for leaf in range(3):
                nodes.append(
                    TaxonomyNode(id=f"{mid_id}l{leaf}", name=f"leaf {top}{mid}{leaf}",
                                 parent_id=mid_id)
                )
    return Taxonomy(nodes)


def _rerank_oracle(taxonomy, pt, table, fn, top_n, parent_substitute=False):
    """Independent recomputation of final scores plus the ranking sort."""
    final = {}
    for leaf_id in pt.leaf_ids:
        chain = []
        cur = taxonomy.node(leaf_id).parent_id
        while cur is not None:
            chain.append(cur)
            cur = taxonomy.node(cur).parent_id
        leaf_score = table.get(leaf_id, 0.01)
        ancestors = []
        if chain:
            parent_score = table.get(chain[0], 0.01)
            ancestors.append(parent_score)
            if fn in (AggregationFunction.AVG_ALL_ANCESTORS,
                      AggregationFunction.HARMONIC_ALL_ANCESTORS):
                for ancestor in chain[1:]:
                    ancestors.append(parent_score if parent_substitute
                                     else table.get(ancestor, 0.01))
        if fn is AggregationFunction.LEAF_ONLY:
            final[leaf_id] = leaf_score
        elif fn is AggregationFunction.AVG_DIRECT_PARENT:
            final[leaf_id] = (leaf_score + ancestors[0]) / 2 if ancestors else leaf_score
        elif fn is AggregationFunction.AVG_ALL_ANCESTORS:
            final[leaf_id] = fmean([leaf_score, *ancestors])
        else:
            values = [leaf_score, *ancestors]
            final[leaf_id] = len(values) / sum(1 / v for v in values)
    ranked = sorted(pt.leaf_ids, key=lambda lid: (-final[lid], lid))[:top_n]
    return ranked, final


@contextmanager
def _call_pool_occupied(release: threading.Event):
    """Every thread of the default-width call pool blocked until `release`
    is set, which leaving the block does; yields the pool."""
    started = threading.Semaphore(0)

    def block():
        started.release()
        release.wait(timeout=10)

    pool = gw._call_pool(ProviderConfig().max_in_flight)
    blockers = [pool.submit(block) for _ in range(ProviderConfig().max_in_flight)]
    try:
        assert all(started.acquire(timeout=10) for _ in blockers)
        yield pool
    finally:
        release.set()
        wait(blockers)


class TestRerank:
    def test_leaf_only_argmax(self):
        tax = _chain_taxonomy()
        pt = full_pt(tax)
        table = {nid: 0.10 for nid in [n.id for n in tax]}
        table["g0p0l1"] = 0.90
        gateway = LlmGateway(TableProvider(table), ProviderConfig())
        labels = classify_rerank(make_doc("d", "x"), tax, pt, gateway,
                                 fn=AggregationFunction.LEAF_ONLY, top_n=1)
        assert labels.leaf_ids == ("g0p0l1",)

    def test_default_fn_ignores_parent_scores(self):
        tax = _chain_taxonomy()
        pt = full_pt(tax)
        table = {nid: 0.50 for nid in [n.id for n in tax]}
        table["g0p0l0"], table["g0p0l1"] = 0.80, 0.70
        table["g0p0"] = 0.01  # terrible parent must not matter for leaf_only
        gateway = LlmGateway(TableProvider(table), ProviderConfig())
        labels = classify_rerank(make_doc("d", "x"), tax, pt, gateway, top_n=2)
        assert labels.leaf_ids == ("g0p0l0", "g0p0l1")

    @pytest.mark.parametrize("fn", list(AggregationFunction))
    def test_random_tables_match_brute_force(self, fn):
        rng = random.Random(hash(fn.value) % 1000)
        tax = _chain_taxonomy()
        pt = full_pt(tax)
        for _ in range(15):
            table = {n.id: round(rng.uniform(0.01, 1.0), 2) for n in tax}
            provider = TableProvider(table)
            gateway = LlmGateway(provider, ProviderConfig())
            labels = classify_rerank(make_doc("d", "x"), tax, pt, gateway, fn=fn, top_n=5)
            expected, final = _rerank_oracle(tax, pt, table, fn, 5)
            assert list(labels.leaf_ids) == expected
            for lid in pt.leaf_ids:
                assert labels.provenance["final_scores"][lid] == pytest.approx(final[lid])

    def test_deeper_ancestors_scored_in_second_call(self):
        tax = _chain_taxonomy()
        pt = full_pt(tax)
        table = {n.id: 0.50 for n in tax}
        provider = TableProvider(table)
        gateway = LlmGateway(provider, ProviderConfig())
        classify_rerank(make_doc("d", "x"), tax, pt, gateway,
                        fn=AggregationFunction.AVG_ALL_ANCESTORS)
        sent = sorted(sorted(n["id"] for n in spec.user_payload["nodes"])
                      for spec in provider.calls)
        first = sorted([*pt.leaf_ids, "g0p0", "g0p1", "g1p0", "g1p1"])
        assert sent == sorted([first, ["g0", "g1"]])

    def test_leaf_only_never_issues_second_call(self):
        tax = _chain_taxonomy()
        provider = TableProvider({n.id: 0.5 for n in tax})
        gateway = LlmGateway(provider, ProviderConfig())
        classify_rerank(make_doc("d", "x"), tax, full_pt(tax), gateway)
        assert len(provider.calls) == 1

    def test_avg_direct_parent_sends_one_call(self):
        tax = _chain_taxonomy()
        provider = TableProvider({n.id: 0.5 for n in tax})
        gateway = LlmGateway(provider, ProviderConfig())
        classify_rerank(make_doc("d", "x"), tax, full_pt(tax), gateway,
                        fn=AggregationFunction.AVG_DIRECT_PARENT)
        assert len(provider.calls) == 1

    def test_both_scoring_calls_are_in_flight_together(self):
        tax = _chain_taxonomy()
        barrier = threading.Barrier(2, timeout=10)

        class Meeting(TableProvider):
            def complete(self, spec, reminder=None):
                barrier.wait()  # broken unless the other call is in flight too
                return super().complete(spec, reminder)

        provider = Meeting({n.id: 0.5 for n in tax})
        labels = classify_rerank(make_doc("d", "x"), tax, full_pt(tax),
                                 LlmGateway(provider, ProviderConfig()),
                                 fn=AggregationFunction.HARMONIC_ALL_ANCESTORS)
        assert len(provider.calls) == 2
        assert labels.flags == () and labels.provenance["ancestor_scores"] == {"g0": 0.5, "g1": 0.5}

    def test_first_call_failure_is_raised_after_the_deeper_call_ends(self):
        tax = _chain_taxonomy()
        deeper_started = threading.Event()
        running: list = []

        class Slow(TableProvider):
            def complete(self, spec, reminder=None):
                if spec.user_payload["nodes"][0]["id"] == "g0":  # the deeper call
                    running.append(spec)
                    deeper_started.set()
                    time.sleep(0.3)
                    running.remove(spec)
                else:  # fails only once the deeper call is in flight
                    deeper_started.wait(timeout=10)
                return super().complete(spec, reminder)

        provider = Slow({n.id: 0.5 for n in tax}, fail_ids={"g0p0l0"})
        gateway = LlmGateway(provider, ProviderConfig(max_retries=0))
        with pytest.raises(TransportError, match="scripted failure"):
            classify_rerank(make_doc("d", "x"), tax, full_pt(tax), gateway,
                            fn=AggregationFunction.AVG_ALL_ANCESTORS)
        assert len(provider.calls) == 2
        assert running == []

    def test_queued_deeper_call_is_cancelled_when_the_first_call_fails(self):
        tax = _chain_taxonomy()
        provider = TableProvider({n.id: 0.5 for n in tax}, fail_ids={"g0p0l0"})
        gateway = LlmGateway(provider, ProviderConfig(max_retries=0))
        # Every thread of the call pool is busy, so the deeper call stays queued.
        with _call_pool_occupied(threading.Event()) as pool:
            with pytest.raises(TransportError):
                classify_rerank(make_doc("d", "x"), tax, full_pt(tax), gateway,
                                fn=AggregationFunction.AVG_ALL_ANCESTORS)
        pool.submit(lambda: None).result()  # the queue has been worked off
        assert len(provider.calls) == 1  # the deeper call was never sent
        assert "g0" not in {n["id"] for n in provider.calls[0].user_payload["nodes"]}

    def test_deeper_call_still_queued_when_the_first_reply_is_read_is_waited_for(self):
        tax = _chain_taxonomy()
        provider = TableProvider({n.id: 0.5 for n in tax})
        # Every thread of the call pool is busy until well after the first
        # call has answered, so the deeper call is still queued then.
        release = threading.Event()
        timer = threading.Timer(0.3, release.set)
        with _call_pool_occupied(release):
            timer.start()
            labels = classify_rerank(make_doc("d", "x"), tax, full_pt(tax),
                                     LlmGateway(provider, ProviderConfig()),
                                     fn=AggregationFunction.AVG_ALL_ANCESTORS)
        timer.join()
        assert len(provider.calls) == 2
        assert labels.flags == () and labels.provenance["ancestor_scores"] == {"g0": 0.5, "g1": 0.5}

    def test_ancestor_batch_failure_reuses_parent_scores(self):
        tax = _chain_taxonomy()
        pt = full_pt(tax)
        rng = random.Random(4)
        table = {n.id: round(rng.uniform(0.01, 1.0), 2) for n in tax}
        provider = TableProvider(table, fail_ids={"g0", "g1"})
        gateway = LlmGateway(provider, ProviderConfig(max_retries=0))
        labels = classify_rerank(make_doc("d", "x"), tax, pt, gateway,
                                 fn=AggregationFunction.HARMONIC_ALL_ANCESTORS, top_n=5)
        assert FLAG_ANCESTOR_SCORES_UNAVAILABLE in labels.flags
        expected, _ = _rerank_oracle(tax, pt, table,
                                     AggregationFunction.HARMONIC_ALL_ANCESTORS, 5,
                                     parent_substitute=True)
        assert list(labels.leaf_ids) == expected

    @pytest.mark.parametrize("reply", ["unparseable", "incomplete"])
    def test_unusable_deeper_reply_reuses_parent_scores(self, reply):
        tax = _chain_taxonomy()
        pt = full_pt(tax)
        rng = random.Random(5)
        table = {n.id: round(rng.uniform(0.01, 1.0), 2) for n in tax if n.id not in ("g0", "g1")}

        class Garbled(TableProvider):
            def complete(self, spec, reminder=None):
                if reply == "unparseable" and spec.user_payload["nodes"][0]["id"] == "g0":
                    return "no scores today"
                return super().complete(spec, reminder)

        gateway = LlmGateway(Garbled(table), ProviderConfig(max_retries=1))
        labels = classify_rerank(make_doc("d", "x"), tax, pt, gateway,
                                 fn=AggregationFunction.AVG_ALL_ANCESTORS, top_n=5)
        assert labels.flags == (FLAG_ANCESTOR_SCORES_UNAVAILABLE,)
        assert labels.provenance["ancestor_scores"] == {}
        expected, _ = _rerank_oracle(tax, pt, table, AggregationFunction.AVG_ALL_ANCESTORS, 5,
                                     parent_substitute=True)
        assert list(labels.leaf_ids) == expected

    @pytest.mark.parametrize("error", [AuthError, ClientError])
    def test_non_retryable_deeper_call_error_is_raised(self, error):
        tax = _chain_taxonomy()
        provider = TableProvider({n.id: 0.5 for n in tax}, fail_ids={"g0", "g1"}, error=error)
        gateway = LlmGateway(provider, ProviderConfig())
        with pytest.raises(error):
            classify_rerank(make_doc("d", "x"), tax, full_pt(tax), gateway,
                            fn=AggregationFunction.HARMONIC_ALL_ANCESTORS)

    def test_missing_scores_default_to_floor(self):
        tax = _chain_taxonomy()
        pt = full_pt(tax)
        table = {n.id: 0.50 for n in tax}
        removed = "g1p1l2"
        del table[removed]
        gateway = LlmGateway(TableProvider(table), ProviderConfig())
        labels = classify_rerank(make_doc("d", "x"), tax, pt, gateway, top_n=len(pt.leaf_ids))
        assert labels.provenance["raw_scores"][removed] == 0.01
        assert labels.leaf_ids[-1] == removed

    def test_under_half_coverage_errors(self):
        tax = _chain_taxonomy()
        pt = full_pt(tax)
        leaves = list(pt.leaf_ids)
        sparse = {leaves[0]: 0.5}  # far fewer than half of leaves + parents
        gateway = LlmGateway(TableProvider(sparse), ProviderConfig())
        with pytest.raises(ScoringIncompleteError):
            classify_rerank(make_doc("d", "x"), tax, pt, gateway)


def _ask(gateway, template_id, doc, nodes):
    """One pointwise verdict per node, as classify_select_pointwise asks them."""
    return ask_in_order(gateway, [gw.doc_spec(template_id, doc, [gw.node_payload(n)])
                                  for n in nodes])


class TestPointwiseAssessments:
    def test_leaf_verdict_mock_rules(self, ternary, mock_gw):
        leaf = ternary.node(ternary.leaf_ids()[0])
        [fits] = _ask(mock_gw, TemplateId.SELECTP_LEAF, make_doc("d", leaf.name), [leaf])
        [misses] = _ask(mock_gw, TemplateId.SELECTP_LEAF, make_doc("d", "zzz qqq"), [leaf])
        assert fits.label_fit is True and misses.label_fit is False

    def test_parent_verdict_matches_jaccard_oracle(self, ternary, mock_gw):
        rng = random.Random(5)
        parents = sorted((n for n in ternary if not ternary.is_leaf(n.id)), key=lambda n: n.id)
        for i in range(30):
            doc = vocab_doc(rng, f"d{i}")
            node = parents[i % len(parents)]
            [got] = _ask(mock_gw, TemplateId.SELECTP_PARENT, doc, [node])
            overlap = o_overlap(doc, node)
            assert got.label_fit == (overlap >= THRESHOLD)
            assert got.relevancy_score == o_relevancy(overlap)
            assert 0.0 <= got.relevancy_score <= 1.0

    def test_wave_of_forty_equals_elementwise_oracle(self, mock_gw):
        tax = random_forest(random.Random(8), 120)
        pt = full_pt(tax, k=40)
        doc = make_doc("d", "markets risk", keywords=["credit", "pricing"])
        labels = classify_select_pointwise(doc, tax, pt, mock_gw, contextualize=False)
        verdicts = labels.provenance["leaf_verdicts"]
        assert len(pt.leaf_ids) == 40 and sorted(verdicts) == sorted(pt.leaf_ids)
        for leaf_id in pt.leaf_ids:
            fits = o_overlap(doc, tax.node(leaf_id)) >= THRESHOLD
            assert verdicts[leaf_id]["label_fit"] == fits


def _reference_adjust_label_count(trace, label_range):
    """adjust_label_count's backfill as two loops, the way it was first written."""
    min_labels, _ = label_range
    chosen = trace.survivors()
    if len(chosen) >= min_labels:
        return tuple(chosen), [], False
    order_index = {leaf_id: i for i, leaf_id in enumerate(trace.leaf_order)}
    parent_rejected = [
        leaf_id
        for leaf_id in trace.leaf_order
        if leaf_id not in chosen
        and trace.leaf_verdicts[leaf_id].label_fit
        and trace.parent_of[leaf_id] is not None
        and trace.parent_of[leaf_id] in trace.parent_verdicts
    ]
    parent_rejected.sort(key=lambda lid: (
        -trace.parent_verdicts[trace.parent_of[lid]].relevancy_score, order_index[lid]))
    backfilled: list[str] = []
    for leaf_id in parent_rejected:
        if len(chosen) + len(backfilled) >= min_labels:
            break
        backfilled.append(leaf_id)
    if len(chosen) + len(backfilled) < min_labels:
        taken = set(chosen) | set(backfilled)
        for leaf_id in trace.leaf_order:
            if len(chosen) + len(backfilled) >= min_labels:
                break
            if leaf_id not in taken:
                backfilled.append(leaf_id)
    result = tuple(chosen) + tuple(backfilled)
    return result, backfilled, len(result) < min_labels


@st.composite
def _pointwise_traces(draw):
    """A trace over up to 12 leaves under up to 4 parents (or none), with some
    parents unassessed and relevancy drawn from few values, so ties occur."""
    n_leaves = draw(st.integers(0, 12))
    leaf_order = tuple(f"l{i}" for i in range(n_leaves))
    parent_ids = [f"p{i}" for i in range(4)]
    parent_of = {lid: draw(st.sampled_from([None, *parent_ids])) for lid in leaf_order}
    leaf_verdicts = {lid: gw.LeafVerdict(main_focus="f", label_fit=draw(st.booleans()))
                     for lid in leaf_order}
    assessed = draw(st.lists(st.sampled_from(parent_ids), unique=True))
    parent_verdicts = {
        pid: gw.ParentVerdict(main_focus="f", label_fit=draw(st.booleans()),
                              relevancy_score=draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])))
        for pid in assessed
    }
    return PointwiseTrace(leaf_order, parent_of, leaf_verdicts, parent_verdicts)


class TestAdjustLabelCount:
    @given(_pointwise_traces(), st.integers(1, 14), st.integers(0, 4))
    @settings(max_examples=300, deadline=None)
    def test_one_stable_sort_matches_the_two_loop_backfill(self, trace, min_labels, extra):
        label_range = (min_labels, min_labels + extra)
        assert adjust_label_count(trace, label_range) == _reference_adjust_label_count(
            trace, label_range)

    def _trace(self, leaf_order, fits, parent_of, parent_fit, parent_rel):
        return PointwiseTrace(
            leaf_order=tuple(leaf_order),
            parent_of=parent_of,
            leaf_verdicts={
                lid: gw.LeafVerdict(main_focus="f", label_fit=fits[lid])
                for lid in leaf_order
            },
            parent_verdicts={
                pid: gw.ParentVerdict(main_focus="f", label_fit=parent_fit[pid],
                                      relevancy_score=parent_rel[pid])
                for pid in parent_fit
            },
        )

    def test_in_range_unchanged(self):
        trace = self._trace(
            ["a", "b", "c"],
            {"a": True, "b": True, "c": False},
            {"a": "p", "b": "p", "c": "p"},
            {"p": True},
            {"p": 0.9},
        )
        ids, backfilled, shortfall = adjust_label_count(trace, (1, 5))
        assert ids == ("a", "b") and not backfilled and not shortfall

    def test_backfill_prefers_high_parent_relevancy(self):
        # Sort oracle: rejected leaves ordered by (-relevancy, leaf order).
        trace = self._trace(
            ["a", "b", "c"],
            {"a": True, "b": True, "c": True},
            {"a": "p1", "b": "p2", "c": "p3"},
            {"p1": False, "p2": False, "p3": False},
            {"p1": 0.30, "p2": 0.70, "p3": 0.70},
        )
        ids, backfilled, shortfall = adjust_label_count(trace, (2, 5))
        assert ids == ("b", "c") and backfilled == ["b", "c"] and not shortfall

    def test_single_parent_rejected_leaf_backfilled(self):
        trace = self._trace(
            ["a"], {"a": True}, {"a": "p"}, {"p": False}, {"p": 0.70}
        )
        ids, backfilled, shortfall = adjust_label_count(trace, (1, 5))
        assert ids == ("a",) and backfilled == ["a"] and not shortfall

    def test_then_falls_back_to_ranking_order(self):
        trace = self._trace(
            ["a", "b", "c"],
            {"a": False, "b": False, "c": False},
            {"a": "p", "b": "p", "c": "p"},
            {},
            {},
        )
        ids, backfilled, shortfall = adjust_label_count(trace, (2, 5))
        assert ids == ("a", "b") and backfilled == ["a", "b"] and not shortfall

    def test_oversize_deferred_to_decrease(self):
        leaf_order = [f"l{i}" for i in range(9)]
        trace = self._trace(
            leaf_order,
            {lid: True for lid in leaf_order},
            {lid: None for lid in leaf_order},
            {},
            {},
        )
        ids, _, shortfall = adjust_label_count(trace, (1, 5))
        assert len(ids) == 9 and not shortfall

    def test_shortfall_flagged_when_exhausted(self):
        trace = self._trace(["a"], {"a": False}, {"a": None}, {}, {})
        ids, _, shortfall = adjust_label_count(trace, (2, 5))
        assert ids == ("a",) and shortfall

    def test_invalid_range(self):
        trace = self._trace(["a"], {"a": True}, {"a": None}, {}, {})
        with pytest.raises(ValueError):
            adjust_label_count(trace, (0, 5))

    def test_contextualization_is_monotone(self):
        # Flipping one parent verdict to true only ever grows the survivor set.
        rng = random.Random(17)
        for _ in range(50):
            leaf_order = [f"l{i}" for i in range(8)]
            parents = [f"p{i % 3}" for i in range(8)]
            fits = {lid: rng.random() < 0.7 for lid in leaf_order}
            parent_fit = {pid: rng.random() < 0.5 for pid in set(parents)}
            parent_rel = {pid: round(rng.random(), 2) for pid in set(parents)}
            base = self._trace(leaf_order, fits, dict(zip(leaf_order, parents)),
                               parent_fit, parent_rel)
            flipped_id = rng.choice(sorted(parent_fit))
            flipped_fit = dict(parent_fit)
            flipped_fit[flipped_id] = True
            flipped = self._trace(leaf_order, fits, dict(zip(leaf_order, parents)),
                                  flipped_fit, parent_rel)
            assert set(base.survivors()) <= set(flipped.survivors())


def _three_leaf_taxonomy():
    return Taxonomy(
        [
            TaxonomyNode(id="p1", name="auction markets"),
            TaxonomyNode(id="p2", name="volcano geology"),
            TaxonomyNode(id="L1", name="auction design", parent_id="p1"),
            TaxonomyNode(id="L2", name="auction pricing", parent_id="p1"),
            TaxonomyNode(id="L3", name="volcano hazards", parent_id="p2"),
        ]
    )


class TestSelectPointwise:
    def test_two_fitting_leaves_with_fitting_parents(self, mock_gw):
        tax = _three_leaf_taxonomy()
        doc = make_doc("d", "auction design pricing markets")
        labels = classify_select_pointwise(doc, tax, full_pt(tax), mock_gw, label_range=(1, 5))
        assert set(labels.leaf_ids) == {"L1", "L2"}
        assert labels.method is Method.SELECT_POINTWISE
        assert labels.provenance["backfilled"] == []

    def test_parent_rejection_excludes_leaf(self):
        tax = _three_leaf_taxonomy()
        # Leaf verdicts say fit for L1 and L3; parent p2 is rejected.
        responses = {
            "L1": '{"main_focus": "f", "label_fit": true}',
            "L2": '{"main_focus": "f", "label_fit": false}',
            "L3": '{"main_focus": "f", "label_fit": true}',
            "p1": '{"main_focus": "f", "label_fit": true, "relevancy_score": 0.9}',
            "p2": '{"main_focus": "f", "label_fit": false, "relevancy_score": 0.2}',
        }

        class ByNodeProvider:
            def complete(self, spec, reminder=None):
                return responses[spec.user_payload["nodes"][0]["id"]]

        gateway = LlmGateway(ByNodeProvider(), ProviderConfig())
        labels = classify_select_pointwise(
            make_doc("d", "x"), tax, full_pt(tax), gateway, label_range=(1, 5)
        )
        assert labels.leaf_ids == ("L1",)

    def test_contextualize_off_skips_parent_stage(self, mock_gw):
        tax = _three_leaf_taxonomy()
        provider = RecordingMockProvider(threshold=THRESHOLD)
        gateway = LlmGateway(provider, ProviderConfig())
        doc = make_doc("d", "auction design pricing markets")
        classify_select_pointwise(doc, tax, full_pt(tax), gateway, contextualize=False)
        assert all(c.template_id is not TemplateId.SELECTP_PARENT for c in provider.calls)

    def test_parents_assessed_once_per_document(self, ternary):
        provider = RecordingMockProvider(threshold=0.0)  # everything fits: max parent pressure
        gateway = LlmGateway(provider, ProviderConfig())
        doc = make_doc("d", "auction")
        classify_select_pointwise(doc, ternary, full_pt(ternary), gateway)
        parent_calls = [
            c.user_payload["nodes"][0]["id"]
            for c in provider.calls
            if c.template_id is TemplateId.SELECTP_PARENT
        ]
        assert len(parent_calls) == len(set(parent_calls))

    def test_matches_end_to_end_mock_oracle(self, ternary, mock_gw):
        rng = random.Random(23)
        for i in range(25):
            doc = vocab_doc(rng, f"d{i}")
            pt = full_pt(ternary, doc_id=doc.doc_id)
            labels = classify_select_pointwise(doc, ternary, pt, mock_gw)
            assert list(labels.leaf_ids) == oracle_pointwise(doc, ternary, pt, THRESHOLD)


class _JitteryMock(RecordingMockProvider):
    """The mock's replies, each after a random delay of up to 3 ms."""

    def __init__(self, seed: int, threshold: float = THRESHOLD):
        super().__init__(threshold)
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def complete(self, spec, reminder=None):
        with self._lock:
            delay = self._rng.uniform(0.0, 0.003)
        time.sleep(delay)
        return super().complete(spec, reminder)


def _call_multiset(calls):
    return sorted((c.template_id.value, c.user_text) for c in calls)


class TestEagerParents:
    """classify_select_pointwise asks a parent once its first fitting leaf is known."""

    @staticmethod
    def _wave_order(doc, tax, pt):
        """The reference: every leaf verdict as one wave, then the parents of
        fitting leaves, in the order of their first fitting leaf, as a second."""
        gateway = recording_mock_gateway(THRESHOLD)
        leaves = ask_in_order(gateway, [
            gw.doc_spec(TemplateId.SELECTP_LEAF, doc, [gw.node_payload(tax.node(lid))])
            for lid in pt.leaf_ids])
        parents = dict.fromkeys(
            tax.node(lid).parent_id for lid, verdict in zip(pt.leaf_ids, leaves)
            if verdict.label_fit and tax.node(lid).parent_id is not None)
        ask_in_order(gateway, [
            gw.doc_spec(TemplateId.SELECTP_PARENT, doc, [gw.node_payload(tax.node(pid))])
            for pid in parents])
        return gateway

    @pytest.mark.parametrize("width", [1, 2, 16, 32])
    def test_same_output_calls_and_counters_as_the_wave_order(self, ternary, width):
        rng = random.Random(11)
        for i in range(4):
            doc = vocab_doc(rng, f"d{i}")
            pt = full_pt(ternary, doc_id=doc.doc_id)
            gateway = LlmGateway(_JitteryMock(seed=width * 10 + i),
                                 ProviderConfig(max_in_flight=width))
            labels = classify_select_pointwise(doc, ternary, pt, gateway)
            reference = self._wave_order(doc, ternary, pt)
            assert labels == classify_select_pointwise(doc, ternary, pt, mock_gateway())
            assert list(labels.leaf_ids) == oracle_pointwise(doc, ternary, pt, THRESHOLD)
            assert _call_multiset(gateway.provider.calls) == _call_multiset(
                reference.provider.calls)
            assert (gateway.calls_made, gateway.characters_out, gateway.characters_in) == (
                reference.calls_made, reference.characters_out, reference.characters_in)

    def test_parent_is_asked_before_the_last_leaf_answers(self):
        tax = _three_leaf_taxonomy()
        parent_asked = threading.Event()
        waited: list[bool] = []

        class HoldLastLeaf(RecordingMockProvider):
            def complete(self, spec, reminder=None):
                node_id = spec.user_payload["nodes"][0]["id"]
                if spec.template_id is TemplateId.SELECTP_PARENT:
                    parent_asked.set()
                elif node_id == "L3":  # the last leaf answers only once a parent is asked
                    waited.append(parent_asked.wait(timeout=5))
                return super().complete(spec, reminder)

        doc = make_doc("d", "auction design markets")  # L1 and p1 fit, L3 does not
        gateway = LlmGateway(HoldLastLeaf(THRESHOLD), ProviderConfig(max_in_flight=8))
        labels = classify_select_pointwise(doc, tax, full_pt(tax), gateway)
        assert waited == [True]
        assert labels == classify_select_pointwise(doc, tax, full_pt(tax), mock_gateway())

    @pytest.mark.parametrize("slow", [1, 3])
    def test_failing_leaves_raise_the_first_failure_in_leaf_order(self, ternary, slow):
        pt = full_pt(ternary)
        failing = {pt.leaf_ids[1], pt.leaf_ids[3]}

        class Failing(RecordingMockProvider):
            def complete(self, spec, reminder=None):
                node_id = spec.user_payload["nodes"][0]["id"]
                if node_id in failing:
                    if node_id == pt.leaf_ids[slow]:
                        time.sleep(0.05)  # fails after the other one
                    raise TransportError(f"fail {node_id}")
                return super().complete(spec, reminder)

        gateway = LlmGateway(Failing(threshold=0.0), ProviderConfig(max_retries=0))
        with pytest.raises(TransportError, match=f"^fail {pt.leaf_ids[1]}$"):
            classify_select_pointwise(make_doc("d", "auction"), ternary, pt, gateway)

    def test_non_retryable_error_stops_unstarted_parent_calls(self, ternary):
        pt = full_pt(ternary)
        open_calls = 0
        lock = threading.Lock()

        class FirstParentRejected(RecordingMockProvider):
            def complete(self, spec, reminder=None):
                nonlocal open_calls
                with lock:
                    open_calls += 1
                try:
                    if spec.template_id is TemplateId.SELECTP_PARENT:
                        self.calls.append(spec)
                        raise AuthError("HTTP 401")
                    return super().complete(spec, reminder)
                finally:
                    with lock:
                        open_calls -= 1

        # Everything fits, so every parent is asked; on one thread they queue.
        provider = FirstParentRejected(threshold=0.0)
        gateway = LlmGateway(provider, ProviderConfig(max_in_flight=1))
        with pytest.raises(AuthError):
            classify_select_pointwise(make_doc("d", "auction"), ternary, pt, gateway)
        templates = [c.template_id for c in provider.calls]
        assert templates.count(TemplateId.SELECTP_PARENT) == 1
        assert templates.count(TemplateId.SELECTP_LEAF) == len(pt.leaf_ids)
        assert open_calls == 0


class TestLeafOnlyOutputs:
    def test_all_strategies_emit_only_taxonomy_leaves(self, mock_gw):
        rng = random.Random(99)
        for trial in range(5):
            tax = random_forest(rng, rng.randint(30, 120))
            leaf_set = set(tax.leaf_ids())
            doc = vocab_doc(rng, f"d{trial}")
            pt = full_pt(tax, doc_id=doc.doc_id, k=17)
            outputs = [
                classify_trav_select(doc, tax, mock_gw),
                classify_select_one_pass(doc, tax, pt, mock_gw),
                classify_select_pointwise(doc, tax, pt, mock_gw),
            ]
            table = {n.id: round(rng.uniform(0.01, 1.0), 2) for n in tax}
            gateway = LlmGateway(TableProvider(table), ProviderConfig())
            outputs.append(classify_rerank(doc, tax, pt, gateway))
            for labels in outputs:
                assert set(labels.leaf_ids) <= leaf_set
                assert len(set(labels.leaf_ids)) == len(labels.leaf_ids)

    def test_label_set_rejects_duplicates(self):
        with pytest.raises(Exception):
            LabelSet(doc_id="d", leaf_ids=("a", "a"), method=Method.RERANK)
