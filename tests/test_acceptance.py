"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with `pytest tests/test_acceptance.py -v -s`).

1. Metric arithmetic reproduces the published per-method result rows
   exactly at one-decimal half-up rounding.
2. Pruned-taxonomy closure invariants hold on 1,000 random forests.
3. The three selection strategies match an independent brute-force replay
   of the mock rule chain on every document.
4. All four score-aggregation functions match direct formula
   recomputation, and rerank ordering matches a brute-force sort.
5. Post-processing keeps every fuzzed candidate set within bounds.
6. Traversal terminates within max depth and never re-presents a node.
7. Batch classification is byte-deterministic, independent of parallelism.
8. Hierarchy statistics are exact on engineered taxonomies.

Two published figures are arithmetically unreachable as stated and are
handled with in-test impossibility proofs next to the nearest consistent
reproduction (see the assertions in criteria 1 and 8).
"""
from __future__ import annotations

import json
import random
import time
from statistics import fmean

import pytest

from taxocat import cli
from taxocat.evaluation import compare_methods, compute_metrics, load_judgments, percent
from taxocat.gateway import LlmGateway, ProviderConfig, TemplateId, mock_gateway
from taxocat.postprocess import FLAG_NEEDS_REVIEW, PostProcessConfig, postprocess_chain
from taxocat.retrieval import LeafRanking, build_pruned_taxonomy
from taxocat.strategies import (
    AggregationFunction,
    LabelSet,
    Method,
    aggregate_score,
    classify_rerank,
    classify_select_one_pass,
    classify_select_pointwise,
    classify_trav_select,
)
from taxocat.taxonomy import Taxonomy, TaxonomyNode, hierarchy_stats, save_taxonomy

from .util import (
    RecordingMockProvider,
    TableProvider,
    make_doc,
    oracle_one_pass,
    oracle_pointwise,
    oracle_trav_select,
    random_forest,
    ternary_taxonomy,
    vocab_doc,
    write_ndjson,
)

THRESHOLD = 0.2


def _ranking_for(leaves: list[str], doc_id: str = "d") -> LeafRanking:
    return LeafRanking(
        doc_id=doc_id,
        entries=tuple((lid, 1.0 - i / (len(leaves) + 1)) for i, lid in enumerate(leaves)),
    )


# Reverse-engineered judgment counts: (n, correct, {score: count}).
# Every in-house method row is an exact multiple of 1/70. The previous-SOTA
# row is NOT expressible over 70 judgments (proven below); 192 is the
# smallest denominator that reproduces all six published values exactly.
RESULT_COUNTS = {
    "select_pointwise": (70, 66, {5: 23, 4: 27, 3: 16, 2: 3, 1: 1}),
    "rerank": (70, 49, {5: 0, 4: 3, 3: 42, 2: 22, 1: 3}),
    "select_one_pass": (70, 41, {5: 3, 4: 17, 3: 18, 2: 20, 1: 12}),
    "trav_select": (70, 35, {5: 3, 4: 10, 3: 18, 2: 16, 1: 23}),
    "select_pointwise_no_decrease": (70, 44, {5: 0, 4: 3, 3: 35, 2: 26, 1: 6}),
    "select_pointwise_no_description": (70, 60, {5: 2, 4: 11, 3: 42, 2: 13, 1: 2}),
    "select_pointwise_no_context": (70, 60, {5: 2, 4: 20, 3: 40, 2: 5, 1: 3}),
    "previous_sota": (192, 118, {5: 0, 4: 22, 3: 96, 2: 59, 1: 15}),
}

EXPECTED_ROWS = {
    "select_pointwise": (94.3, 32.9, 38.6, 22.9, 4.3, 1.4),
    "rerank": (70.0, 0.0, 4.3, 60.0, 31.4, 4.3),
    "select_one_pass": (58.6, 4.3, 24.3, 25.7, 28.6, 17.1),
    "trav_select": (50.0, 4.3, 14.3, 25.7, 22.9, 32.9),
    "select_pointwise_no_decrease": (62.9, 0.0, 4.3, 50.0, 37.1, 8.6),
    "select_pointwise_no_description": (85.7, 2.9, 15.7, 60.0, 18.6, 2.9),
    "select_pointwise_no_context": (85.7, 2.9, 28.6, 57.1, 7.1, 4.3),
    "previous_sota": (61.5, 0.0, 11.5, 50.0, 30.7, 7.8),
}


def test_criterion_1_metric_reproduction(tmp_path):
    started = time.perf_counter()
    for method, (n, correct, scores) in RESULT_COUNTS.items():
        assert sum(scores.values()) == n
        path = tmp_path / f"{method}.ndjson"
        records = []
        i = 0
        for score, count in scores.items():
            for _ in range(count):
                records.append(
                    {"doc_id": f"d{i}", "method": method, "correct": i < correct, "score": score}
                )
                i += 1
        write_ndjson(path, records)
        report = compute_metrics(load_judgments(path))[method]
        expected = EXPECTED_ROWS[method]
        assert report.n == n
        assert report.accuracy_pct == expected[0], method
        assert tuple(report.score_dist_pct[s] for s in (5, 4, 3, 2, 1)) == expected[1:], method

    # The previous-SOTA row cannot come from 70 judgments: exhaustive proof
    # that no count k in 0..70 yields 61.5, 11.5, 30.7, or 7.8 percent.
    for target in (61.5, 11.5, 30.7, 7.8):
        assert all(percent(k, 70) != target for k in range(71))

    # Comparison table puts the strongest method first.
    reports = compute_metrics(
        load_judgments(tmp_path / "select_pointwise.ndjson")
        + load_judgments(tmp_path / "previous_sota.ndjson")
        + load_judgments(tmp_path / "rerank.ndjson")
    )
    table = compare_methods(reports.values())
    assert [r.method for r in table.reports] == ["select_pointwise", "rerank", "previous_sota"]

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS - every published result row reproduced exactly "
          f"(previous-SOTA row proven unreachable at n=70, reproduced at n=192) "
          f"[{elapsed:.2f}s]")


def test_criterion_2_pruned_taxonomy_closure():
    started = time.perf_counter()
    rng = random.Random(2024)
    checked = 0
    for i in range(1000):
        if i < 3:
            size = 10_000
        elif i % 50 == 0:
            size = rng.randint(2_000, 6_000)
        else:
            size = rng.randint(10, 300)
        tax = random_forest(rng, size, max_depth=9)
        parent_of = {node.id: node.parent_id for node in tax}
        leaves = list(tax.leaf_ids())
        order = rng.sample(leaves, len(leaves))
        k = rng.choice([1, 5, 17, 40, rng.randint(1, 100)])
        pt = build_pruned_taxonomy(tax, _ranking_for(order), k)

        assert len(pt.leaf_ids) == min(k, len(leaves))
        assert pt.leaf_ids == tuple(order[: min(k, len(leaves))])
        # Closure: re-walk every parent chain.
        for node_id in pt.node_ids:
            parent = parent_of[node_id]
            if parent is not None:
                assert parent in pt.node_ids
        # Minimality: the node set is exactly the union of the leaf chains.
        expected = set()
        for leaf_id in pt.leaf_ids:
            cur = leaf_id
            while cur is not None:
                expected.add(cur)
                cur = parent_of[cur]
        assert pt.node_ids == expected
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 1000
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 2 PASS - closure and leaf-count invariants on 1000 random "
          f"forests [{elapsed:.1f}s]")


def test_criterion_3_mock_oracle_equivalence():
    started = time.perf_counter()
    tax = ternary_taxonomy()
    assert len(tax.leaf_ids()) == 27 and max(tax.depth(node.id) for node in tax) == 3
    gateway = mock_gateway(threshold=THRESHOLD)
    rng = random.Random(42)
    matches = 0
    for i in range(50):
        doc = vocab_doc(rng, f"doc{i}")
        order = rng.sample(list(tax.leaf_ids()), 27)
        pt = build_pruned_taxonomy(tax, _ranking_for(order, doc.doc_id), 40)

        pointwise = classify_select_pointwise(doc, tax, pt, gateway)
        assert list(pointwise.leaf_ids) == oracle_pointwise(doc, tax, pt, THRESHOLD)

        one_pass = classify_select_one_pass(doc, tax, pt, gateway)
        assert set(one_pass.leaf_ids) == oracle_one_pass(doc, tax, pt, THRESHOLD)

        traversal = classify_trav_select(doc, tax, gateway)
        assert list(traversal.leaf_ids) == oracle_trav_select(doc, tax, THRESHOLD)
        matches += 1
    elapsed = time.perf_counter() - started
    assert matches == 50
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 3 PASS - pointwise, one-pass, and traversal match the "
          f"brute-force mock oracle on 50/50 documents [{elapsed:.1f}s]")


def test_criterion_4_aggregation_correctness():
    started = time.perf_counter()
    rng = random.Random(7)
    for _ in range(10_000):
        leaf = rng.uniform(0.01, 1.0)
        ancestors = [rng.uniform(0.01, 1.0) for _ in range(rng.randint(0, 8))]
        values = [leaf, *ancestors]
        direct = {
            AggregationFunction.LEAF_ONLY: leaf,
            AggregationFunction.AVG_DIRECT_PARENT:
                (leaf + ancestors[0]) / 2 if ancestors else leaf,
            AggregationFunction.AVG_ALL_ANCESTORS: sum(values) / len(values),
            AggregationFunction.HARMONIC_ALL_ANCESTORS:
                len(values) / sum(1 / v for v in values),
        }
        for fn, expected in direct.items():
            assert abs(aggregate_score(leaf, ancestors, fn) - expected) < 1e-9
        assert direct[AggregationFunction.HARMONIC_ALL_ANCESTORS] <= \
            direct[AggregationFunction.AVG_ALL_ANCESTORS] + 1e-12

    # Rerank ordering equals a brute-force sort for every aggregation function.
    tax = ternary_taxonomy()
    order = sorted(tax.leaf_ids())
    pt = build_pruned_taxonomy(tax, _ranking_for(order), 40)
    for fn in AggregationFunction:
        for trial in range(10):
            table = {node.id: round(rng.uniform(0.01, 1.0), 2) for node in tax}
            gateway = LlmGateway(TableProvider(table), ProviderConfig())
            labels = classify_rerank(make_doc("d", "x"), tax, pt, gateway, fn=fn, top_n=27)
            final = {}
            for leaf_id in pt.leaf_ids:
                chain = tax.path_to_root(leaf_id)[1:]
                scores = [table[a] for a in chain]
                if fn is AggregationFunction.LEAF_ONLY:
                    final[leaf_id] = table[leaf_id]
                elif fn is AggregationFunction.AVG_DIRECT_PARENT:
                    final[leaf_id] = (table[leaf_id] + scores[0]) / 2 if scores else table[leaf_id]
                elif fn is AggregationFunction.AVG_ALL_ANCESTORS:
                    final[leaf_id] = fmean([table[leaf_id], *scores])
                else:
                    vals = [table[leaf_id], *scores]
                    final[leaf_id] = len(vals) / sum(1 / v for v in vals)
            expected = sorted(pt.leaf_ids, key=lambda lid: (-final[lid], lid))
            assert list(labels.leaf_ids) == expected, fn
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 4 PASS - 10,000 aggregation tuples match direct formulas; "
          f"rerank ordering equals brute-force sort for all four functions [{elapsed:.1f}s]")


def test_criterion_5_postprocess_bounds():
    started = time.perf_counter()
    nodes = []
    for p in range(12):
        nodes.append(TaxonomyNode(id=f"p{p}", name=f"area {p}"))
        for l in range(6):
            nodes.append(TaxonomyNode(id=f"p{p}l{l}", name=f"topic {p} {l}", parent_id=f"p{p}"))
    tax = Taxonomy(nodes)
    leaves = list(tax.leaf_ids())
    gateway = mock_gateway(threshold=THRESHOLD)
    config = PostProcessConfig()
    doc = make_doc("d", "topic 3")
    rng = random.Random(99)
    for case in range(10_000):
        size = case % 61
        picked = rng.sample(leaves, size)
        pt = build_pruned_taxonomy(tax, _ranking_for(rng.sample(leaves, len(leaves))), 72)
        labels = LabelSet(doc_id="d", leaf_ids=tuple(picked), method=Method.SELECT_ONE_PASS)
        out = postprocess_chain(doc, labels, tax, pt, gateway, config, rng=rng)
        assert len(out.leaf_ids) <= config.max_labels
        if size == 0:
            assert FLAG_NEEDS_REVIEW in out.flags
        else:
            assert 1 <= len(out.leaf_ids)
        counts: dict[str, int] = {}
        for leaf_id in out.leaf_ids:
            parent = tax.node(leaf_id).parent_id
            counts[parent] = counts.get(parent, 0) + 1
        assert all(v <= config.sibling_cap for v in counts.values())
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 5 PASS - 10,000 fuzzed candidate sets stay within "
          f"[1, 5] with the sibling cap never exceeded [{elapsed:.1f}s]")


def _depth9_taxonomy(rng: random.Random) -> Taxonomy:
    """Depth-9 tree: a spine to depth 9 plus random side branches."""
    nodes = [TaxonomyNode(id="spine1", name="alpha root")]
    for depth in range(2, 10):
        nodes.append(
            TaxonomyNode(id=f"spine{depth}", name="alpha branch", parent_id=f"spine{depth-1}")
        )
    serial = 0
    for depth in range(1, 9):
        for _ in range(rng.randint(1, 3)):
            serial += 1
            nodes.append(
                TaxonomyNode(
                    id=f"side{serial}",
                    name=f"{rng.choice(['alpha', 'beta', 'gamma'])} topic {serial}",
                    parent_id=f"spine{depth}",
                )
            )
    return Taxonomy(nodes)


def test_criterion_6_trav_select_termination():
    rng = random.Random(6)
    for trial in range(10):
        tax = _depth9_taxonomy(rng)
        assert max(tax.depth(node.id) for node in tax) == 9
        provider = RecordingMockProvider(threshold=0.0 if trial == 0 else THRESHOLD)
        gateway = LlmGateway(provider, ProviderConfig())
        doc = make_doc("d", "alpha beta topic")
        classify_trav_select(doc, tax, gateway)
        transcript = [c for c in provider.calls if c.template_id is TemplateId.TRAV_SELECT]
        assert len(transcript) <= 9
        presented = [n["id"] for call in transcript for n in call.user_payload["nodes"]]
        assert len(presented) == len(set(presented))
        if trial == 0:
            assert len(transcript) == 9  # threshold 0 selects everything: full depth
    print("\nACCEPTANCE 6 PASS - traversal completes in <= 9 rounds on depth-9 "
          "taxonomies and presents no node twice (verified via call transcripts)")


def test_criterion_7_classify_determinism(tmp_path):
    tax_path = tmp_path / "taxonomy.ndjson"
    save_taxonomy(ternary_taxonomy(), tax_path)
    rng = random.Random(3)
    docs = [vocab_doc(rng, f"doc{i:03d}") for i in range(100)]
    docs_path = tmp_path / "docs.ndjson"
    write_ndjson(
        docs_path,
        [{"doc_id": d.doc_id, "title": d.title, "keywords": list(d.keywords),
          "abstract": d.abstract} for d in docs],
    )

    for strategy in ("pointwise", "one-pass", "rerank", "trav-select"):
        outputs = {}
        for name, parallelism in (("a", 1), ("b", 1), ("c", 2), ("d", 8)):
            out = tmp_path / f"out_{strategy}_{name}.ndjson"
            code = cli.main(
                ["classify", "--taxonomy", str(tax_path), "--documents", str(docs_path),
                 "--output", str(out), "--strategy", strategy, "--mock",
                 "--ablation", "no-decrease", "--seed", "7",
                 "--parallelism", str(parallelism)]
            )
            assert code == 0
            outputs[name] = out.read_bytes()
        assert outputs["a"] == outputs["b"] == outputs["c"] == outputs["d"], strategy
        assert len(outputs["a"].splitlines()) == 100

    # Pointwise with the LLM decrease step, which follows its concurrent verdict waves.
    outputs = {}
    for parallelism in (1, 8):
        out = tmp_path / f"out_pointwise_decrease_{parallelism}.ndjson"
        code = cli.main(
            ["classify", "--taxonomy", str(tax_path), "--documents", str(docs_path),
             "--output", str(out), "--strategy", "pointwise", "--mock", "--seed", "7",
             "--parallelism", str(parallelism)]
        )
        assert code == 0
        outputs[parallelism] = out.read_bytes()
    assert outputs[1] == outputs[8]
    decreased = [r for r in map(json.loads, outputs[1].splitlines())
                 if "returned" in r["provenance"].get("decrease", {})]
    assert decreased

    # Rerank with all ancestors, whose two scoring calls are sent together.
    outputs = {}
    for parallelism in (1, 2, 8):
        out = tmp_path / f"out_rerank_harmonic_{parallelism}.ndjson"
        code = cli.main(
            ["classify", "--taxonomy", str(tax_path), "--documents", str(docs_path),
             "--output", str(out), "--strategy", "rerank", "--agg", "harmonic-all-ancestors",
             "--mock", "--seed", "7", "--parallelism", str(parallelism)]
        )
        assert code == 0
        outputs[parallelism] = out.read_bytes()
    assert outputs[1] == outputs[2] == outputs[8]
    assert any(r["provenance"]["ancestor_scores"] for r in map(json.loads, outputs[1].splitlines()))
    print("\nACCEPTANCE 7 PASS - seeded mock runs over 100 documents are byte-identical "
          "for all four strategies, twice at parallelism 1 and at 2 and 8, for "
          "pointwise with the decrease step at 1 and 8, and for rerank with "
          "harmonic-all-ancestors at 1, 2 and 8")


def _spread(total: int, parts: int) -> list[int]:
    base, rem = divmod(total, parts)
    return [base + 1] * rem + [base] * (parts - rem)


def _reference_scale_taxonomy() -> Taxonomy:
    """2778 leaves / 477 parents / max 159 children / max depth 9 / mean leaf depth 4.39."""
    nodes = [TaxonomyNode(id="root", name="root")]
    for depth in range(2, 9):
        nodes.append(TaxonomyNode(id=f"s{depth}", name=f"spine {depth}",
                                  parent_id="root" if depth == 2 else f"s{depth-1}"))
    nodes.append(TaxonomyNode(id="deep_leaf", name="deep leaf", parent_id="s8"))

    serial = 0

    def add_parents_with_leaves(count, attach_to, leaf_total, leaf_prefix, big_first=None):
        nonlocal serial
        loads = _spread(leaf_total - (big_first or 0), count - (1 if big_first else 0))
        if big_first:
            loads = [big_first] + loads
        for load in loads:
            serial += 1
            pid = f"q{serial}"
            nodes.append(TaxonomyNode(id=pid, name=f"parent {serial}", parent_id=attach_to))
            for j in range(load):
                nodes.append(TaxonomyNode(id=f"{leaf_prefix}{serial}_{j}",
                                          name=f"leaf {serial} {j}", parent_id=pid))

    add_parents_with_leaves(100, "root", 659, "a", big_first=159)  # leaves at depth 3
    add_parents_with_leaves(157, "s2", 1170, "b")                  # leaves at depth 4
    add_parents_with_leaves(157, "s3", 158, "c")                   # leaves at depth 5
    add_parents_with_leaves(55, "s4", 790, "d")                    # leaves at depth 6
    return Taxonomy(nodes)


def test_criterion_8_hierarchy_stats():
    # Planted construction with hand-countable values.
    nodes = [TaxonomyNode(id="r", name="root")]
    nodes.extend(TaxonomyNode(id=f"big{i}", name=f"big {i}", parent_id="r") for i in range(159))
    nodes.append(TaxonomyNode(id="side", name="side", parent_id="big0"))
    planted = hierarchy_stats(Taxonomy(nodes))
    assert planted.max_children == 159
    assert planted.parent_count == 2          # r and big0
    assert planted.leaf_count == 159          # big1..big158 plus side
    assert planted.max_leaf_depth == 3
    assert planted.avg_children == (160 / 2)

    # Engineered reference-scale taxonomy.
    tax = _reference_scale_taxonomy()
    stats = hierarchy_stats(tax)
    assert stats.leaf_count == 2778
    assert stats.parent_count == 477
    assert stats.max_children == 159
    assert stats.max_leaf_depth == 9
    assert round(stats.avg_leaf_depth, 2) == 4.39

    # The published mean children-per-parent (6.86) is unreachable for any
    # forest with these counts: total child edges are at most nodes - 1.
    total_nodes = stats.leaf_count + stats.parent_count
    max_possible_avg = (total_nodes - 1) / stats.parent_count
    assert max_possible_avg < 6.855  # 6.86 can never round into view
    assert round(stats.avg_children, 2) == round(max_possible_avg, 2) == 6.82

    print("\nACCEPTANCE 8 PASS - planted stats exact; reference-scale taxonomy "
          "reports 2778 / 477 / 159 / 4.39 / 9 exactly; children-per-parent mean "
          "proven capped at 6.82 for these counts (published 6.86 unreachable)")
