"""Embedding, ranking, pruning, and recall metrics."""
from __future__ import annotations

import io
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxocat.documents import Document, DocumentError, document_text
from taxocat.retrieval import (
    DepthRecall,
    EmbeddingStore,
    EmbeddingVector,
    HashBagEmbedder,
    HttpEmbedder,
    IndexIncompleteError,
    LeafRanking,
    RetrievalError,
    build_pruned_taxonomy,
    cosine_similarity,
    embed_taxonomy_leaves,
    load_gold_labels,
    node_text,
    rank_leaves,
    recall_at_k,
)
from taxocat.taxonomy import Taxonomy, TaxonomyNode

from .util import make_doc, random_forest


class TestNodeText:
    def test_with_description(self):
        node = TaxonomyNode(id="x", name="Game Theory",
                            description="Research on strategic interaction")
        assert node_text(node) == "Game Theory: Research on strategic interaction"

    def test_without_description(self):
        assert node_text(TaxonomyNode(id="x", name="Ecology eJournal")) == "Ecology eJournal"

    @given(st.text(min_size=1).filter(lambda s: s.strip()),
           st.one_of(st.none(), st.text()))
    @settings(max_examples=200)
    def test_name_is_prefix(self, name, description):
        node = TaxonomyNode(id="x", name=name, description=description)
        assert node_text(node).startswith(name)


class TestDocumentText:
    def test_all_fields(self):
        doc = make_doc("d", "T", keywords=["a", "b"], abstract="A")
        assert document_text(doc) == "T\na, b\nA"

    def test_missing_keywords_collapse(self):
        assert document_text(make_doc("d", "T", abstract="A")) == "T\nA"

    def test_nine_keywords_eight_separators(self):
        keywords = [f"kw{i}" for i in range(9)]
        doc = make_doc("d", "T", keywords=keywords)
        joined = document_text(doc).split("\n")[1]
        assert joined.count(", ") == 8

    def test_empty_title_rejected(self):
        with pytest.raises(DocumentError):
            Document(doc_id="d", title="  ")


class TestDocumentLoading:
    def test_load_documents(self, tmp_path):
        from taxocat.documents import load_documents

        path = tmp_path / "docs.ndjson"
        path.write_text(
            '{"doc_id": "d1", "title": "a study of auctions and markets",'
            ' "keywords": ["bids"], "abstract": "%s"}\n'
            '{"doc_id": "d2", "title": "pricing under risk aversion"}\n' % ("w " * 30).strip()
        )
        docs = load_documents(path)
        assert [d.doc_id for d in docs] == ["d1", "d2"]
        assert docs[1].keywords == () and docs[1].abstract == ""

    def test_duplicate_doc_id_rejected(self, tmp_path):
        from taxocat.documents import load_documents

        path = tmp_path / "docs.ndjson"
        path.write_text('{"doc_id": "d", "title": "one"}\n{"doc_id": "d", "title": "two"}\n')
        with pytest.raises(DocumentError, match="duplicate"):
            load_documents(path)

    def test_length_advisories_warn_but_accept(self, caplog):
        import logging

        from taxocat.documents import load_documents

        stream = io.StringIO('{"doc_id": "d", "title": "hi", "abstract": "too short"}\n')
        with caplog.at_level(logging.WARNING, logger="taxocat.documents"):
            docs = load_documents(stream)
        assert len(docs) == 1  # advisory ranges never reject
        assert any("title has 1 words" in m for m in caplog.messages)
        assert any("abstract has 2 words" in m for m in caplog.messages)


class TestCosine:
    def _vec(self, *values, tag="t"):
        return EmbeddingVector(values=np.array(values, dtype=float), model_tag=tag)

    def test_self_similarity(self):
        v = self._vec(0.3, -0.2, 0.9)
        assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity(self._vec(1, 0), self._vec(0, 1)) == 0.0

    def test_known_value(self):
        # Direct formula evaluation as oracle.
        a, b = (1, 2, 3), (4, 5, 6)
        dot = sum(x * y for x, y in zip(a, b))
        expected = dot / (math.sqrt(sum(x * x for x in a)) * math.sqrt(sum(y * y for y in b)))
        assert expected == pytest.approx(0.9746, abs=1e-4)
        assert cosine_similarity(self._vec(*a), self._vec(*b)) == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(RetrievalError, match="dimension"):
            cosine_similarity(self._vec(1, 2), self._vec(1, 2, 3))

    def test_model_tag_mismatch(self):
        with pytest.raises(RetrievalError, match="model_tag"):
            cosine_similarity(self._vec(1, 2), self._vec(1, 2, tag="other"))

    def test_zero_norm(self):
        with pytest.raises(RetrievalError, match="zero-norm"):
            cosine_similarity(self._vec(0, 0), self._vec(1, 2))

    def test_non_finite_rejected(self):
        with pytest.raises(RetrievalError):
            self._vec(float("nan"), 1.0)

    @given(
        st.lists(st.floats(-5, 5), min_size=3, max_size=3),
        st.lists(st.floats(-5, 5), min_size=3, max_size=3),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=200)
    def test_positive_scaling_invariance(self, a, b, c):
        va, vb = np.array(a), np.array(b)
        if np.linalg.norm(va) < 1e-9 or np.linalg.norm(vb) < 1e-9:
            return
        base = cosine_similarity(self._vec(*a), self._vec(*b))
        scaled = cosine_similarity(self._vec(*a), self._vec(*(vb * c)))
        assert scaled == pytest.approx(base, abs=1e-9)


class TestEmbedderAndStore:
    def test_hash_bag_deterministic_and_unit_norm(self):
        embedder = HashBagEmbedder(dim=64)
        v1 = embedder.embed("auction design and markets")
        v2 = embedder.embed("auction design and markets")
        assert np.array_equal(v1.values, v2.values)
        assert np.linalg.norm(v1.values) == pytest.approx(1.0)
        assert v1.model_tag == "hash-bag-64"

    def test_empty_text_still_embeds(self):
        v = HashBagEmbedder(dim=16).embed("")
        assert np.linalg.norm(v.values) == pytest.approx(1.0)

    def test_store_normalizes_at_ingest(self):
        store = EmbeddingStore(model_tag="t")
        store.add_batch([("a", EmbeddingVector(values=np.array([3.0, 4.0]), model_tag="t"))])
        assert np.allclose(store.get("a").values, [0.6, 0.8])

    def test_store_rejects_foreign_tag(self):
        store = EmbeddingStore(model_tag="t")
        with pytest.raises(RetrievalError, match="store"):
            store.add_batch([("a", EmbeddingVector(values=np.ones(2), model_tag="other"))])

    def test_save_load_round_trip(self, tmp_path):
        embedder = HashBagEmbedder(dim=32)
        store = EmbeddingStore(model_tag=embedder.model_tag)
        store.add_batch([(f"n{i}", embedder.embed(f"text {i}")) for i in range(5)])
        path = tmp_path / "cache.ndjson"
        store.save(path)
        loaded = EmbeddingStore.load(path, model_tag=embedder.model_tag)
        assert len(loaded) == 5
        for i in range(5):
            assert np.allclose(loaded.get(f"n{i}").values, store.get(f"n{i}").values)

    def test_load_rejects_tag_mismatch(self, tmp_path):
        store = EmbeddingStore(model_tag="a")
        store.add_batch([("x", EmbeddingVector(values=np.ones(2), model_tag="a"))])
        path = tmp_path / "cache.ndjson"
        store.save(path)
        with pytest.raises(RetrievalError, match="model_tag"):
            EmbeddingStore.load(path, model_tag="b")

    def test_http_embedder(self, monkeypatch):
        class FakeResponse:
            status_code = 200

            def json(self):
                return {"data": [{"embedding": [1.0, 2.0, 2.0]}]}

        class FakeSession:
            def post(self, url, json=None, headers=None, timeout=None):
                return FakeResponse()

        embedder = HttpEmbedder(endpoint="https://x/emb", model_name="m",
                                session=FakeSession())
        vec = embedder.embed("hello")
        assert vec.model_tag == "m"
        assert np.allclose(vec.values, [1.0, 2.0, 2.0])

    def test_http_embedder_error(self):
        class FakeSession:
            def post(self, url, json=None, headers=None, timeout=None):
                class R:
                    status_code = 500

                    def json(self):
                        return {}

                return R()

        embedder = HttpEmbedder(endpoint="https://x/emb", model_name="m", session=FakeSession())
        with pytest.raises(RetrievalError, match="HTTP 500"):
            embedder.embed("hello")


def _named_taxonomy(names: dict[str, str], parents: dict[str, str | None]) -> Taxonomy:
    return Taxonomy(
        [TaxonomyNode(id=nid, name=names[nid], parent_id=parents.get(nid)) for nid in names]
    )


class TestRankLeaves:
    def test_exact_match_ranks_first(self):
        tax = _named_taxonomy(
            {"r": "root", "L1": "ecology systems", "L2": "auction design", "L3": "credit risk"},
            {"L1": "r", "L2": "r", "L3": "r"},
        )
        embedder = HashBagEmbedder(dim=128)
        store = embed_taxonomy_leaves(tax, embedder)
        ranking = rank_leaves(make_doc("d", "auction design"), tax, store, embedder)
        assert ranking.entries[0][0] == "L2"
        assert ranking.entries[0][1] == pytest.approx(1.0)

    def test_ties_break_by_ascending_id(self):
        tax = _named_taxonomy(
            {"r": "root", "zL": "same words", "aL": "same words"},
            {"zL": "r", "aL": "r"},
        )
        embedder = HashBagEmbedder(dim=64)
        store = embed_taxonomy_leaves(tax, embedder)
        ranking = rank_leaves(make_doc("d", "same words"), tax, store, embedder)
        assert ranking.leaf_ids() == ("aL", "zL")

    def test_matches_brute_force_sort(self):
        rng = random.Random(11)
        tax = random_forest(rng, 300)
        embedder = HashBagEmbedder(dim=128)
        store = embed_taxonomy_leaves(tax, embedder)
        doc = make_doc("d", "markets risk", keywords=["credit"], abstract="pricing dynamics")
        ranking = rank_leaves(doc, tax, store, embedder)

        # Oracle: exhaustive pairwise similarity + sort, straight from vectors.
        doc_vec = embedder.embed(document_text(doc)).values
        doc_vec = doc_vec / np.linalg.norm(doc_vec)
        scored = []
        for leaf_id in tax.leaf_ids():
            vec = store.get(leaf_id).values
            scored.append((leaf_id, float(np.dot(doc_vec, vec / np.linalg.norm(vec)))))
        scored.sort(key=lambda t: (-t[1], t[0]))
        assert ranking.leaf_ids() == tuple(lid for lid, _ in scored)
        for (_, got), (_, want) in zip(ranking.entries, scored):
            assert got == pytest.approx(want, abs=1e-9)

    def test_ranking_is_permutation_of_leaves(self):
        tax = random_forest(random.Random(5), 150)
        embedder = HashBagEmbedder(dim=64)
        store = embed_taxonomy_leaves(tax, embedder)
        ranking = rank_leaves(make_doc("d", "welfare"), tax, store, embedder)
        assert sorted(ranking.leaf_ids()) == sorted(tax.leaf_ids())

    def test_missing_embeddings_listed(self, tiny_taxonomy):
        embedder = HashBagEmbedder(dim=32)
        store = EmbeddingStore(model_tag=embedder.model_tag)
        store.add_batch([("B", embedder.embed("beta"))])
        with pytest.raises(IndexIncompleteError) as err:
            rank_leaves(make_doc("d", "beta"), tiny_taxonomy, store, embedder)
        assert err.value.missing_ids == ("C",)

    def test_embedder_store_tag_mismatch(self, tiny_taxonomy):
        store = EmbeddingStore(model_tag="other")
        with pytest.raises(RetrievalError, match="model_tag|store"):
            rank_leaves(make_doc("d", "x"), tiny_taxonomy, store, HashBagEmbedder(dim=16))

    def test_ranking_validation(self):
        with pytest.raises(RetrievalError, match="sorted"):
            LeafRanking(doc_id="d", entries=(("a", 0.1), ("b", 0.9)))
        with pytest.raises(RetrievalError, match="duplicate"):
            LeafRanking(doc_id="d", entries=(("a", 0.9), ("a", 0.1)))


def _ranking(doc_id: str, leaf_ids: list[str]) -> LeafRanking:
    n = len(leaf_ids)
    return LeafRanking(
        doc_id=doc_id,
        entries=tuple((lid, 1.0 - i / (n + 1)) for i, lid in enumerate(leaf_ids)),
    )


class TestPrunedTaxonomy:
    def test_top_40_at_reference_scale(self):
        rng = random.Random(40)
        tax = random_forest(rng, 2000)
        leaves = list(tax.leaf_ids())
        ranking = _ranking("d", rng.sample(leaves, len(leaves)))
        pt = build_pruned_taxonomy(tax, ranking, 40)
        assert len(pt.leaf_ids) == 40
        assert pt.leaf_ids == ranking.leaf_ids()[:40]

    def test_k_saturates_at_leaf_count(self, tiny_taxonomy):
        pt = build_pruned_taxonomy(tiny_taxonomy, _ranking("d", ["B", "C"]), 99)
        assert set(pt.leaf_ids) == {"B", "C"}

    def test_k_must_be_positive(self, tiny_taxonomy):
        with pytest.raises(ValueError):
            build_pruned_taxonomy(tiny_taxonomy, _ranking("d", ["B", "C"]), 0)

    @pytest.mark.parametrize("k", [1, 5, 17])
    def test_ancestor_closure_on_random_forests(self, k):
        rng = random.Random(k)
        for _ in range(20):
            tax = random_forest(rng, rng.randint(20, 400))
            leaves = list(tax.leaf_ids())
            pt = build_pruned_taxonomy(tax, _ranking("d", rng.sample(leaves, len(leaves))), k)
            # Closure oracle: re-walk every parent chain.
            for nid in pt.node_ids:
                parent = tax.node(nid).parent_id
                if parent is not None:
                    assert parent in pt.node_ids
            assert len(pt.leaf_ids) == min(k, len(leaves))
            # Minimality: node set is exactly the union of the leaf chains.
            expected = set()
            for lid in pt.leaf_ids:
                cur = lid
                while cur is not None:
                    expected.add(cur)
                    cur = tax.node(cur).parent_id
            assert pt.node_ids == expected
            # Leaves of the induced subtree are exactly the selected leaves.
            has_kid = {nid: False for nid in pt.node_ids}
            for nid in pt.node_ids:
                parent = tax.node(nid).parent_id
                if parent in has_kid:
                    has_kid[parent] = True
            assert {nid for nid, kid in has_kid.items() if not kid} == set(pt.leaf_ids)


class TestRecallAtK:
    def test_hit_and_miss(self):
        leaf_ids = [f"L{i}" for i in range(60)]
        ranking = _ranking("d", leaf_ids)
        hit = recall_at_k([ranking], {"d": {"L2"}}, [10])[0]
        assert hit.all_gold_rate == 1.0 and hit.any_gold_rate == 1.0
        miss = recall_at_k([ranking], {"d": {"L49"}}, [40])[0]
        assert miss.all_gold_rate == 0.0 and miss.any_gold_rate == 0.0

    def test_counting_oracle_on_planted_ranks(self):
        rng = random.Random(9)
        leaf_ids = [f"L{i}" for i in range(120)]
        rankings, gold, planted = [], {}, {}
        for d in range(100):
            order = rng.sample(leaf_ids, len(leaf_ids))
            rank = rng.randint(1, 120)
            doc_id = f"doc{d}"
            rankings.append(_ranking(doc_id, order))
            gold[doc_id] = {order[rank - 1]}
            planted[doc_id] = rank
        for depth in (10, 40, 100):
            expected = sum(1 for r in planted.values() if r <= depth) / 100
            row = recall_at_k(rankings, gold, [depth])[0]
            assert row.all_gold_rate == pytest.approx(expected)
            assert row.any_gold_rate == pytest.approx(expected)

    def test_monotone_in_depth(self):
        rng = random.Random(13)
        leaf_ids = [f"L{i}" for i in range(50)]
        rankings = [_ranking(f"d{i}", rng.sample(leaf_ids, 50)) for i in range(30)]
        gold = {f"d{i}": set(rng.sample(leaf_ids, rng.randint(1, 4))) for i in range(30)}
        rows = recall_at_k(rankings, gold, list(range(1, 51, 5)))
        for a, b in zip(rows, rows[1:]):
            assert b.all_gold_rate >= a.all_gold_rate
            assert b.any_gold_rate >= a.any_gold_rate
            assert b.any_gold_rate >= b.all_gold_rate

    def test_missing_gold_entry(self):
        with pytest.raises(RetrievalError, match="missing gold"):
            recall_at_k([_ranking("d", ["a"])], {}, [1])


class TestMalformedRecords:
    """Bad gold and embedding-cache lines raise RetrievalError naming the line."""

    def test_gold_line_not_an_object(self):
        text = '{"doc_id": "a", "gold": ["x"]}\n[1, 2]\n'
        with pytest.raises(RetrievalError, match="gold file line 2"):
            load_gold_labels(io.StringIO(text))

    def test_gold_labels_must_be_ids(self):
        with pytest.raises(RetrievalError, match="gold file line 1"):
            load_gold_labels(io.StringIO('{"doc_id": "a", "gold": [{"id": "x"}]}\n'))

    def test_cache_line_without_model_tag(self):
        line = json.dumps({"node_id": "n", "vector": [1.0, 0.0]})
        with pytest.raises(RetrievalError, match="embedding cache line 1"):
            EmbeddingStore.load(io.StringIO(line + "\n"))

    def test_cache_line_not_an_object(self):
        with pytest.raises(RetrievalError, match="embedding cache line 1"):
            EmbeddingStore.load(io.StringIO("[1]\n"))

    @pytest.mark.parametrize("vector", [[1.0, "2"], [True, 1.0], [[1.0, 0.0]], "1.0", None])
    def test_cache_vector_must_be_numbers(self, vector):
        line = json.dumps({"node_id": "n", "model_tag": "t", "vector": vector})
        with pytest.raises(RetrievalError, match="embedding cache line 1"):
            EmbeddingStore.load(io.StringIO(line + "\n"))
