"""Embedding, ranking, pruning, and recall metrics."""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from taxocat import ndjson
from taxocat.documents import Document, DocumentError, document_text
from taxocat.gateway import ProviderConfig
from taxocat.retrieval import (
    EMBED_BATCH,
    SIM_DECIMALS,
    DepthRecall,
    EmbeddingStore,
    HashBagEmbedder,
    HttpEmbedder,
    IndexIncompleteError,
    LeafRanking,
    RetrievalError,
    build_pruned_taxonomy,
    embed_taxonomy_leaves,
    load_gold_labels,
    node_text,
    rank_block,
    rank_leaves,
    recall_at_k,
    text_sha256,
)
from taxocat.taxonomy import Taxonomy, TaxonomyNode

from .util import (CountingEmbedder, ProjectionEmbedder, cosine_similarity, make_doc,
                   random_forest, ternary_taxonomy, vocab_doc, write_ndjson)

_CONFIG = ProviderConfig(embedding_endpoint="https://x/emb", embedding_model="m")


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

    def test_length_advisories_warn_but_accept(self, tmp_path, caplog):
        import logging

        from taxocat.documents import load_documents

        path = tmp_path / "docs.ndjson"
        write_ndjson(path, [{"doc_id": "d", "title": "hi", "abstract": "too short"}])
        with caplog.at_level(logging.WARNING, logger="taxocat.documents"):
            docs = load_documents(path)
        assert len(docs) == 1  # advisory ranges never reject
        assert any("title has 1 words" in m for m in caplog.messages)
        assert any("abstract has 2 words" in m for m in caplog.messages)


class TestCosine:
    def _vec(self, *values):
        return np.array(values, dtype=float)

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

    def test_zero_norm(self):
        with pytest.raises(RetrievalError, match="zero-norm"):
            cosine_similarity(self._vec(0, 0), self._vec(1, 2))

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
    def test_hash_bag_rows_are_raw_token_counts(self):
        embedder = HashBagEmbedder(dim=64)
        texts = ["auction design and markets auction", "auction design and markets auction"]
        rows = embedder.embed_many(texts)
        assert rows.shape == (2, 64) and rows.dtype == np.float64
        assert np.array_equal(rows[0], rows[1])
        assert sorted(rows[0][rows[0] > 0].tolist()) == [1.0, 1.0, 1.0, 2.0]
        assert np.array_equal(embedder.embed(texts[0]).values, rows[0])
        assert embedder.embed(texts[0]).model_tag == "hash-bag-64"

    def test_hash_bag_word_memo_is_bounded(self, monkeypatch):
        texts = ["auction design and markets", "credit risk pricing", "auction risk"]
        want = [HashBagEmbedder(dim=64).embed(text).values for text in texts]
        monkeypatch.setattr("taxocat.retrieval.SLOT_MEMO_SIZE", 3)
        embedder = HashBagEmbedder(dim=64)
        for text, values in zip(texts, want):
            assert np.array_equal(embedder.embed(text).values, values)
        assert len(embedder._slots) <= 3

    def test_empty_text_counts_once_in_slot_0(self):
        assert HashBagEmbedder(dim=16).embed("").values.tolist() == [1.0] + [0.0] * 15

    def test_store_normalizes_at_ingest(self, tiny_taxonomy):
        store = embed_taxonomy_leaves(tiny_taxonomy, FixedEmbedder({"Beta": [3.0, 4.0]}))
        assert np.allclose(store.get("B").values, [0.6, 0.8])

    def test_load_rejects_a_row_that_is_not_unit_length(self, tmp_path):
        path = tmp_path / "cache.ndjson"
        write_ndjson(path, [{"node_id": "a", "model_tag": "t", "text_sha256": "h",
                             "vector": [0, -2]}])
        with pytest.raises(RetrievalError, match="'a' is not unit length; delete the file"):
            EmbeddingStore.load(path, "t")

    def test_store_rejects_duplicate_ids_and_row_count_mismatch(self):
        with pytest.raises(RetrievalError, match="duplicate embedding ids: a"):
            EmbeddingStore("t", ("a", "b", "a"), np.eye(3), ("h",) * 3)
        with pytest.raises(RetrievalError, match="2 embedding rows for 3 nodes"):
            EmbeddingStore("t", ("a", "b", "c"), np.eye(2), ("h",) * 3)
        with pytest.raises(RetrievalError, match="2 text hashes for 3 nodes"):
            EmbeddingStore("t", ("a", "b", "c"), np.eye(3), ("h",) * 2)

    def test_save_load_round_trip(self, tmp_path):
        embedder = HashBagEmbedder(dim=32)
        store = embed_taxonomy_leaves(random_forest(random.Random(6), 30), embedder)
        path = tmp_path / "cache.ndjson"
        store.save(path)
        loaded = EmbeddingStore.load(path, model_tag=embedder.model_tag)
        assert loaded.ids == store.ids and loaded.text_hashes == store.text_hashes
        assert np.array_equal(loaded.matrix, store.matrix)

    def test_save_load_is_bit_for_bit_where_normalising_again_is_not(self, tmp_path):
        # Found by search: dividing this leaf's unit row by its norm again
        # changes its bits, as the load of a saved cache used to do.
        name = ("gapivo ranado bosola gapivo ranado bosola sopode kolepi tucike ritoru tafidu "
                "kilagu larogo sekeda pidalu locato nudede debudo kusisi ratoti zekuku sezosu "
                "gezoko mugola redapu rucepu")
        tax = Taxonomy([TaxonomyNode(id="r", name="root"),
                        TaxonomyNode(id="L", name=name, parent_id="r")])
        store = embed_taxonomy_leaves(tax, HashBagEmbedder())
        row = store.get("L").values
        assert not np.array_equal(row / np.linalg.norm(row), row)
        path = tmp_path / "cache.ndjson"
        store.save(path)
        loaded = EmbeddingStore.load(path, store.model_tag)
        assert np.array_equal(loaded.get("L").values, row)

    def test_failed_write_leaves_neither_file(self, tmp_path, monkeypatch):
        store = embed_taxonomy_leaves(random_forest(random.Random(6), 30), HashBagEmbedder(dim=8))
        real_write = ndjson.write_records

        def torn_write(file, records, error, what):
            def first_then_fail():
                yield next(iter(records))
                raise error("disk full")

            real_write(file, first_then_fail(), error, what)

        monkeypatch.setattr(ndjson, "write_records", torn_write)
        with pytest.raises(RetrievalError, match="disk full"):
            store.save(tmp_path / "cache.ndjson")
        assert list(tmp_path.iterdir()) == []

    def test_save_replaces_the_file(self, tmp_path):
        path = tmp_path / "cache.ndjson"
        path.write_text("torn {\n")
        store = EmbeddingStore("a", ("x",), np.array([[0.6, 0.8]]), ("h",))
        store.save(path)
        assert [p.name for p in tmp_path.iterdir()] == ["cache.ndjson"]
        assert EmbeddingStore.load(path, "a").ids == ("x",)

    def test_load_rejects_tag_mismatch(self, tmp_path):
        store = EmbeddingStore("a", ("x",), np.array([[0.6, 0.8]]), ("h",))
        path = tmp_path / "cache.ndjson"
        store.save(path)
        with pytest.raises(RetrievalError, match="model_tag"):
            EmbeddingStore.load(path, model_tag="b")

    def test_http_embedder(self, monkeypatch):
        class FakeResponse:
            status_code = 200

            def json(self):
                return {"data": [{"index": 0, "embedding": [1.0, 2.0, 2.0]}]}

        class FakeSession:
            def post(self, url, json=None, headers=None, timeout=None):
                return FakeResponse()

        embedder = HttpEmbedder(_CONFIG, session=FakeSession())
        assert embedder.model_tag == "m"
        assert embedder.embed_many(["hello"]).tolist() == [[1.0, 2.0, 2.0]]

    def test_http_embedder_batches_leaf_texts(self):
        session = _EmbeddingSession()
        embedder = HttpEmbedder(_CONFIG, session=session)
        n_leaves = 2 * EMBED_BATCH + 3
        tax = Taxonomy([TaxonomyNode(id="r", name="root")] + [
            TaxonomyNode(id=f"L{i:04d}", name=f"leaf {i}", parent_id="r")
            for i in range(n_leaves)
        ])
        store = embed_taxonomy_leaves(tax, embedder)
        assert len(session.inputs) == math.ceil(n_leaves / EMBED_BATCH)
        assert [len(batch) for batch in session.inputs] == [EMBED_BATCH, EMBED_BATCH, 3]
        for leaf_id in tax.leaf_ids():
            want = _EmbeddingSession.vector(node_text(tax.node(leaf_id)))
            assert np.allclose(store.get(leaf_id).values, want / np.linalg.norm(want))

    @pytest.mark.parametrize("reply", [
        lambda data: data[::-1],
        lambda data: data[:-1],
        lambda data: data + data[:1],
    ], ids=["reordered", "short", "long"])
    def test_http_embedder_rejects_mismatched_reply(self, reply):
        session = _EmbeddingSession(reply)
        embedder = HttpEmbedder(_CONFIG, session=session)
        with pytest.raises(RetrievalError, match="indices"):
            embedder.embed_many(["alpha", "beta", "gamma"])

    @pytest.mark.parametrize("embedding", [
        [1.0, float("nan"), 2.0, 3.0], [1.0, 2.0], [1.0, "x", 2.0, 3.0], [0.0] * 4,
        [1.0, "1.5", 2.0, 3.0], [1.0, True, 2.0, 3.0], [1.0, [2.0], 2.0, 3.0],
    ], ids=["nan", "ragged", "non-numeric", "all-zero", "numeric-string", "bool", "nested"])
    def test_http_embedding_is_checked(self, tiny_taxonomy, embedding):
        def reply(data):
            return data[:-1] + [{**data[-1], "embedding": embedding}]

        embedder = HttpEmbedder(_CONFIG, session=_EmbeddingSession(reply))
        with pytest.raises(RetrievalError):
            embed_taxonomy_leaves(tiny_taxonomy, embedder)
        store = EmbeddingStore("m", ("B", "C"), np.eye(2, 4), ("h", "h"))
        with pytest.raises(RetrievalError):
            rank_leaves(make_doc("d", "beta"), tiny_taxonomy, store, embedder)


class FixedEmbedder:
    """Embeds each text as its 2-D vector in `vectors`, or as [1, 1]."""

    model_tag = "fixed"

    def __init__(self, vectors: dict[str, list[float]]):
        self.vectors = vectors

    def embed_many(self, texts):
        rows = [self.vectors.get(text, [1.0, 1.0]) for text in texts]
        return np.array(rows, dtype=np.float64).reshape(len(texts), 2)


class TestEmbedTaxonomyLeaves:
    """embed_taxonomy_leaves reuses cached rows by leaf id and embeds the rest."""

    def test_added_leaf_is_the_only_text_embedded(self):
        tax = ternary_taxonomy()
        cached = embed_taxonomy_leaves(tax, HashBagEmbedder())
        added = TaxonomyNode(id="t0m0l9", name="auction credit", parent_id="t0m0")
        grown = Taxonomy(list(tax) + [added])
        embedder = CountingEmbedder()
        store = embed_taxonomy_leaves(grown, embedder, cached)
        assert embedder.batches == [[node_text(added)]]
        assert store.ids == grown.leaf_ids()
        fresh = embed_taxonomy_leaves(grown, HashBagEmbedder())
        assert store.matrix.tobytes() == fresh.matrix.tobytes()
        rng = random.Random(3)
        for doc in (vocab_doc(rng, f"d{i}") for i in range(10)):
            assert (rank_leaves(doc, grown, store, embedder)
                    == rank_leaves(doc, grown, fresh, embedder))

    def test_rows_of_removed_leaves_are_left_out(self):
        tax = ternary_taxonomy()
        cached = embed_taxonomy_leaves(tax, HashBagEmbedder())
        shrunk = Taxonomy([node for node in tax if node.id != "t1m2l0"])
        embedder = CountingEmbedder()
        store = embed_taxonomy_leaves(shrunk, embedder, cached)
        assert store.ids == shrunk.leaf_ids()
        assert "t1m2l0" not in store
        assert embedder.batches == [[]]

    def test_edited_leaf_is_the_only_text_embedded(self):
        tax = ternary_taxonomy()
        cached = embed_taxonomy_leaves(tax, HashBagEmbedder())
        edited = dataclasses.replace(tax.node("t1m0l1"), description="auction credit")
        changed = tax.with_nodes([edited])
        embedder = CountingEmbedder()
        store = embed_taxonomy_leaves(changed, embedder, cached)
        assert embedder.batches == [[node_text(edited)]]
        fresh = embed_taxonomy_leaves(changed, HashBagEmbedder())
        assert np.array_equal(store.matrix, fresh.matrix)

    def test_cached_row_is_copied_not_normalised_again(self, tiny_taxonomy):
        row = np.array([1.0, 1.0]) / np.linalg.norm([1.0, 1.0])
        assert (row / np.linalg.norm(row)).tobytes() != row.tobytes()
        cached = EmbeddingStore("fixed", ("B",), np.array([row]), (text_sha256("Beta"),))
        store = embed_taxonomy_leaves(tiny_taxonomy, FixedEmbedder({}), cached)
        assert store.get("B").values.tobytes() == row.tobytes()
        assert np.allclose(store.get("C").values, row)

    def test_cache_of_another_model_is_rejected(self, tiny_taxonomy):
        cached = EmbeddingStore("other", ("B",), np.array([[1.0, 0.0]]), (text_sha256("Beta"),))
        with pytest.raises(RetrievalError, match="embedding cache is 'other'"):
            embed_taxonomy_leaves(tiny_taxonomy, FixedEmbedder({}), cached)

    def test_cache_of_another_dimension_is_rejected(self, tiny_taxonomy):
        cached = EmbeddingStore("fixed", ("B",), np.array([[1.0, 0.0, 0.0]]),
                                (text_sha256("Beta"),))
        with pytest.raises(RetrievalError, match="dimension mismatch: 2 vs 3"):
            embed_taxonomy_leaves(tiny_taxonomy, FixedEmbedder({}), cached)


class _EmbeddingSession:
    """Fake embeddings endpoint: one indexed vector per input text."""

    def __init__(self, reply=lambda data: data):
        self.reply = reply
        self.inputs: list[list[str]] = []

    @staticmethod
    def vector(text: str) -> list[float]:
        digest = hashlib.sha256(text.encode("utf-8")).digest()
        return [1.0 + b for b in digest[:4]]

    def post(self, url, json=None, headers=None, timeout=None):
        self.inputs.append(list(json["input"]))
        data = [{"index": i, "embedding": self.vector(text)}
                for i, text in enumerate(json["input"])]

        class Response:
            status_code = 200

            def json(_self):
                return {"data": self.reply(data)}

        return Response()


class DyadicEmbedder:
    """Unit vectors with sixteen entries of +-1/4 in 64 dimensions.

    Their norms and dot products are exact in float64, so the matrix
    contraction and the per-leaf oracle agree bit for bit, and similarities
    fall on 33 levels, so ties are everywhere, at the k-th place too.
    """

    model_tag = "dyadic-64"

    @staticmethod
    def vector(text: str) -> np.ndarray:
        rng = random.Random(hashlib.sha256(text.encode("utf-8")).digest())
        values = np.zeros(64)
        for coord in rng.sample(range(64), 16):
            values[coord] = rng.choice((-0.25, 0.25))
        return values

    def embed_many(self, texts):
        return np.array([self.vector(text) for text in texts]).reshape(len(texts), 64)


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

    def test_exact_ties_come_in_ascending_id_order(self):
        # Found by search: n00125 and n00133 tie at 0.5, but a float dot
        # product gives n00133 0.5000000000000001; rounding keeps the tie.
        rng = random.Random(1)
        tax = random_forest(rng, 200)
        embedder = HashBagEmbedder()
        store = embed_taxonomy_leaves(tax, embedder)
        top = rank_leaves(vocab_doc(rng, "d0"), tax, store, embedder).entries[:40]
        ids = [leaf_id for leaf_id, _ in top]
        assert ids.index("n00125") < ids.index("n00133")
        for (a, sim_a), (b, sim_b) in zip(top, top[1:]):
            if round(sim_a, SIM_DECIMALS) == round(sim_b, SIM_DECIMALS):
                assert a < b

    @given(seed=st.integers(0, 10**6), n_nodes=st.integers(2, 300), k=st.integers(1, 60))
    @settings(max_examples=60, deadline=None)
    def test_top_k_matches_per_leaf_oracle(self, seed, n_nodes, k):
        rng = random.Random(seed)
        tax = random_forest(rng, n_nodes)
        embedder = DyadicEmbedder()
        store = embed_taxonomy_leaves(tax, embedder)
        doc = vocab_doc(rng, "d")
        doc_vec = embedder.vector(document_text(doc))
        keyed = sorted(
            (-round(cosine_similarity(doc_vec, embedder.vector(node_text(tax.node(leaf_id)))),
                    SIM_DECIMALS), leaf_id)
            for leaf_id in tax.leaf_ids()
        )
        ranking = rank_leaves(doc, tax, store, embedder, k)
        assert ranking.entries == tuple((leaf_id, -key) for key, leaf_id in keyed[:k])

    def test_store_matrix_is_read_only(self):
        tax = random_forest(random.Random(2), 60)
        store = embed_taxonomy_leaves(tax, HashBagEmbedder(dim=32))
        assert store.matrix.shape == (len(tax.leaf_ids()), 32)
        with pytest.raises(ValueError):
            store.matrix[0, 0] = 0.5
        with pytest.raises(ValueError):
            store.get(tax.leaf_ids()[0]).values[0] = 0.5

    def test_ranking_is_permutation_of_leaves(self):
        tax = random_forest(random.Random(5), 150)
        embedder = HashBagEmbedder(dim=64)
        store = embed_taxonomy_leaves(tax, embedder)
        ranking = rank_leaves(make_doc("d", "welfare"), tax, store, embedder)
        assert sorted(ranking.leaf_ids()) == sorted(tax.leaf_ids())

    def test_missing_embeddings_listed(self, tiny_taxonomy):
        embedder = HashBagEmbedder(dim=32)
        store = EmbeddingStore(embedder.model_tag, ("B",), np.eye(1, 32), ("h",))
        with pytest.raises(IndexIncompleteError) as err:
            rank_leaves(make_doc("d", "beta"), tiny_taxonomy, store, embedder)
        assert err.value.missing_ids == ("C",)

    def test_store_rows_must_be_the_leaves_in_order(self, tiny_taxonomy):
        embedder = HashBagEmbedder(dim=32)
        store = EmbeddingStore(embedder.model_tag, ("C", "B"), np.eye(2, 32), ("h", "h"))
        with pytest.raises(RetrievalError, match="leaves in order"):
            rank_leaves(make_doc("d", "beta"), tiny_taxonomy, store, embedder)

    def test_embedder_store_tag_mismatch(self, tiny_taxonomy):
        store = EmbeddingStore("other", (), np.empty((0, 0)), ())
        with pytest.raises(RetrievalError, match="model_tag|store"):
            rank_leaves(make_doc("d", "x"), tiny_taxonomy, store, HashBagEmbedder(dim=16))

    def test_ranking_validation(self):
        with pytest.raises(RetrievalError, match="sorted"):
            LeafRanking(doc_id="d", entries=(("a", 0.1), ("b", 0.9)))
        with pytest.raises(RetrievalError, match="duplicate"):
            LeafRanking(doc_id="d", entries=(("a", 0.9), ("a", 0.1)))


# Leaf texts drawn from a pool this small repeat, so leaves tie exactly.
_SHARED_TEXTS = ("auction design", "credit risk pricing", "climate", "labor markets welfare")


def _splits(n: int):
    """Every way to cut range(n) into consecutive blocks, as lists of (start, stop)."""
    for mask in range(1 << max(n - 1, 0)):
        cuts = [0] + [i + 1 for i in range(n - 1) if mask >> i & 1] + [n]
        yield list(zip(cuts, cuts[1:]))


class TestRankBlock:
    """rank_block screens the block with one product, then keys each document's
    candidates exactly as a block of one does."""

    @pytest.mark.parametrize("embedder_kind", ["hash-bag", "projection"])
    @pytest.mark.parametrize("k_kind", ["one", "between", "all", "none"])
    @given(seed=st.integers(0, 10**6), n_nodes=st.integers(2, 120), n_docs=st.integers(1, 5))
    @settings(max_examples=15, deadline=None)
    def test_every_split_ranks_as_one_document_at_a_time(self, embedder_kind, k_kind, seed,
                                                         n_nodes, n_docs):
        rng = random.Random(seed)
        forest = random_forest(rng, n_nodes)
        tax = forest.with_nodes(
            dataclasses.replace(forest.node(leaf_id), name=rng.choice(_SHARED_TEXTS),
                                description=None)
            for leaf_id in forest.leaf_ids())
        embedder = HashBagEmbedder(dim=32) if embedder_kind == "hash-bag" else ProjectionEmbedder()
        store = embed_taxonomy_leaves(tax, embedder)
        n_leaves = len(tax.leaf_ids())
        assume(k_kind != "between" or n_leaves > 2)
        k = {"one": 1, "between": rng.randint(2, max(2, n_leaves - 1)),
             "all": n_leaves + rng.randint(0, 3), "none": None}[k_kind]
        docs = [make_doc(f"d{i}", " ".join(rng.sample(_SHARED_TEXTS, rng.randint(1, 3))))
                for i in range(n_docs)]
        alone = [rank_leaves(doc, tax, store, embedder, k) for doc in docs]
        for split in _splits(n_docs):
            blocks = [rank_block(docs[start:stop], tax, store, embedder, k)
                      for start, stop in split]
            assert [ranking for block in blocks for ranking in block] == alone

    def test_a_block_is_one_embedding_call_and_an_empty_one_none(self, tiny_taxonomy):
        embedder = CountingEmbedder(dim=16)
        store = embed_taxonomy_leaves(tiny_taxonomy, embedder)
        docs = [make_doc(f"d{i}", "beta gamma"[:i + 4]) for i in range(5)]
        assert rank_block([], tiny_taxonomy, store, embedder, 1) == []
        assert len(rank_block(docs, tiny_taxonomy, store, embedder, 1)) == len(docs)
        assert embedder.batches[1:] == [[document_text(doc) for doc in docs]]

    @pytest.mark.parametrize("embedder", [HashBagEmbedder(), ProjectionEmbedder(dim=256)],
                             ids=["hash-bag", "projection"])
    def test_candidate_rows_are_keyed_bit_for_bit(self, embedder):
        # About 3,000 leaves: each candidate row's einsum equals that row of
        # the full einsum, so the top 40 are the full ranking's first 40.
        rng = random.Random(4)
        tax = random_forest(rng, 6000)
        assert len(tax.leaf_ids()) > 3000
        store = embed_taxonomy_leaves(tax, embedder)
        docs = [vocab_doc(rng, f"d{i}") for i in range(24)]
        queries = embedder.embed_many([document_text(doc) for doc in docs])
        queries /= np.linalg.norm(queries, axis=1)[:, np.newaxis]
        for query in queries:
            full = np.einsum("ij,j->i", store.matrix, query)
            rows = np.sort(rng.sample(range(len(store)), 60))
            assert (np.einsum("ij,j->i", store.matrix[rows], query).tobytes()
                    == full[rows].tobytes())
        for doc, top in zip(docs, rank_block(docs, tax, store, embedder, 40)):
            assert top.entries == rank_block([doc], tax, store, embedder)[0].entries[:40]


class TestBlasDefault:
    """Importing taxocat sets OpenBLAS to one thread unless the user chose."""

    @staticmethod
    def _value_after_import(env_value: str | None) -> str:
        env = {key: value for key, value in os.environ.items()
               if key != "OPENBLAS_NUM_THREADS"}
        if env_value is not None:
            env["OPENBLAS_NUM_THREADS"] = env_value
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-c",
             "import os, taxocat; print(os.environ['OPENBLAS_NUM_THREADS'])"],
            env=env, capture_output=True, text=True, check=True, timeout=60).stdout.strip()

    def test_unset_becomes_one_thread(self):
        assert self._value_after_import(None) == "1"

    def test_a_user_value_is_kept(self):
        assert self._value_after_import("2") == "2"


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

    def test_gold_line_not_an_object(self, tmp_path):
        path = tmp_path / "gold.ndjson"
        write_ndjson(path, [{"doc_id": "a", "gold": ["x"]}, [1, 2]])
        with pytest.raises(RetrievalError, match="gold file line 2"):
            load_gold_labels(path)

    def test_gold_labels_must_be_ids(self, tmp_path):
        path = tmp_path / "gold.ndjson"
        write_ndjson(path, [{"doc_id": "a", "gold": [{"id": "x"}]}])
        with pytest.raises(RetrievalError, match="gold file line 1"):
            load_gold_labels(path)

    def test_cache_line_without_model_tag(self, tmp_path):
        path = tmp_path / "cache.ndjson"
        write_ndjson(path, [{"node_id": "n", "vector": [1.0, 0.0]}])
        with pytest.raises(RetrievalError, match="embedding cache line 1"):
            EmbeddingStore.load(path, "t")

    def test_cache_line_not_an_object(self, tmp_path):
        path = tmp_path / "cache.ndjson"
        write_ndjson(path, [[1]])
        with pytest.raises(RetrievalError, match="embedding cache line 1"):
            EmbeddingStore.load(path, "t")

    def test_cache_line_without_text_hash(self, tmp_path):
        path = tmp_path / "cache.ndjson"
        write_ndjson(path, [{"node_id": "n", "model_tag": "t", "vector": [1.0, 0.0]}])
        with pytest.raises(RetrievalError, match="line 1: .*text_sha256.*delete the file"):
            EmbeddingStore.load(path, "t")

    @pytest.mark.parametrize("vector", [[1.0, "2"], [True, 1.0], [[1.0, 0.0]], "1.0", None])
    def test_cache_vector_must_be_numbers(self, tmp_path, vector):
        path = tmp_path / "cache.ndjson"
        write_ndjson(path, [{"node_id": "n", "model_tag": "t", "text_sha256": "h",
                             "vector": vector}])
        with pytest.raises(RetrievalError, match="embedding cache line 1"):
            EmbeddingStore.load(path, "t")

    def test_cache_rows_must_have_one_dimension(self, tmp_path):
        path = tmp_path / "cache.ndjson"
        write_ndjson(path, [{"node_id": node_id, "model_tag": "t", "text_sha256": "h",
                             "vector": vector}
                            for node_id, vector in (("a", [1.0, 0.0]), ("b", [1.0, 0.0, 0.0]))])
        with pytest.raises(RetrievalError, match="line 2: 3 numbers, expected 2"):
            EmbeddingStore.load(path, "t")
