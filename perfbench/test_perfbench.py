"""Tests of the benchmark's own logic. Run with: python3 -m pytest perfbench"""
from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import hosted  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from taxocat import gateway as gw  # noqa: E402
from taxocat.documents import Document  # noqa: E402
from taxocat.taxonomy import Taxonomy, TaxonomyNode  # noqa: E402

SETTINGS = json.loads((BENCH_DIR / "workloads.json").read_text(encoding="utf-8"))


class TestChain:
    def test_sequential_calls_chain_fully(self):
        intervals = [(i * 1.0, i * 1.0 + 0.5) for i in range(7)]
        assert hosted.longest_sequential_chain(intervals) == 7

    def test_back_to_back_calls_are_sequential(self):
        assert hosted.longest_sequential_chain([(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]) == 3

    def test_two_parallel_waves_chain_two(self):
        wave1 = [(0.0, 1.0 + 0.01 * i) for i in range(20)]
        wave2 = [(1.5, 2.0 + 0.01 * i) for i in range(20)]
        assert hosted.longest_sequential_chain(wave1 + wave2) == 2

    def test_chain_per_doc_averages_over_documents(self):
        log = [hosted.CallRecord("a", "selectp_leaf", 10, float(i), i + 0.5) for i in range(4)]
        log += [hosted.CallRecord("b", "rerank", 10, 0.0, 1.0),
                hosted.CallRecord("b", "rerank", 10, 0.5, 1.5)]
        assert hosted.chain_per_doc(log, ["a", "b", "c"]) == pytest.approx((4 + 1 + 0) / 3)

    def test_provider_log_is_complete_under_concurrent_writers(self):
        provider = hosted.SimulatedProvider()
        spec = gw.build_selectp_leaf_spec(
            Document(doc_id="d", title="markets and pricing"),
            {"id": "x", "name": "pricing", "description": None})
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=lambda: [provider.complete(spec)
                                                        for _ in range(200)])
                       for _ in range(4)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
            assert not any(worker.is_alive() for worker in workers)
        finally:
            sys.setswitchinterval(interval)
        assert len(provider.drain()) == 800
        assert provider.drain() == []


class TestTailPercentile:
    @pytest.mark.parametrize("n, pct", [(20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
                                        (199, 90.0), (200, 95.0), (1000, 99.0),
                                        (10000, 99.9)])
    def test_highest_percentile_with_ten_samples_beyond(self, n, pct):
        samples = [float(i) for i in range(1, n + 1)]
        got_pct, value = tracing.tail_percentile(samples)
        assert got_pct == pct
        assert sum(1 for s in samples if s > value) >= 10

    def test_too_few_samples(self):
        assert tracing.tail_percentile([1.0] * 19) is None

    def test_nearest_rank_value(self):
        assert tracing.tail_percentile(list(range(100, 0, -1))) == (90.0, 90)


class TestSelfTime:
    def test_self_time_subtracts_children(self):
        spans = [
            tracing.Span("outer", "d", 0.0, None, end=10.0),
            tracing.Span("child", "d", 1.0, 0, end=3.0),
            tracing.Span("child", "d", 4.0, 0, end=8.0),
            tracing.Span("grandchild", "d", 5.0, 2, end=6.0),
        ]
        assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])
        assert tracing.doc_spans(spans) == {"d": (0.0, 10.0)}

    def test_patch_records_nested_spans_and_restores(self):
        class Owner:
            @staticmethod
            def inner(doc):
                return doc

            @staticmethod
            def outer(doc):
                return Owner.inner(doc)

        original = Owner.__dict__["outer"]
        tracer = tracing.Tracer()
        targets = [(Owner, "outer", "outer", lambda a: a[0], None),
                   (Owner, "inner", "inner", None, lambda a, r: {"seen": r})]
        with tracer.patch(targets):
            Owner.outer("doc7")
        assert Owner.__dict__["outer"] is original
        outer, inner = tracer.take()
        assert (outer.name, outer.parent, outer.doc_id) == ("outer", None, "doc7")
        assert (inner.name, inner.parent, inner.doc_id, inner.info) == \
            ("inner", 0, "doc7", {"seen": "doc7"})


class TestGenerator:
    @staticmethod
    def _write(seed, workdir):
        return inputs.write_inputs(seed, SETTINGS["forest"], SETTINGS["documents"], 12, workdir)

    def test_same_seed_same_files(self, tmp_path):
        first = self._write(3, tmp_path / "first")
        second = self._write(3, tmp_path / "second")
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes()

    def test_other_seed_other_files(self, tmp_path):
        first = self._write(3, tmp_path / "first")
        other = self._write(4, tmp_path / "other")
        for a, b in zip(first, other):
            assert a.read_bytes() != b.read_bytes()

    def test_documents_stay_inside_the_advisory_ranges(self):
        import random

        from taxocat.documents import check_length_advisories

        nodes = inputs.generate_forest(random.Random(7), SETTINGS["forest"])
        for n_docs in sorted({w["docs"] for w in SETTINGS["workloads"].values()}):
            for record in inputs.generate_documents(random.Random(n_docs), nodes, n_docs,
                                                    SETTINGS["documents"]):
                doc = Document(record["doc_id"], record["title"], tuple(record["keywords"]),
                               record["abstract"])
                assert check_length_advisories(doc) == [], record["doc_id"]

    def test_shape_does_not_depend_on_seed(self):
        import random

        for seed in (1, 2):
            nodes = inputs.generate_forest(random.Random(seed), SETTINGS["forest"])
            parents = {n.parent_id for n in nodes if n.parent_id}
            assert len(nodes) == sum(SETTINGS["forest"]["level_sizes"])
            assert len(parents) == sum(SETTINGS["forest"]["parent_counts"])


class TestOutputCheck:
    TAXONOMY = Taxonomy([
        TaxonomyNode(id="r", name="Root"),
        TaxonomyNode(id="a", name="Alpha", parent_id="r"),
        TaxonomyNode(id="b", name="Beta", parent_id="r"),
        TaxonomyNode(id="c", name="Gamma", parent_id="r"),
    ])
    ALLOWED = {"d1": frozenset({"a", "b"}), "d2": frozenset({"c"})}

    @staticmethod
    def _raw(*records):
        return "".join(json.dumps(r) + "\n" for r in records).encode("utf-8")

    def _check(self, raw):
        return checks.check_output(raw, ["d1", "d2"], self.TAXONOMY, 2, self.ALLOWED)[1]

    def test_valid_output_passes(self):
        raw = self._raw({"doc_id": "d1", "labels": ["a", "b"]}, {"doc_id": "d2", "labels": ["c"]})
        assert self._check(raw) == []

    @pytest.mark.parametrize("records, problem", [
        ([{"doc_id": "d2", "labels": ["c"]}, {"doc_id": "d1", "labels": ["a"]}], "expected"),
        ([{"doc_id": "d1", "labels": ["r"]}, {"doc_id": "d2", "labels": ["c"]}], "not a taxonomy leaf"),
        ([{"doc_id": "d1", "labels": ["c"]}, {"doc_id": "d2", "labels": ["c"]}], "top-k"),
        ([{"doc_id": "d1", "labels": ["a", "b", "c"]}, {"doc_id": "d2", "labels": []}], "max 2"),
        ([{"doc_id": "d1", "labels": ["a", "a"]}, {"doc_id": "d2", "labels": []}], "duplicate"),
        ([{"doc_id": "d1", "labels": ["a"]}], "1 records for 2"),
    ])
    def test_doctored_record_is_rejected(self, records, problem):
        found = self._check(self._raw(*records))
        assert any(problem in p for p in found), found

    @staticmethod
    def _batch(digest="same", counters=(2, 30, 9), n_calls=2):
        calls = [hosted.CallRecord("d1", "rerank", 15, 0.0, 1.0)] * n_calls
        return run.Batch(wall=1.0, cpu=1.0, doc_ids=["d1"], counters=counters, digest=digest,
                         raw=None, calls=calls)

    def test_repeated_batch_passes(self):
        assert run.compare(1, self._batch(), self._batch()) == []

    @pytest.mark.parametrize("later, problem", [
        (dict(digest="other"), "output bytes differ"),
        (dict(counters=(2, 30, 10)), "gateway counters"),
        (dict(n_calls=1), "provider log"),
    ])
    def test_batch_that_differs_from_the_first_is_rejected(self, later, problem):
        found = run.compare(1, self._batch(**later), self._batch())
        assert any(problem in p for p in found), found

    def test_unparseable_line_is_rejected(self):
        raw = self._raw({"doc_id": "d1", "labels": ["a"]}) + b"{not json\n"
        assert any("invalid JSON" in p for p in self._check(raw))

    def test_top_k_sets_contain_the_programs_top_k(self, tmp_path):
        from taxocat import retrieval, taxonomy
        from taxocat.documents import load_documents

        taxonomy_path, documents_path = inputs.write_inputs(
            5, SETTINGS["forest"], SETTINGS["documents"], 4, tmp_path)
        loaded = taxonomy.load_taxonomy(taxonomy_path)
        embedder = retrieval.HashBagEmbedder()
        store = retrieval.embed_taxonomy_leaves(loaded, embedder)
        docs = load_documents(documents_path)
        allowed = checks.top_k_leaves(docs, loaded, store, embedder, 40)
        for doc in docs:
            ranking = retrieval.rank_leaves(doc, loaded, store, embedder)
            top = set(retrieval.build_pruned_taxonomy(loaded, ranking, 40).leaf_ids)
            assert top <= allowed[doc.doc_id]
            assert len(allowed[doc.doc_id]) < 60
