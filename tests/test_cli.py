"""End-to-end command-line behavior with the offline mock provider."""
from __future__ import annotations

import json
import random

import pytest

from taxocat import cli, gateway as gw, strategies
from taxocat.taxonomy import Taxonomy, TaxonomyNode, save_taxonomy

from .util import (
    make_doc,
    o_overlap,
    o_relevancy,
    ternary_taxonomy,
    vocab_doc,
    write_ndjson,
)


@pytest.fixture
def workdir(tmp_path):
    tax = ternary_taxonomy()
    tax_path = tmp_path / "taxonomy.ndjson"
    save_taxonomy(tax, tax_path)
    rng = random.Random(1)
    docs = [vocab_doc(rng, f"doc{i}") for i in range(10)]
    docs_path = tmp_path / "docs.ndjson"
    write_ndjson(
        docs_path,
        [
            {"doc_id": d.doc_id, "title": d.title, "keywords": list(d.keywords),
             "abstract": d.abstract}
            for d in docs
        ],
    )
    return tmp_path, tax, docs


class TestTaxonomyCommands:
    def test_validate_ok(self, workdir, capsys):
        tmp, _, _ = workdir
        assert cli.main(["taxonomy", "validate", "--taxonomy", str(tmp / "taxonomy.ndjson")]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_cycle_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.ndjson"
        bad.write_text(
            '{"id": "X", "name": "Ex", "parent_id": "Y"}\n'
            '{"id": "Y", "name": "Why", "parent_id": "X"}\n'
        )
        assert cli.main(["taxonomy", "validate", "--taxonomy", str(bad)]) == 1
        assert "cycle" in capsys.readouterr().err

    def test_stats_prints_counts(self, workdir, capsys):
        tmp, _, _ = workdir
        assert cli.main(["taxonomy", "stats", "--taxonomy", str(tmp / "taxonomy.ndjson")]) == 0
        out = capsys.readouterr().out
        assert "leaves: 27" in out
        assert "parents: 12" in out
        assert "max_leaf_depth: 3" in out

    def test_stats_json(self, workdir, capsys):
        tmp, _, _ = workdir
        assert cli.main(
            ["taxonomy", "stats", "--taxonomy", str(tmp / "taxonomy.ndjson"), "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["leaves"] == 27 and payload["avg_leaf_depth"] == 3.0

    def test_expand_writes_new_file(self, tmp_path, capsys):
        tax_path = tmp_path / "tax.ndjson"
        tax_path.write_text(
            '{"id": "p", "name": "Food Science Research Network"}\n'
            '{"id": "c", "name": "FoodSciRN Meetings", "parent_id": "p"}\n'
        )
        acr_path = tmp_path / "acr.json"
        acr_path.write_text('{"FoodSciRN": "Food Science Research Network"}')
        out_path = tmp_path / "expanded.ndjson"
        code = cli.main(
            ["taxonomy", "expand", "--taxonomy", str(tax_path), "--acronyms", str(acr_path),
             "--output", str(out_path), "--suggest"]
        )
        assert code == 0
        lines = [json.loads(l) for l in out_path.read_text().splitlines()]
        names = {r["id"]: r["name"] for r in lines}
        assert names["c"] == "Food Science Research Network Meetings"

    def test_expand_refuses_in_place(self, workdir, capsys):
        tmp, _, _ = workdir
        tax_path = str(tmp / "taxonomy.ndjson")
        acr = tmp / "acr.json"
        acr.write_text("{}")
        assert cli.main(
            ["taxonomy", "expand", "--taxonomy", tax_path, "--acronyms", str(acr),
             "--output", tax_path]
        ) == 1
        assert "refusing" in capsys.readouterr().err

    def test_describe_fills_all_missing(self, workdir):
        tmp, tax, _ = workdir
        out_path = tmp / "described.ndjson"
        code = cli.main(
            ["taxonomy", "describe", "--taxonomy", str(tmp / "taxonomy.ndjson"),
             "--output", str(out_path), "--mock"]
        )
        assert code == 0
        # Field-presence scan: every node in the new file carries a description.
        records = [json.loads(l) for l in out_path.read_text().splitlines()]
        assert len(records) == len(tax)
        assert all(r.get("description") for r in records)
        assert any(not n.description for n in tax)  # inputs really had gaps

    def test_describe_requires_provider_or_mock(self, workdir, capsys):
        tmp, _, _ = workdir
        code = cli.main(
            ["taxonomy", "describe", "--taxonomy", str(tmp / "taxonomy.ndjson"),
             "--output", str(tmp / "x.ndjson")]
        )
        assert code == 1
        assert "no provider" in capsys.readouterr().err


class TestClassify:
    def _run(self, tmp, extra, out_name="out.ndjson"):
        out = tmp / out_name
        args = [
            "classify",
            "--taxonomy", str(tmp / "taxonomy.ndjson"),
            "--documents", str(tmp / "docs.ndjson"),
            "--output", str(out),
            "--mock",
        ] + extra
        return cli.main(args), out

    def test_pointwise_emits_one_to_five_labels(self, workdir):
        tmp, _, docs = workdir
        code, out = self._run(tmp, ["--strategy", "pointwise", "--top-k", "40"])
        assert code == 0
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert [r["doc_id"] for r in records] == [d.doc_id for d in docs]
        for record in records:
            assert record["method"] == "select_pointwise"
            assert 1 <= len(record["labels"]) <= 5
            assert list(record) == ["doc_id", "method", "labels", "provenance", "flags"]

    def test_rerank_leaf_only_matches_raw_score_sort(self, workdir):
        tmp, tax, docs = workdir
        code, out = self._run(
            tmp, ["--strategy", "rerank", "--agg", "leaf-only", "--no-sibling-cap"]
        )
        assert code == 0
        for record in (json.loads(l) for l in out.read_text().splitlines()):
            doc = next(d for d in docs if d.doc_id == record["doc_id"])
            # Sort oracle over the mock's per-leaf overlap scores.
            expected = sorted(
                tax.leaf_ids(),
                key=lambda lid: (-o_relevancy(o_overlap(doc, tax.node(lid))), lid),
            )[:5]
            assert record["labels"] == expected

    def test_seeded_ablation_runs_are_byte_identical(self, workdir):
        tmp, _, _ = workdir
        args = ["--strategy", "pointwise", "--ablation", "no-decrease", "--seed", "7"]
        code1, out1 = self._run(tmp, args, out_name="a.ndjson")
        code2, out2 = self._run(tmp, args, out_name="b.ndjson")
        assert code1 == code2 == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_top_k_range_enforced(self, workdir, capsys):
        tmp, _, _ = workdir
        code, _ = self._run(tmp, ["--strategy", "pointwise", "--top-k", "5"])
        assert code == 1
        assert "top-k" in capsys.readouterr().err

    def test_trav_select_needs_no_embeddings(self, workdir):
        tmp, _, _ = workdir
        code, out = self._run(tmp, ["--strategy", "trav-select"])
        assert code == 0
        assert len(out.read_text().splitlines()) == 10

    def test_embedding_cache_written_and_reused(self, workdir):
        tmp, _, _ = workdir
        cache = tmp / "emb.ndjson"
        code, _ = self._run(
            tmp, ["--strategy", "one-pass", "--embedding-cache", str(cache)], out_name="c1.ndjson"
        )
        assert code == 0 and cache.exists()
        code, _ = self._run(
            tmp, ["--strategy", "one-pass", "--embedding-cache", str(cache)], out_name="c2.ndjson"
        )
        assert code == 0
        assert (tmp / "c1.ndjson").read_bytes() == (tmp / "c2.ndjson").read_bytes()

    def test_per_document_failure_isolation(self, workdir, monkeypatch):
        tmp, _, docs = workdir
        real = strategies.classify_select_pointwise
        poison = docs[3].doc_id

        def flaky(doc, *args, **kwargs):
            if doc.doc_id == poison:
                raise RuntimeError("boom")
            return real(doc, *args, **kwargs)

        monkeypatch.setattr(strategies, "classify_select_pointwise", flaky)
        code, out = self._run(tmp, ["--strategy", "pointwise"])
        assert code == 1
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(records) == 10
        bad = records[3]
        assert bad["doc_id"] == poison
        assert "hard-failure" in bad["flags"] and "needs-review" in bad["flags"]
        assert all("hard-failure" not in r["flags"] for r in records if r["doc_id"] != poison)

    def test_no_description_ablation_reaches_decrease_prompt(self, tmp_path, monkeypatch):
        # Seven leaves that all fit the document, so one-pass keeps seven and
        # the decrease step has to pick five.
        nodes = [TaxonomyNode(id="root", name="auction", description="parentdesc markets")]
        nodes += [TaxonomyNode(id=f"leaf{i}", name="auction", description=f"leafdesc{i} bids",
                               parent_id="root") for i in range(7)]
        save_taxonomy(Taxonomy(nodes), tmp_path / "taxonomy.ndjson")
        write_ndjson(tmp_path / "docs.ndjson",
                     [{"doc_id": "d1", "title": "auction", "keywords": [], "abstract": ""}])
        gateways = []
        real_mock_gateway = gw.mock_gateway

        def recording_mock_gateway(**kwargs):
            gateways.append(real_mock_gateway(**kwargs))
            return gateways[-1]

        monkeypatch.setattr(cli.gw, "mock_gateway", recording_mock_gateway)
        code, _ = self._run(tmp_path, ["--strategy", "one-pass", "--top-k", "10",
                                       "--ablation", "no-description"])
        assert code == 0
        specs = gateways[0].provider.calls
        templates = [spec.template_id for spec in specs]
        assert templates == [gw.TemplateId.SELECT_ONE_PASS, gw.TemplateId.DECREASE_LABELS]
        for spec in specs:
            prompt = gw.render_user_text(spec)
            assert "desc" not in prompt
            assert all(not node.get("description") for node in spec.user_payload["nodes"])

    def test_config_file_provides_defaults(self, workdir):
        tmp, _, _ = workdir
        config = tmp / "run.json"
        config.write_text(json.dumps({"max_labels": 2, "apply_sibling": False}))
        code, out = self._run(tmp, ["--strategy", "pointwise", "--config", str(config)])
        assert code == 0
        for record in (json.loads(l) for l in out.read_text().splitlines()):
            assert len(record["labels"]) <= 2


class TestEvaluateAndRank:
    def test_evaluate_reproduces_best_row(self, tmp_path, capsys):
        records = []
        scores = [5] * 23 + [4] * 27 + [3] * 16 + [2] * 3 + [1] * 1
        for i, score in enumerate(scores):
            records.append(
                {"doc_id": f"d{i}", "method": "select_pointwise",
                 "correct": i < 66, "score": score}
            )
        path = tmp_path / "judgments.ndjson"
        write_ndjson(path, records)
        json_out = tmp_path / "report.json"
        code = cli.main(["evaluate", "--judgments", str(path), "--json-output", str(json_out)])
        assert code == 0
        out = capsys.readouterr().out
        assert "94.3" in out and "32.9" in out and "38.6" in out
        payload = json.loads(json_out.read_text())
        assert payload[0]["accuracy_pct"] == 94.3

    def test_evaluate_merges_baseline_reports(self, tmp_path, capsys):
        records = [
            {"doc_id": f"d{i}", "method": "select_pointwise", "correct": True, "score": 5}
            for i in range(10)
        ]
        path = tmp_path / "j.ndjson"
        write_ndjson(path, records)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps([{
            "method": "previous_sota", "n": 192, "accuracy_pct": 61.5,
            "score_dist_pct": {"5": 0.0, "4": 11.5, "3": 50.0, "2": 30.7, "1": 7.8},
        }]))
        code = cli.main(["evaluate", "--judgments", str(path), "--baseline", str(baseline)])
        assert code == 0
        out = capsys.readouterr().out
        assert "previous_sota" in out and "61.5" in out
        assert out.index("select_pointwise") < out.index("previous_sota")

    def test_evaluate_empty_file_fails(self, tmp_path, capsys):
        path = tmp_path / "empty.ndjson"
        path.write_text("")
        assert cli.main(["evaluate", "--judgments", str(path)]) == 1

    def test_evaluate_orders_methods(self, tmp_path, capsys):
        records = [
            {"doc_id": "a", "method": "weak", "correct": False, "score": 2},
            {"doc_id": "a", "method": "strong", "correct": True, "score": 5},
        ]
        path = tmp_path / "j.ndjson"
        write_ndjson(path, records)
        assert cli.main(["evaluate", "--judgments", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.index("strong") < out.index("weak")

    def test_rank_planted_gold_matches_counting(self, workdir, capsys, tmp_path):
        tmp, tax, docs = workdir
        # Plant each document's gold label at a known rank via the real ranking,
        # then check rates against direct counting.
        from taxocat.retrieval import HashBagEmbedder, embed_taxonomy_leaves, rank_leaves

        embedder = HashBagEmbedder()
        store = embed_taxonomy_leaves(tax, embedder)
        planted = {}
        gold_records = []
        for i, doc in enumerate(docs):
            ranking = rank_leaves(doc, tax, store, embedder)
            rank = (i * 3) % 27 + 1
            planted[doc.doc_id] = rank
            gold_records.append({"doc_id": doc.doc_id, "gold": [ranking.leaf_ids()[rank - 1]]})
        gold_path = tmp_path / "gold.ndjson"
        write_ndjson(gold_path, gold_records)
        json_out = tmp_path / "recall.json"
        code = cli.main(
            ["rank", "--documents", str(tmp / "docs.ndjson"),
             "--taxonomy", str(tmp / "taxonomy.ndjson"),
             "--gold", str(gold_path), "--depths", "10,20,27", "--mock",
             "--json-output", str(json_out)]
        )
        assert code == 0
        rows = json.loads(json_out.read_text())
        assert [r["depth"] for r in rows] == [10, 20, 27]
        for row in rows:
            expected = sum(1 for r in planted.values() if r <= row["depth"]) / len(docs)
            assert row["all_gold_rate"] == pytest.approx(expected)
            assert row["any_gold_rate"] == pytest.approx(expected)

    def test_rank_missing_gold_fails(self, workdir, capsys, tmp_path):
        tmp, tax, docs = workdir
        gold_path = tmp_path / "gold.ndjson"
        write_ndjson(gold_path, [{"doc_id": docs[0].doc_id, "gold": [tax.leaf_ids()[0]]}])
        code = cli.main(
            ["rank", "--documents", str(tmp / "docs.ndjson"),
             "--taxonomy", str(tmp / "taxonomy.ndjson"),
             "--gold", str(gold_path), "--depths", "10", "--mock"]
        )
        assert code == 1
        assert "missing gold" in capsys.readouterr().err

    def test_rank_malformed_gold_line_fails_cleanly(self, workdir, capsys, tmp_path):
        tmp, _, _ = workdir
        gold_path = tmp_path / "gold.ndjson"
        gold_path.write_text("[1, 2]\n")
        code = cli.main(
            ["rank", "--documents", str(tmp / "docs.ndjson"),
             "--taxonomy", str(tmp / "taxonomy.ndjson"),
             "--gold", str(gold_path), "--mock"]
        )
        assert code == 1
        assert "gold file line 1" in capsys.readouterr().err

    def test_classify_malformed_embedding_cache_fails_cleanly(self, workdir, capsys):
        tmp, _, _ = workdir
        cache = tmp / "emb.ndjson"
        cache.write_text(json.dumps({"node_id": "n", "vector": [1.0]}) + "\n")
        code = cli.main(
            ["classify", "--taxonomy", str(tmp / "taxonomy.ndjson"),
             "--documents", str(tmp / "docs.ndjson"), "--output", str(tmp / "out.ndjson"),
             "--strategy", "one-pass", "--mock", "--embedding-cache", str(cache)]
        )
        assert code == 1
        assert "embedding cache line 1" in capsys.readouterr().err

    def test_rank_single_depth(self, workdir, capsys, tmp_path):
        tmp, tax, docs = workdir
        gold = [{"doc_id": d.doc_id, "gold": [tax.leaf_ids()[0]]} for d in docs]
        gold_path = tmp_path / "gold.ndjson"
        write_ndjson(gold_path, gold)
        code = cli.main(
            ["rank", "--documents", str(tmp / "docs.ndjson"),
             "--taxonomy", str(tmp / "taxonomy.ndjson"),
             "--gold", str(gold_path), "--depths", "27", "--mock"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2  # header + single depth row
        assert lines[1].split()[0] == "27"
        # Depth equals the whole leaf set, so every gold label is retrieved.
        assert lines[1].split()[1] == "1.000"
