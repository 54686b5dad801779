"""End-to-end command-line behavior with the offline mock provider."""
from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import hashlib
import json
import logging
import math
import os
import random
import signal
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path

import pytest

from taxocat import cli, gateway as gw, pipeline, retrieval, strategies
from taxocat.documents import document_text
from taxocat.taxonomy import Taxonomy, TaxonomyNode, save_taxonomy

from .util import (
    CountingEmbedder,
    make_doc,
    o_overlap,
    o_relevancy,
    random_forest,
    record_cli_gateways,
    ternary_taxonomy,
    vocab_doc,
    write_ndjson,
)

# sha256 of the --embedding-cache file that `classify --mock` writes for
# random_forest(random.Random(11), 400).
EMBEDDING_CACHE_SHA256 = "dded9e58078b027439fe0628a453a1cd41d902c04176e324632defb0363c18d0"


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

    def test_stats_text_and_json_bytes(self, tmp_path, capsys):
        # Averages print with two decimals as text and rounded to two in JSON.
        tree = [("r", None), ("a", "r"), ("b", "r"), ("c", "r"), ("a1", "a"), ("a2", "a"),
                ("x", "a1"), ("y", "a1")]
        path = tmp_path / "tax.ndjson"
        write_ndjson(path, [{"id": node_id, "name": f"node {node_id}", "parent_id": parent}
                            for node_id, parent in tree])
        assert cli.main(["taxonomy", "stats", "--taxonomy", str(path)]) == 0
        assert capsys.readouterr().out == (
            "leaves: 5\nparents: 3\nmax_children: 3\navg_children: 2.33\n"
            "max_leaf_depth: 4\navg_leaf_depth: 3.00\n")
        assert cli.main(["taxonomy", "stats", "--taxonomy", str(path), "--json"]) == 0
        assert capsys.readouterr().out == (
            '{"leaves": 5, "parents": 3, "max_children": 3, "avg_children": 2.33, '
            '"max_leaf_depth": 4, "avg_leaf_depth": 3.0}\n')

    @pytest.mark.parametrize("field", ["id", "parent_id"])
    def test_whitespace_in_a_node_id_is_rejected(self, workdir, capsys, field):
        tmp, _, _ = workdir
        path = tmp / "spaced.ndjson"
        node = ({"id": "a\nb", "name": "Auctions"} if field == "id"
                else {"id": "a", "name": "Auctions", "parent_id": "r\t"})
        write_ndjson(path, [{"id": "r", "name": "Root"}, node])
        message = f"taxonomy line 2: {field!r} must not contain whitespace\n"
        assert cli.main(["taxonomy", "validate", "--taxonomy", str(path)]) == 1
        assert capsys.readouterr().err == f"INVALID: {message}"
        out = tmp / "out.ndjson"
        assert cli.main(["classify", "--taxonomy", str(path), "--documents",
                         str(tmp / "docs.ndjson"), "--output", str(out),
                         "--strategy", "one-pass", "--mock"]) == 1
        assert capsys.readouterr().err == f"error: {message}"
        assert not out.exists()

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

    def test_describe_with_unparseable_replies_is_a_one_line_error(self, workdir, capsys,
                                                                    monkeypatch):
        tmp, _, _ = workdir
        monkeypatch.setattr(gw, "mock_complete", lambda spec, *args: "no json here")
        code = cli.main(
            ["taxonomy", "describe", "--taxonomy", str(tmp / "taxonomy.ndjson"),
             "--output", str(tmp / "x.ndjson"), "--mock"]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: 4 attempts failed for desc_gen: no JSON object found in provider output\n")

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

    def test_a_killed_batch_keeps_every_written_record(self, workdir):
        # The child kills itself as its 4th document starts, after the first
        # three records were handed to the writer.
        tmp, _, _ = workdir
        args = ["--strategy", "one-pass", "--seed", "5"]
        code, full = self._run(tmp, args, out_name="full.ndjson")
        assert code == 0
        child = textwrap.dedent("""
            import os, signal, sys
            from taxocat import cli, pipeline
            real, started = pipeline.classify_document, []
            def classify_document(*args):
                started.append(args[0])
                if len(started) == 4:
                    os.kill(os.getpid(), signal.SIGKILL)
                return real(*args)
            pipeline.classify_document = classify_document
            cli.main(sys.argv[1:])
        """)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        killed = tmp / "killed.ndjson"
        result = subprocess.run(
            [sys.executable, "-c", child, "classify", "--taxonomy", str(tmp / "taxonomy.ndjson"),
             "--documents", str(tmp / "docs.ndjson"), "--output", str(killed), "--mock", *args],
            env=env, capture_output=True, timeout=120)
        assert result.returncode == -signal.SIGKILL
        assert killed.read_bytes() == b"".join(full.read_bytes().splitlines(keepends=True)[:3])

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

    def test_mock_run_keeps_no_prompt(self, workdir, monkeypatch):
        # Checked while the run's gateway is still alive, so a provider that
        # kept its prompts would be seen holding them.
        tmp, _, docs = workdir
        specs = []
        mock_complete = gw.mock_complete

        def answer(spec, *args):
            specs.append(weakref.ref(spec))
            return mock_complete(spec, *args)

        monkeypatch.setattr(gw, "mock_complete", answer)
        alive = []
        run_classification = cli.run_classification

        def checked_run(config, gateway, *args, **kwargs):
            code = run_classification(config, gateway, *args, **kwargs)
            gc.collect()
            alive.append(sum(ref() is not None for ref in specs))
            return code

        monkeypatch.setattr(cli, "run_classification", checked_run)
        code, _ = self._run(tmp, ["--strategy", "pointwise"])
        assert code == 0
        assert len(specs) > len(docs) and alive == [0]

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
        assert self._run(tmp, ["--strategy", "one-pass"], out_name="c0.ndjson")[0] == 0
        assert ((tmp / "c0.ndjson").read_bytes() == (tmp / "c1.ndjson").read_bytes()
                == (tmp / "c2.ndjson").read_bytes())

    def test_embedding_cache_bytes_pinned(self, workdir):
        # The cache file's sha256 is fixed, so a faster hash-bag embedder or
        # cache writer must keep every row's bytes.
        tmp, _, _ = workdir
        save_taxonomy(random_forest(random.Random(11), 400), tmp / "taxonomy.ndjson")
        cache = tmp / "emb.ndjson"
        assert self._run(tmp, ["--strategy", "one-pass", "--embedding-cache", str(cache)])[0] == 0
        assert hashlib.sha256(cache.read_bytes()).hexdigest() == EMBEDDING_CACHE_SHA256

    def test_edited_leaf_is_embedded_again_once(self, workdir, monkeypatch):
        tmp, tax, _ = workdir
        cache = tmp / "emb.ndjson"
        args = ["--strategy", "one-pass", "--embedding-cache", str(cache)]
        assert self._run(tmp, args, out_name="c1.ndjson")[0] == 0
        written = cache.read_bytes()
        edited = dataclasses.replace(tax.node("t2m1l0"), description="auction credit")
        save_taxonomy(tax.with_nodes([edited]), tmp / "taxonomy.ndjson")
        embedders = []

        def counting_embedder(config):
            embedders.append(CountingEmbedder())
            return embedders[-1]

        monkeypatch.setattr(cli, "_make_embedder", counting_embedder)
        assert self._run(tmp, args, out_name="c2.ndjson")[0] == 0
        assert embedders[0].batches[0] == [retrieval.node_text(edited)]
        rewritten = cache.read_bytes()
        assert rewritten != written
        assert self._run(tmp, args, out_name="c3.ndjson")[0] == 0
        assert embedders[1].batches[0] == []
        assert cache.read_bytes() == rewritten
        assert self._run(tmp, ["--strategy", "one-pass"], out_name="c4.ndjson")[0] == 0
        assert (tmp / "c2.ndjson").read_bytes() == (tmp / "c4.ndjson").read_bytes()

    def test_leaf_added_after_the_cache_was_written(self, workdir, monkeypatch):
        tmp, tax, _ = workdir
        cache = tmp / "emb.ndjson"
        args = ["--strategy", "one-pass", "--embedding-cache", str(cache)]
        assert self._run(tmp, args, out_name="c1.ndjson")[0] == 0
        written = cache.read_bytes()
        added = TaxonomyNode(id="t2m1l9", name="auction credit", description="risk pricing",
                             parent_id="t2m1")
        save_taxonomy(Taxonomy(list(tax) + [added]), tmp / "taxonomy.ndjson")
        embedders, rankings = [], []
        real_rank = retrieval.rank_block

        def counting_embedder(config):
            embedders.append(CountingEmbedder())
            return embedders[-1]

        def recording_rank(*args, **kwargs):
            block = real_rank(*args, **kwargs)
            rankings.extend(block)
            return block

        monkeypatch.setattr(cli, "_make_embedder", counting_embedder)
        monkeypatch.setattr(retrieval, "rank_block", recording_rank)
        code, cached_out = self._run(tmp, args, out_name="c2.ndjson")
        assert code == 0
        records = [json.loads(line) for line in cached_out.read_text().splitlines()]
        assert not any("hard-failure" in record["flags"] for record in records)
        assert embedders[0].batches[0] == ["auction credit: risk pricing"]
        assert cache.read_bytes() != written
        grown = tuple(sorted(tax.leaf_ids() + ("t2m1l9",)))
        assert retrieval.EmbeddingStore.load(cache, embedders[0].model_tag).ids == grown
        # Ranked as by an index built from scratch.
        code, fresh_out = self._run(tmp, ["--strategy", "one-pass"], out_name="c3.ndjson")
        assert code == 0
        assert len(embedders[1].batches[0]) == 28
        assert len(rankings) == 20
        by_doc = [{ranking.doc_id: ranking for ranking in run}
                  for run in (rankings[:10], rankings[10:])]
        assert by_doc[0] == by_doc[1]
        assert cached_out.read_bytes() == fresh_out.read_bytes()

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

    def test_failed_document_logs_one_line(self, workdir, monkeypatch, caplog):
        tmp, _, docs = workdir
        real = strategies.classify_select_one_pass
        poison = docs[3].doc_id

        def flaky(doc, *args, **kwargs):
            if doc.doc_id == poison:
                raise RuntimeError("boom")
            return real(doc, *args, **kwargs)

        monkeypatch.setattr(strategies, "classify_select_one_pass", flaky)
        outputs = []
        for level in (logging.WARNING, logging.DEBUG):
            caplog.clear()
            with caplog.at_level(level, logger="taxocat.pipeline"):
                code, out = self._run(tmp, ["--strategy", "one-pass"], out_name=f"{level}.ndjson")
            assert code == 1
            outputs.append(out.read_bytes())
            records = [r for r in caplog.records if r.name == "taxocat.pipeline"]
            warnings = [r for r in records if r.levelno >= logging.WARNING]
            assert [(r.levelno, r.getMessage(), r.exc_info) for r in warnings] == [
                (logging.WARNING, f"document {poison} failed: RuntimeError: boom", None)
            ]
            tracebacks = [r for r in records if r.exc_info]
            assert len(tracebacks) == (level == logging.DEBUG)
            assert all(r.levelno == logging.DEBUG for r in tracebacks)
        assert outputs[0] == outputs[1]
        bad = json.loads(outputs[0].splitlines()[3])
        assert bad["provenance"] == {"error": "RuntimeError: boom"}

    @pytest.mark.parametrize("ablation", ["no-description", None], ids=["ablated", "control"])
    @pytest.mark.parametrize(("strategy", "templates"), [
        ("trav-select", ["trav_select", "trav_select", "decrease_labels"]),
        ("one-pass", ["select_one_pass", "decrease_labels"]),
        ("rerank", ["rerank"]),
        ("pointwise", ["selectp_leaf"] * 7 + ["selectp_parent", "decrease_labels"]),
    ], ids=["trav-select", "one-pass", "rerank", "pointwise"])
    def test_no_description_ablation_reaches_every_prompt(self, tmp_path, monkeypatch,
                                                          strategy, templates, ablation):
        # Seven leaves that all fit the document under a described root, so
        # every strategy shows the root and the leaves, and all but rerank
        # keep seven leaves and have to decrease them to five.
        nodes = [TaxonomyNode(id="root", name="auction", description="parentdesc markets")]
        nodes += [TaxonomyNode(id=f"leaf{i}", name="auction", description=f"leafdesc{i} bids",
                               parent_id="root") for i in range(7)]
        save_taxonomy(Taxonomy(nodes), tmp_path / "taxonomy.ndjson")
        write_ndjson(tmp_path / "docs.ndjson",
                     [{"doc_id": "d1", "title": "auction", "keywords": [], "abstract": ""}])
        gateways = record_cli_gateways(monkeypatch)
        args = ["--strategy", strategy, "--top-k", "10"]
        code, _ = self._run(tmp_path, args + (["--ablation", ablation] if ablation else []))
        assert code == 0
        specs = gateways[0].provider.calls
        assert sorted(spec.template_id.value for spec in specs) == sorted(templates)
        for spec in specs:
            prompt = gw.render_user_text(spec)
            shown = spec.user_payload["nodes"]
            if ablation:
                assert "desc" not in prompt
                assert all(not node.get("description") for node in shown)
            else:
                assert "desc" in prompt
                assert all(node["description"] for node in shown)

    @pytest.mark.parametrize(("text", "message"), [
        ("{not json", "cannot read --config"),
        ('{"aggregation": "bogus"}', "'aggregation' must be one of"),
        ('{"max_labels": "x"}', "'max_labels' must be int"),
        ('{"apply_decrease": {"bogus": true}}', "unknown --config keys: apply_decrease"),
        ('{"apply_decrease": {"rerank": "no"}}', "unknown --config keys: apply_decrease"),
        ('{"apply_decrease": {"rerank": true}}', "unknown --config keys: apply_decrease"),
        ('{"apply_sibling": "no"}', "'apply_sibling' must be bool"),
        ('{"sibling_cap": 0}', "sibling_cap must be >= 1"),
        ('{"topk": 20}', "unknown --config keys: topk"),
        ('{"top_k": NaN}', "NaN is not a finite number"),
        ('{"top_k": 20, "top_k": 90}', "--config key 'top_k' is repeated"),
    ])
    def test_malformed_config_file_is_an_error(self, workdir, capsys, text, message):
        tmp, _, _ = workdir
        config = tmp / "run.json"
        config.write_text(text)
        code, _ = self._run(tmp, ["--strategy", "one-pass", "--config", str(config)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize(("settings", "message"), [
        ({"min_labels": 6, "max_labels": 5}, "--min-labels must satisfy 1 <= min <= max"),
        ({"min_labels": 0}, "--min-labels must satisfy 1 <= min <= max"),
        ({"parallelism": 0}, "--parallelism must be >= 1"),
        ({"top_k": 9}, "--top-k must be within 10..100"),
    ])
    @pytest.mark.parametrize("source", ["flags", "config"])
    def test_out_of_range_run_setting_is_an_error(self, workdir, capsys, settings, message,
                                                  source):
        tmp, _, _ = workdir
        if source == "flags":
            extra = [arg for key, value in settings.items()
                     for arg in (f"--{key.replace('_', '-')}", str(value))]
        else:
            (tmp / "run.json").write_text(json.dumps(settings))
            extra = ["--config", str(tmp / "run.json")]
        code, out = self._run(tmp, ["--strategy", "pointwise"] + extra)
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--documents", "--taxonomy", "--embedding-cache"])
    def test_output_may_not_be_an_input(self, workdir, capsys, flag):
        tmp, _, _ = workdir
        cache = tmp / "emb.ndjson"
        assert self._run(tmp, ["--strategy", "one-pass", "--embedding-cache", str(cache)])[0] == 0
        target = {"--documents": tmp / "docs.ndjson", "--taxonomy": tmp / "taxonomy.ndjson",
                  "--embedding-cache": cache}[flag]
        before = target.read_bytes()
        code, _ = self._run(tmp, ["--strategy", "one-pass", "--embedding-cache", str(cache)],
                            out_name=target.name)
        assert code == 1
        assert "refusing to overwrite the input file" in capsys.readouterr().err
        assert target.read_bytes() == before

    def _decrease_replies(self, monkeypatch, reply):
        """Make --mock answer the decrease call with reply(doc_id), a raw reply or an
        exception to raise; returns the ids of the documents whose decrease was asked."""
        asked = []

        class Provider(gw.MockProvider):
            def complete(self, spec, reminder=None):
                if spec.template_id is not gw.TemplateId.DECREASE_LABELS:
                    return super().complete(spec, reminder)
                asked.append(spec.user_payload["document"]["doc_id"])
                answer = reply(asked[-1])
                if isinstance(answer, Exception):
                    raise answer
                return answer or super().complete(spec, reminder)

        monkeypatch.setattr(gw, "MockProvider", Provider)
        return asked

    @pytest.mark.parametrize("error", [gw.AuthError("HTTP 401"), gw.ClientError("HTTP 400: no")],
                             ids=["401", "400"])
    def test_refused_decrease_call_stops_the_batch(self, workdir, monkeypatch, capsys, error):
        tmp, _, docs = workdir
        asked = self._decrease_replies(
            monkeypatch, lambda doc_id: error if len(asked) == 3 else None)
        code, out = self._run(tmp, ["--strategy", "one-pass", "--max-labels", "1"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        records = [json.loads(line) for line in out.read_text().splitlines()]
        ahead = [d.doc_id for d in docs][:[d.doc_id for d in docs].index(asked[2])]
        assert [r["doc_id"] for r in records] == ahead
        assert [r["doc_id"] for r in records if "decrease" in r["provenance"]] == asked[:2]

    @pytest.mark.parametrize("reply", ["junk", gw.TransportError("HTTP 503")],
                             ids=["unparseable", "unavailable"])
    def test_exhausted_decrease_call_falls_back(self, workdir, monkeypatch, reply):
        tmp, _, docs = workdir
        monkeypatch.setattr("taxocat.gateway.time.sleep", lambda seconds: None)
        asked = self._decrease_replies(monkeypatch, lambda doc_id: reply)
        code, out = self._run(tmp, ["--strategy", "one-pass", "--max-labels", "1"])
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == len(docs) and asked
        for record in records:
            decreased = record["doc_id"] in asked
            assert ("decrease-fallback" in record["flags"]) is decreased
            assert len(record["labels"]) == 1

    def test_config_file_provides_defaults(self, workdir):
        tmp, _, _ = workdir
        config = tmp / "run.json"
        config.write_text(json.dumps({"max_labels": 2, "apply_sibling": False}))
        code, out = self._run(tmp, ["--strategy", "pointwise", "--config", str(config)])
        assert code == 0
        for record in (json.loads(l) for l in out.read_text().splitlines()):
            assert len(record["labels"]) <= 2


class TestProviderWiring:
    """classify against a hosted endpoint whose HTTP session is faked to answer
    401 after its first `accepted` requests, which get an empty label list."""

    accepted = 0

    @pytest.fixture(autouse=True)
    def bodies(self, monkeypatch):
        for name in ("TAXOCAT_ENDPOINT", "TAXOCAT_MODEL", "TAXOCAT_API_KEY"):
            monkeypatch.delenv(name, raising=False)
        bodies = []
        test = self

        class Accepted:
            status_code = 200
            text = ""

            def json(self):
                return {"choices": [{"message": {"content": '{"best_labels": []}'}}]}

        class Rejected:
            status_code = 401
            text = ""

        class Session:
            def mount(self, prefix, adapter):
                pass

            def post(self, url, json=None, headers=None, timeout=None):
                bodies.append(json)
                return Accepted() if len(bodies) <= test.accepted else Rejected()

        monkeypatch.setattr("requests.Session", Session)
        return bodies

    def _classify(self, tmp, provider_fields, strategy="trav-select", *extra):
        provider = tmp / "provider.json"
        provider.write_text(json.dumps(provider_fields))
        return cli.main(
            ["classify", "--taxonomy", str(tmp / "taxonomy.ndjson"),
             "--documents", str(tmp / "docs.ndjson"), "--output", str(tmp / "out.ndjson"),
             "--strategy", strategy, "--provider", str(provider), "--parallelism", "1", *extra]
        )

    def _classify_over_a_complete_cache(self, workdir, monkeypatch, *statuses,
                                        unavailable=None, refused=None, run=None):
        """Exit code and embedding request count of `run(provider fields,
        cache path)`, by default a one-pass classify, with an --embedding-cache
        that holds every leaf, so only documents are embedded. The embedding
        endpoint answers `statuses` in turn, then 200 with hash-bag vectors,
        except that a request whose texts `unavailable` holds for is answered
        503, and one whose texts `refused` holds for 401; the chat endpoint
        selects no label."""
        tmp, tax, _ = workdir
        emb = "https://api.example/emb"
        fields = {"endpoint": "https://api.example/chat", "model_name": "m",
                  "embedding_endpoint": emb, "embedding_model": "e"}
        script = []
        inputs = []
        rules = []

        class Session:
            def mount(self, prefix, adapter):
                pass

            def post(self, url, json=None, headers=None, timeout=None):
                if url != emb:
                    reply = {"choices": [{"message": {"content": '{"best_labels": []}'}}]}
                    return argparse.Namespace(status_code=200, text="", json=lambda: reply)
                inputs.append(json["input"])
                rows = [{"index": i, "embedding": row} for i, row in enumerate(
                    retrieval.HashBagEmbedder().embed_many(json["input"]).tolist())]
                status = script.pop(0) if script else 200
                for rule_status, rule in rules:
                    if rule and rule(json["input"]):
                        status = rule_status
                return argparse.Namespace(status_code=status, text="", headers={},
                                          json=lambda: {"data": rows})

        monkeypatch.setattr("requests.Session", Session)
        cache = tmp / "emb.ndjson"
        embedder = retrieval.HttpEmbedder(gw.ProviderConfig(**fields))
        retrieval.embed_taxonomy_leaves(tax, embedder).save(cache)
        inputs.clear()
        script += statuses
        rules += [(503, unavailable), (401, refused)]
        code = (run(fields, cache) if run else
                self._classify(tmp, fields, "one-pass", "--embedding-cache", str(cache)))
        return code, len(inputs)

    def test_embedding_auth_error_stops_the_batch(self, workdir, monkeypatch, capsys):
        code, requests_sent = self._classify_over_a_complete_cache(workdir, monkeypatch, 401)
        assert code == 1
        assert requests_sent == 1
        assert "error: HTTP 401" in capsys.readouterr().err

    def test_documents_are_embedded_one_request_per_block(self, workdir, monkeypatch):
        _, _, docs = workdir
        code, requests_sent = self._classify_over_a_complete_cache(workdir, monkeypatch)
        assert code == 0
        assert requests_sent == math.ceil(len(docs) / pipeline.RANK_BLOCK) < len(docs)

    def test_auth_error_on_a_later_block_keeps_the_ranked_documents(self, workdir, monkeypatch,
                                                                    capsys):
        tmp, _, docs = workdir
        code, requests_sent = self._classify_over_a_complete_cache(workdir, monkeypatch, 200, 401)
        assert code == 1
        assert requests_sent == 2
        records = [json.loads(line) for line in (tmp / "out.ndjson").read_text().splitlines()]
        assert [r["doc_id"] for r in records] == [d.doc_id for d in docs[:pipeline.RANK_BLOCK]]
        assert "error: HTTP 401" in capsys.readouterr().err

    def test_failed_block_request_falls_back_to_one_request_per_document(self, workdir,
                                                                         monkeypatch):
        # Every request of more than one text fails after its retries, and so
        # does docs[3]'s own: only docs[3] fails, with the record it gets
        # when every document is ranked alone.
        tmp, _, docs = workdir
        monkeypatch.setattr("taxocat.gateway.time.sleep", lambda seconds: None)
        poison = [document_text(docs[3])]

        def unavailable(texts):
            return len(texts) > 1 or texts == poison

        code, requests_sent = self._classify_over_a_complete_cache(
            workdir, monkeypatch, unavailable=unavailable)
        assert code == 1
        records = [json.loads(line) for line in (tmp / "out.ndjson").read_text().splitlines()]
        assert [r["doc_id"] for r in records] == [d.doc_id for d in docs]
        assert ["hard-failure" in r["flags"] for r in records] == [
            i == 3 for i in range(len(docs))]
        assert records[3]["provenance"]["error"].startswith("TransportError: HTTP 503")
        blocks = math.ceil(len(docs) / pipeline.RANK_BLOCK)
        attempts = gw.ProviderConfig().max_retries + 1
        assert requests_sent == blocks * attempts + len(docs) - 1 + attempts
        batched = (tmp / "out.ndjson").read_bytes()
        monkeypatch.setattr(pipeline, "RANK_BLOCK", 1)
        assert self._classify_over_a_complete_cache(
            workdir, monkeypatch, unavailable=unavailable) == (1, len(docs) - 1 + attempts)
        assert (tmp / "out.ndjson").read_bytes() == batched

    def test_rate_limited_embedding_is_retried(self, workdir, monkeypatch):
        tmp, _, docs = workdir
        sleeps = []
        monkeypatch.setattr("taxocat.gateway.time.sleep", sleeps.append)
        code, requests_sent = self._classify_over_a_complete_cache(workdir, monkeypatch, 429)
        assert code == 0
        assert requests_sent == math.ceil(len(docs) / pipeline.RANK_BLOCK) + 1
        assert sleeps == [0.5]
        records = [json.loads(line) for line in (tmp / "out.ndjson").read_text().splitlines()]
        assert len(records) == len(docs)
        assert not any("hard-failure" in r["flags"] for r in records)

    def test_auth_error_on_a_later_block_stops_ranking_above_one_worker(self, workdir,
                                                                        monkeypatch):
        # Ranking runs ahead of the two workers, but no block after the
        # refused one is ranked.
        tmp, _, _ = workdir
        rng = random.Random(2)
        docs = [vocab_doc(rng, f"doc{i}") for i in range(3 * pipeline.RANK_BLOCK + 1)]
        write_ndjson(tmp / "docs.ndjson", [dataclasses.asdict(doc) for doc in docs])
        code, requests_sent = self._classify_over_a_complete_cache(
            workdir, monkeypatch, 200, 401,
            run=lambda fields, cache: self._classify(
                tmp, fields, "one-pass", "--embedding-cache", str(cache), "--parallelism", "2"))
        assert code == 1
        assert requests_sent == 2
        records = [json.loads(line) for line in (tmp / "out.ndjson").read_text().splitlines()]
        assert [r["doc_id"] for r in records] == [d.doc_id for d in docs[:pipeline.RANK_BLOCK]]

    def test_auth_error_while_ranking_one_by_one_stops_ranking(self, workdir, monkeypatch,
                                                               capsys):
        # Every request of more than one text fails after its retries, and
        # docs[3]'s own is refused: docs[4:8] are not requested.
        tmp, _, docs = workdir
        monkeypatch.setattr("taxocat.gateway.time.sleep", lambda seconds: None)
        code, requests_sent = self._classify_over_a_complete_cache(
            workdir, monkeypatch, unavailable=lambda texts: len(texts) > 1,
            refused=lambda texts: texts == [document_text(docs[3])])
        assert code == 1
        assert requests_sent == gw.ProviderConfig().max_retries + 1 + 4
        records = [json.loads(line) for line in (tmp / "out.ndjson").read_text().splitlines()]
        assert [r["doc_id"] for r in records] == [d.doc_id for d in docs[:3]]
        assert "error: HTTP 401" in capsys.readouterr().err

    def _rank(self, workdir, fields, cache):
        tmp, tax, docs = workdir
        leaves = tax.leaf_ids()
        write_ndjson(tmp / "gold.ndjson", [{"doc_id": doc.doc_id, "gold": [leaves[i % len(leaves)]]}
                                           for i, doc in enumerate(docs)])
        provider = tmp / "provider.json"
        provider.write_text(json.dumps(fields))
        return cli.main(
            ["rank", "--documents", str(tmp / "docs.ndjson"),
             "--taxonomy", str(tmp / "taxonomy.ndjson"), "--gold", str(tmp / "gold.ndjson"),
             "--depths", "1,3,10", "--provider", str(provider), "--embedding-cache", str(cache)])

    def test_rank_ranks_a_failed_block_one_document_at_a_time(self, workdir, monkeypatch,
                                                               capsys):
        _, _, docs = workdir
        monkeypatch.setattr("taxocat.gateway.time.sleep", lambda seconds: None)
        rank = functools.partial(self._rank, workdir)
        code, requests_sent = self._classify_over_a_complete_cache(
            workdir, monkeypatch, unavailable=lambda texts: len(texts) > 1, run=rank)
        assert code == 0
        blocks = math.ceil(len(docs) / pipeline.RANK_BLOCK)
        assert requests_sent == blocks * (gw.ProviderConfig().max_retries + 1) + len(docs)
        table = capsys.readouterr().out
        monkeypatch.setattr(pipeline, "RANK_BLOCK", 1)
        assert self._classify_over_a_complete_cache(workdir, monkeypatch, run=rank) == (
            0, len(docs))
        assert capsys.readouterr().out == table

    def test_rank_stops_on_a_refused_block(self, workdir, monkeypatch, capsys):
        code, requests_sent = self._classify_over_a_complete_cache(
            workdir, monkeypatch, 401, run=functools.partial(self._rank, workdir))
        assert code == 1
        assert requests_sent == 1
        assert "error: HTTP 401" in capsys.readouterr().err

    def test_auth_error_stops_the_batch(self, workdir, bodies, capsys):
        tmp, _, docs = workdir
        code = self._classify(tmp, {"endpoint": "https://api.example/chat", "model_name": "m"})
        assert code == 1
        assert len(docs) == 10 and len(bodies) == 1
        assert "error: HTTP 401" in capsys.readouterr().err

    def test_auth_error_mid_batch_keeps_finished_documents(self, workdir, bodies, capsys):
        # Each trav-select document makes one call when nothing is selected.
        tmp, _, docs = workdir
        self.accepted = 3
        code = self._classify(tmp, {"endpoint": "https://api.example/chat", "model_name": "m"})
        assert code == 1
        assert len(bodies) == 4
        records = [json.loads(line) for line in (tmp / "out.ndjson").read_text().splitlines()]
        assert [r["doc_id"] for r in records] == [d.doc_id for d in docs[:3]]
        assert all(r["flags"] == ["empty-result", "needs-review"] for r in records)
        assert "error: HTTP 401" in capsys.readouterr().err

    def test_auth_error_stops_a_pointwise_wave(self, workdir, bodies, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_make_embedder", lambda config: retrieval.HashBagEmbedder())
        tmp, _, _ = workdir
        code = self._classify(tmp, {"endpoint": "https://api.example/chat", "model_name": "m"},
                              strategy="pointwise")
        assert code == 1
        assert 1 <= len(bodies) <= gw.ProviderConfig().max_in_flight
        assert "error: HTTP 401" in capsys.readouterr().err

    def test_embedder_comes_from_the_provider_config(self, tmp_path):
        provider = tmp_path / "provider.json"
        provider.write_text(json.dumps({"credentials": "EMB_KEY", "embedding_model": "e",
                                        "embedding_endpoint": "https://api.example/emb"}))
        embedder = cli._make_embedder(
            cli._provider_config(argparse.Namespace(mock=False, provider=str(provider))))
        assert isinstance(embedder, retrieval.HttpEmbedder)
        assert (embedder.config.embedding_endpoint, embedder.model_tag,
                embedder.config.credentials) == ("https://api.example/emb", "e", "EMB_KEY")

    def test_embedder_gets_the_provider_timeout(self, tmp_path, monkeypatch):
        timeouts = []

        class Session:
            def mount(self, prefix, adapter):
                pass

            def post(self, url, json=None, headers=None, timeout=None):
                timeouts.append(timeout)
                return argparse.Namespace(status_code=200, json=lambda: {
                    "data": [{"index": 0, "embedding": [1.0, 0.0]}]})

        monkeypatch.setattr("requests.Session", Session)
        provider = tmp_path / "provider.json"
        provider.write_text(json.dumps({"timeout": 5, "embedding_model": "e",
                                        "embedding_endpoint": "https://api.example/emb"}))
        embedder = cli._make_embedder(
            cli._provider_config(argparse.Namespace(mock=False, provider=str(provider))))
        embedder.embed_many(["text"])
        assert timeouts == [5.0]

    @pytest.mark.parametrize("command", ["classify", "rank"])
    def test_embedding_requests_carry_the_api_key(self, workdir, monkeypatch, tmp_path, command):
        # The provider file names no credentials, so TAXOCAT_API_KEY is the
        # secret for the LLM calls and the embedding requests alike. Rank's
        # file has only embedding keys: it needs no LLM model.
        tmp, _, docs = workdir
        monkeypatch.setenv("TAXOCAT_API_KEY", "sk-test")
        emb = "https://api.example/emb"
        sent = []

        class Session:
            def mount(self, prefix, adapter):
                pass

            def post(self, url, json=None, headers=None, timeout=None):
                sent.append((url, headers.get("Authorization")))
                if url == emb:
                    rows = [{"index": i, "embedding": [1.0, float(i)]}
                            for i in range(len(json["input"]))]
                    return argparse.Namespace(status_code=200, json=lambda: {"data": rows})
                reply = {"choices": [{"message": {"content": '{"best_labels": []}'}}]}
                return argparse.Namespace(status_code=200, text="", json=lambda: reply)

        monkeypatch.setattr("requests.Session", Session)
        provider = tmp_path / "provider.json"
        fields = {"embedding_endpoint": emb, "embedding_model": "e"}
        if command == "classify":
            fields.update(endpoint="https://api.example/chat", model_name="m")
            args = ["classify", "--output", str(tmp_path / "out.ndjson"),
                    "--strategy", "one-pass", "--parallelism", "1"]
        else:
            write_ndjson(tmp_path / "gold.ndjson", [{"doc_id": d.doc_id, "gold": []} for d in docs])
            args = ["rank", "--gold", str(tmp_path / "gold.ndjson")]
        provider.write_text(json.dumps(fields))
        code = cli.main(args + ["--taxonomy", str(tmp / "taxonomy.ndjson"), "--documents",
                                str(tmp / "docs.ndjson"), "--provider", str(provider)])
        assert code == 0
        assert {auth for url, auth in sent if url == emb} == {"Bearer sk-test"}
        assert all(auth == "Bearer sk-test" for _, auth in sent)

    def test_real_endpoint_needs_a_model_name(self, workdir, bodies, capsys):
        tmp, _, _ = workdir
        code = self._classify(tmp, {"endpoint": "https://api.example/chat"})
        assert code == 1
        assert bodies == []
        assert "needs a model" in capsys.readouterr().err


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

    @pytest.mark.parametrize("text", ["[1", None, '[{"accuracy_pct": NaN}]', '[{"5": Infinity}]'])
    def test_evaluate_bad_baseline_is_an_error(self, tmp_path, capsys, text):
        path = tmp_path / "j.ndjson"
        write_ndjson(path, [{"doc_id": "d", "method": "m", "correct": True, "score": 5}])
        baseline = tmp_path / "baseline.json"
        if text is not None:
            baseline.write_text(text)
        code = cli.main(["evaluate", "--judgments", str(path), "--baseline", str(baseline)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read --baseline {baseline}: ")

    @pytest.mark.parametrize(("key", "value"), [
        ("n", True), ("n", 0), ("n", 2.5), ("n", "192"),
        ("accuracy_pct", "nan"), ("accuracy_pct", True),
        ("accuracy_pct", 100.5), ("accuracy_pct", -1),
        pytest.param("accuracy_pct", 10**400, id="accuracy_pct-1e400"),
        ("5", "inf"), ("5", False),
        ("method", 7), ("method", None), ("method", "m"),  # "m" is a judged method
    ])
    def test_evaluate_bad_baseline_row_is_an_error(self, tmp_path, capsys, key, value):
        path = tmp_path / "j.ndjson"
        write_ndjson(path, [{"doc_id": "d", "method": "m", "correct": True, "score": 5}])
        row = {"method": "earlier", "n": 10, "accuracy_pct": 50.0,
               "score_dist_pct": {"5": 0.0, "4": 0.0, "3": 100.0, "2": 0.0, "1": 0.0}}
        if key in row:
            row[key] = value
        else:
            row["score_dist_pct"][key] = value
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps([row]))
        code = cli.main(["evaluate", "--judgments", str(path), "--baseline", str(baseline)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: bad baseline report entry: ")
        assert captured.out == ""

    def test_evaluate_repeated_baseline_key_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "j.ndjson"
        write_ndjson(path, [{"doc_id": "d", "method": "m", "correct": True, "score": 5}])
        baseline = tmp_path / "baseline.json"
        baseline.write_text('[{"method": "old", "method": "older", "n": 10, "accuracy_pct": 50, '
                            '"score_dist_pct": {"5": 0, "4": 0, "3": 100, "2": 0, "1": 0}}]')
        code = cli.main(["evaluate", "--judgments", str(path), "--baseline", str(baseline)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --baseline key 'method' is repeated\n"
        assert captured.out == ""

    def test_evaluate_repeated_baseline_method_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "j.ndjson"
        write_ndjson(path, [{"doc_id": "d", "method": "m", "correct": True, "score": 5}])
        row = {"method": "earlier", "n": 10, "accuracy_pct": 50.0,
               "score_dist_pct": {"5": 0.0, "4": 0.0, "3": 100.0, "2": 0.0, "1": 0.0}}
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps([row, row]))
        code = cli.main(["evaluate", "--judgments", str(path), "--baseline", str(baseline)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: bad baseline report entry: "
                                "method must be a name not reported yet, not 'earlier'\n")
        assert captured.out == ""

    def test_evaluate_empty_file_fails(self, tmp_path, capsys):
        path = tmp_path / "empty.ndjson"
        path.write_text("")
        assert cli.main(["evaluate", "--judgments", str(path)]) == 1
        assert capsys.readouterr().err == "error: no reports to compare\n"

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

    @pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
    def test_rank_needs_an_embedder(self, workdir, capsys, tmp_path, cached):
        tmp, tax, docs = workdir
        cache = tmp_path / "emb.ndjson"
        if cached:
            retrieval.embed_taxonomy_leaves(tax, retrieval.HashBagEmbedder()).save(cache)
        write_ndjson(tmp_path / "gold.ndjson", [{"doc_id": d.doc_id, "gold": []} for d in docs])
        code = cli.main(
            ["rank", "--documents", str(tmp / "docs.ndjson"),
             "--taxonomy", str(tmp / "taxonomy.ndjson"), "--gold", str(tmp_path / "gold.ndjson"),
             "--embedding-cache", str(cache)]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: document embedding requires --mock or an embedding provider\n")
        assert cache.exists() == cached

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

    def test_rank_ranks_only_the_deepest_depth(self, workdir, monkeypatch, tmp_path):
        tmp, tax, docs = workdir
        from taxocat import retrieval

        embedder = retrieval.HashBagEmbedder()
        store = retrieval.embed_taxonomy_leaves(tax, embedder)
        full = [retrieval.rank_leaves(doc, tax, store, embedder) for doc in docs]
        gold = {r.doc_id: [r.leaf_ids()[(5 * i) % 27], r.leaf_ids()[(7 * i + 3) % 27]]
                for i, r in enumerate(full)}
        write_ndjson(tmp_path / "gold.ndjson",
                     [{"doc_id": doc_id, "gold": labels} for doc_id, labels in gold.items()])
        lengths = []
        real = retrieval.rank_block

        def recording(*args, **kwargs):
            block = real(*args, **kwargs)
            lengths.extend(len(ranking.entries) for ranking in block)
            return block

        monkeypatch.setattr(retrieval, "rank_block", recording)
        json_out = tmp_path / "recall.json"
        code = cli.main(
            ["rank", "--documents", str(tmp / "docs.ndjson"),
             "--taxonomy", str(tmp / "taxonomy.ndjson"), "--gold", str(tmp_path / "gold.ndjson"),
             "--depths", "1,3,8", "--mock", "--json-output", str(json_out)]
        )
        assert code == 0
        assert lengths == [8] * len(docs)
        expected = retrieval.recall_at_k(full, gold, [1, 3, 8])
        assert json.loads(json_out.read_text()) == [
            {"depth": r.depth, "all_gold_rate": r.all_gold_rate, "any_gold_rate": r.any_gold_rate}
            for r in expected
        ]

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

    def test_unwritable_embedding_cache_is_named(self, workdir, capsys):
        tmp, _, _ = workdir
        cache = tmp / "nodir" / "emb.ndjson"
        code = cli.main(
            ["classify", "--taxonomy", str(tmp / "taxonomy.ndjson"),
             "--documents", str(tmp / "docs.ndjson"), "--output", str(tmp / "out.ndjson"),
             "--strategy", "one-pass", "--mock", "--embedding-cache", str(cache)]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: cannot write embedding cache {cache}: No such file or directory\n")

    @pytest.mark.parametrize(("command", "text", "message"), [
        ("rank", "[1]", "provider config must be a JSON object"),
        ("rank", "{not json", "cannot read provider config"),
        ("classify", "{not json", "cannot read provider config"),
        ("classify", '{"timeout": "5"}', "'timeout' must be float"),
        ("rank", '{"embeding_model": "e"}', "unknown provider config keys: embeding_model"),
        ("classify", '{"timeout": 5, "timeout": 60}', "provider config key 'timeout' is repeated"),
    ])
    def test_malformed_provider_file_is_an_error(self, workdir, capsys, tmp_path,
                                                 command, text, message):
        tmp, tax, docs = workdir
        provider = tmp_path / "provider.json"
        provider.write_text(text)
        if command == "rank":
            write_ndjson(tmp_path / "gold.ndjson",
                         [{"doc_id": d.doc_id, "gold": [tax.leaf_ids()[0]]} for d in docs])
            args = ["rank", "--gold", str(tmp_path / "gold.ndjson")]
        else:
            args = ["classify", "--strategy", "one-pass", "--output", str(tmp_path / "o.ndjson")]
        code = cli.main(args + ["--documents", str(tmp / "docs.ndjson"),
                                "--taxonomy", str(tmp / "taxonomy.ndjson"),
                                "--provider", str(provider)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_rank_has_no_audit_log(self, workdir, capsys, tmp_path):
        tmp, _, _ = workdir
        with pytest.raises(SystemExit) as exit_:
            cli.main(["rank", "--documents", str(tmp / "docs.ndjson"),
                      "--taxonomy", str(tmp / "taxonomy.ndjson"),
                      "--gold", str(tmp_path / "gold.ndjson"), "--mock",
                      "--audit-log", str(tmp_path / "x")])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --audit-log" in capsys.readouterr().err

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


class TestOutputsAreNotInputs:
    """No command writes its --json-output, --audit-log or --output over one
    of its input files (or its audit log over its output)."""

    CASES = [("evaluate", "--json-output", "--judgments"), ("evaluate", "--json-output", "--baseline")]
    CASES += [("rank", "--json-output", flag) for flag in
              ("--taxonomy", "--documents", "--gold", "--embedding-cache", "--provider")]
    CASES += [("classify", "--audit-log", flag) for flag in
              ("--output", "--taxonomy", "--documents", "--embedding-cache", "--config", "--provider")]
    CASES += [("describe", "--audit-log", flag) for flag in ("--output", "--taxonomy", "--provider")]

    @pytest.mark.parametrize(("command", "output", "target"), CASES)
    def test_output_may_not_overwrite_an_input(self, workdir, capsys, command, output, target):
        tmp, tax, docs = workdir
        paths = {flag: str(tmp / name) for flag, name in [
            ("--taxonomy", "taxonomy.ndjson"), ("--documents", "docs.ndjson"),
            ("--judgments", "judgments.ndjson"), ("--baseline", "baseline.json"),
            ("--gold", "gold.ndjson"), ("--embedding-cache", "emb.ndjson"),
            ("--config", "run.json"), ("--provider", "provider.json"), ("--output", "out.ndjson"),
        ]}
        write_ndjson(paths["--judgments"],
                     [{"doc_id": "d", "method": "m", "correct": True, "score": 5}])
        (tmp / "baseline.json").write_text(json.dumps([{
            "method": "earlier", "n": 1, "accuracy_pct": 50.0,
            "score_dist_pct": {"5": 0.0, "4": 0.0, "3": 100.0, "2": 0.0, "1": 0.0},
        }]))
        write_ndjson(paths["--gold"], [{"doc_id": d.doc_id, "gold": ["t0m0l0"]} for d in docs])
        retrieval.embed_taxonomy_leaves(tax, retrieval.HashBagEmbedder()).save(
            paths["--embedding-cache"])
        (tmp / "run.json").write_text('{"top_k": 20}')
        (tmp / "provider.json").write_text('{"model_name": "mock"}')
        (tmp / "out.ndjson").write_text("kept\n")
        used = {
            "evaluate": ["--judgments", "--baseline"],
            "rank": ["--taxonomy", "--documents", "--gold", "--embedding-cache", "--provider"],
            "classify": ["--taxonomy", "--documents", "--output", "--embedding-cache",
                         "--config", "--provider"],
            "describe": ["--taxonomy", "--output", "--provider"],
        }[command]
        argv = {"evaluate": ["evaluate"], "rank": ["rank", "--mock"],
                "classify": ["classify", "--strategy", "one-pass", "--mock"],
                "describe": ["taxonomy", "describe", "--mock"]}[command]
        for flag in used:
            argv += [flag, paths[flag]]
        argv += [output, paths[target]]
        before = {flag: Path(paths[flag]).read_bytes() for flag in used}
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: refusing to overwrite the input file; pick a new {output} path\n"
        assert {flag: Path(paths[flag]).read_bytes() for flag in used} == before


class TestUnreadableFiles:
    """Every file flag pointing at a missing path, a directory or (for an
    input) bytes that are not UTF-8 stops with a one-line error."""

    INPUTS = [("validate", "--taxonomy"), ("classify", "--taxonomy"),
              ("classify", "--documents"), ("classify", "--embedding-cache"),
              ("evaluate", "--judgments"), ("rank", "--gold"), ("expand", "--acronyms")]
    OUTPUTS = [("classify", "--output"), ("classify", "--audit-log"), ("expand", "--output"),
               ("evaluate", "--json-output")]

    @staticmethod
    def _argv(tmp, command):
        tax, docs = str(tmp / "taxonomy.ndjson"), str(tmp / "docs.ndjson")
        return {
            "validate": ["taxonomy", "validate", "--taxonomy", tax],
            "classify": ["classify", "--taxonomy", tax, "--documents", docs, "--mock",
                         "--output", str(tmp / "out.ndjson"), "--strategy", "one-pass"],
            "evaluate": ["evaluate", "--judgments", str(tmp / "judgments.ndjson")],
            "rank": ["rank", "--taxonomy", tax, "--documents", docs, "--mock"],
            "expand": ["taxonomy", "expand", "--taxonomy", tax, "--output",
                       str(tmp / "expanded.ndjson"), "--acronyms", str(tmp / "acronyms.json")],
        }[command]

    @pytest.mark.parametrize(("command", "flag", "case"), [
        (command, flag, case)
        for flags, cases in ((INPUTS, ("missing", "directory", "not-utf8")),
                             (OUTPUTS, ("missing", "directory")))
        for command, flag in flags for case in cases
    ])
    def test_unreadable_file_is_an_error(self, workdir, capsys, command, flag, case):
        tmp, _, _ = workdir
        write_ndjson(tmp / "judgments.ndjson",
                     [{"doc_id": "d", "method": "m", "correct": True, "score": 5}])
        (tmp / "acronyms.json").write_text("{}")
        path = {"missing": tmp / "nowhere" / "file", "directory": tmp / "subdir",
                "not-utf8": tmp / "latin1.ndjson"}[case]
        (tmp / "subdir").mkdir()
        (tmp / "latin1.ndjson").write_bytes('{"name": "café"}\n'.encode("latin-1"))
        argv = self._argv(tmp, command)
        if flag in argv:
            argv[argv.index(flag) + 1] = str(path)
        else:
            argv += [flag, str(path)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        prefix = "INVALID: " if command == "validate" else "error: "
        assert err.startswith(prefix) and str(path) in err
        assert len(err.splitlines()) == 1
