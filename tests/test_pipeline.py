"""Pinned `classify --mock` output and prompt bytes for the per-document pipeline.

The sha256 of each run's output file is fixed below, so a refactor that is
meant to keep behaviour can be checked against the bytes of the code before
it. So is a digest of every prompt the run sends: the sha256 of each
prompt's system and user text, sorted (calls in one wave finish in any
order) and hashed together. A deliberate output or prompt change must
update these digests and say why in CHANGES.md.
"""
from __future__ import annotations

import hashlib
import json
import random
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from taxocat import cli, gateway as gw, pipeline, postprocess, retrieval, strategies
from taxocat.documents import document_text, load_documents
from taxocat.taxonomy import load_taxonomy, save_taxonomy

from .util import (
    CountingEmbedder,
    make_doc,
    random_forest,
    record_cli_gateways,
    ternary_taxonomy,
    vocab_doc,
    write_ndjson,
)

DIGESTS = {
    ("trav-select", None): "57d3b1924a27e9cdfcd4d13d4c562057b6dc9be4a15adac851bcb70cc768ec8c",
    ("trav-select", "no-description"): "f29f3fef83f38ee6ecb5bff92bb8e96ab87b46d34f10f87fa0bc01be1afaf096",
    ("one-pass", None): "56a5417f4e35469da9b4388d9ad147f9a8ba7331f61578b3b3d7eca3e0c49931",
    ("one-pass", "no-description"): "14e546bd127975be67f1fc3003a9c48b0709090fe414348e224d33b2c7262cd1",
    ("one-pass", "no-decrease"): "bfa469658131a56a9fb32ca77683fa3376d30f05e4a39b8cbf0b89dac832cf6d",
    ("rerank", None): "a185050ae28efe96dcc15e231cd3ebb066458d56b56695065617e1d1093aa3d8",
    ("rerank", "no-description"): "9ed93d50b07fa619d214548ac51c14540a7f23b2d18264edefecc9dd4f555a9d",
    ("pointwise", None): "1074c71d57eda7ac2a701d517b495f8844ac2612fec8645fb8a081f02c88196f",
    ("pointwise", "no-description"): "b1526236f3c2f789b7def8f585d4282bf93ebbca2323e571bb0da40c069d50f7",
    ("pointwise", "no-context"): "a8d1d652adae9581fb95dbcaf891983254188bdf641cedea02cf02c06f6e834d",
}

PROMPT_DIGESTS = {
    ("trav-select", None): "9b4f7b6460bcf2644dd9bb863a2cac62376cc3b3eb4417e3abaa4ecd450e8042",
    ("trav-select", "no-description"): "0195294b23d01408ae2f0c49a6623af2f341b7d6f3c95b4384115d549b8adfe0",
    ("one-pass", None): "6aac66c87bd910060b0cdccd8a73d4984dfa927244df0688ae45812236345e5d",
    ("one-pass", "no-description"): "ae1938f9d52c15b8a745131a76872709c7c4dad7d43c1ff9104484ed973ec2ab",
    ("one-pass", "no-decrease"): "1b12da8efccfdf4ea41917672c9482e916085f28366107a72eadf95ab91f8609",
    ("rerank", None): "64f1af5a1b68034f6748a54c0af1b756056c52c4093bee389d8f24a064c67e54",
    ("rerank", "no-description"): "5a2cb9b7487143acd7f6dce85d3e2431d4d7eb568db8b0a6c0d8a733c18b819d",
    ("pointwise", None): "7e774a020b60eb72d75318ccfafaff49575b053c0177808248c56039ace7691d",
    ("pointwise", "no-description"): "784b1815f4a0b619bd54e813ea7995e6b43d01fdeb872edb18a732b9cc8093c2",
    ("pointwise", "no-context"): "73baf3f680584fbb81178ee7e63d394efe970b6056de3633cb705cf8164810c9",
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("digests")
    save_taxonomy(random_forest(random.Random(11), 400), tmp / "taxonomy.ndjson")
    rng = random.Random(12)
    docs = [vocab_doc(rng, f"doc{i:02d}") for i in range(40)]
    write_ndjson(
        tmp / "docs.ndjson",
        [{"doc_id": d.doc_id, "title": d.title, "keywords": list(d.keywords),
          "abstract": d.abstract} for d in docs],
    )
    return tmp


def _prompt_digest(specs) -> str:
    digests = sorted(
        hashlib.sha256(f"{spec.system_text}\0{spec.user_text}".encode()).hexdigest()
        for spec in specs
    )
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def run_one(inputs, monkeypatch, out, strategy, *flags) -> tuple[str, str]:
    """(output digest, prompt digest) of `classify --mock` with `flags`, written to `out`."""
    gateways = record_cli_gateways(monkeypatch)
    args = ["classify", "--taxonomy", str(inputs / "taxonomy.ndjson"),
            "--documents", str(inputs / "docs.ndjson"), "--output", str(out),
            "--strategy", strategy, "--mock", "--seed", "7", "--parallelism", "1", *flags]
    assert cli.main(args) == 0
    specs = [spec for gateway in gateways for spec in gateway.provider.calls]
    return hashlib.sha256(out.read_bytes()).hexdigest(), _prompt_digest(specs)


def run_all(inputs, monkeypatch) -> dict[tuple, tuple[str, str]]:
    """(output digest, prompt digest) per configuration."""
    done = {}
    for strategy, ablation in DIGESTS:
        flags = []
        if strategy == "rerank":
            flags += ["--agg", "harmonic-all-ancestors"]
        if ablation:
            flags += ["--ablation", ablation]
        done[strategy, ablation] = run_one(
            inputs, monkeypatch, inputs / f"{strategy}-{ablation}.ndjson", strategy, *flags)
    return done


@pytest.fixture(scope="module")
def runs(inputs):
    with pytest.MonkeyPatch.context() as monkeypatch:
        return run_all(inputs, monkeypatch)


@pytest.mark.parametrize(("strategy", "ablation"), sorted(DIGESTS, key=str))
def test_classify_output_digest(runs, strategy, ablation):
    assert runs[strategy, ablation][0] == DIGESTS[strategy, ablation]


@pytest.mark.parametrize(("strategy", "ablation"), sorted(PROMPT_DIGESTS, key=str))
def test_classify_prompt_digest(runs, strategy, ablation):
    assert runs[strategy, ablation][1] == PROMPT_DIGESTS[strategy, ablation]


# one-pass at --max-labels 3, where the decrease call asks for three labels.
THREE_LABEL_DIGESTS = (
    "53f06e27bb8b110c76250f7fff8b58e2c93ed6e4ca6e8f4f905c1d19657fb1fa",
    "78f83e08afb5e48bcab390c5e29850b73ac302bb23b6864dd5ed5b5f0245939c",
)


def test_one_pass_at_three_labels_keeps_every_decrease_reply(inputs, monkeypatch):
    out = inputs / "one-pass-three.ndjson"
    digests = run_one(inputs, monkeypatch, out, "one-pass", "--max-labels", "3")
    records = [json.loads(line) for line in out.read_text().splitlines()]
    decreased = [r for r in records if "decrease" in r["provenance"]]
    assert decreased
    assert all(len(r["provenance"]["decrease"]["returned"]) == 3 for r in decreased)
    assert not any(postprocess.FLAG_DECREASE_FALLBACK in r["flags"] for r in records)
    assert digests == THREE_LABEL_DIGESTS


def test_classify_batch_writes_the_command_lines_bytes(inputs, tmp_path):
    # The library path alone, with no command line around it.
    taxonomy = load_taxonomy(inputs / "taxonomy.ndjson")
    embedder = retrieval.HashBagEmbedder()
    config = pipeline.RunConfig(
        taxonomy_path=inputs / "taxonomy.ndjson", documents_path=inputs / "docs.ndjson",
        output_path=tmp_path / "out.ndjson", method=strategies.Method.SELECT_ONE_PASS,
        top_k=40, aggregation=strategies.AggregationFunction.LEAF_ONLY, label_range=(1, 5),
        postprocess=postprocess.PostProcessConfig(), include_descriptions=False,
        contextualize=True, parallelism=2, seed=7,
    )
    failures = pipeline.classify_batch(
        load_documents(config.documents_path), taxonomy,
        retrieval.embed_taxonomy_leaves(taxonomy, embedder), embedder, gw.mock_gateway(), config)
    assert failures == 0
    digest = hashlib.sha256(config.output_path.read_bytes()).hexdigest()
    assert digest == DIGESTS["one-pass", "no-description"]


@pytest.mark.parametrize("strategy", ["one-pass", "pointwise"])
def test_workers_rank_each_block_once(inputs, tmp_path, strategy):
    # More workers than cores and a short switch interval: a block ranked
    # twice, or a ranking handed to the wrong document, changes the count
    # of embedding calls or the bytes.
    taxonomy = load_taxonomy(inputs / "taxonomy.ndjson")
    docs = load_documents(inputs / "docs.ndjson")
    store = retrieval.embed_taxonomy_leaves(taxonomy, retrieval.HashBagEmbedder())
    embedder = CountingEmbedder()
    config = cli._resolve_run_config(cli.build_parser().parse_args(
        ["classify", "--taxonomy", str(inputs), "--documents", str(inputs),
         "--output", str(tmp_path / "out.ndjson"), "--strategy", strategy, "--mock",
         "--seed", "7", "--parallelism", "8"]))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        failures = pipeline.classify_batch(docs, taxonomy, store, embedder,
                                           gw.mock_gateway(), config)
    finally:
        sys.setswitchinterval(interval)
    assert failures == 0
    assert sorted(embedder.batches) == sorted(
        [document_text(doc) for doc in docs[start:start + pipeline.RANK_BLOCK]]
        for start in range(0, len(docs), pipeline.RANK_BLOCK))
    digest = hashlib.sha256(config.output_path.read_bytes()).hexdigest()
    assert digest == DIGESTS[strategy, None]


def test_a_slow_document_holds_back_at_most_the_window(tmp_path, monkeypatch):
    # While docs[0] sleeps, the other worker runs ahead only as far as the
    # documents submitted and not yet written.
    docs = [make_doc(f"d{i}", f"title {i}") for i in range(400)]
    started = []
    started_when_first_returned = []

    def classify_document(doc, taxonomy, ranking, gateway, config):
        started.append(doc.doc_id)
        if doc is docs[0]:
            time.sleep(0.3)
            started_when_first_returned.append(len(started))
        return {"doc_id": doc.doc_id, "flags": []}

    monkeypatch.setattr(pipeline, "classify_document", classify_document)
    config = cli._resolve_run_config(cli.build_parser().parse_args(
        ["classify", "--taxonomy", str(tmp_path), "--documents", str(tmp_path),
         "--output", str(tmp_path / "out.ndjson"), "--strategy", "trav-select", "--mock",
         "--parallelism", "2"]))
    assert pipeline.classify_batch(docs, ternary_taxonomy(), None, None, gw.mock_gateway(),
                                   config) == 0
    [in_flight] = started_when_first_returned
    assert in_flight <= pipeline.IN_FLIGHT_PER_WORKER * 2 + 1
    records = [json.loads(line) for line in config.output_path.read_text().splitlines()]
    assert [r["doc_id"] for r in records] == [d.doc_id for d in docs]


def test_run_config_rejects_a_top_k_out_of_range(tmp_path):
    with pytest.raises(ValueError, match=r"--top-k must be within 10\.\.100"):
        pipeline.RunConfig(
            taxonomy_path=tmp_path, documents_path=tmp_path, output_path=tmp_path,
            method=strategies.Method.RERANK, top_k=101,
            aggregation=strategies.AggregationFunction.LEAF_ONLY, label_range=(1, 5),
            postprocess=postprocess.PostProcessConfig(), include_descriptions=True,
            contextualize=True, parallelism=1, seed=0,
        )


@pytest.fixture(scope="module")
def bound_inputs(tmp_path_factory):
    """A 200-node forest, its leaf index and eight documents, for the label-bound property."""
    taxonomy = random_forest(random.Random(21), 200)
    embedder = retrieval.HashBagEmbedder()
    rng = random.Random(22)
    docs = [vocab_doc(rng, f"doc{i}") for i in range(8)]
    store = retrieval.embed_taxonomy_leaves(taxonomy, embedder)
    return tmp_path_factory.mktemp("bound"), taxonomy, store, embedder, docs


@given(
    strategy=st.sampled_from(sorted(cli.STRATEGY_CHOICES)),
    ablation=st.sampled_from([None, *cli.ABLATION_CHOICES]),
    labels=st.integers(1, 6).flatmap(lambda hi: st.tuples(st.integers(1, hi), st.just(hi))),
    sibling_cap=st.integers(1, 4),
    no_sibling_cap=st.booleans(),
    top_k=st.integers(10, 30),
)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_every_record_holds_at_most_max_labels_leaves(bound_inputs, strategy, ablation, labels,
                                                       sibling_cap, no_sibling_cap, top_k):
    tmp, taxonomy, store, embedder, docs = bound_inputs
    min_labels, max_labels = labels
    argv = ["classify", "--taxonomy", str(tmp), "--documents", str(tmp),
            "--output", str(tmp / "out.ndjson"), "--strategy", strategy, "--mock",
            "--top-k", str(top_k), "--min-labels", str(min_labels),
            "--max-labels", str(max_labels), "--sibling-cap", str(sibling_cap)]
    if ablation:
        argv += ["--ablation", ablation]
    if no_sibling_cap:
        argv.append("--no-sibling-cap")
    config = cli._resolve_run_config(cli.build_parser().parse_args(argv))
    failures = pipeline.classify_batch(docs, taxonomy, store, embedder, gw.mock_gateway(), config)
    assert failures == 0
    leaves = set(taxonomy.leaf_ids())
    records = [json.loads(line) for line in config.output_path.read_text().splitlines()]
    assert [r["doc_id"] for r in records] == [d.doc_id for d in docs]
    for record in records:
        assert len(set(record["labels"])) == len(record["labels"]) <= max_labels
        assert set(record["labels"]) <= leaves
        if not record["labels"]:
            assert postprocess.FLAG_NEEDS_REVIEW in record["flags"]
