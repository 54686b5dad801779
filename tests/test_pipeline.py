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
import random

import pytest

from taxocat import cli, gateway as gw, pipeline, postprocess, retrieval, strategies
from taxocat.documents import load_documents
from taxocat.taxonomy import load_taxonomy, save_taxonomy

from .util import random_forest, record_cli_gateways, vocab_doc, write_ndjson

DIGESTS = {
    ("trav-select", None): "57d3b1924a27e9cdfcd4d13d4c562057b6dc9be4a15adac851bcb70cc768ec8c",
    ("trav-select", "no-description"): "f29f3fef83f38ee6ecb5bff92bb8e96ab87b46d34f10f87fa0bc01be1afaf096",
    ("one-pass", None): "56a5417f4e35469da9b4388d9ad147f9a8ba7331f61578b3b3d7eca3e0c49931",
    ("one-pass", "no-description"): "14e546bd127975be67f1fc3003a9c48b0709090fe414348e224d33b2c7262cd1",
    ("one-pass", "no-decrease"): "bfa469658131a56a9fb32ca77683fa3376d30f05e4a39b8cbf0b89dac832cf6d",
    ("rerank", None): "ede69d622ec05fdf8a4093b0f5bb9febf8125ca49ba1d86c0217e29866925e8f",
    ("rerank", "no-description"): "3def07e90acbae8b4779750007f0eecd1495251b9ff58b6bd5bb407c4529e297",
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


def run_all(inputs, monkeypatch) -> dict[tuple, tuple[str, str]]:
    """(output digest, prompt digest) per configuration."""
    done = {}
    for strategy, ablation in DIGESTS:
        gateways = record_cli_gateways(monkeypatch)
        out = inputs / f"{strategy}-{ablation}.ndjson"
        args = ["classify", "--taxonomy", str(inputs / "taxonomy.ndjson"),
                "--documents", str(inputs / "docs.ndjson"), "--output", str(out),
                "--strategy", strategy, "--mock", "--seed", "7", "--parallelism", "1"]
        if strategy == "rerank":
            args += ["--agg", "harmonic-all-ancestors"]
        if ablation:
            args += ["--ablation", ablation]
        assert cli.main(args) == 0
        specs = [spec for gateway in gateways for spec in gateway.provider.calls]
        done[strategy, ablation] = (
            hashlib.sha256(out.read_bytes()).hexdigest(), _prompt_digest(specs))
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


def test_run_config_rejects_a_top_k_out_of_range(tmp_path):
    with pytest.raises(ValueError, match=r"--top-k must be within 10\.\.100"):
        pipeline.RunConfig(
            taxonomy_path=tmp_path, documents_path=tmp_path, output_path=tmp_path,
            method=strategies.Method.RERANK, top_k=101,
            aggregation=strategies.AggregationFunction.LEAF_ONLY, label_range=(1, 5),
            postprocess=postprocess.PostProcessConfig(), include_descriptions=True,
            contextualize=True, parallelism=1, seed=0,
        )
