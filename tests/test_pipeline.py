"""Pinned `classify --mock` output bytes for the per-document pipeline.

The sha256 of each run's output file is fixed below, so a refactor that is
meant to keep behaviour can be checked against the bytes of the code before
it. A deliberate output change must update these digests and say why in
CHANGES.md.
"""
from __future__ import annotations

import hashlib
import random

import pytest

from taxocat import cli
from taxocat.taxonomy import save_taxonomy

from .util import random_forest, vocab_doc, write_ndjson

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


@pytest.mark.parametrize(("strategy", "ablation"), sorted(DIGESTS, key=str))
def test_classify_output_digest(inputs, strategy, ablation):
    out = inputs / f"{strategy}-{ablation}.ndjson"
    args = ["classify", "--taxonomy", str(inputs / "taxonomy.ndjson"),
            "--documents", str(inputs / "docs.ndjson"), "--output", str(out),
            "--strategy", strategy, "--mock", "--seed", "7", "--parallelism", "1"]
    if strategy == "rerank":
        args += ["--agg", "harmonic-all-ancestors"]
    if ablation:
        args += ["--ablation", ablation]
    assert cli.main(args) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[strategy, ablation]
