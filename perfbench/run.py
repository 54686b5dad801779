#!/usr/bin/env python3
"""Batch-classification benchmark for taxocat.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates a seeded taxonomy forest and document batch (perfbench/inputs.py),
sets up the way ``taxocat classify`` does (load and validate the taxonomy,
index its leaves), then repeats the real batch path,
``cli.run_classification``, over the whole batch until S seconds have
passed. The LLM is ``hosted.SimulatedProvider``: the deterministic mock,
optionally behind a simulated hosted latency. The first batch's output is
checked, and every later batch must write the same bytes.

With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 untraced and traced batches alternate and the
per-layer metrics are printed instead. Workload settings and the latency
constants live in perfbench/workloads.json; NOTES.md says why each
workload exists and what each metric should move.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
if not (SRC / "taxocat" / "__init__.py").is_file():
    sys.exit(f"perfbench: no taxocat sources under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

from taxocat import cli, gateway as gw, postprocess, retrieval, strategies  # noqa: E402
from taxocat import taxonomy as tax  # noqa: E402
from taxocat.documents import Document, load_documents  # noqa: E402

import checks  # noqa: E402
import hosted  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

TOP_K = 40  # the default of `taxocat classify --top-k`
# Set-ups per run; setup_s is their median, as one set-up does not repeat
# within a tenth on a VM whose speed drifts.
SETUP_REPEATS = 7


@dataclass
class Setup:
    seconds: float
    taxonomy: tax.Taxonomy
    embedder: retrieval.HashBagEmbedder
    store: retrieval.EmbeddingStore


@dataclass
class Batch:
    """One run of the whole document batch through cli.run_classification.

    `raw` (the output bytes) and `calls` (the provider's call log) are
    dropped once the batch is checked against the run's first batch, except
    for the first batch and the calls of traced batches. So the memory held
    does not grow with the number of batches.
    """

    wall: float
    cpu: float
    doc_ids: list[str]
    counters: tuple[int, int, int]  # LlmGateway calls_made, characters_out, characters_in
    digest: str
    raw: bytes | None
    calls: list[hosted.CallRecord] | None
    spans: list[tracing.Span] = field(default_factory=list)

    @property
    def docs_per_s(self) -> float:
        return len(self.doc_ids) / self.wall


def set_up(taxonomy_path: Path) -> Setup:
    """What cli.cmd_classify does before the batch: load, validate and index."""
    start = time.perf_counter()
    loaded = tax.load_taxonomy(taxonomy_path)
    embedder = retrieval.HashBagEmbedder()
    store = retrieval.embed_taxonomy_leaves(loaded, embedder)
    return Setup(time.perf_counter() - start, loaded, embedder, store)


def run_config(workload: dict, seed: int, taxonomy_path: Path, documents_path: Path,
               output_path: Path) -> cli.RunConfig:
    """The RunConfig `taxocat classify` resolves for this workload's flags."""
    pp_config = postprocess.PostProcessConfig()
    return cli.RunConfig(
        taxonomy_path=taxonomy_path,
        documents_path=documents_path,
        output_path=output_path,
        method=cli.STRATEGY_CHOICES[workload["strategy"]],
        top_k=TOP_K,
        aggregation=cli.AGG_CHOICES[workload.get("aggregation", "leaf-only")],
        label_range=(1, pp_config.max_labels),
        postprocess=pp_config,
        include_descriptions=True,
        contextualize=True,
        parallelism=workload["parallelism"],
        seed=seed,
    )


def run_batch(config: cli.RunConfig, setup: Setup, provider: hosted.SimulatedProvider,
              doc_ids: list[str], tracer: tracing.Tracer | None) -> Batch:
    gateway = gw.LlmGateway(provider=provider, config=gw.ProviderConfig())
    provider.drain()
    patch = (tracer.patch(tracing.batch_targets(type(provider))) if tracer
             else contextlib.nullcontext())
    with patch, contextlib.redirect_stdout(io.StringIO()):
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        cli.run_classification(config, gateway, setup.store, setup.embedder,
                               taxonomy=setup.taxonomy)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
    raw = config.output_path.read_bytes()
    return Batch(
        wall=wall, cpu=cpu, doc_ids=doc_ids,
        counters=(gateway.calls_made, gateway.characters_out, gateway.characters_in),
        digest=hashlib.sha256(raw).hexdigest(), raw=raw, calls=provider.drain(),
        spans=tracer.take() if tracer else [],
    )


def compare(index: int, batch: Batch, first: Batch) -> list[str]:
    """A batch must write the first batch's output and counters, and its
    provider log must agree with its gateway counters."""
    problems = []
    if batch.digest != first.digest:
        problems.append(f"batch {index}: output bytes differ from batch 0")
    if batch.counters != first.counters:
        problems.append(f"batch {index}: gateway counters {batch.counters} "
                        f"differ from batch 0's {first.counters}")
    logged = (len(batch.calls), sum(c.chars_out for c in batch.calls))
    if logged != batch.counters[:2]:
        problems.append(f"batch {index}: provider log {logged} disagrees with gateway counters")
    return problems


def describe_inputs(loaded: tax.Taxonomy, docs: list[Document]) -> list[str]:
    stats = tax.hierarchy_stats(loaded)
    described = sum(1 for node in loaded if node.description) / len(loaded)

    def spread(values):
        return f"{min(values)}/{statistics.fmean(values):.1f}/{max(values)}"

    return [
        f"forest: {len(loaded)} nodes, {stats.leaf_count} leaves, depth {stats.max_leaf_depth}, "
        f"{described:.1%} with descriptions",
        f"documents: {len(docs)}; words min/mean/max: "
        f"title {spread([len(d.title.split()) for d in docs])}, "
        f"keywords {spread([sum(len(k.split()) for k in d.keywords) for d in docs])}, "
        f"abstract {spread([len(d.abstract.split()) for d in docs])}",
    ]


def describe_outcomes(records: list[dict[str, Any]], loaded: tax.Taxonomy,
                      max_labels: int) -> list[str]:
    """Survivors, decrease share and zero-fit share, read from output provenance."""
    survivors, zero_fit = [], 0
    for record in records:
        prov = record["provenance"]
        if "leaf_verdicts" in prov:  # pointwise
            fits = [lid for lid, v in prov["leaf_verdicts"].items() if v["label_fit"]]
            parents = prov["parent_verdicts"]

            def parent_ok(lid):
                pid = loaded.node(lid).parent_id
                return pid is None or pid not in parents or parents[pid]["label_fit"]

            survivors.append(sum(1 for lid in fits if parent_ok(lid)))
            zero_fit += not fits
        elif "raw_ids" in prov:  # one-pass
            survivors.append(len(prov["raw_ids"]))
            zero_fit += not prov["raw_ids"]
        else:
            survivors.append(len(record["labels"]))
    n = len(records)
    over_cap = sum(s > max_labels for s in survivors)
    decreased = sum("decrease" in r["provenance"] for r in records)
    return [
        f"outcomes: survivors/doc {statistics.fmean(survivors):.2f}, "
        f"over the {max_labels}-label cap {over_cap}/{n}, decrease share {decreased / n:.3f}, "
        f"zero-fit share {zero_fit / n:.3f}",
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    settings = json.loads((BENCH_DIR / "workloads.json").read_text(encoding="utf-8"))
    if args.workload not in settings["workloads"]:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(settings['workloads'])}")
    workload = settings["workloads"][args.workload]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return measure(args, settings, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still holds another run's files
            workdir.parent.rmdir()


def measure(args, settings: dict, workload: dict, workdir: Path) -> int:
    taxonomy_path, documents_path = inputs.write_inputs(
        args.seed, settings["forest"], settings["documents"], workload["docs"], workdir)
    docs = load_documents(documents_path)
    doc_ids = [d.doc_id for d in docs]
    latency = settings["hosted_latency"] if workload["hosted"] else {}
    provider = hosted.SimulatedProvider(**latency)
    tracer = tracing.Tracer() if args.trace else None

    setup_times: list[float] = []
    setup_spans: list[tracing.Span] = []

    def timed_setup() -> Setup:
        gc.collect()
        with tracer.patch(tracing.setup_targets()) if tracer else contextlib.nullcontext():
            done = set_up(taxonomy_path)
        setup_times.append(done.seconds)
        if tracer:
            setup_spans.extend(tracer.take())
        return done

    setup = timed_setup()
    config = run_config(workload, args.seed, taxonomy_path, documents_path,
                        workdir / "output.jsonl")
    max_labels = config.postprocess.max_labels

    plain: list[Batch] = []
    traced: list[Batch] = []
    problems: list[str] = []
    deadline = time.perf_counter() + args.seconds
    # At least two batches, so that output can be compared across repetitions.
    while (len(plain) + len(traced) < 2 or (tracer and not traced)
           or time.perf_counter() < deadline):
        use_tracer = tracer if tracer and len(traced) < len(plain) else None
        batch = run_batch(config, setup, provider, doc_ids, use_tracer)
        first = plain[0] if plain else batch
        problems += compare(len(plain) + len(traced), batch, first)
        if batch is not first:
            batch.raw = None
            if not use_tracer:
                batch.calls = None
        (traced if use_tracer else plain).append(batch)
        if len(setup_times) < SETUP_REPEATS:
            # Set-ups are spread over the run, so that their median does not hang
            # on the machine's speed in the first second.
            timed_setup()
    while len(setup_times) < SETUP_REPEATS:
        timed_setup()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Every batch wrote the first batch's bytes (else `problems` says so), so
    # checking the first batch's output checks them all.
    first = plain[0]
    allowed = None
    if config.method is not strategies.Method.TRAV_SELECT:
        allowed = checks.top_k_leaves(docs, setup.taxonomy, setup.store, setup.embedder,
                                      config.top_k)
    records, found = checks.check_output(first.raw, doc_ids, setup.taxonomy, max_labels,
                                         allowed)
    problems += [f"batch 0: {p}" for p in found]
    attempted = len(doc_ids) * len(plain)
    failed = sum("hard-failure" in r.get("flags", ()) for r in records) * len(plain)

    for line in describe_inputs(setup.taxonomy, docs):
        print(line)
    if not problems:
        for line in describe_outcomes(records, setup.taxonomy, max_labels):
            print(line)
    print(f"output sha256 {first.digest}; "
          f"{len(plain)} untraced and {len(traced)} traced batches of {len(doc_ids)} documents")
    print("untraced batches, docs/s: " + " ".join(f"{b.docs_per_s:.3f}" for b in plain))
    if problems:
        for problem in problems[:20]:
            print(f"CHECK FAILED: {problem}")
        print(json.dumps({"correct": False, "attempted": attempted, "failed": attempted,
                          "metrics": {}}))
        return 1

    n = len(doc_ids)
    calls_made, chars_out, chars_in = first.counters
    e2e = {
        "docs_per_s": (statistics.median(b.docs_per_s for b in plain), "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "cpu_ms_per_doc": (statistics.median(1000.0 * b.cpu / n for b in plain), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "llm_calls_per_doc": (calls_made / n, "calls/doc"),
        "llm_chars_out_per_doc": (chars_out / n, "chars/doc"),
        "llm_chars_in_per_doc": (chars_in / n, "chars/doc"),
        "llm_chain_per_doc": (hosted.chain_per_doc(first.calls, doc_ids), "calls/doc"),
        "failed_doc_share": (failed / attempted, "share"),
    }
    if not tracer:
        for name, (value, unit) in e2e.items():
            print(f"{name:>24} {value:14.4f} {unit}")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()
                   if name != "failed_doc_share"}
        metrics["ok_doc_share"] = {"value": 1.0 - failed / attempted, "unit": "share"}
    else:
        metrics = traced_metrics(plain, traced, records, setup_spans,
                                 workload["parallelism"], config.top_k)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def traced_metrics(plain: list[Batch], traced: list[Batch], records: list[dict[str, Any]],
                   setup_spans: list[tracing.Span], parallelism: int,
                   k: int) -> dict[str, dict[str, Any]]:
    layers = {
        "taxonomy.load_s": (statistics.median(
            s.end - s.start for s in setup_spans if s.name == "taxonomy.load"), "s"),
        "retrieval.index_s": (statistics.median(
            s.end - s.start for s in setup_spans if s.name == "retrieval.index"), "s"),
    }
    layers.update(tracing.layer_metrics(traced, records, parallelism, k))
    plain_rate = statistics.median(b.docs_per_s for b in plain)
    traced_rate = statistics.median(b.docs_per_s for b in traced)
    layers["trace.overhead_pct"] = (100.0 * (plain_rate - traced_rate) / plain_rate, "%")

    n = sum(len(b.doc_ids) for b in traced)
    capacity_ms = 1000.0 * parallelism * sum(b.wall for b in traced) / n
    self_ms = sum(layers[name][0] for name in (
        "retrieval.rank_ms_per_doc", "retrieval.prune_ms_per_doc", "strategies.self_ms_per_doc",
        "gateway.self_ms_per_doc", "gateway.wait_ms_per_doc", "postprocess.self_ms_per_doc"))
    load_ms = 1000.0 * sum(s.end - s.start for b in traced for s in b.spans
                           if s.name == "documents.load") / n
    unattributed = layers["cli.unattributed_ms_per_doc"][0]
    print(f"traced batch time {capacity_ms:.3f} ms/doc x workers = layer self times "
          f"{self_ms:.3f} + documents.load {load_ms:.3f} + unattributed {unattributed:.3f}")
    print(f"traced {traced_rate:.3f} docs/s vs untraced {plain_rate:.3f} docs/s")
    for name, (value, unit) in layers.items():
        print(f"{name:>40} {value:14.4f} {unit}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}


if __name__ == "__main__":
    sys.exit(main())
