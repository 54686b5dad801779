"""Operator-facing command line: taxonomy tooling, batch classification,
evaluation, and retrieval-quality reporting.

Configuration precedence is CLI flag > environment variable > config file >
built-in default; environment variables are reserved for provider
credentials and endpoint overrides (TAXOCAT_API_KEY, TAXOCAT_ENDPOINT,
TAXOCAT_MODEL). Input files are never modified: enrichment always writes a
new file.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Sequence

from . import evaluation, gateway as gw, ndjson, pipeline, postprocess, retrieval, strategies
from . import taxonomy as tax
from .documents import DocumentError, load_documents
from .pipeline import RunConfig

DEFAULT_DEPTHS = tuple(range(10, 101, 10))

STRATEGY_CHOICES = {
    "trav-select": strategies.Method.TRAV_SELECT,
    "one-pass": strategies.Method.SELECT_ONE_PASS,
    "rerank": strategies.Method.RERANK,
    "pointwise": strategies.Method.SELECT_POINTWISE,
}
AGG_CHOICES = {
    "leaf-only": strategies.AggregationFunction.LEAF_ONLY,
    "avg-direct-parent": strategies.AggregationFunction.AVG_DIRECT_PARENT,
    "avg-all-ancestors": strategies.AggregationFunction.AVG_ALL_ANCESTORS,
    "harmonic-all-ancestors": strategies.AggregationFunction.HARMONIC_ALL_ANCESTORS,
}
ABLATION_CHOICES = ("no-decrease", "no-description", "no-context")

# Every flag that names a file, with True where the command may write that
# file. No written file may be the file of another flag: they are checked
# in this order, each against every other file flag the command was given.
FILE_FLAGS = {
    "--audit-log": True, "--json-output": True, "--output": True, "--embedding-cache": True,
    "--taxonomy": False, "--documents": False, "--acronyms": False, "--config": False,
    "--provider": False, "--judgments": False, "--baseline": False, "--gold": False,
}


class CliError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taxocat",
        description="Zero-shot hierarchical multi-label classification over a label taxonomy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tax = sub.add_parser("taxonomy", help="validate, inspect, and enrich a taxonomy file")
    tax_sub = p_tax.add_subparsers(dest="subcommand", required=True)

    p_validate = tax_sub.add_parser("validate", help="check structural integrity")
    p_validate.add_argument("--taxonomy", required=True)

    p_stats = tax_sub.add_parser("stats", help="print hierarchy statistics")
    p_stats.add_argument("--taxonomy", required=True)
    p_stats.add_argument("--json", action="store_true", dest="as_json")

    p_expand = tax_sub.add_parser("expand", help="apply an acronym map to node names")
    p_expand.add_argument("--taxonomy", required=True)
    p_expand.add_argument("--acronyms", required=True)
    p_expand.add_argument("--output", required=True)
    p_expand.add_argument(
        "--suggest", action="store_true", help="also print unapplied acronym suggestions"
    )

    p_describe = tax_sub.add_parser("describe", help="fill missing node descriptions")
    p_describe.add_argument("--taxonomy", required=True)
    p_describe.add_argument("--output", required=True)
    _add_provider_args(p_describe)
    p_describe.add_argument("--audit-log", default=None)

    p_classify = sub.add_parser("classify", help="assign leaf labels to a document batch")
    p_classify.add_argument("--taxonomy", required=True)
    p_classify.add_argument("--documents", required=True)
    p_classify.add_argument("--output", required=True)
    p_classify.add_argument("--strategy", required=True, choices=sorted(STRATEGY_CHOICES))
    p_classify.add_argument("--top-k", type=int, default=None)
    p_classify.add_argument("--agg", choices=sorted(AGG_CHOICES), default=None)
    p_classify.add_argument("--max-labels", type=int, default=None)
    p_classify.add_argument("--min-labels", type=int, default=None)
    p_classify.add_argument("--sibling-cap", type=int, default=None)
    p_classify.add_argument("--no-sibling-cap", action="store_true")
    p_classify.add_argument("--ablation", choices=ABLATION_CHOICES, default=None)
    p_classify.add_argument("--seed", type=int, default=0)
    p_classify.add_argument("--parallelism", type=int, default=None)
    p_classify.add_argument("--embedding-cache", default=None)
    p_classify.add_argument("--config", default=None, help="JSON file with run defaults")
    _add_provider_args(p_classify)
    p_classify.add_argument("--audit-log", default=None)

    p_eval = sub.add_parser("evaluate", help="score SME judgments per method")
    p_eval.add_argument("--judgments", required=True)
    p_eval.add_argument("--baseline", default=None,
                        help="JSON file of precomputed method reports to include")
    p_eval.add_argument("--json-output", default=None)

    p_rank = sub.add_parser("rank", help="bi-encoder recall against gold labels")
    p_rank.add_argument("--documents", required=True)
    p_rank.add_argument("--taxonomy", required=True)
    p_rank.add_argument("--gold", required=True)
    p_rank.add_argument("--depths", default=None, help="comma-separated depths (default 10..100)")
    p_rank.add_argument("--embedding-cache", default=None)
    p_rank.add_argument("--json-output", default=None)
    _add_provider_args(p_rank)

    return parser


def _add_provider_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--provider", default=None, help="provider config JSON file")
    parser.add_argument("--mock", action="store_true", help="use the offline deterministic mock")


# -- provider / embedder wiring -------------------------------------------------


def _provider_config(args: argparse.Namespace) -> gw.ProviderConfig | None:
    """The --provider file, read once per command for its gateway and its
    embedder, with the TAXOCAT_* environment applied; None under --mock."""
    if args.mock:
        return None
    config = gw.load_provider_config(args.provider) if args.provider else gw.ProviderConfig()
    endpoint = os.environ.get("TAXOCAT_ENDPOINT")
    model = os.environ.get("TAXOCAT_MODEL")
    if endpoint:
        config = replace(config, endpoint=endpoint)
    if model:
        config = replace(config, model_name=model)
    if config.credentials is None and os.environ.get("TAXOCAT_API_KEY") is not None:
        config = replace(config, credentials="TAXOCAT_API_KEY")
    return config


def _make_gateway(args: argparse.Namespace, config: gw.ProviderConfig | None) -> gw.LlmGateway:
    audit = gw.AuditLog(args.audit_log) if args.audit_log else None
    if config is None:
        return gw.mock_gateway(audit_log=audit)
    if not args.provider and not os.environ.get("TAXOCAT_ENDPOINT"):
        raise CliError("no provider configured: pass --provider CONFIG.json or --mock")
    if not config.endpoint.startswith("mock://") and config.model_name == "mock":
        raise gw.ConfigError(
            f"endpoint {config.endpoint!r} needs a model: set model_name or TAXOCAT_MODEL"
        )
    return gw.LlmGateway(provider=gw.HttpProvider(config), config=config, audit_log=audit)


def _make_embedder(config: gw.ProviderConfig | None) -> retrieval.Embedder | None:
    if config is None:
        return retrieval.HashBagEmbedder()
    if config.embedding_endpoint:
        return retrieval.HttpEmbedder(config)
    return None


def _embedding_store(
    args: argparse.Namespace,
    taxonomy: tax.Taxonomy,
    embedder: retrieval.Embedder | None,
) -> retrieval.EmbeddingStore:
    """The taxonomy's leaf index, reusing --embedding-cache rows by leaf id and text.

    The cache file is written when it is missing or holds other leaves or texts.
    """
    if embedder is None:
        raise CliError("document embedding requires --mock or an embedding provider")
    cache = args.embedding_cache
    cached = None
    if cache and Path(cache).exists():
        cached = retrieval.EmbeddingStore.load(cache, model_tag=embedder.model_tag)
    store = retrieval.embed_taxonomy_leaves(taxonomy, embedder, cached)
    stale = cached is None or (cached.ids, cached.text_hashes) != (store.ids, store.text_hashes)
    if cache and stale:
        store.save(cache)
    return store


# -- taxonomy subcommands ----------------------------------------------------------


def cmd_taxonomy(args: argparse.Namespace) -> int:
    if args.subcommand == "validate":
        try:
            loaded = tax.load_taxonomy(args.taxonomy)
        except tax.TaxonomyError as exc:
            print(f"INVALID: {exc}", file=sys.stderr)
            return 1
        stats = tax.hierarchy_stats(loaded)
        print(f"OK: {len(loaded)} nodes ({stats.leaf_count} leaves, {stats.parent_count} parents)")
        return 0

    if args.subcommand == "stats":
        loaded = tax.load_taxonomy(args.taxonomy)
        stats = tax.hierarchy_stats(loaded)
        shown = {
            "leaves": stats.leaf_count, "parents": stats.parent_count,
            "max_children": stats.max_children, "avg_children": round(stats.avg_children, 2),
            "max_leaf_depth": stats.max_leaf_depth,
            "avg_leaf_depth": round(stats.avg_leaf_depth, 2),
        }
        if args.as_json:
            print(json.dumps(shown))
        else:
            for key, value in shown.items():
                print(f"{key}: {value:.2f}" if key.startswith("avg_") else f"{key}: {value}")
        return 0

    if args.subcommand == "expand":
        loaded = tax.load_taxonomy(args.taxonomy)
        acronyms = tax.load_acronym_map(args.acronyms)
        if args.suggest:
            for token, source in sorted(tax.suggest_acronyms(loaded).items()):
                applied = "applied" if token in acronyms.entries else "not applied"
                print(f"suggestion: {token} -> {source} ({applied})")
        expanded = tax.expand_acronyms(loaded, acronyms)
        tax.save_taxonomy(expanded, args.output)
        changed = sum(1 for node in expanded if node.acronym_expanded)
        print(f"expanded {changed} node names -> {args.output}")
        return 0

    if args.subcommand == "describe":
        loaded = tax.load_taxonomy(args.taxonomy)
        gateway = _make_gateway(args, _provider_config(args))
        if all(n.description for n in loaded):
            tax.save_taxonomy(loaded, args.output)
            print("all nodes already described; copied unchanged")
            return 0
        exemplars = tax.description_exemplars(loaded)
        if not exemplars:
            print("cannot describe: no node has an existing description to use as exemplar",
                  file=sys.stderr)
            return 1
        updates = [replace(loaded.node(node_id), description=text)
                   for node_id, text in gw.generate_descriptions(loaded, exemplars, gateway).items()]
        tax.save_taxonomy(loaded.with_nodes(updates), args.output)
        print(f"described {len(updates)} nodes -> {args.output}")
        return 0

    raise CliError(f"unknown taxonomy subcommand {args.subcommand!r}")


def _require_new_outputs(args: argparse.Namespace) -> None:
    """Refuse a written file that resolves to the file of another file flag."""
    paths = {flag: Path(value).resolve() for flag in FILE_FLAGS
             if (value := getattr(args, flag[2:].replace("-", "_"), None))}
    for flag, path in paths.items():
        if FILE_FLAGS[flag] and list(paths.values()).count(path) > 1:
            raise CliError(f"refusing to overwrite the input file; pick a new {flag} path")


# -- classify ---------------------------------------------------------------------


# The keys a --config file may set, with their JSON types.
RUN_DEFAULT_TYPES = {
    "top_k": "int", "aggregation": "str", "max_labels": "int", "min_labels": "int",
    "sibling_cap": "int", "parallelism": "int", "apply_sibling": "bool",
}


def _load_run_defaults(path: str | None) -> dict[str, Any]:
    if not path:
        return {}
    data = gw.read_json_config(path, RUN_DEFAULT_TYPES, "--config")
    if data.get("aggregation", "leaf-only") not in AGG_CHOICES:
        raise CliError(f"--config key 'aggregation' must be one of {', '.join(AGG_CHOICES)}")
    return data


def _setting(cli_value, config: dict[str, Any], key: str, default):
    return cli_value if cli_value is not None else config.get(key, default)


def _resolve_run_config(args: argparse.Namespace) -> RunConfig:
    """Merge CLI flags over config-file values over defaults."""
    run_cfg = _load_run_defaults(args.config)
    max_labels = _setting(args.max_labels, run_cfg, "max_labels", 5)
    try:
        return RunConfig(
            taxonomy_path=Path(args.taxonomy),
            documents_path=Path(args.documents),
            output_path=Path(args.output),
            method=STRATEGY_CHOICES[args.strategy],
            top_k=_setting(args.top_k, run_cfg, "top_k", 40),
            aggregation=AGG_CHOICES[_setting(args.agg, run_cfg, "aggregation", "leaf-only")],
            label_range=(_setting(args.min_labels, run_cfg, "min_labels", 1), max_labels),
            postprocess=postprocess.PostProcessConfig(
                max_labels=max_labels,
                sibling_cap=_setting(args.sibling_cap, run_cfg, "sibling_cap", 3),
                apply_sibling=not args.no_sibling_cap and run_cfg.get("apply_sibling", True),
                random_decrease=(args.ablation == "no-decrease"),
            ),
            include_descriptions=args.ablation != "no-description",
            contextualize=args.ablation != "no-context",
            parallelism=_setting(args.parallelism, run_cfg, "parallelism", 1),
            seed=args.seed,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from None


def run_classification(config: RunConfig, gateway: gw.LlmGateway,
                       store: retrieval.EmbeddingStore | None,
                       embedder: retrieval.Embedder | None, taxonomy: tax.Taxonomy) -> int:
    """Classify the config's documents, print a summary line, and return the exit code."""
    docs = load_documents(config.documents_path)
    failures = pipeline.classify_batch(docs, taxonomy, store, embedder, gateway, config)
    print(f"classified {len(docs)} documents ({failures} hard failures) -> {config.output_path}")
    return 1 if failures else 0


def cmd_classify(args: argparse.Namespace) -> int:
    config = _resolve_run_config(args)
    provider = _provider_config(args)
    gateway = _make_gateway(args, provider)
    loaded = tax.load_taxonomy(config.taxonomy_path)
    store = embedder = None
    if config.method is not strategies.Method.TRAV_SELECT:
        embedder = _make_embedder(provider)
        store = _embedding_store(args, loaded, embedder)
    return run_classification(config, gateway, store, embedder, taxonomy=loaded)


# -- evaluate -----------------------------------------------------------------------


def _load_baseline_reports(path: str, judged: set[str]) -> list[evaluation.MethodReport]:
    """Precomputed rows (e.g. an earlier system's published numbers) to merge
    into the comparison: [{method, n, accuracy_pct, score_dist_pct: {"5": ...}}].
    Each method is a string that no judged method and no other row has.
    """
    data = ndjson.read_json(path, CliError, "--baseline")
    if not isinstance(data, list):
        raise CliError("--baseline must contain a JSON list of method reports")
    reports = []
    seen = set(judged)
    for row in data:
        try:
            method = row["method"]
            if not isinstance(method, str) or method in seen:
                raise ValueError(f"method must be a name not reported yet, not {method!r}")
            seen.add(method)
            n = row["n"]
            if isinstance(n, bool) or not isinstance(n, int) or n < 1:
                raise ValueError(f"n must be an integer >= 1, not {n!r}")
            reports.append(
                evaluation.MethodReport(
                    method=method,
                    n=n,
                    accuracy_pct=_percentage(row["accuracy_pct"]),
                    score_dist_pct={s: _percentage(row["score_dist_pct"][str(s)])
                                    for s in (5, 4, 3, 2, 1)},
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(f"bad baseline report entry: {exc}") from None
    return reports


def _percentage(value: Any) -> float:
    """A baseline percentage: a JSON number in [0, 100], so not NaN or infinite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 <= value <= 100:
        raise ValueError(f"a percentage must be a number in [0, 100], not {value!r}")
    return float(value)


def cmd_evaluate(args: argparse.Namespace) -> int:
    judgments = evaluation.load_judgments(args.judgments)
    reports = list(evaluation.compute_metrics(judgments).values())
    if args.baseline:
        reports.extend(_load_baseline_reports(args.baseline, {r.method for r in reports}))
    table = evaluation.compare_methods(reports)
    print(table.render())
    if args.json_output:
        _write_json_output(args.json_output, table.to_json())
    return 0


def _write_json_output(path: str, text: str) -> None:
    try:
        Path(path).write_text(text + "\n", encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot write --json-output {path}: {exc.strerror or exc}") from None


# -- rank ----------------------------------------------------------------------------


def _parse_depths(text: str | None) -> tuple[int, ...]:
    if not text:
        return DEFAULT_DEPTHS
    try:
        depths = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise CliError(f"bad --depths value: {exc}") from None
    if not depths or any(d < 1 for d in depths):
        raise CliError("--depths needs positive integers")
    return depths


def cmd_rank(args: argparse.Namespace) -> int:
    loaded = tax.load_taxonomy(args.taxonomy)
    docs = load_documents(args.documents)
    gold = retrieval.load_gold_labels(args.gold)
    depths = _parse_depths(args.depths)
    embedder = _make_embedder(_provider_config(args))
    store = _embedding_store(args, loaded, embedder)
    rankings = []
    for _, ranking in pipeline.ranked(docs, loaded, store, embedder, max(depths)):
        if isinstance(ranking, Exception):
            raise ranking
        rankings.append(ranking)
    rows = retrieval.recall_at_k(rankings, gold, depths)
    print("depth  all-gold  any-gold")
    for row in rows:
        print(f"{row.depth:>5}  {row.all_gold_rate:>8.3f}  {row.any_gold_rate:>8.3f}")
    if args.json_output:
        payload = [
            {"depth": r.depth, "all_gold_rate": r.all_gold_rate, "any_gold_rate": r.any_gold_rate}
            for r in rows
        ]
        _write_json_output(args.json_output, json.dumps(payload, indent=2))
    return 0


# -- entry point ------------------------------------------------------------------------


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=os.environ.get("TAXOCAT_LOG_LEVEL", "WARNING"))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _require_new_outputs(args)
        if args.command == "taxonomy":
            return cmd_taxonomy(args)
        if args.command == "classify":
            return cmd_classify(args)
        if args.command == "evaluate":
            return cmd_evaluate(args)
        if args.command == "rank":
            return cmd_rank(args)
        parser.error(f"unknown command {args.command!r}")
    except (CliError, tax.TaxonomyError, DocumentError, evaluation.JudgmentError,
            retrieval.RetrievalError, gw.GatewayError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
