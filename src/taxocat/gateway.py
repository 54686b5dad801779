"""Uniform chat-completion gateway: prompt assembly, strict JSON extraction,
a deterministic mock provider, and the one HTTP client and retry loop that
chat and embedding requests share.

Prompt templates live as text assets under taxocat/prompts, keyed by
template id, so they can be versioned and audited independently of code.
Every prompt about a document is built by doc_spec, every taxonomy node a
prompt shows is shaped by node_payload and drawn by one line rule, and a
prompt's texts are rendered when it is built. Every provider response is
funneled through extract_response, which reads the reply its template asks
for; callers only ever see typed ParsedResponse values.
"""
from __future__ import annotations

import ctypes
import itertools
import json
import logging
import math
import os
import queue
import threading
import time
from concurrent.futures import Future, wait
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from enum import Enum
from functools import cache, lru_cache, partial
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Mapping, Protocol, Sequence, TypeVar, Union

from . import ndjson
from .documents import Document
from .taxonomy import DescriptionError, Taxonomy, TaxonomyNode
from .textproc import jaccard, token_set, tokenize

logger = logging.getLogger(__name__)

T = TypeVar("T")


# -- errors -------------------------------------------------------------------


class GatewayError(Exception):
    pass


class ConfigError(GatewayError):
    pass


class ProviderError(GatewayError):
    """A failed provider request: a TransportError may pass on retry, a RefusedError will not."""


class TransportError(ProviderError):
    """Connection failure, timeout, malformed reply, or HTTP 408, 429 or 5xx."""

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after  # seconds the provider asked to wait before a retry


class ProviderTimeout(TransportError):
    pass


class RefusedError(ProviderError):
    """The provider refused the request as sent, so it would refuse every later
    one too: it is never retried, and it stops the batch."""


class AuthError(RefusedError):
    """HTTP 401 or 403, or the credential variable is not set."""


class ClientError(RefusedError):
    """HTTP 4xx other than 401, 403, 408 and 429: the request is rejected as sent."""


class ResponseParseError(GatewayError):
    """Provider output did not yield a valid reply for its template."""


class NoJsonError(ResponseParseError):
    pass


class SchemaError(ResponseParseError):
    pass


class ScoreRangeError(ResponseParseError):
    pass


class DuplicateIdError(ResponseParseError):
    pass


class RetryExhaustedError(GatewayError):
    """A reply that did not parse, carrying its raw output for audit. with_retries
    retries it at once and raises it when it is the last attempt's failure."""

    def __init__(self, message: str, last_raw: str):
        super().__init__(message)
        self.last_raw = last_raw


# -- templates -------------------------------------------------------------------


class TemplateId(str, Enum):
    DESC_GEN = "desc_gen"
    TRAV_SELECT = "trav_select"
    SELECT_ONE_PASS = "select_one_pass"
    RERANK = "rerank"
    SELECTP_LEAF = "selectp_leaf"
    SELECTP_PARENT = "selectp_parent"
    DECREASE_LABELS = "decrease_labels"


@cache
def load_template(template_id: TemplateId) -> str:
    return (
        resources.files("taxocat.prompts").joinpath(f"{template_id.value}.txt").read_text("utf-8")
    ).rstrip("\n")


@cache
def _fill(template: str, count: int | None) -> str:
    """The one rule every system text is made by: `count` in place of `{count}`."""
    return template.format(count=count)


@dataclass(frozen=True)
class PromptSpec:
    """A prompt as a provider sees it. Both texts are rendered when the spec
    is built, so a payload its template cannot draw raises there, and a
    spec's bytes are known before its first attempt."""

    template_id: TemplateId
    user_payload: Mapping[str, Any]
    count: int | None = None  # how many labels the prompt names, its template's {count}
    system_text: str = field(init=False)
    user_text: str = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "system_text", _fill(load_template(self.template_id), self.count))
        object.__setattr__(self, "user_text", _render_user_text(self))


# -- parsed responses ------------------------------------------------------------


@dataclass(frozen=True)
class BestLabels:
    ids: tuple[str, ...]


@dataclass(frozen=True)
class Scores:
    pairs: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class LeafVerdict:
    main_focus: str
    label_fit: bool


@dataclass(frozen=True)
class ParentVerdict:
    main_focus: str
    label_fit: bool
    relevancy_score: float


@dataclass(frozen=True)
class Description:
    text: str


ParsedResponse = Union[BestLabels, Scores, LeafVerdict, ParentVerdict, Description]


# -- provider configuration --------------------------------------------------------


@dataclass(frozen=True)
class ProviderConfig:
    endpoint: str = "mock://local"
    model_name: str = "mock"
    temperature: float = 0.0
    max_retries: int = 3
    timeout: float = 60.0
    max_in_flight: int = 32  # LLM requests in flight at once, at most
    credentials: str | None = None  # environment variable naming the secret
    embedding_endpoint: str | None = None  # the CLI's document and leaf embedder
    embedding_model: str = "default"

    def __post_init__(self):
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.timeout <= 0:
            raise ConfigError("timeout must be > 0")
        if self.max_in_flight < 1:
            raise ConfigError("max_in_flight must be >= 1")


_JSON_TYPES = {"str": (str,), "int": (int,), "float": (int, float), "bool": (bool,),
               "None": (type(None),)}


def read_json_config(path: str | Path, types: Mapping[str, str], what: str) -> dict[str, Any]:
    """The JSON object in a config file, read by ndjson.read_json. Its keys
    must be in `types`, and each value must have its key's type, named as in
    an annotation ("str | None")."""
    data = ndjson.read_json(path, ConfigError, what)
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must be a JSON object")
    unknown = sorted(set(data) - set(types))
    if unknown:
        raise ConfigError(f"unknown {what} keys: {', '.join(unknown)}")
    for key, value in data.items():
        allowed = tuple(t for name in types[key].split(" | ") for t in _JSON_TYPES[name])
        if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed):
            raise ConfigError(f"{what} key {key!r} must be {types[key]}, not {value!r}")
    return data


def load_provider_config(path: str | Path) -> ProviderConfig:
    types = {f.name: f.type for f in fields(ProviderConfig)}
    return ProviderConfig(**read_json_config(path, types, "provider config"))


# -- user-message rendering ----------------------------------------------------------


def _document_block(document: Mapping[str, Any]) -> str:
    lines = [f"Title: {document.get('title', '')}"]
    keywords = document.get("keywords") or []
    if keywords:
        lines.append(f"Keywords: {', '.join(keywords)}")
    abstract = document.get("abstract") or ""
    if abstract:
        lines.append(f"Abstract: {abstract}")
    return "\n".join(lines)


def _label_line(node: Mapping[str, Any], prefix: str) -> str:
    """The one way a prompt draws a node: `id | name`, then `| description`
    and `(parent: name)` when the payload has them, each as given: node_payload
    has already put each name and description on one line."""
    line = f"{prefix}{node['id']} | {node['name']}"
    if node.get("description"):
        line += f" | {node['description']}"
    if node.get("parent_name"):
        line += f" (parent: {node['parent_name']})"
    return line


def render_user_text(spec: PromptSpec) -> str:
    """The user message a provider sees, rendered when the spec was built."""
    return spec.user_text


def _render_user_text(spec: PromptSpec) -> str:
    """Flatten the structured payload into the user message a provider sees."""
    payload = spec.user_payload
    tid = spec.template_id
    if tid is TemplateId.DESC_GEN:
        node, *parent, exemplar = payload["nodes"]  # no parent for a top-level node
        lines = [f"Label Name: {node['name']}"]
        for above in parent:
            lines.append(f"Parent Name: {above['name']}")
            if above["description"]:
                lines.append(f"Parent Description: {above['description']}")
        lines.append(f"Example: the label \"{exemplar['name']}\" is described as: "
                     f"{exemplar['description']}")
        return "\n".join(lines)
    if tid in (TemplateId.TRAV_SELECT, TemplateId.RERANK, TemplateId.DECREASE_LABELS):
        labels = [_label_line(node, "- ") for node in payload["nodes"]]
        return "\n".join([_document_block(payload["document"]), "", "Labels:", *labels])
    if tid is TemplateId.SELECT_ONE_PASS:
        tree = [_label_line(node, "  " * node["depth"]) for node in payload["nodes"]]
        return "\n".join([_document_block(payload["document"]), "", "Taxonomy:", *tree])
    if tid in (TemplateId.SELECTP_LEAF, TemplateId.SELECTP_PARENT):
        [node] = payload["nodes"]
        parts = [
            _document_block(payload["document"]),
            "",
            f"Label ID: {node['id']}",
            f"Label Name: {node['name']}",
        ]
        if node.get("description"):
            parts.append(f"Label Description: {node['description']}")
        return "\n".join(parts)
    raise ConfigError(f"unknown template {tid!r}")


# -- spec builders -------------------------------------------------------------------

DESCRIPTION_MAX_WORDS = 60  # keeps multi-node prompts inside context limits
# Distinct names and descriptions whose one-line form is remembered: a
# 5,000-node taxonomy has about 8,500.
ONE_LINE_MEMO_SIZE = 1 << 14


@lru_cache(maxsize=ONE_LINE_MEMO_SIZE)
def _one_line(text: str, max_words: int | None = None) -> str:
    """`text` on one line: inner whitespace runs become one space, the ends are
    trimmed, and it is cut to `max_words` words."""
    shown = " ".join(text.split()[:max_words])
    return text if shown == text else shown  # the memo then holds one copy of the text


def node_payload(node: TaxonomyNode, **extra: Any) -> dict[str, Any]:
    """A taxonomy node as every prompt shows it, plus `extra` keys.

    The name and description each fit on one line: every whitespace run,
    line breaks included, becomes one space. The description is cut to
    DESCRIPTION_MAX_WORDS words.
    """
    description = node.description and _one_line(node.description, DESCRIPTION_MAX_WORDS)
    return {"id": node.id, "name": _one_line(node.name), "description": description, **extra}


def doc_spec(template_id: TemplateId, doc: Document, nodes: Sequence[Mapping[str, Any]],
             count: int | None = None) -> PromptSpec:
    """The prompt `template_id` asks about `doc`, showing `nodes` as node_payload shapes them.

    A pointwise template shows one node. The one-pass tree's nodes come in
    depth-first order, each with its `depth` (0 at the top) and `is_leaf`.
    The prompt names `count` labels, the number of nodes unless given.
    """
    document = {"doc_id": doc.doc_id, "title": doc.title, "keywords": list(doc.keywords),
                "abstract": doc.abstract}
    return PromptSpec(template_id, {"document": document, "nodes": list(nodes)},
                      len(nodes) if count is None else count)


def description_spec(taxonomy: Taxonomy, node_id: str, exemplar_id: str) -> PromptSpec:
    """The prompt that asks for a description of a node lacking one.

    Its nodes, each as node_payload shapes it, are the node, then its parent
    when it has one, then one exemplar node (similar depth, existing
    description) as a few-shot sample.
    """
    node = taxonomy.node(node_id)
    if node.description:
        raise ValueError(f"node {node_id!r} already has a description")
    exemplar = taxonomy.node(exemplar_id)
    if not exemplar.description:
        raise ValueError(f"exemplar {exemplar_id!r} has no description")
    parent = [taxonomy.node(node.parent_id)] if node.parent_id else []
    nodes = [node_payload(shown) for shown in (node, *parent, exemplar)]
    return PromptSpec(TemplateId.DESC_GEN, {"nodes": nodes})


def description_text(node_id: str, reply: ParsedResponse) -> str:
    """The description a reply to description_spec gives, which must not be empty."""
    text = reply.text.strip()
    if not text:
        raise DescriptionError(f"empty description generated for node {node_id!r}")
    return text


def generate_descriptions(taxonomy: Taxonomy, exemplars: Mapping[str, str],
                          gateway: LlmGateway) -> dict[str, str]:
    """A drafted description for each node id of `exemplars`, given its
    exemplar's id, in node id order.

    Every prompt is sent at once through one CallGroup, and the replies are
    read in node id order, so a failure raises what asking one node after
    another would. The taxonomy is not mutated; the caller applies the texts
    via Taxonomy.with_nodes.
    """
    specs = {node_id: description_spec(taxonomy, node_id, exemplars[node_id])
             for node_id in sorted(exemplars)}
    with gateway.group() as calls:
        replies = {node_id: calls.submit(spec) for node_id, spec in specs.items()}
        return {node_id: description_text(node_id, reply.result())
                for node_id, reply in replies.items()}


def build_selectp_leaf_spec(doc: Document, node: Mapping[str, Any]) -> PromptSpec:
    """doc_spec for one pointwise leaf verdict; the benchmark's tests call it by this name."""
    return doc_spec(TemplateId.SELECTP_LEAF, doc, [node])


# -- response extraction ---------------------------------------------------------------

_DECODER = json.JSONDecoder()


def _first_json_object(raw: str) -> dict:
    idx = raw.find("{")
    while idx != -1:
        try:
            obj, _end = _DECODER.raw_decode(raw, idx)
        except ValueError:
            idx = raw.find("{", idx + 1)
            continue
        if isinstance(obj, dict):
            return obj
        idx = raw.find("{", idx + 1)
    raise NoJsonError("no JSON object found in provider output")


def _id_list(obj: dict, key: str) -> tuple[str, ...]:
    if key not in obj:
        raise SchemaError(f"missing key {key!r}")
    value = obj[key]
    if not isinstance(value, list):
        raise SchemaError(f"{key!r} must be a list")
    ids = []
    for item in value:
        if isinstance(item, bool) or not isinstance(item, (str, int)):
            raise SchemaError(f"{key!r} entries must be label ids")
        ids.append(str(item))
    if len(set(ids)) != len(ids):
        raise DuplicateIdError(f"duplicate ids in {key!r}")
    return tuple(ids)


def _checked_score(value: Any, low: float, high: float, slack: float = 0.005) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"score must be a number, got {value!r}")
    try:
        score = float(value)
    except OverflowError:  # an integer too large for a float
        score = math.inf
    if not math.isfinite(score):
        raise SchemaError(f"score must be finite, got {score}")
    if score < low - slack or score > high + slack:
        raise ScoreRangeError(f"score {score} outside [{low}, {high}]")
    return min(high, max(low, score))


def _checked_str(obj: dict, key: str) -> str:
    if key not in obj:
        raise SchemaError(f"missing key {key!r}")
    if not isinstance(obj[key], str):
        raise SchemaError(f"{key!r} must be a string")
    return obj[key]


def _checked_bool(obj: dict, key: str) -> bool:
    if key not in obj:
        raise SchemaError(f"missing key {key!r}")
    if not isinstance(obj[key], bool):
        raise SchemaError(f"{key!r} must be a boolean")
    return obj[key]


def extract_response(raw: str, template_id: TemplateId) -> ParsedResponse:
    """Locate the first JSON object in raw text and validate it as the reply
    `template_id` asks for.

    Surrounding prose and code fences are tolerated. Scores are clamped
    only when within 0.005 of a range bound; anything further out is a
    parse failure the caller may retry.
    """
    obj = _first_json_object(raw)
    if template_id in (TemplateId.TRAV_SELECT, TemplateId.SELECT_ONE_PASS,
                       TemplateId.DECREASE_LABELS):
        return BestLabels(ids=_id_list(obj, "best_labels"))
    if template_id is TemplateId.RERANK:
        if "scores" not in obj or not isinstance(obj["scores"], list):
            raise SchemaError("missing 'scores' list")
        pairs = []
        seen = set()
        for item in obj["scores"]:
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise SchemaError("each score entry must be a (label id, score) pair")
            label, value = item
            if isinstance(label, bool) or not isinstance(label, (str, int)):
                raise SchemaError("score entry id must be a label id")
            label = str(label)
            if label in seen:
                raise DuplicateIdError(f"duplicate id in scores: {label!r}")
            seen.add(label)
            score = round(_checked_score(value, 0.01, 1.00), 2)
            pairs.append((label, score))
        return Scores(pairs=tuple(pairs))
    if template_id is TemplateId.SELECTP_LEAF:
        return LeafVerdict(
            main_focus=_checked_str(obj, "main_focus"),
            label_fit=_checked_bool(obj, "label_fit"),
        )
    if template_id is TemplateId.SELECTP_PARENT:
        if "relevancy_score" not in obj:
            raise SchemaError("missing key 'relevancy_score'")
        return ParentVerdict(
            main_focus=_checked_str(obj, "main_focus"),
            label_fit=_checked_bool(obj, "label_fit"),
            relevancy_score=_checked_score(obj["relevancy_score"], 0.0, 1.0),
        )
    if template_id is TemplateId.DESC_GEN:
        return Description(text=_checked_str(obj, "description"))
    raise ConfigError(f"unknown template {template_id!r}")


_BEST_LABELS_REPLY = 'a JSON object {"best_labels": [label ids]}'
_REPLIES: dict[TemplateId, str] = {
    TemplateId.TRAV_SELECT: _BEST_LABELS_REPLY,
    TemplateId.SELECT_ONE_PASS: _BEST_LABELS_REPLY,
    TemplateId.DECREASE_LABELS: _BEST_LABELS_REPLY,
    TemplateId.RERANK: 'a JSON object {"scores": [[label id, score], ...]} '
    "with scores between 0.01 and 1.00",
    TemplateId.SELECTP_LEAF: 'a JSON object {"main_focus": text, "label_fit": boolean}',
    TemplateId.SELECTP_PARENT: 'a JSON object {"main_focus": text, "label_fit": boolean, '
    '"relevancy_score": number between 0 and 1}',
    TemplateId.DESC_GEN: 'a JSON object {"description": text}',
}


def schema_reminder(template_id: TemplateId) -> str:
    """The retry hint naming the reply `template_id` asks for, and no label count."""
    return f"Reminder: respond with only {_REPLIES[template_id]}."


# -- deterministic mock provider ----------------------------------------------------------

DEFAULT_OVERLAP_THRESHOLD = 0.2


@lru_cache(maxsize=16)  # more documents than are asked about at once at a usual parallelism
def _doc_tokens(title: str, keywords: tuple[str, ...], abstract: str) -> frozenset[str]:
    """A document's token set; keyed by its content, so an edited document is tokenised again."""
    return token_set("\n".join([title, *keywords, abstract]))


def _payload_doc_tokens(payload: Mapping[str, Any]) -> frozenset[str]:
    document = payload["document"]
    return _doc_tokens(document.get("title", ""), tuple(document.get("keywords") or ()),
                       document.get("abstract") or "")


def _payload_node_tokens(node: Mapping[str, Any]) -> frozenset[str]:
    description = node.get("description")
    text = f"{node['name']}: {description}" if description else node["name"]
    return token_set(text)


def _mock_score(overlap: float) -> float:
    return min(1.00, max(0.01, round(overlap, 2)))


def _mock_focus(payload: Mapping[str, Any]) -> str:
    title_tokens = tokenize(payload["document"].get("title", ""))
    return " ".join(title_tokens[:4]) or "general"


def mock_complete(spec: PromptSpec, threshold: float = DEFAULT_OVERLAP_THRESHOLD) -> str:
    """Deterministic provider double driven by token-set Jaccard overlap.

    A node "fits" a document when the overlap between the document content
    and the node's name-plus-description reaches the threshold; relevancy
    scores are the overlap rounded to two decimals and clamped to
    [0.01, 1.00]. A decrease reply names the spec's count of labels, best
    overlap first. Output is always a valid reply for the template.
    """
    payload = spec.user_payload
    tid = spec.template_id
    if tid is TemplateId.DESC_GEN:
        node, *parent, _exemplar = payload["nodes"]
        area = "".join(f", within the broader area of {above['name']}" for above in parent)
        return json.dumps({"description": f"Research and scholarship on {node['name']}{area}."})

    doc_tokens = _payload_doc_tokens(payload)
    if tid in (TemplateId.SELECTP_LEAF, TemplateId.SELECTP_PARENT):
        [node] = payload["nodes"]
        overlap = jaccard(doc_tokens, _payload_node_tokens(node))
        verdict: dict[str, Any] = {
            "main_focus": _mock_focus(payload),
            "label_fit": overlap >= threshold,
        }
        if tid is TemplateId.SELECTP_PARENT:
            verdict["relevancy_score"] = _mock_score(overlap)
        return json.dumps(verdict)

    nodes = payload["nodes"]
    if tid is TemplateId.SELECT_ONE_PASS:
        # A one-pass reply names leaves only, so the tree's ancestors are not scored.
        nodes = [node for node in nodes if node.get("is_leaf")]
    overlaps = [(node["id"], jaccard(doc_tokens, _payload_node_tokens(node))) for node in nodes]
    if tid is TemplateId.RERANK:
        return json.dumps({"scores": [[nid, _mock_score(o)] for nid, o in overlaps]})
    if tid is TemplateId.DECREASE_LABELS:
        ranked = sorted(overlaps, key=lambda item: (-item[1], item[0]))
        return json.dumps({"best_labels": [nid for nid, _ in ranked[:spec.count]]})
    if tid in (TemplateId.SELECT_ONE_PASS, TemplateId.TRAV_SELECT):
        return json.dumps({"best_labels": [nid for nid, o in overlaps if o >= threshold]})
    raise ConfigError(f"unknown template {tid!r}")


class MockProvider:
    """Offline provider double answering with mock_complete; keeps no state per call."""

    def __init__(self, threshold: float = DEFAULT_OVERLAP_THRESHOLD):
        self.threshold = threshold

    def complete(self, spec: PromptSpec, reminder: str | None = None) -> str:
        return mock_complete(spec, self.threshold)


# -- HTTP client and retry loop ---------------------------------------------------------


def http_session(config: ProviderConfig):
    """A requests session keeping one connection alive per call config.max_in_flight allows."""
    import requests
    from requests.adapters import HTTPAdapter

    session = requests.Session()
    adapter = HTTPAdapter(pool_maxsize=config.max_in_flight)
    session.mount("https://", adapter)
    session.mount("http://", adapter)
    return session


def post_json(session, config: ProviderConfig, url: str, body: Mapping[str, Any]) -> Any:
    """The JSON reply to one POST of `body` to `url`, with config's credential and timeout.

    Every failure is a typed ProviderError: AuthError for HTTP 401 and 403
    or an unset credential variable, ClientError for any other HTTP 4xx
    (both RefusedErrors), ProviderTimeout for a timeout, and TransportError
    for another request failure, HTTP 408, 429, 5xx or a reply that is not
    JSON (with the Retry-After of a 429 or 503).
    """
    import requests

    headers = {"Content-Type": "application/json"}
    if config.credentials:
        secret = os.environ.get(config.credentials)
        if not secret:
            raise AuthError(f"credential env var {config.credentials!r} is not set")
        headers["Authorization"] = f"Bearer {secret}"
    try:
        response = session.post(url, json=body, headers=headers, timeout=config.timeout)
    except requests.Timeout as exc:
        raise ProviderTimeout(str(exc)) from exc
    except requests.RequestException as exc:
        raise TransportError(str(exc)) from exc
    status = response.status_code
    if status in (401, 403):
        raise AuthError(f"HTTP {status}")
    if status >= 400:
        error = f"HTTP {status}: {response.text[:200]}"
        if status in (429, 503):
            raise TransportError(error, retry_after=_retry_after_s(response))
        if status >= 500 or status == 408:
            raise TransportError(error)
        raise ClientError(error)
    try:
        return response.json()
    except ValueError as exc:
        raise TransportError(f"malformed provider response: {exc}") from exc


def _retry_after_s(response) -> float | None:
    """A numeric Retry-After header in seconds; None when missing, an HTTP date or invalid."""
    try:
        seconds = float(response.headers.get("Retry-After"))
    except (TypeError, ValueError):
        return None
    return seconds if math.isfinite(seconds) and seconds >= 0 else None


def with_retries(send: Callable[[int], T], max_retries: int) -> T:
    """The one retry loop: send(attempt) for attempt 1, 2, ..., at most max_retries + 1 times.

    A TransportError is retried after a backoff: 0.5 s, doubling, or the
    provider's Retry-After if longer, capped at 8 s. A RetryExhaustedError,
    a reply the caller could not use, is retried at once. Any other error
    (a RefusedError included), and the last attempt's failure, is raised.
    """
    attempts = max_retries + 1
    backoffs = 0
    for attempt in range(1, attempts):
        try:
            return send(attempt)
        except RetryExhaustedError:
            continue
        except TransportError as exc:
            time.sleep(min(max(0.5 * 2**backoffs, exc.retry_after or 0.0), 8.0))
            backoffs += 1
    return send(attempts)


class HttpProvider:
    """Chat-completions HTTP client (OpenAI-style request/response shape).

    One post_json per call; failures are its typed ProviderErrors, for the gateway to retry.
    """

    def __init__(self, config: ProviderConfig, session=None):
        if config.endpoint.startswith("mock://"):
            raise ConfigError("HttpProvider needs a real endpoint")
        self.config = config
        self.session = http_session(config) if session is None else session

    def complete(self, spec: PromptSpec, reminder: str | None = None) -> str:
        user_text = spec.user_text
        if reminder:
            user_text = f"{user_text}\n\n{reminder}"
        body = {
            "model": self.config.model_name,
            "temperature": self.config.temperature,
            "messages": [
                {"role": "system", "content": spec.system_text},
                {"role": "user", "content": user_text},
            ],
        }
        reply = post_json(self.session, self.config, self.config.endpoint, body)
        try:
            content = reply["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed provider response: {exc}") from exc
        if not isinstance(content, str):  # null or a number would pass as a reply
            raise TransportError(
                f"malformed provider response: content is {type(content).__name__}")
        return content


# -- audit log -------------------------------------------------------------------------


class AuditLog:
    """Thread-safe newline-delimited JSON audit sink for gateway calls."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        # Opened once up front, so an unwritable path stops the run before any call.
        ndjson.write_records(self.path, (), ConfigError, "audit log", append=True)

    def append(self, *, template_id: str, doc_id: str | None, attempt: int, outcome: str) -> None:
        record = {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "template_id": template_id,
            "doc_id": doc_id,
            "attempt": attempt,
            "outcome": outcome,
        }
        with self._lock:
            ndjson.write_records(self.path, [record], ConfigError, "audit log", append=True)


# -- gateway ---------------------------------------------------------------------------


class Provider(Protocol):
    def complete(self, spec: PromptSpec, reminder: str | None = None) -> str: ...


# One process-wide CallPool per width, the provider config's max_in_flight,
# runs the CallGroups' concurrent calls, and every LLM request holds one of
# its units, so at most that many are in flight whatever the number of
# document workers, gateways or groups. A hosted LLM's call waits on the
# network, not on local CPUs, so the provider's rate limit should set the
# width. Every pool serves the oldest rank first: a document has one group,
# made in input order, so its calls go ahead of every later document's.
_call_pools: dict[int, CallPool] = {}
_call_pools_lock = threading.Lock()
_ranks = itertools.count()  # group ranks, process-wide, so shared by every pool

M_ARENA_MAX = -8  # glibc's mallopt parameter number for the malloc arena limit
MALLOC_ARENAS = 2


def _cap_malloc_arenas() -> None:
    """Let glibc's malloc keep at most MALLOC_ARENAS arenas.

    glibc gives threads that allocate at the same time arenas of their own,
    up to eight per core, and each arena keeps memory its thread freed. So a
    wide call pool raises peak memory, while its threads, which allocate
    holding the GIL, gain nothing from more arenas. Off glibc, or when the
    call cannot be made, nothing changes.
    """
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(M_ARENA_MAX, MALLOC_ARENAS)
    except (AttributeError, OSError, ValueError) as exc:  # a tuning call must not stop a run
        logger.debug("malloc arena cap not applied: %s", exc)


class CallPool:
    """Up to `width` daemon threads, named taxocat-call-N and started as
    calls queue up, that run submitted calls in order of (rank, submit
    number): a call of an older rank starts before any call of a newer one,
    whenever either was submitted.

    Whatever a call raises, KeyboardInterrupt included, goes on its future
    and the thread serves on. A future cancelled before its call starts
    never runs. Threads idle forever on an empty queue and do not hold up
    interpreter exit.
    """

    def __init__(self, width: int):
        self.width = width
        self.units = threading.BoundedSemaphore(width)  # one per provider request out
        self._queue: queue.PriorityQueue = queue.PriorityQueue()
        self._submits = itertools.count()
        self._idle = threading.Semaphore(0)  # one release per thread waiting on an empty queue
        self._threads = 0
        self._threads_lock = threading.Lock()

    def submit(self, fn: Callable[..., T], *args: Any, rank: int) -> Future:
        """fn(*args) on the pool, after every queued call of an older rank
        (a CallGroup's); its Future holds the outcome."""
        future: Future = Future()
        self._queue.put((rank, next(self._submits), future, fn, args))
        if not self._idle.acquire(blocking=False):
            with self._threads_lock:
                if self._threads < self.width:
                    self._threads += 1
                    threading.Thread(target=self._serve, name=f"taxocat-call-{self._threads}",
                                     daemon=True).start()
        return future

    def _serve(self) -> None:
        self._note_if_idle()
        while True:
            self._run(*self._queue.get()[2:])

    def _run(self, future: Future, fn: Callable[..., Any], args: tuple) -> None:
        settle = None
        if future.set_running_or_notify_cancel():
            try:
                settle = partial(future.set_result, fn(*args))
            except BaseException as exc:  # re-raised where the future is read
                settle = partial(future.set_exception, exc)
        # Before the outcome is out, so a caller's next submit finds this thread idle.
        self._note_if_idle()
        if settle is not None:
            settle()

    def _note_if_idle(self) -> None:
        if self._queue.empty():
            self._idle.release()


def _call_pool(width: int) -> CallPool:
    """The process-wide pool of `width` threads behind every CallGroup, made on first use."""
    with _call_pools_lock:
        pool = _call_pools.get(width)
        if pool is None:
            if not _call_pools:
                _cap_malloc_arenas()
            pool = _call_pools[width] = CallPool(width)
        return pool


class LlmGateway:
    """Provider plus config plus audit; the one surface strategies talk to.

    Tracks call and character counts (the only cost accounting in scope).
    """

    def __init__(
        self,
        provider: Provider,
        config: ProviderConfig | None = None,
        audit_log: AuditLog | None = None,
    ):
        self.provider = provider
        self.config = config or ProviderConfig()
        self.pool = _call_pool(self.config.max_in_flight)  # its groups' calls and request units
        self.audit_log = audit_log
        self._counter_lock = threading.Lock()
        self.calls_made = 0
        self.characters_out = 0
        self.characters_in = 0

    def _count(self, spec: PromptSpec, raw: str) -> None:
        sent = len(spec.system_text) + len(spec.user_text)
        with self._counter_lock:
            self.calls_made += 1
            self.characters_out += sent
            self.characters_in += len(raw)

    def call_with_retry(self, spec: PromptSpec) -> ParsedResponse:
        """One provider.complete per attempt of with_retries, max_retries retries.

        An unparseable reply is retried at once with a schema reminder, and
        shares the attempt budget with provider errors. An exhausted budget
        raises the last failure (RetryExhaustedError for a parse failure).
        """
        attempts = self.config.max_retries + 1
        reminder = None
        doc_id = None
        document = spec.user_payload.get("document")
        if isinstance(document, Mapping):
            doc_id = document.get("doc_id")

        def send(attempt: int) -> ParsedResponse:
            nonlocal reminder
            try:
                with self.pool.units:  # held while the request is out, never in a backoff
                    raw = self.provider.complete(spec, reminder=reminder)
            except ProviderError as exc:
                self._audit(spec, doc_id, attempt, f"provider_error:{type(exc).__name__}")
                raise
            self._count(spec, raw)
            try:
                parsed = extract_response(raw, spec.template_id)
            except ResponseParseError as exc:
                self._audit(spec, doc_id, attempt, f"parse_error:{type(exc).__name__}")
                reminder = schema_reminder(spec.template_id)
                raise RetryExhaustedError(
                    f"{attempts} attempts failed for {spec.template_id.value}: {exc}",
                    last_raw=raw,
                ) from exc
            self._audit(spec, doc_id, attempt, "ok")
            return parsed

        return with_retries(send, self.config.max_retries)

    def group(self) -> CallGroup:
        """A new CallGroup, the one way to send this gateway's calls: one per document."""
        return CallGroup(self)

    def _audit(self, spec: PromptSpec, doc_id: str | None, attempt: int, outcome: str) -> None:
        if self.audit_log is not None:
            self.audit_log.append(
                template_id=spec.template_id.value, doc_id=doc_id, attempt=attempt, outcome=outcome
            )


class CallGroup:
    """One document's calls, in a block: `with gateway.group() as calls:`.
    `submit` sends a call on the process-wide pool of max_in_flight threads,
    an older group's calls first; `call` sends one in this thread, and its
    request waits for a unit of the width in arrival order, not rank order.

    Once one of the group's calls raises a RefusedError, its
    calls that start later raise it too, without sending a request. Leaving
    the block cancels every call not yet started and waits for every started
    one, so no call outlives its group; an exception leaving the block is
    raised as it is. Must not be used from a call running on that pool.
    """

    def __init__(self, gateway: LlmGateway):
        self._gateway = gateway
        self._futures: list[Future] = []
        self._latched: RefusedError | None = None
        self._rank = next(_ranks)

    def submit(self, spec: PromptSpec) -> Future:
        """call(spec) on the pool; its Future holds the reply."""
        future = self._gateway.pool.submit(self.call, spec, rank=self._rank)
        self._futures.append(future)
        return future

    def call(self, spec: PromptSpec) -> ParsedResponse:
        """gateway.call_with_retry(spec) in this thread, unless the group is latched."""
        if self._latched is not None:
            raise self._latched
        try:
            # Looked up per call, so a wrapper set on the class sees pooled calls too.
            return self._gateway.call_with_retry(spec)
        except RefusedError as exc:
            self._latched = exc
            raise

    def __enter__(self) -> CallGroup:
        return self

    def __exit__(self, *exc_info: object) -> None:
        wait([future for future in self._futures if not future.cancel()])


def mock_gateway(
    threshold: float = DEFAULT_OVERLAP_THRESHOLD,
    audit_log: AuditLog | None = None,
) -> LlmGateway:
    return LlmGateway(
        provider=MockProvider(threshold=threshold),
        config=ProviderConfig(),
        audit_log=audit_log,
    )
