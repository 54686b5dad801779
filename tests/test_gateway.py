"""Prompt specs, JSON extraction, retries, mock determinism, HTTP provider."""
from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxocat.gateway import (
    AuditLog,
    AuthError,
    BestLabels,
    ClientError,
    ConfigError,
    Description,
    DuplicateIdError,
    HttpProvider,
    LeafVerdict,
    LlmGateway,
    MockProvider,
    NoJsonError,
    ParentVerdict,
    PromptSpec,
    ProviderConfig,
    ProviderTimeout,
    ResponseSchema,
    RetryExhaustedError,
    SchemaError,
    Scores,
    ScoreRangeError,
    TemplateId,
    TopFive,
    TransportError,
    build_rerank_spec,
    build_selectp_parent_spec,
    build_trav_select_spec,
    extract_response,
    load_template,
    mock_complete,
    mock_gateway,
    render_user_text,
)

from .util import ScriptedProvider, make_doc, o_jaccard, o_tokens


class TestTemplatesAndSpecs:
    def test_all_templates_load_non_empty(self):
        for template_id in TemplateId:
            assert load_template(template_id).strip()

    def test_spec_autofills_schema(self):
        spec = PromptSpec(template_id=TemplateId.SELECTP_LEAF, user_payload={})
        assert spec.expected_schema is ResponseSchema.LEAF_VERDICT
        assert spec.system_text

    def test_rerank_spec_fills_counts(self):
        doc = make_doc("d", "auctions")
        nodes = [{"id": f"n{i}", "name": "x", "description": None} for i in range(7)]
        spec = build_rerank_spec(doc, nodes)
        assert "{}" not in spec.system_text
        assert spec.system_text.count("7") >= 3

    def test_render_user_text_contains_fields(self):
        doc = make_doc("d1", "Auction Design", keywords=["mechanisms"], abstract="We study bids.")
        spec = build_trav_select_spec(doc, [{"id": "n1", "name": "Markets", "description": "d"}])
        text = render_user_text(spec)
        assert "Auction Design" in text and "mechanisms" in text and "n1 | Markets" in text

    def test_provider_config_validation(self):
        with pytest.raises(ConfigError):
            ProviderConfig(timeout=0)
        with pytest.raises(ConfigError):
            ProviderConfig(max_retries=-1)


class TestExtractResponse:
    def test_best_labels_exact(self):
        parsed = extract_response('{"best_labels": ["n3", "n7"]}', ResponseSchema.BEST_LABELS)
        assert parsed == BestLabels(ids=("n3", "n7"))

    def test_scores_with_prose_and_fence(self):
        raw = (
            "Sure! Here are the scores you asked for:\n"
            "```json\n"
            '{"scores": [["a", 0.42], ["b", 0.07]]}\n'
            "```\nLet me know if you need anything else."
        )
        parsed = extract_response(raw, ResponseSchema.SCORES)
        # Oracle: standalone JSON parse of the fenced span.
        start, end = raw.index("{"), raw.rindex("}") + 1
        oracle = json.loads(raw[start:end])
        assert [list(p) for p in parsed.pairs] == oracle["scores"]

    def test_leaf_verdict(self):
        parsed = extract_response(
            '{"label_fit": true, "main_focus": "auction design"}', ResponseSchema.LEAF_VERDICT
        )
        assert parsed == LeafVerdict(main_focus="auction design", label_fit=True)

    def test_parent_verdict(self):
        parsed = extract_response(
            '{"main_focus": "x", "label_fit": false, "relevancy_score": 0.35}',
            ResponseSchema.PARENT_VERDICT,
        )
        assert parsed == ParentVerdict(main_focus="x", label_fit=False, relevancy_score=0.35)

    def test_description(self):
        parsed = extract_response('{"description": "About auctions."}', ResponseSchema.DESCRIPTION)
        assert parsed == Description(text="About auctions.")

    def test_top_five(self):
        parsed = extract_response('{"best_labels": ["a", "b"]}', ResponseSchema.TOP_FIVE)
        assert parsed == TopFive(ids=("a", "b"))

    def test_first_object_wins_over_later_ones(self):
        raw = 'broken { here {"best_labels": []} and {"best_labels": ["x"]}'
        assert extract_response(raw, ResponseSchema.BEST_LABELS) == BestLabels(ids=())

    def test_no_json(self):
        with pytest.raises(NoJsonError):
            extract_response("no structured content here", ResponseSchema.BEST_LABELS)

    def test_missing_key(self):
        with pytest.raises(SchemaError, match="best_labels"):
            extract_response('{"labels": ["x"]}', ResponseSchema.BEST_LABELS)

    def test_wrong_type(self):
        with pytest.raises(SchemaError):
            extract_response('{"label_fit": "yes", "main_focus": "x"}', ResponseSchema.LEAF_VERDICT)

    def test_duplicate_ids(self):
        with pytest.raises(DuplicateIdError):
            extract_response('{"best_labels": ["a", "a"]}', ResponseSchema.BEST_LABELS)
        with pytest.raises(DuplicateIdError):
            extract_response('{"scores": [["a", 0.5], ["a", 0.6]]}', ResponseSchema.SCORES)

    def test_score_clamp_near_bounds_only(self):
        parsed = extract_response('{"scores": [["a", 1.004], ["b", 0.007]]}', ResponseSchema.SCORES)
        assert parsed.as_dict() == {"a": 1.0, "b": 0.01}
        with pytest.raises(ScoreRangeError):
            extract_response('{"scores": [["a", 1.2]]}', ResponseSchema.SCORES)
        with pytest.raises(ScoreRangeError):
            extract_response('{"scores": [["a", 0.001]]}', ResponseSchema.SCORES)

    def test_relevancy_range(self):
        parsed = extract_response(
            '{"main_focus": "x", "label_fit": true, "relevancy_score": 1.003}',
            ResponseSchema.PARENT_VERDICT,
        )
        assert parsed.relevancy_score == 1.0
        with pytest.raises(ScoreRangeError):
            extract_response(
                '{"main_focus": "x", "label_fit": true, "relevancy_score": -0.2}',
                ResponseSchema.PARENT_VERDICT,
            )

    def test_scores_quantized_to_two_decimals(self):
        parsed = extract_response('{"scores": [["a", 0.333]]}', ResponseSchema.SCORES)
        assert parsed.as_dict() == {"a": 0.33}

    def test_numeric_ids_coerced_to_strings(self):
        parsed = extract_response('{"best_labels": [12, "x"]}', ResponseSchema.BEST_LABELS)
        assert parsed.ids == ("12", "x")


def _doc_payload(title, keywords=(), abstract=""):
    return {"doc_id": "d", "title": title, "keywords": list(keywords), "abstract": abstract}


class TestMockProvider:
    def test_deterministic_and_non_empty(self):
        doc = make_doc("d", "auction design", keywords=["markets"])
        nodes = [{"id": "n1", "name": "auction design", "description": None}]
        spec = build_trav_select_spec(doc, nodes)
        first = mock_complete(spec)
        second = mock_complete(spec)
        assert first and first == second

    def test_full_overlap_fits_with_score_one(self):
        doc = make_doc("d", "auction design")
        spec = build_selectp_parent_spec(doc, {"id": "p", "name": "auction design",
                                               "description": None})
        parsed = extract_response(mock_complete(spec), ResponseSchema.PARENT_VERDICT)
        assert parsed.label_fit is True
        assert parsed.relevancy_score == 1.0

    def test_disjoint_tokens_floor_clamp(self):
        doc = make_doc("d", "ecology")
        spec = build_selectp_parent_spec(doc, {"id": "p", "name": "auction", "description": None})
        parsed = extract_response(mock_complete(spec), ResponseSchema.PARENT_VERDICT)
        assert parsed.label_fit is False
        assert parsed.relevancy_score == 0.01

    def test_overlaps_match_independent_jaccard(self):
        # Brute-force set-intersection oracle over random payloads.
        rng = random.Random(77)
        vocab = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta"]
        for _ in range(200):
            title = " ".join(rng.sample(vocab, rng.randint(1, 4)))
            name = " ".join(rng.sample(vocab, rng.randint(1, 3)))
            description = " ".join(rng.sample(vocab, rng.randint(0, 3))) or None
            doc = make_doc("d", title)
            node = {"id": "n", "name": name, "description": description}
            spec = build_rerank_spec(doc, [node])
            parsed = extract_response(mock_complete(spec), ResponseSchema.SCORES)
            node_text = f"{name}: {description}" if description else name
            expected = min(1.0, max(0.01, round(o_jaccard(o_tokens(title), o_tokens(node_text)), 2)))
            assert parsed.as_dict() == {"n": expected}

    def test_decrease_returns_top_five_by_overlap(self):
        doc = make_doc("d", "alpha beta gamma delta")
        nodes = [
            {"id": f"n{i}", "name": " ".join(["alpha", "beta", "gamma", "delta"][: i + 1]),
             "description": None}
            for i in range(4)
        ] + [
            {"id": "far1", "name": "omega", "description": None},
            {"id": "far2", "name": "psi", "description": None},
            {"id": "far3", "name": "chi", "description": None},
        ]
        spec = PromptSpec(template_id=TemplateId.DECREASE_LABELS,
                          user_payload={"document": _doc_payload("alpha beta gamma delta"),
                                        "nodes": nodes})
        parsed = extract_response(mock_complete(spec), ResponseSchema.TOP_FIVE)
        assert len(parsed.ids) == 5
        assert set(parsed.ids[:4]) == {"n0", "n1", "n2", "n3"}

    @given(
        st.sampled_from(list(TemplateId)),
        st.lists(st.text("abcdef ", min_size=0, max_size=12), min_size=0, max_size=4),
        st.integers(min_value=0, max_value=6),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_extract_of_mock_never_errors(self, template_id, words, n_nodes, data):
        title = data.draw(st.text("xyz q1", min_size=1, max_size=10).filter(lambda s: s.strip()))
        payload: dict = {"document": _doc_payload(title, keywords=words)}
        if template_id is TemplateId.DESC_GEN:
            payload = {"label_name": title, "exemplar": {"name": "n", "description": "d"}}
        elif template_id in (TemplateId.SELECTP_LEAF, TemplateId.SELECTP_PARENT):
            payload["node"] = {"id": "n0", "name": title, "description": None}
        else:
            payload["nodes"] = [
                {"id": f"n{i}", "name": (words[i % len(words)] if words else "w") or "w",
                 "description": None, "is_leaf": i % 2 == 0}
                for i in range(n_nodes)
            ]
            if template_id is TemplateId.SELECT_ONE_PASS:
                payload["tree"] = "rendered"
        spec = PromptSpec(template_id=template_id, user_payload=payload)
        parsed = extract_response(mock_complete(spec), spec.expected_schema)
        assert parsed is not None


class TestMockConcurrency:
    def test_identical_specs_identical_results_under_threads(self):
        from concurrent.futures import ThreadPoolExecutor

        specs = [
            build_trav_select_spec(
                make_doc(f"d{i}", "auction design"),
                [{"id": "n1", "name": "auction design"}, {"id": "n2", "name": f"other {i}"}],
            )
            for i in range(8)
        ]
        work = [specs[i % len(specs)] for i in range(64)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(mock_complete, work))
        for spec, raw in zip(work, results):
            assert raw == mock_complete(spec)


class TestCallWithRetry:
    def _spec(self):
        return build_trav_select_spec(make_doc("d", "t"), [{"id": "a", "name": "t"}])

    def test_recovers_after_one_bad_response(self):
        provider = ScriptedProvider("garbage", '{"best_labels": ["a"]}')
        gateway = LlmGateway(provider, ProviderConfig(max_retries=3))
        parsed = gateway.call_with_retry(self._spec())
        assert parsed.ids == ("a",)
        assert len(provider.calls) == 2
        assert provider.calls[0][1] is None
        assert "Reminder" in provider.calls[1][1]

    def test_exhaustion_after_max_retries(self):
        provider = ScriptedProvider("still garbage")
        gateway = LlmGateway(provider, ProviderConfig(max_retries=2))
        with pytest.raises(RetryExhaustedError) as err:
            gateway.call_with_retry(self._spec())
        assert len(provider.calls) == 3
        assert err.value.last_raw == "still garbage"

    def test_attempts_never_exceed_budget(self):
        # Attempt-counting oracle across retry budgets.
        for max_retries in range(4):
            provider = ScriptedProvider("bad")
            gateway = LlmGateway(provider, ProviderConfig(max_retries=max_retries))
            with pytest.raises(RetryExhaustedError):
                gateway.call_with_retry(self._spec())
            assert len(provider.calls) == max_retries + 1

    def test_audit_log_records_attempts(self, tmp_path):
        log_path = tmp_path / "audit.ndjson"
        provider = ScriptedProvider("bad", '{"best_labels": []}')
        gateway = LlmGateway(provider, ProviderConfig(max_retries=2), AuditLog(log_path))
        gateway.call_with_retry(self._spec())
        records = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert [r["attempt"] for r in records] == [1, 2]
        assert records[0]["outcome"].startswith("parse_error")
        assert records[1]["outcome"] == "ok"
        assert records[0]["doc_id"] == "d"
        assert records[0]["template_id"] == "trav_select"

    def test_mock_gateway_end_to_end(self, mock_gw):
        spec = build_trav_select_spec(
            make_doc("d", "auction design"),
            [{"id": "hit", "name": "auction design"}, {"id": "miss", "name": "volcano"}],
        )
        assert mock_gw.call_with_retry(spec).ids == ("hit",)

    def test_call_and_character_counters(self, mock_gw):
        spec = build_trav_select_spec(make_doc("d", "auction design"),
                                      [{"id": "a", "name": "auction design"}])
        mock_gw.call_with_retry(spec)
        mock_gw.call_with_retry(spec)
        assert mock_gw.calls_made == 2
        assert mock_gw.characters_out > 0 and mock_gw.characters_in > 0


class _FakeResponse:
    def __init__(self, status_code=200, content="ok"):
        self.status_code = status_code
        self.text = "error body"
        self._content = content

    def json(self):
        return {"choices": [{"message": {"content": self._content}}]}


class _NoChoicesResponse(_FakeResponse):
    def json(self):
        return {"choices": []}


class _ScriptedSession:
    """Fake requests session: each POST takes the next scripted outcome, the last repeats.

    An outcome is a response or an exception instance to raise. Request
    bodies are recorded.
    """

    def __init__(self, *outcomes):
        self._outcomes = list(outcomes)
        self.bodies = []

    @property
    def posts(self):
        return len(self.bodies)

    def post(self, url, json=None, headers=None, timeout=None):
        self.bodies.append(json)
        outcome = self._outcomes.pop(0) if len(self._outcomes) > 1 else self._outcomes[0]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


_OK = _FakeResponse(content='{"best_labels": []}')
_JUNK = _FakeResponse(content="junk")
_HTTP_500 = _FakeResponse(status_code=500)


@pytest.fixture
def sleeps(monkeypatch):
    """Backoff delays requested through time.sleep, recorded instead of slept."""
    delays = []
    monkeypatch.setattr("taxocat.gateway.time.sleep", delays.append)
    return delays


def _http_gateway(session, audit_log=None, **kw):
    fields = dict(endpoint="https://api.example/chat", model_name="m", max_retries=3, timeout=5.0)
    fields.update(kw)
    config = ProviderConfig(**fields)
    return LlmGateway(HttpProvider(config, session=session), config, audit_log)


def _empty_spec():
    return build_trav_select_spec(make_doc("d", "t"), [])


class TestHttpProvider:
    def test_rejects_mock_endpoint(self):
        with pytest.raises(ConfigError):
            HttpProvider(ProviderConfig())

    def test_happy_path_and_reminder(self):
        session = _ScriptedSession(_OK)
        provider = HttpProvider(ProviderConfig(endpoint="https://api.example/chat"),
                                session=session)
        spec = build_trav_select_spec(make_doc("d", "t"), [{"id": "a", "name": "t"}])
        raw = provider.complete(spec, reminder="Reminder: schema")
        assert raw == '{"best_labels": []}'
        assert session.bodies[0]["messages"][0]["role"] == "system"
        assert session.bodies[0]["messages"][1]["content"].endswith("Reminder: schema")

    def test_auth_error(self, sleeps):
        session = _ScriptedSession(_FakeResponse(status_code=401))
        with pytest.raises(AuthError):
            _http_gateway(session, max_retries=0).call_with_retry(_empty_spec())

    def test_server_error_retries_then_fails(self, sleeps):
        session = _ScriptedSession(_HTTP_500)
        with pytest.raises(TransportError):
            _http_gateway(session, max_retries=2).call_with_retry(_empty_spec())
        assert session.posts == 3

    def test_timeout_maps_to_provider_timeout(self, sleeps):
        import requests

        session = _ScriptedSession(requests.Timeout("too slow"))
        with pytest.raises(ProviderTimeout):
            _http_gateway(session, max_retries=0).call_with_retry(_empty_spec())

    def test_missing_credentials_env(self, monkeypatch, sleeps):
        monkeypatch.delenv("MY_SECRET", raising=False)
        session = _ScriptedSession(_OK)
        with pytest.raises(AuthError, match="MY_SECRET"):
            _http_gateway(session, credentials="MY_SECRET").call_with_retry(_empty_spec())
        assert session.posts == 0 and sleeps == []


class TestRetryPolicy:
    """LlmGateway.call_with_retry over HttpProvider with max_retries=3."""

    @pytest.mark.parametrize("status, error", [
        (400, ClientError), (401, AuthError), (403, AuthError), (404, ClientError),
    ])
    def test_client_errors_fail_fast(self, sleeps, status, error):
        session = _ScriptedSession(_FakeResponse(status_code=status), _OK)
        with pytest.raises(error):
            _http_gateway(session).call_with_retry(_empty_spec())
        assert session.posts == 1
        assert sleeps == []

    def test_server_error_on_every_attempt_exhausts_budget(self, sleeps):
        session = _ScriptedSession(_HTTP_500)
        gateway = _http_gateway(session)
        with pytest.raises(TransportError) as err:
            gateway.call_with_retry(_empty_spec())
        assert not isinstance(err.value, ClientError)
        assert session.posts == 4
        assert sleeps == [0.5, 1.0, 2.0]
        assert gateway.calls_made == 0

    @pytest.mark.parametrize("failure", ["429", "408", "503", "timeout", "connection",
                                         "no-choices"])
    def test_transient_failures_are_retried(self, sleeps, failure):
        import requests

        outcome = {
            "429": _FakeResponse(status_code=429),
            "408": _FakeResponse(status_code=408),
            "503": _FakeResponse(status_code=503),
            "timeout": requests.Timeout("slow"),
            "connection": requests.ConnectionError("refused"),
            "no-choices": _NoChoicesResponse(),
        }[failure]
        session = _ScriptedSession(outcome, outcome, _OK)
        gateway = _http_gateway(session)
        assert gateway.call_with_retry(_empty_spec()) == BestLabels(ids=())
        assert session.posts == 3
        assert sleeps == [0.5, 1.0]
        assert gateway.calls_made == 1

    def test_mixed_failures_share_one_budget(self, sleeps):
        session = _ScriptedSession(_HTTP_500, _JUNK, _HTTP_500, _JUNK)
        with pytest.raises(RetryExhaustedError) as err:
            _http_gateway(session).call_with_retry(_empty_spec())
        assert session.posts == 4
        assert err.value.last_raw == "junk"
        assert sleeps == [0.5, 1.0]  # after provider errors only, none after parse failures

    def test_provider_error_on_last_attempt_is_raised(self, sleeps):
        session = _ScriptedSession(_JUNK, _JUNK, _JUNK, _FakeResponse(status_code=502))
        with pytest.raises(TransportError):
            _http_gateway(session).call_with_retry(_empty_spec())
        assert session.posts == 4

    def test_reminder_survives_provider_error(self, sleeps):
        session = _ScriptedSession(_JUNK, _HTTP_500, _OK)
        _http_gateway(session).call_with_retry(_empty_spec())
        user_texts = [body["messages"][1]["content"] for body in session.bodies]
        assert "Reminder" not in user_texts[0]
        assert all("Reminder" in text for text in user_texts[1:])

    def test_every_attempt_writes_one_audit_line(self, sleeps, tmp_path):
        log_path = tmp_path / "audit.ndjson"
        session = _ScriptedSession(_HTTP_500, _JUNK, _OK)
        _http_gateway(session, AuditLog(log_path)).call_with_retry(_empty_spec())
        records = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert [(r["attempt"], r["outcome"]) for r in records] == [
            (1, "provider_error:TransportError"), (2, "parse_error:NoJsonError"), (3, "ok"),
        ]

    def test_fail_fast_error_is_audited(self, sleeps, tmp_path):
        log_path = tmp_path / "audit.ndjson"
        session = _ScriptedSession(_FakeResponse(status_code=401))
        with pytest.raises(AuthError):
            _http_gateway(session, AuditLog(log_path)).call_with_retry(_empty_spec())
        records = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert [(r["attempt"], r["outcome"]) for r in records] == [(1, "provider_error:AuthError")]

    def test_backoff_doubles_to_a_cap(self, sleeps):
        session = _ScriptedSession(_HTTP_500)
        with pytest.raises(TransportError):
            _http_gateway(session, max_retries=7).call_with_retry(_empty_spec())
        assert session.posts == 8
        assert sleeps == [0.5, 1.0, 2.0, 4.0, 8.0, 8.0, 8.0]
