"""Prompt specs, JSON extraction, retries, mock determinism, HTTP clients."""
from __future__ import annotations

import json
import random
import re
import sys
import threading
import time
from concurrent.futures import wait
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxocat import gateway as gw
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
    NoJsonError,
    ParentVerdict,
    PromptSpec,
    ProviderConfig,
    ProviderTimeout,
    RefusedError,
    RetryExhaustedError,
    SchemaError,
    Scores,
    ScoreRangeError,
    TemplateId,
    TransportError,
    description_spec,
    doc_spec,
    extract_response,
    load_provider_config,
    load_template,
    mock_complete,
    mock_gateway,
    node_payload,
    render_user_text,
    schema_reminder,
)
from taxocat.postprocess import FLAG_DECREASE_FALLBACK, decrease_labels
from taxocat.retrieval import HttpEmbedder
from taxocat.strategies import LabelSet, Method
from taxocat.taxonomy import Taxonomy, TaxonomyNode

from .util import (
    ScriptedProvider,
    ask_in_order,
    make_doc,
    o_jaccard,
    o_tokens,
    recording_mock_gateway,
)


class TestTemplatesAndSpecs:
    def test_all_templates_load_non_empty(self):
        for template_id in TemplateId:
            assert load_template(template_id).strip()

    def test_spec_autofills_system_text(self):
        spec = doc_spec(TemplateId.SELECTP_LEAF, make_doc("d", "auctions"),
                        [{"id": "n1", "name": "Markets"}])
        assert spec.system_text == load_template(TemplateId.SELECTP_LEAF)

    def test_rerank_spec_fills_counts(self):
        doc = make_doc("d", "auctions")
        nodes = [{"id": f"n{i}", "name": "x", "description": None} for i in range(7)]
        spec = doc_spec(TemplateId.RERANK, doc, nodes)
        assert "{}" not in spec.system_text
        assert spec.system_text.count("7") >= 3

    def test_render_user_text_contains_fields(self):
        doc = make_doc("d1", "Auction Design", keywords=["mechanisms"], abstract="We study bids.")
        spec = doc_spec(TemplateId.TRAV_SELECT, doc,
                        [{"id": "n1", "name": "Markets", "description": "d"}])
        text = render_user_text(spec)
        assert "Auction Design" in text and "mechanisms" in text and "n1 | Markets" in text

    def test_each_template_is_read_once(self):
        load_template.cache_clear()
        doc = make_doc("d", "auctions")
        for n in range(3):
            doc_spec(TemplateId.RERANK, doc, [{"id": f"n{i}", "name": "x"} for i in range(n + 1)])
            doc_spec(TemplateId.SELECTP_LEAF, doc, [{"id": "n1", "name": "x"}])
        info = load_template.cache_info()
        assert (info.misses, info.hits) == (2, 4)

    @pytest.mark.parametrize(("template_id", "nodes", "error"), [
        (TemplateId.SELECTP_LEAF, [{"id": "a", "name": "x"}, {"id": "b", "name": "y"}],
         ValueError),  # a pointwise prompt shows one node
        (TemplateId.SELECT_ONE_PASS, [{"id": "a", "name": "x", "is_leaf": True}],
         KeyError),  # a tree node has a depth
    ])
    def test_undrawable_payload_raises_where_the_spec_is_built(self, template_id, nodes, error):
        # Raised by doc_spec itself, in the caller's thread, before any call is sent.
        with pytest.raises(error):
            doc_spec(template_id, make_doc("d", "auctions"), nodes)

    def test_user_text_rendered_once_per_spec(self, monkeypatch):
        rendered = []
        real = gw._render_user_text
        monkeypatch.setattr(gw, "_render_user_text", lambda spec: rendered.append(spec) or real(spec))

        class Rendering:  # renders the prompt, as a provider sending it does
            def complete(self, spec, reminder=None):
                assert render_user_text(spec)
                return '{"best_labels": []}'

        spec = doc_spec(TemplateId.TRAV_SELECT, make_doc("d", "auctions"),
                        [{"id": "n1", "name": "Markets"}])
        gateway = LlmGateway(Rendering())
        gateway.call_with_retry(spec)
        assert rendered == [spec]
        assert gateway.characters_out == len(spec.system_text) + len(real(spec))

    def test_provider_config_validation(self):
        with pytest.raises(ConfigError):
            ProviderConfig(timeout=0)
        with pytest.raises(ConfigError):
            ProviderConfig(max_retries=-1)
        with pytest.raises(ConfigError, match="max_in_flight must be >= 1"):
            ProviderConfig(max_in_flight=0)

    def test_provider_config_reads_max_in_flight(self, tmp_path):
        path = tmp_path / "provider.json"
        path.write_text('{"max_in_flight": 5}')
        assert load_provider_config(path).max_in_flight == 5
        assert ProviderConfig().max_in_flight == 32

    def test_provider_config_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "provider.json"
        path.write_text(json.dumps(
            {"endpoint": "https://api.example/chat", "max_retry": 0, "timeout_s": 5}))
        with pytest.raises(ConfigError, match="max_retry, timeout_s"):
            load_provider_config(path)

    def test_provider_config_allows_embedding_keys(self, tmp_path):
        path = tmp_path / "provider.json"
        path.write_text(json.dumps({
            "endpoint": "https://api.example/chat", "model_name": "m", "max_retries": 1,
            "embedding_endpoint": "https://api.example/emb", "embedding_model": "e",
        }))
        config = load_provider_config(path)
        assert (config.endpoint, config.model_name, config.max_retries) == (
            "https://api.example/chat", "m", 1)
        assert (config.embedding_endpoint, config.embedding_model) == (
            "https://api.example/emb", "e")

    @pytest.mark.parametrize(("text", "message"), [
        ("{not json", "cannot read provider config"),
        ('{"timeout": "5"}', "'timeout' must be float"),
        ('{"max_retries": 1.5}', "'max_retries' must be int"),
        ('{"max_retries": true}', "'max_retries' must be int"),
        ('{"credentials": 7}', "'credentials' must be str | None"),
        ('{"max_in_flight": 0}', "max_in_flight must be >= 1"),
        ('{"max_in_flight": -1}', "max_in_flight must be >= 1"),
        ('{"max_in_flight": 8.0}', "'max_in_flight' must be int"),
        ('{"max_in_flight": "8"}', "'max_in_flight' must be int"),
        ('{"max_in_flight": true}', "'max_in_flight' must be int"),
        ('{"timeout": NaN}', "NaN is not a finite number"),
        ('{"temperature": -Infinity}', "-Infinity is not a finite number"),
        ('{"timeout": 1e999}', "1e999 is not a finite number"),
    ])
    def test_provider_config_rejects_malformed_files(self, tmp_path, text, message):
        path = tmp_path / "provider.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            load_provider_config(path)


class TestNodeLines:
    def test_node_payload_cuts_description_and_adds_keys(self):
        node = TaxonomyNode(id="n1", name="Markets",
                            description=" ".join(f"w{i}" for i in range(80)))
        payload = node_payload(node, depth=2)
        assert payload == {"id": "n1", "name": "Markets",
                           "description": " ".join(f"w{i}" for i in range(60)), "depth": 2}
        assert node_payload(TaxonomyNode(id="n2", name="Bids"))["description"] is None

    def test_list_and_tree_draw_a_node_alike(self):
        # One line rule: "id | name", then "| description" when there is one,
        # as node_payload shaped it, so a description's trailing space goes.
        doc = make_doc("d", "auctions")
        described = node_payload(TaxonomyNode(id="n1", name="Markets", description="trade "))
        bare = node_payload(TaxonomyNode(id="n2", name="Bids", parent_id="n1"))
        listed = render_user_text(doc_spec(TemplateId.TRAV_SELECT, doc, [described, bare]))
        assert listed.endswith("Labels:\n- n1 | Markets | trade\n- n2 | Bids")
        tree = render_user_text(doc_spec(
            TemplateId.SELECT_ONE_PASS,
            doc, [dict(described, depth=0, is_leaf=False), dict(bare, depth=1, is_leaf=True)]))
        assert tree.endswith("Taxonomy:\nn1 | Markets | trade\n  n2 | Bids")
        decrease = render_user_text(doc_spec(
            TemplateId.DECREASE_LABELS,
            doc, [dict(described, parent_name=None), dict(bare, parent_name="Markets")]))
        assert decrease.endswith("- n1 | Markets | trade\n- n2 | Bids (parent: Markets)")

    def test_line_breaks_and_whitespace_runs_collapse_to_one_space(self):
        node = node_payload(TaxonomyNode(id="n1", name="Market\r\n design",
                                         description="Auctions and\nmatching  markets."))
        assert (node["name"], node["description"]) == ("Market design",
                                                       "Auctions and matching markets.")
        listed = render_user_text(doc_spec(TemplateId.RERANK, make_doc("d", "auctions"), [node]))
        assert listed.endswith("Labels:\n- n1 | Market design | Auctions and matching markets.")

    @given(st.text().filter(str.strip), st.none() | st.text(), st.text().filter(str.strip))
    @settings(max_examples=300)
    def test_every_node_is_one_prompt_line(self, name, description, parent_name):
        node = TaxonomyNode(id="n1", name=name, description=description, parent_id="p")
        shaped = node_payload(node, depth=1, is_leaf=True)
        doc = make_doc("d", "auctions")
        for template_id, heading in [(TemplateId.TRAV_SELECT, "Labels:"),
                                     (TemplateId.SELECT_ONE_PASS, "Taxonomy:")]:
            text = render_user_text(doc_spec(template_id, doc, [shaped]))
            assert len(text.split(f"\n{heading}\n")[1].splitlines()) == 1
        # The decrease prompt also draws each candidate's parent name.
        tax = Taxonomy([TaxonomyNode(id="p", name=parent_name), node,
                        TaxonomyNode(id="n2", name="Bids", parent_id="p")])
        gateway = recording_mock_gateway()
        labels = LabelSet(doc_id="d", leaf_ids=("n1", "n2"), method=Method.SELECT_ONE_PASS)
        decrease_labels(doc, labels, tax, gateway, max_labels=1)
        [spec] = gateway.provider.calls
        lines = spec.user_text.split("\nLabels:\n")[1].splitlines()
        assert len(lines) == 2
        assert lines[1] == f"- n2 | Bids (parent: {' '.join(parent_name.split())})"


_NODES = [{"id": "n1", "name": "auction design", "description": "bids"},
          {"id": "n2", "name": "ecology", "description": None}]
_DOC = make_doc("d", "auction design", keywords=["bids"])
_SPECS = {
    TemplateId.DESC_GEN: description_spec(
        Taxonomy([TaxonomyNode(id="a", name="Auctions"),
                  TaxonomyNode(id="b", name="Bids", description="About bids.")]), "a", "b"),
    TemplateId.TRAV_SELECT: doc_spec(TemplateId.TRAV_SELECT, _DOC, _NODES),
    TemplateId.SELECT_ONE_PASS: doc_spec(
        TemplateId.SELECT_ONE_PASS, _DOC, [dict(n, depth=0, is_leaf=True) for n in _NODES]),
    TemplateId.RERANK: doc_spec(TemplateId.RERANK, _DOC, _NODES),
    TemplateId.SELECTP_LEAF: doc_spec(TemplateId.SELECTP_LEAF, _DOC, _NODES[:1]),
    TemplateId.SELECTP_PARENT: doc_spec(TemplateId.SELECTP_PARENT, _DOC, _NODES[:1]),
    TemplateId.DECREASE_LABELS: doc_spec(TemplateId.DECREASE_LABELS, _DOC, _NODES),
}
_REPLIES = {
    TemplateId.DESC_GEN: (Description, 'a JSON object {"description": text}'),
    TemplateId.TRAV_SELECT: (BestLabels, 'a JSON object {"best_labels": [label ids]}'),
    TemplateId.SELECT_ONE_PASS: (BestLabels, 'a JSON object {"best_labels": [label ids]}'),
    TemplateId.RERANK: (Scores, 'a JSON object {"scores": [[label id, score], ...]} '
                                "with scores between 0.01 and 1.00"),
    TemplateId.SELECTP_LEAF: (LeafVerdict,
                              'a JSON object {"main_focus": text, "label_fit": boolean}'),
    TemplateId.SELECTP_PARENT: (ParentVerdict, 'a JSON object {"main_focus": text, '
                                '"label_fit": boolean, "relevancy_score": number between 0 and 1}'),
    TemplateId.DECREASE_LABELS: (BestLabels, 'a JSON object {"best_labels": [label ids]}'),
}


@pytest.mark.parametrize("template_id", list(TemplateId))
def test_every_template_names_its_reply(template_id):
    reply_type, reply = _REPLIES[template_id]
    assert schema_reminder(template_id) == f"Reminder: respond with only {reply}."
    spec = _SPECS[template_id]
    assert spec.template_id is template_id
    assert isinstance(extract_response(mock_complete(spec), template_id), reply_type)


def test_every_prompt_file_is_a_template():
    files = sorted(path.name for path in (Path(gw.__file__).parent / "prompts").iterdir())
    assert files == sorted(f"{template_id.value}.txt" for template_id in TemplateId)


@pytest.mark.parametrize("template_id", list(TemplateId))
def test_template_holds_no_brace_but_its_count(template_id):
    # Every system text is its template with the count in place of {count}.
    text = load_template(template_id)
    assert not re.search("[{}]", text.replace("{count}", ""))
    spec = PromptSpec(template_id, _SPECS[template_id].user_payload, count=37)
    assert spec.system_text == text.replace("{count}", "37")


@pytest.mark.parametrize("count", [1, 3, 7, 40])
def test_rerank_and_decrease_state_their_count(count):
    doc = make_doc("d", "auctions")
    nodes = [{"id": f"n{i}", "name": "x"} for i in range(count)]
    rerank = doc_spec(TemplateId.RERANK, doc, nodes).system_text
    assert f"a list of {count} labels" in rerank
    assert f"there are {count} scores" in rerank
    assert f"a list of {count} tuples" in rerank
    decrease = doc_spec(TemplateId.DECREASE_LABELS, doc, nodes + nodes, count).system_text
    assert decrease.count(f"the top {count} labels") == 2


@pytest.mark.parametrize("template_id", list(TemplateId))
def test_reminder_states_no_label_count(template_id):
    # The system text states how many labels to name; a score range is the
    # only number a reminder holds.
    reminder = re.sub(r"between [0-9.]+ and [0-9.]+", "", schema_reminder(template_id))
    assert not re.search("[0-9]", reminder)


class TestExtractResponse:
    def test_best_labels_exact(self):
        parsed = extract_response('{"best_labels": ["n3", "n7"]}', TemplateId.TRAV_SELECT)
        assert parsed == BestLabels(ids=("n3", "n7"))

    def test_scores_with_prose_and_fence(self):
        raw = (
            "Sure! Here are the scores you asked for:\n"
            "```json\n"
            '{"scores": [["a", 0.42], ["b", 0.07]]}\n'
            "```\nLet me know if you need anything else."
        )
        parsed = extract_response(raw, TemplateId.RERANK)
        # Oracle: standalone JSON parse of the fenced span.
        start, end = raw.index("{"), raw.rindex("}") + 1
        oracle = json.loads(raw[start:end])
        assert [list(p) for p in parsed.pairs] == oracle["scores"]

    def test_leaf_verdict(self):
        parsed = extract_response(
            '{"label_fit": true, "main_focus": "auction design"}', TemplateId.SELECTP_LEAF
        )
        assert parsed == LeafVerdict(main_focus="auction design", label_fit=True)

    def test_parent_verdict(self):
        parsed = extract_response(
            '{"main_focus": "x", "label_fit": false, "relevancy_score": 0.35}',
            TemplateId.SELECTP_PARENT,
        )
        assert parsed == ParentVerdict(main_focus="x", label_fit=False, relevancy_score=0.35)

    def test_description(self):
        parsed = extract_response('{"description": "About auctions."}', TemplateId.DESC_GEN)
        assert parsed == Description(text="About auctions.")

    def test_decrease_reply_is_best_labels(self):
        parsed = extract_response('{"best_labels": ["a", "b"]}', TemplateId.DECREASE_LABELS)
        assert parsed == BestLabels(ids=("a", "b"))

    def test_first_object_wins_over_later_ones(self):
        raw = 'broken { here {"best_labels": []} and {"best_labels": ["x"]}'
        assert extract_response(raw, TemplateId.TRAV_SELECT) == BestLabels(ids=())

    def test_no_json(self):
        with pytest.raises(NoJsonError):
            extract_response("no structured content here", TemplateId.TRAV_SELECT)

    def test_missing_key(self):
        with pytest.raises(SchemaError, match="best_labels"):
            extract_response('{"labels": ["x"]}', TemplateId.TRAV_SELECT)

    def test_wrong_type(self):
        with pytest.raises(SchemaError):
            extract_response('{"label_fit": "yes", "main_focus": "x"}', TemplateId.SELECTP_LEAF)

    def test_duplicate_ids(self):
        with pytest.raises(DuplicateIdError):
            extract_response('{"best_labels": ["a", "a"]}', TemplateId.TRAV_SELECT)
        with pytest.raises(DuplicateIdError):
            extract_response('{"scores": [["a", 0.5], ["a", 0.6]]}', TemplateId.RERANK)

    def test_score_clamp_near_bounds_only(self):
        parsed = extract_response('{"scores": [["a", 1.004], ["b", 0.007]]}', TemplateId.RERANK)
        assert dict(parsed.pairs) == {"a": 1.0, "b": 0.01}
        with pytest.raises(ScoreRangeError):
            extract_response('{"scores": [["a", 1.2]]}', TemplateId.RERANK)
        with pytest.raises(ScoreRangeError):
            extract_response('{"scores": [["a", 0.001]]}', TemplateId.RERANK)

    def test_relevancy_range(self):
        parsed = extract_response(
            '{"main_focus": "x", "label_fit": true, "relevancy_score": 1.003}',
            TemplateId.SELECTP_PARENT,
        )
        assert parsed.relevancy_score == 1.0
        with pytest.raises(ScoreRangeError):
            extract_response(
                '{"main_focus": "x", "label_fit": true, "relevancy_score": -0.2}',
                TemplateId.SELECTP_PARENT,
            )

    def test_scores_quantized_to_two_decimals(self):
        parsed = extract_response('{"scores": [["a", 0.333]]}', TemplateId.RERANK)
        assert dict(parsed.pairs) == {"a": 0.33}

    @pytest.mark.parametrize(("raw", "template_id"), [
        ('{"scores": [["a", NaN]]}', TemplateId.RERANK),
        ('{"scores": [["a", Infinity]]}', TemplateId.RERANK),
        ('{"scores": [["a", 1%s]]}' % ("0" * 400), TemplateId.RERANK),
        ('{"main_focus": "x", "label_fit": true, "relevancy_score": NaN}',
         TemplateId.SELECTP_PARENT),
    ])
    def test_non_finite_score_is_retried(self, raw, template_id):
        with pytest.raises(SchemaError, match="finite"):
            extract_response(raw, template_id)
        valid = mock_complete(_SPECS[template_id])
        provider = ScriptedProvider(raw, valid)
        parsed = LlmGateway(provider, ProviderConfig(max_retries=1)).call_with_retry(
            _SPECS[template_id])
        assert parsed == extract_response(valid, template_id)
        assert provider.calls[1][1] == schema_reminder(template_id)

    def test_numeric_ids_coerced_to_strings(self):
        parsed = extract_response('{"best_labels": [12, "x"]}', TemplateId.TRAV_SELECT)
        assert parsed.ids == ("12", "x")


class TestMockProvider:
    def test_deterministic_and_non_empty(self):
        doc = make_doc("d", "auction design", keywords=["markets"])
        nodes = [{"id": "n1", "name": "auction design", "description": None}]
        spec = doc_spec(TemplateId.TRAV_SELECT, doc, nodes)
        first = mock_complete(spec)
        second = mock_complete(spec)
        assert first and first == second

    def test_full_overlap_fits_with_score_one(self):
        doc = make_doc("d", "auction design")
        spec = doc_spec(TemplateId.SELECTP_PARENT, doc,
                        [{"id": "p", "name": "auction design", "description": None}])
        parsed = extract_response(mock_complete(spec), TemplateId.SELECTP_PARENT)
        assert parsed.label_fit is True
        assert parsed.relevancy_score == 1.0

    def test_disjoint_tokens_floor_clamp(self):
        doc = make_doc("d", "ecology")
        spec = doc_spec(TemplateId.SELECTP_PARENT, doc,
                        [{"id": "p", "name": "auction", "description": None}])
        parsed = extract_response(mock_complete(spec), TemplateId.SELECTP_PARENT)
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
            spec = doc_spec(TemplateId.RERANK, doc, [node])
            parsed = extract_response(mock_complete(spec), TemplateId.RERANK)
            node_text = f"{name}: {description}" if description else name
            expected = min(1.0, max(0.01, round(o_jaccard(o_tokens(title), o_tokens(node_text)), 2)))
            assert dict(parsed.pairs) == {"n": expected}

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
        spec = doc_spec(TemplateId.DECREASE_LABELS, doc, nodes, count=5)
        parsed = extract_response(mock_complete(spec), TemplateId.DECREASE_LABELS)
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
        nodes = [
            {"id": f"n{i}", "name": (words[i % len(words)] if words else "w") or "w",
             "description": None, "depth": i % 3, "is_leaf": i % 2 == 0}
            for i in range(n_nodes)
        ]
        if template_id in (TemplateId.SELECTP_LEAF, TemplateId.SELECTP_PARENT):
            nodes = [{"id": "n0", "name": title, "description": None}]
        if template_id is TemplateId.DESC_GEN:
            spec = description_spec(Taxonomy([TaxonomyNode(id="c", name=title),
                                              TaxonomyNode(id="e", name="n", description="d")]),
                                    "c", "e")
        else:
            spec = doc_spec(template_id, make_doc("d", title, keywords=words), nodes)
        parsed = extract_response(mock_complete(spec), spec.template_id)
        assert parsed is not None


    def test_document_tokenised_once_and_again_when_edited(self):
        leaf = {"id": "l", "name": "auction design", "description": None}
        doc = make_doc("d", "x", abstract="auction design")
        misses = gw._doc_tokens.cache_info().misses
        replies = {mock_complete(doc_spec(TemplateId.SELECTP_LEAF, doc, [leaf]))
                   for _ in range(40)}
        assert gw._doc_tokens.cache_info().misses == misses + 1
        assert json.loads(replies.pop())["label_fit"] is True
        edited = make_doc("d", "x", abstract="volcano hazards")  # same id, new content
        reply = mock_complete(doc_spec(TemplateId.SELECTP_LEAF, edited, [leaf]))
        assert json.loads(reply)["label_fit"] is False
        assert gw._doc_tokens.cache_info().misses == misses + 2


class TestMockConcurrency:
    def test_identical_specs_identical_results_under_threads(self):
        from concurrent.futures import ThreadPoolExecutor

        specs = [
            doc_spec(
                TemplateId.TRAV_SELECT,
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
        return doc_spec(TemplateId.TRAV_SELECT, make_doc("d", "t"), [{"id": "a", "name": "t"}])

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
        spec = doc_spec(
            TemplateId.TRAV_SELECT,
            make_doc("d", "auction design"),
            [{"id": "hit", "name": "auction design"}, {"id": "miss", "name": "volcano"}],
        )
        assert mock_gw.call_with_retry(spec).ids == ("hit",)

    def test_call_and_character_counters(self, mock_gw):
        spec = doc_spec(TemplateId.TRAV_SELECT, make_doc("d", "auction design"),
                        [{"id": "a", "name": "auction design"}])
        mock_gw.call_with_retry(spec)
        mock_gw.call_with_retry(spec)
        assert mock_gw.calls_made == 2
        assert mock_gw.characters_out > 0 and mock_gw.characters_in > 0


class _FakeResponse:
    def __init__(self, status_code=200, content="ok", headers=None):
        self.status_code = status_code
        self.text = "error body"
        self.headers = headers or {}
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


class _EmbeddingResponse(_FakeResponse):
    def json(self):
        return {"data": [{"index": 0, "embedding": [1.0, 0.0]}]}


class _NotJsonResponse(_FakeResponse):
    def json(self):
        raise ValueError("Expecting value: line 1 column 1 (char 0)")


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
    return doc_spec(TemplateId.TRAV_SELECT, make_doc("d", "t"), [])


class _ChatClient:
    """An HttpProvider behind an LlmGateway; call() is one call_with_retry."""

    ok = _OK
    reply = BestLabels(ids=())
    malformed = _NoChoicesResponse()  # a 200 reply that is retried

    def __init__(self, session, **fields):
        self.gateway = _http_gateway(session, **fields)
        self.http = self.gateway.provider

    def call(self):
        return self.gateway.call_with_retry(_empty_spec())


class _EmbeddingClient:
    """An HttpEmbedder; call() embeds one text, as one request through the retry loop."""

    ok = _EmbeddingResponse()
    reply = [[1.0, 0.0]]
    malformed = _NotJsonResponse()

    def __init__(self, session, **fields):
        config = ProviderConfig(**{"embedding_endpoint": "https://api.example/emb",
                                   "embedding_model": "m", "max_retries": 3, "timeout": 5.0,
                                   **fields})
        self.http = HttpEmbedder(config, session=session)

    def call(self):
        return self.http.embed_many(["t"]).tolist()


@pytest.fixture(params=[_ChatClient, _EmbeddingClient], ids=["chat", "embedding"])
def client(request):
    """Each HTTP client: chat completions and embeddings share one POST and one retry loop."""
    return request.param


class TestHttpProvider:
    def test_rejects_mock_endpoint(self):
        with pytest.raises(ConfigError):
            HttpProvider(ProviderConfig())

    def test_happy_path_and_reminder(self):
        session = _ScriptedSession(_OK)
        provider = HttpProvider(ProviderConfig(endpoint="https://api.example/chat"),
                                session=session)
        spec = doc_spec(TemplateId.TRAV_SELECT, make_doc("d", "t"), [{"id": "a", "name": "t"}])
        raw = provider.complete(spec, reminder="Reminder: schema")
        assert raw == '{"best_labels": []}'
        assert session.bodies[0]["messages"][0]["role"] == "system"
        assert session.bodies[0]["messages"][1]["content"].endswith("Reminder: schema")

    @pytest.mark.parametrize("content", [None, 42])
    def test_content_that_is_not_text_is_retried(self, sleeps, content):
        session = _ScriptedSession(_FakeResponse(content=content), _OK)
        assert _http_gateway(session).call_with_retry(_empty_spec()) == BestLabels(ids=())
        assert session.posts == 2

    def test_decrease_call_answered_with_null_content_falls_back(self, sleeps):
        leaves = [f"l{i}" for i in range(7)]
        tax = Taxonomy([TaxonomyNode(id="p", name="parent"),
                        *(TaxonomyNode(id=lid, name=f"leaf {lid}", parent_id="p")
                          for lid in leaves)])
        labels = LabelSet(doc_id="d", leaf_ids=tuple(leaves), method=Method.SELECT_ONE_PASS)
        session = _ScriptedSession(_FakeResponse(content=None))
        out = decrease_labels(make_doc("d", "t"), labels, tax, _http_gateway(session))
        assert session.posts == 4
        assert out.leaf_ids == tuple(leaves[:5])
        assert out.flags == (FLAG_DECREASE_FALLBACK,)

    def test_auth_error(self, sleeps, client):
        session = _ScriptedSession(_FakeResponse(status_code=401))
        with pytest.raises(AuthError):
            client(session, max_retries=0).call()

    def test_server_error_retries_then_fails(self, sleeps, client):
        session = _ScriptedSession(_HTTP_500)
        with pytest.raises(TransportError):
            client(session, max_retries=2).call()
        assert session.posts == 3

    def test_timeout_maps_to_provider_timeout(self, sleeps, client):
        import requests

        session = _ScriptedSession(requests.Timeout("too slow"))
        with pytest.raises(ProviderTimeout):
            client(session, max_retries=0).call()

    def test_own_session_pools_one_connection_per_call_in_flight(self, client):
        session = client(None, max_in_flight=7).http.session
        for url in ("https://api.example/chat", "http://api.example/chat"):
            adapter = session.get_adapter(url)
            assert adapter.poolmanager.connection_pool_kw["maxsize"] == 7

    def test_given_session_is_left_alone(self, client):
        session = _ScriptedSession(client.ok)
        assert client(session).http.session is session

    def test_missing_credentials_env(self, monkeypatch, sleeps, client):
        monkeypatch.delenv("MY_SECRET", raising=False)
        session = _ScriptedSession(client.ok)
        with pytest.raises(AuthError, match="MY_SECRET"):
            client(session, credentials="MY_SECRET").call()
        assert session.posts == 0 and sleeps == []


class TestRetryPolicy:
    """Each HTTP client through the retry loop with max_retries=3; the chat
    client through LlmGateway.call_with_retry."""

    @pytest.mark.parametrize("status, error", [
        (400, ClientError), (401, AuthError), (403, AuthError), (404, ClientError),
    ])
    def test_client_errors_fail_fast(self, sleeps, client, status, error):
        session = _ScriptedSession(_FakeResponse(status_code=status), client.ok)
        with pytest.raises(error) as err:
            client(session).call()
        assert isinstance(err.value, RefusedError) and not isinstance(err.value, TransportError)
        assert session.posts == 1
        assert sleeps == []

    def test_server_error_on_every_attempt_exhausts_budget(self, sleeps, client):
        session = _ScriptedSession(_HTTP_500)
        sender = client(session)
        with pytest.raises(TransportError) as err:
            sender.call()
        assert not isinstance(err.value, ClientError)
        assert session.posts == 4
        assert sleeps == [0.5, 1.0, 2.0]
        if client is _ChatClient:
            assert sender.gateway.calls_made == 0

    @pytest.mark.parametrize("failure", ["429", "408", "503", "timeout", "connection",
                                         "malformed"])
    def test_transient_failures_are_retried(self, sleeps, client, failure):
        import requests

        outcome = {
            "429": _FakeResponse(status_code=429),
            "408": _FakeResponse(status_code=408),
            "503": _FakeResponse(status_code=503),
            "timeout": requests.Timeout("slow"),
            "connection": requests.ConnectionError("refused"),
            "malformed": client.malformed,
        }[failure]
        session = _ScriptedSession(outcome, outcome, client.ok)
        sender = client(session)
        assert sender.call() == client.reply
        assert session.posts == 3
        assert sleeps == [0.5, 1.0]
        if client is _ChatClient:
            assert sender.gateway.calls_made == 1

    @pytest.mark.parametrize("status, headers, expected", [
        (429, {"Retry-After": "3"}, [3.0]),
        (503, {"Retry-After": "2.5"}, [2.5]),
        (429, {"Retry-After": "0"}, [0.5]),  # never shorter than the backoff
        (429, {"Retry-After": "30"}, [8.0]),  # capped
        (429, {}, [0.5]),
        (429, {"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}, [0.5]),
        (429, {"Retry-After": "nan"}, [0.5]),
        (500, {"Retry-After": "3"}, [0.5]),  # only 429 and 503 carry it
    ])
    def test_retry_after_lengthens_the_backoff(self, sleeps, client, status, headers, expected):
        session = _ScriptedSession(_FakeResponse(status_code=status, headers=headers), client.ok)
        assert client(session).call() == client.reply
        assert session.posts == 2
        assert sleeps == expected

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

    def test_backoff_doubles_to_a_cap(self, sleeps, client):
        session = _ScriptedSession(_HTTP_500)
        with pytest.raises(TransportError):
            client(session, max_retries=7).call()
        assert session.posts == 8
        assert sleeps == [0.5, 1.0, 2.0, 4.0, 8.0, 8.0, 8.0]


def _wave_spec(i):
    return doc_spec(TemplateId.TRAV_SELECT, make_doc(f"d{i}", "t"), [])


def _doc_index(spec):
    return int(spec.user_payload["document"]["doc_id"][1:])


class _FnProvider:
    """Answers each spec with best_labels [its doc id], after running `before(i)`
    with i the spec's index (d0, d1, ...); counts calls under a lock."""

    def __init__(self, before=lambda i: None):
        self.before = before
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, spec, reminder=None):
        with self._lock:
            self.calls += 1
        i = _doc_index(spec)
        self.before(i)
        return json.dumps({"best_labels": [f"d{i}"]})


class TestCallGroup:
    def test_results_in_spec_order_when_later_specs_answer_first(self):
        n = 8
        gateway = LlmGateway(_FnProvider(lambda i: time.sleep(0.005 * (n - i))))
        results = ask_in_order(gateway, [_wave_spec(i) for i in range(n)])
        assert results == [BestLabels(ids=(f"d{i}",)) for i in range(n)]

    def test_first_failure_in_spec_order_is_raised(self):
        def before(i):
            if i == 2:
                time.sleep(0.05)  # fails after spec 5 has failed
                raise TransportError("fail 2")
            if i == 5:
                raise TransportError("fail 5")

        gateway = LlmGateway(_FnProvider(before), ProviderConfig(max_retries=0))
        with pytest.raises(TransportError, match="fail 2"):
            ask_in_order(gateway, [_wave_spec(i) for i in range(8)])

    def test_no_call_outlives_its_group(self):
        lock = threading.Lock()
        open_calls = 0

        def before(i):
            nonlocal open_calls
            with lock:
                open_calls += 1
            try:
                time.sleep(0.05 if i == 0 else 0.5)
                if i == 0:
                    raise TransportError("fail 0")
            finally:
                with lock:
                    open_calls -= 1

        gateway = LlmGateway(_FnProvider(before), ProviderConfig(max_retries=0))
        with pytest.raises(TransportError, match="fail 0"):
            ask_in_order(gateway, [_wave_spec(i) for i in range(3)])
        assert open_calls == 0

    def test_body_exception_cancels_queued_calls_and_waits_for_started_ones(self):
        width = 2
        lock = threading.Lock()
        started = threading.Semaphore(0)
        open_calls = 0

        def before(i):
            nonlocal open_calls
            with lock:
                open_calls += 1
            started.release()
            time.sleep(0.3)  # still running when the block is left
            with lock:
                open_calls -= 1

        gateway = LlmGateway(_FnProvider(before), ProviderConfig(max_in_flight=width))
        with pytest.raises(RuntimeError, match="body failed"):
            with gateway.group() as calls:
                # The first `width` calls fill the pool; the others stay queued.
                futures = [calls.submit(_wave_spec(i)) for i in range(width + 3)]
                assert all(started.acquire(timeout=10) for _ in range(width))
                raise RuntimeError("body failed")
        assert open_calls == 0
        assert [future.cancelled() for future in futures] == [False] * width + [True] * 3
        gw._call_pool(width).submit(lambda: None).result(timeout=10)  # the queue is worked off
        assert gateway.provider.calls == width

    def test_two_groups_on_one_gateway_do_not_share_a_latch(self):
        sent = []

        def before(i):
            sent.append(i)
            if i == 0:
                raise AuthError("HTTP 401")

        gateway = LlmGateway(_FnProvider(before))
        with gateway.group() as first, gateway.group() as second:
            with pytest.raises(AuthError):
                first.submit(_wave_spec(0)).result(timeout=10)
            with pytest.raises(AuthError):  # latched: sends no request
                first.submit(_wave_spec(1)).result(timeout=10)
            assert second.submit(_wave_spec(1)).result(timeout=10) == BestLabels(ids=("d1",))
        assert sent == [0, 1]

    def test_submit_runs_on_the_call_pool(self):
        threads = []
        gateway = LlmGateway(_FnProvider(lambda i: threads.append(threading.current_thread())))
        with gateway.group() as calls:
            assert calls.submit(_wave_spec(3)).result(timeout=10) == BestLabels(ids=("d3",))
        assert threads[0].name.startswith("taxocat-call")

    def test_pooled_calls_go_through_the_class_attribute(self, monkeypatch):
        """A wrapper set on LlmGateway after the group is made (as the
        benchmark's tracer sets one) sees every pooled call."""
        seen = []
        call_with_retry = LlmGateway.call_with_retry

        def wrapped(self, spec):
            seen.append(_doc_index(spec))
            return call_with_retry(self, spec)

        gateway = LlmGateway(_FnProvider())
        with gateway.group() as calls:
            monkeypatch.setattr(LlmGateway, "call_with_retry", wrapped)
            calls.submit(_wave_spec(4)).result(timeout=10)
        assert seen == [4]

    def test_calls_really_overlap(self):
        barrier = threading.Barrier(2, timeout=10)
        gateway = LlmGateway(_FnProvider(lambda i: barrier.wait()))
        assert len(ask_in_order(gateway, [_wave_spec(0), _wave_spec(1)])) == 2

    def test_in_flight_calls_bounded_across_concurrent_callers(self):
        lock = threading.Lock()
        open_calls = peak = 0

        def before(i):
            nonlocal open_calls, peak
            with lock:
                open_calls += 1
                peak = max(peak, open_calls)
            time.sleep(0.002)
            with lock:
                open_calls -= 1

        gateway = LlmGateway(_FnProvider(before))
        width = gateway.config.max_in_flight
        results = []
        callers = [
            threading.Thread(target=lambda: results.append(
                ask_in_order(gateway, [_wave_spec(i) for i in range(3 * width)])))
            for _ in range(3)
        ]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=30)
            assert not caller.is_alive()
        assert len(results) == 3
        assert 1 < peak <= width

    def test_fail_fast_error_stops_calls_not_yet_started(self):
        def before(i):
            raise AuthError("HTTP 401")

        gateway = LlmGateway(_FnProvider(before))
        width = gateway.config.max_in_flight
        with pytest.raises(AuthError):
            ask_in_order(gateway, [_wave_spec(i) for i in range(4 * width)])
        assert 1 <= gateway.provider.calls <= width

    def test_counters_add_up_under_fast_thread_switching(self):
        specs = [doc_spec(TemplateId.TRAV_SELECT, make_doc(f"d{i}", "auction design"),
                          [{"id": "a", "name": "auction design"}])
                 for i in range(200)]
        sequential = mock_gateway()
        for spec in specs:
            sequential.call_with_retry(spec)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            concurrent = mock_gateway()
            ask_in_order(concurrent, specs)
        finally:
            sys.setswitchinterval(interval)
        assert (concurrent.calls_made, concurrent.characters_out, concurrent.characters_in) == (
            sequential.calls_made, sequential.characters_out, sequential.characters_in)


def _fake_libc(calls: list, fail: type[Exception] | None = None):
    """A stand-in for ctypes.CDLL whose mallopt records its arguments. With
    `fail` OSError the library does not load; with AttributeError it has no mallopt."""

    class Mallopt:
        def __call__(self, param, value):
            calls.append((param, value))
            return 1

    class Libc:
        def __init__(self, name):
            if fail is OSError:
                raise OSError("cannot load the library")
            if fail is not AttributeError:
                self.mallopt = Mallopt()

    return Libc


class TestCallPools:
    @pytest.fixture
    def no_pools(self, monkeypatch):
        """As in a process that has made no call pool yet."""
        monkeypatch.setattr(gw, "_call_pools", {})

    def test_one_pool_per_width(self):
        assert gw._call_pool(3) is gw._call_pool(3)
        assert gw._call_pool(3).width == 3
        assert gw._call_pool(4) is not gw._call_pool(3)

    @staticmethod
    def _held(pool, release: threading.Event):
        """A call that keeps the pool's one thread busy until `release` is set."""
        return pool.submit(release.wait, 10)

    def test_an_older_groups_calls_start_first(self, no_pools):
        started = []
        gateway = LlmGateway(_FnProvider(started.append), ProviderConfig(max_in_flight=1))
        release = threading.Event()
        self._held(gw._call_pool(1), release)
        with gateway.group() as older, gateway.group() as newer:
            calls = [older.submit(_wave_spec(0)), newer.submit(_wave_spec(1)),
                     newer.submit(_wave_spec(2)),
                     older.submit(_wave_spec(3))]  # queued after the newer group's calls
            release.set()
            wait(calls, timeout=10)
        assert started == [0, 3, 1, 2]

    def test_a_call_outside_any_group_starts_after_the_older_groups(self, no_pools):
        started = []
        gateway = LlmGateway(_FnProvider(started.append), ProviderConfig(max_in_flight=1))
        pool = gw._call_pool(1)
        release = threading.Event()
        self._held(pool, release)
        with gateway.group() as older:
            older.submit(_wave_spec(0))
            outside = pool.submit(started.append, "outside")
            with gateway.group() as newer:
                calls = [newer.submit(_wave_spec(1)), older.submit(_wave_spec(2))]
                release.set()
                wait([outside, *calls], timeout=10)
        assert started == [0, 2, "outside", 1]

    def test_a_call_raising_keyboard_interrupt_keeps_the_width(self):
        pool = gw.CallPool(2)

        def interrupted():
            raise KeyboardInterrupt

        assert isinstance(pool.submit(interrupted).exception(timeout=10), KeyboardInterrupt)
        barrier = threading.Barrier(2, timeout=10)  # broken unless both threads serve
        assert sorted(f.result(timeout=10)
                      for f in [pool.submit(barrier.wait) for _ in range(2)]) == [0, 1]

    def test_sequential_calls_start_one_thread(self):
        pool = gw.CallPool(4)
        threads = {pool.submit(threading.current_thread).result(timeout=10) for _ in range(20)}
        assert len(threads) == 1
        assert threads.pop().name == "taxocat-call-1"

    def test_threads_stay_within_the_width_under_fast_thread_switching(self):
        pool = gw.CallPool(3)
        results = []

        def submitter(k):
            futures = [pool.submit(lambda i: (i, threading.current_thread()), 100 * k + i)
                       for i in range(100)]
            results.extend(f.result(timeout=30) for f in futures)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            submitters = [threading.Thread(target=submitter, args=(k,)) for k in range(4)]
            for thread in submitters:
                thread.start()
            for thread in submitters:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert sorted(i for i, _ in results) == list(range(400))
        assert len({thread for _, thread in results}) <= 3

    def test_gateways_of_one_width_share_its_bound(self):
        lock = threading.Lock()
        open_calls = peak = 0

        def before(i):
            nonlocal open_calls, peak
            with lock:
                open_calls += 1
                peak = max(peak, open_calls)
            time.sleep(0.002)
            with lock:
                open_calls -= 1

        gateways = [LlmGateway(_FnProvider(before), ProviderConfig(max_in_flight=3))
                    for _ in range(2)]
        callers = [threading.Thread(target=ask_in_order,
                                    args=(g, [_wave_spec(i) for i in range(12)]))
                   for g in gateways]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=30)
            assert not caller.is_alive()
        assert [g.calls_made for g in gateways] == [12, 12]
        assert 1 < peak <= 3

    def test_arena_cap_applied_once_when_the_first_pool_is_made(self, no_pools, monkeypatch):
        calls: list = []
        monkeypatch.setattr(gw.ctypes, "CDLL", _fake_libc(calls))
        monkeypatch.setattr(gw.os, "confstr", lambda name: "glibc 2.36")
        assert calls == []
        gw._call_pool(3)
        gw._call_pool(5)
        gw._call_pool(3)
        assert calls == [(gw.M_ARENA_MAX, gw.MALLOC_ARENAS)] == [(-8, 2)]

    @pytest.mark.parametrize("libc", ["musl", None, ValueError])
    def test_arena_cap_skipped_off_glibc(self, no_pools, monkeypatch, libc):
        def confstr(name):
            if libc is ValueError:
                raise ValueError("unrecognized configuration name")
            return libc

        calls: list = []
        monkeypatch.setattr(gw.ctypes, "CDLL", _fake_libc(calls))
        monkeypatch.setattr(gw.os, "confstr", confstr)
        assert gw._call_pool(3).width == 3
        assert calls == []

    @pytest.mark.parametrize("fail", [OSError, AttributeError])
    def test_arena_cap_never_raises(self, no_pools, monkeypatch, fail):
        monkeypatch.setattr(gw.ctypes, "CDLL", _fake_libc([], fail))
        monkeypatch.setattr(gw.os, "confstr", lambda name: "glibc 2.36")
        gateway = LlmGateway(_FnProvider(), ProviderConfig(max_in_flight=3))
        assert ask_in_order(gateway, [_wave_spec(1)]) == [BestLabels(ids=("d1",))]
