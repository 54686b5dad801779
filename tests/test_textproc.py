"""Text kernels: tokenization, Jaccard overlap, hash-bag rows and the mock's
one-pass reply, each against a regex- or union-based reference."""
from __future__ import annotations

import hashlib
import json
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taxocat.gateway import DEFAULT_OVERLAP_THRESHOLD, TemplateId, doc_spec, mock_complete
from taxocat.retrieval import HashBagEmbedder
from taxocat.textproc import jaccard, tokenize

from .util import VOCAB, o_jaccard, o_tokens, vocab_doc

_REGEX_TOKEN = re.compile(r"[a-z0-9]+")


def regex_tokens(text: str) -> list[str]:
    return _REGEX_TOKEN.findall(text.lower())


NAMED_TEXTS = {
    "dotted capital I, which lowers to two code points": "\u0130stanbul \u0130\u0130 x\u0130y",
    "Kelvin sign, which lowers to ASCII k": "\u212aelvin 5\u212a",
    "lone surrogate": "ab\ud800cd \ud800",
    "NUL": "left\x00right",
    "no-break space": "left\xa0right",
    "full-width digits": "\uff11\uff12 and 12",
    "emoji between letters": "ab\U0001f600cd",
    "empty string": "",
}


class TestTokenize:
    @pytest.mark.parametrize("text", NAMED_TEXTS.values(), ids=NAMED_TEXTS.keys())
    def test_named_cases_match_regex(self, text):
        assert tokenize(text) == regex_tokens(text)

    @given(st.text())
    @settings(max_examples=500)
    def test_matches_regex_in_order_with_repeats(self, text):
        assert tokenize(text) == regex_tokens(text)

    @given(st.lists(st.sampled_from(
        ["ab", "1", "\u0130", "\u212a", " ", "-", "\u00e9", "\x00", "Z9"]), max_size=20))
    def test_matches_regex_on_tricky_alphabet(self, parts):
        text = "".join(parts)
        assert tokenize(text) == regex_tokens(text)


token_sets = st.sets(st.sampled_from(VOCAB), max_size=len(VOCAB))


class TestJaccard:
    def test_two_empty_sets(self):
        assert jaccard(frozenset(), frozenset()) == o_jaccard(set(), set()) == 0.0

    @given(token_sets, token_sets)
    @settings(max_examples=300)
    def test_equals_union_form(self, a, b):
        assert jaccard(frozenset(a), frozenset(b)) == o_jaccard(a, b)


def regex_row(text: str, dim: int) -> np.ndarray:
    """A hash-bag row built independently from the regex tokens."""
    row = np.zeros(dim)
    tokens = regex_tokens(text)
    if not tokens:
        row[0] = 1.0
    for token in tokens:
        row[int.from_bytes(hashlib.sha1(token.encode("utf-8")).digest()[:4], "big") % dim] += 1.0
    return row


class TestHashBagRows:
    def test_named_cases_bit_identical(self):
        texts = list(NAMED_TEXTS.values())
        matrix = HashBagEmbedder(dim=64).embed_many(texts)
        for row, text in zip(matrix, texts):
            assert row.tobytes() == regex_row(text, 64).tobytes()

    @given(st.lists(st.text(), min_size=1, max_size=6))
    @settings(max_examples=200)
    def test_rows_bit_identical_to_regex_rows(self, texts):
        matrix = HashBagEmbedder(dim=32).embed_many(texts)
        for row, text in zip(matrix, texts):
            assert row.tobytes() == regex_row(text, 32).tobytes()

    @given(st.lists(st.lists(st.sampled_from(["bid", "BID", "\u00e9t\u00e9", "x1", "", "\n"]),
                             max_size=500).map(" ".join), min_size=1, max_size=4))
    @example(["", "bid " * 1000, "\u00e9t\u00e9 \u00e9t\u00e9 \u212a \u212a"])
    @settings(max_examples=100)
    def test_repeated_tokens_bit_identical_to_regex_rows(self, texts):
        matrix = HashBagEmbedder(dim=16).embed_many(texts)
        for row, text in zip(matrix, texts):
            assert row.tobytes() == regex_row(text, 16).tobytes()


def all_node_one_pass(spec, threshold: float) -> str:
    """The one-pass reply as the mock computed it over every node of the tree."""
    document = spec.user_payload["document"]
    nodes = spec.user_payload["nodes"]
    doc_tokens = o_tokens("\n".join([document["title"], *document["keywords"],
                                     document["abstract"]]))

    def node_tokens(node):
        text = f"{node['name']}: {node['description']}" if node["description"] else node["name"]
        return o_tokens(text)

    overlap_of = dict((node["id"], o_jaccard(doc_tokens, node_tokens(node))) for node in nodes)
    chosen = [n["id"] for n in nodes if n.get("is_leaf") and overlap_of[n["id"]] >= threshold]
    return json.dumps({"best_labels": chosen})


class TestMockOnePass:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40),
           st.sampled_from([DEFAULT_OVERLAP_THRESHOLD, 0.05, 0.1, 0.34]))
    @settings(max_examples=300)
    def test_leaf_only_reply_equals_all_node_reply(self, seed, n_nodes, threshold):
        rng = random.Random(seed)
        nodes = []
        for i in range(n_nodes):
            name = " ".join(rng.choice(VOCAB) for _ in range(rng.randint(1, 3)))
            description = (" ".join(rng.choice(VOCAB) for _ in range(rng.randint(1, 4)))
                           if rng.random() < 0.6 else None)
            nodes.append({"id": f"n{i}", "name": name, "description": description,
                          "depth": rng.randint(0, 3), "is_leaf": rng.random() < 0.5})
        doc = vocab_doc(rng, f"d{seed}")
        spec = doc_spec(TemplateId.SELECT_ONE_PASS, doc, nodes)
        assert mock_complete(spec, threshold) == all_node_one_pass(spec, threshold)
