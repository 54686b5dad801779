"""The shared NDJSON codec and the files built on it: round trips, line
errors, and errors raised while producing or writing records."""
from __future__ import annotations

import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxocat import ndjson
from taxocat.retrieval import EmbeddingStore
from taxocat.taxonomy import Taxonomy, TaxonomyNode, load_taxonomy, save_taxonomy

# Text with non-ASCII letters and the characters a line format must escape.
TRICKY = st.text(alphabet=st.sampled_from(list('aZ9 éß漢€|"\'\\\n\t{}')), max_size=12)
# The same without whitespace, which a node id may not hold.
TRICKY_ID = st.text(alphabet=st.sampled_from(list('aZ9éß漢€|"\'\\{}')), min_size=1, max_size=12)


class CodecError(Exception):
    pass


@st.composite
def forests(draw) -> Taxonomy:
    ids = draw(st.lists(TRICKY_ID, min_size=1, max_size=12, unique=True))
    nodes = []
    for i, node_id in enumerate(ids):
        parent = draw(st.none() | st.sampled_from(ids[:i])) if i else None
        nodes.append(TaxonomyNode(
            id=node_id,
            name=draw(TRICKY.filter(str.strip)),
            description=draw(st.none() | TRICKY),
            parent_id=parent,
            acronym_expanded=draw(st.booleans()),
        ))
    return Taxonomy(nodes)


class TestTaxonomyRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(forests())
    def test_save_then_load_returns_equal_nodes(self, taxonomy):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "taxonomy.ndjson"
            save_taxonomy(taxonomy, path)
            assert list(load_taxonomy(path)) == list(taxonomy)
            # One line per node, non-ASCII text written as UTF-8, not escaped.
            text = path.read_text(encoding="utf-8")
            assert len(text.splitlines()) == len(taxonomy)
            assert "\\u" not in text


def _store() -> EmbeddingStore:
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(4, 5))
    return EmbeddingStore("modèle-1", ("b", "a", "nœud", "c"),
                          rows / np.linalg.norm(rows, axis=1, keepdims=True), "wxyz")


class TestEmbeddingCacheRoundTrip:
    def _assert_same(self, loaded: EmbeddingStore, store: EmbeddingStore) -> None:
        assert loaded.model_tag == store.model_tag
        assert (sorted(zip(loaded.ids, loaded.text_hashes))
                == sorted(zip(store.ids, store.text_hashes)))
        for node_id in store.ids:
            assert loaded.get(node_id).values.tobytes() == store.get(node_id).values.tobytes()

    def test_through_a_path(self, tmp_path):
        store = _store()
        store.save(tmp_path / "cache.ndjson")
        self._assert_same(EmbeddingStore.load(tmp_path / "cache.ndjson", "modèle-1"), store)

    def test_ascii_escaped_cache_still_loads(self, tmp_path):
        # Caches used to be written with json.dumps' default ASCII escaping.
        store = _store()
        path = tmp_path / "cache.ndjson"
        with path.open("w", encoding="utf-8") as fh:
            for node_id, text_hash in sorted(zip(store.ids, store.text_hashes)):
                record = {"node_id": node_id, "model_tag": store.model_tag,
                          "text_sha256": text_hash,
                          "vector": [float(x) for x in store.get(node_id).values]}
                fh.write(json.dumps(record) + "\n")
        assert "\\u0153" in path.read_text(encoding="utf-8")
        self._assert_same(EmbeddingStore.load(path, model_tag="modèle-1"), store)


class TestReadRecords:
    def test_blank_lines_skipped_and_counted(self, tmp_path):
        path = tmp_path / "test.ndjson"
        path.write_text('{"a": 1}\n\n   \n{"b": 2}\n', encoding="utf-8")
        assert list(ndjson.read_records(path, CodecError, "test file")) == [
            (1, {"a": 1}), (4, {"b": 2})]

    @pytest.mark.parametrize(("line", "message"), [
        ("{not json", "test file line 2: invalid JSON"),
        ("[1, 2]", "test file line 2: expected a JSON object"),
        ('"text"', "test file line 2: expected a JSON object"),
    ])
    def test_bad_line_names_its_number(self, tmp_path, line, message):
        path = tmp_path / "test.ndjson"
        path.write_text('{}\n' + line + '\n', encoding="utf-8")
        with pytest.raises(CodecError, match=message):
            list(ndjson.read_records(path, CodecError, "test file"))


class TestWriteRecords:
    def test_error_while_producing_a_record_propagates_unchanged(self, tmp_path):
        # requests' exceptions are OSErrors; one raised by a classification is
        # not a failure to write the file.
        failure = OSError("connection reset")

        def records():
            yield {"n": 1}
            raise failure

        path = tmp_path / "out.ndjson"
        with pytest.raises(OSError) as raised:
            ndjson.write_records(path, records(), CodecError, "output")
        assert raised.value is failure
        assert path.read_text(encoding="utf-8") == '{"n": 1}\n'

    def test_unencodable_text_is_a_write_error(self, tmp_path):
        path = tmp_path / "out.ndjson"
        with pytest.raises(CodecError, match="cannot write output .*not valid UTF-8"):
            ndjson.write_records(path, [{"name": "\ud800"}], CodecError, "output")
