"""Taxonomy loading, validation, statistics, traversal, and enrichment."""
from __future__ import annotations

import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxocat.gateway import (
    LlmGateway,
    MockProvider,
    ProviderConfig,
    TransportError,
    generate_descriptions,
    node_payload,
    render_user_text,
)
from taxocat.taxonomy import (
    AcronymMap,
    DescriptionError,
    Taxonomy,
    TaxonomyIntegrityError,
    TaxonomyNode,
    TaxonomyParseError,
    description_exemplars,
    expand_acronyms,
    hierarchy_stats,
    load_acronym_map,
    load_taxonomy,
    save_taxonomy,
    suggest_acronyms,
)

from taxocat.retrieval import node_text

from .util import random_forest, recording_mock_gateway


def _load(tmp_path, text: str) -> Taxonomy:
    path = tmp_path / "taxonomy.ndjson"
    path.write_text(text, encoding="utf-8")
    return load_taxonomy(path)


def _parent_ids(tax: Taxonomy) -> tuple[str, ...]:
    return tuple(sorted(node.id for node in tax if tax.children(node.id)))


class TestLoading:
    def test_smallest_forest(self, tmp_path):
        tax = _load(
            tmp_path,
            '{"id": "A", "name": "Alpha"}\n'
            '{"id": "B", "name": "Beta", "parent_id": "A"}\n'
            '{"id": "C", "name": "Gamma", "parent_id": "A"}\n'
        )
        assert tax.roots == ("A",)
        assert tax.leaf_ids() == ("B", "C")
        assert _parent_ids(tax) == ("A",)

    def test_with_nodes_has_its_own_leaf_tuple(self, tmp_path):
        tax = _load(
            tmp_path,
            '{"id": "A", "name": "Alpha"}\n'
            '{"id": "B", "name": "Beta", "parent_id": "A"}\n'
            '{"id": "C", "name": "Gamma", "parent_id": "A"}\n'
        )
        moved = tax.with_nodes([TaxonomyNode(id="C", name="Gamma", parent_id="B")])
        assert moved.leaf_ids() == ("C",)
        assert _parent_ids(moved) == ("A", "B")
        assert tax.leaf_ids() == ("B", "C")
        assert _parent_ids(tax) == ("A",)

    def test_cycle_rejected(self, tmp_path):
        with pytest.raises(TaxonomyIntegrityError, match="cycle"):
            _load(
                tmp_path,
                '{"id": "X", "name": "Ex", "parent_id": "Y"}\n'
                '{"id": "Y", "name": "Why", "parent_id": "X"}\n'
            )

    def test_self_cycle_rejected(self, tmp_path):
        with pytest.raises(TaxonomyIntegrityError, match="cycle.*Z"):
            _load(tmp_path, '{"id": "Z", "name": "Zed", "parent_id": "Z"}\n')

    def test_duplicate_id_rejected(self, tmp_path):
        with pytest.raises(TaxonomyIntegrityError, match="duplicate"):
            _load(tmp_path, '{"id": "A", "name": "One"}\n{"id": "A", "name": "Two"}\n')

    def test_dangling_parent_rejected(self, tmp_path):
        with pytest.raises(TaxonomyIntegrityError, match="missing parent.*nope"):
            _load(tmp_path, '{"id": "A", "name": "One", "parent_id": "nope"}\n')

    def test_malformed_line_reports_position(self, tmp_path):
        with pytest.raises(TaxonomyParseError, match="line 2"):
            _load(tmp_path, '{"id": "A", "name": "One"}\nnot json\n')

    def test_blank_name_rejected(self, tmp_path):
        with pytest.raises(TaxonomyParseError, match="name"):
            _load(tmp_path, '{"id": "A", "name": "   "}\n')

    def test_missing_field_rejected(self, tmp_path):
        with pytest.raises(TaxonomyParseError, match="missing field"):
            _load(tmp_path, '{"id": "A"}\n')

    @pytest.mark.parametrize("value", ['"false"', '"true"', "0", "1", "0.0", "null", "[]"])
    def test_non_boolean_acronym_expanded_rejected(self, tmp_path, value):
        with pytest.raises(TaxonomyParseError,
                           match="line 1: 'acronym_expanded' must be true or false"):
            _load(tmp_path, '{"id": "A", "name": "A", "acronym_expanded": %s}\n' % value)

    def test_boolean_acronym_expanded_loads(self, tmp_path):
        tax = _load(tmp_path, '{"id": "A", "name": "A", "acronym_expanded": false}\n'
                    '{"id": "B", "name": "B", "acronym_expanded": true}\n')
        assert not tax.node("A").acronym_expanded
        assert tax.node("B").acronym_expanded
        out = expand_acronyms(tax, AcronymMap({"A": "Alpha", "B": "Beta"}))
        assert out.node("A").name == "Alpha"
        assert out.node("B").name == "B"

    def test_round_trip_identical(self, tmp_path):
        tax = _load(
            tmp_path,
            '{"id": "A", "name": "Alpha", "description": "top level"}\n'
            '{"id": "B", "name": "Beta", "parent_id": "A", "acronym_expanded": true}\n'
            '{"id": "C", "name": "Gamma", "parent_id": "A"}\n'
        )
        first, second = tmp_path / "first.ndjson", tmp_path / "second.ndjson"
        save_taxonomy(tax, first)
        reloaded = load_taxonomy(first)
        assert {n.id: n for n in tax} == {n.id: n for n in reloaded}

        save_taxonomy(reloaded, second)
        assert first.read_bytes() == second.read_bytes()


class TestHierarchyStats:
    def test_single_parent_three_leaves(self):
        tax = Taxonomy(
            [TaxonomyNode(id="r", name="root")]
            + [TaxonomyNode(id=f"l{i}", name=f"leaf {i}", parent_id="r") for i in range(3)]
        )
        stats = hierarchy_stats(tax)
        assert stats.leaf_count == 3
        assert stats.parent_count == 1
        assert stats.avg_children == 3.0
        assert stats.max_children == 3
        assert stats.max_leaf_depth == 2
        assert stats.avg_leaf_depth == 2.0

    def test_balanced_ternary_tree(self):
        # Brute-force oracle: enumerate the 13 nodes and walk parent chains.
        nodes = [TaxonomyNode(id="r", name="root")]
        for i in range(3):
            nodes.append(TaxonomyNode(id=f"m{i}", name=f"mid {i}", parent_id="r"))
            for j in range(3):
                nodes.append(TaxonomyNode(id=f"m{i}l{j}", name=f"leaf {i}{j}", parent_id=f"m{i}"))
        by_id = {n.id: n for n in nodes}
        children_count = {}
        for n in nodes:
            if n.parent_id:
                children_count[n.parent_id] = children_count.get(n.parent_id, 0) + 1
        leaf_depths = []
        for n in nodes:
            if n.id in children_count:
                continue
            depth, cur = 1, n
            while cur.parent_id is not None:
                depth += 1
                cur = by_id[cur.parent_id]
            leaf_depths.append(depth)
        assert len(leaf_depths) == 9 and sum(leaf_depths) / 9 == 3.0

        stats = hierarchy_stats(Taxonomy(nodes))
        assert stats.leaf_count == 9
        assert stats.avg_leaf_depth == 3.0
        assert stats.parent_count == 4
        assert stats.avg_children == sum(children_count.values()) / len(children_count)

    def test_empty_taxonomy(self):
        stats = hierarchy_stats(Taxonomy([]))
        assert stats.leaf_count == 0 and stats.parent_count == 0
        assert stats.avg_children == 0.0 and stats.max_leaf_depth == 0

    @given(st.integers(min_value=1, max_value=300), st.integers())
    @settings(max_examples=50, deadline=None)
    def test_leaf_plus_parent_equals_total(self, n_nodes, seed):
        tax = random_forest(random.Random(seed), n_nodes)
        stats = hierarchy_stats(tax)
        assert stats.leaf_count + stats.parent_count == len(tax)
        if stats.parent_count:
            assert 1 <= stats.avg_children <= stats.max_children
        assert 1 <= stats.avg_leaf_depth <= stats.max_leaf_depth

    @pytest.mark.parametrize("max_depth", [1, 2, 3])
    def test_random_forest_keeps_its_max_depth(self, max_depth):
        for seed in range(20):
            tax = random_forest(random.Random(seed), 30, max_depth=max_depth)
            assert len(tax) == 30
            assert all(1 <= tax.depth(node.id) <= max_depth for node in tax)

    def test_counts_partition_at_ten_thousand_nodes(self):
        tax = random_forest(random.Random(10_000), 10_000)
        stats = hierarchy_stats(tax)
        assert stats.leaf_count + stats.parent_count == 10_000
        assert stats.max_leaf_depth <= 9


class TestPathToRoot:
    def test_root_is_fixed_point(self, tiny_taxonomy):
        assert tiny_taxonomy.path_to_root("A") == ["A"]

    def test_leaf_depth_four(self):
        nodes = [TaxonomyNode(id="n1", name="one")]
        for i in range(2, 5):
            nodes.append(TaxonomyNode(id=f"n{i}", name=f"node {i}", parent_id=f"n{i-1}"))
        tax = Taxonomy(nodes)
        assert len(tax.path_to_root("n4")) == 4

    def test_unknown_node(self, tiny_taxonomy):
        with pytest.raises(KeyError):
            tiny_taxonomy.path_to_root("missing")

    def test_every_leaf_in_random_forest(self):
        # Independent parent-chain walker oracle against path_to_root.
        tax = random_forest(random.Random(42), 1000)
        by_id = {n.id: n for n in tax}
        for leaf_id in tax.leaf_ids():
            path = tax.path_to_root(leaf_id)
            assert path[0] == leaf_id
            for step, node_id in enumerate(path[:-1]):
                assert by_id[node_id].parent_id == path[step + 1]
            assert by_id[path[-1]].parent_id is None
            assert len(path) == tax.depth(leaf_id)

    def test_path_length_equals_depth_for_all_nodes(self):
        tax = random_forest(random.Random(7), 500)
        for node in tax:
            assert len(tax.path_to_root(node.id)) == tax.depth(node.id)


class TestExpandAcronyms:
    def test_network_prefix_expansion(self):
        tax = Taxonomy(
            [
                TaxonomyNode(id="p", name="Food Science Research Network"),
                TaxonomyNode(id="c", name="FoodSciRN Conferences & Meetings", parent_id="p"),
            ]
        )
        out = expand_acronyms(tax, AcronymMap({"FoodSciRN": "Food Science Research Network"}))
        assert out.node("c").name == "Food Science Research Network Conferences & Meetings"
        assert out.node("c").acronym_expanded
        assert not out.node("p").acronym_expanded

    def test_subject_matter_expansion(self):
        tax = Taxonomy([TaxonomyNode(id="x", name="OPER Subject Matter eJournals")])
        out = expand_acronyms(tax, AcronymMap({"OPER": "Operations Research Network"}))
        assert out.node("x").name == "Operations Research Network Subject Matter eJournals"

    def test_empty_map_is_identity(self, tiny_taxonomy):
        assert expand_acronyms(tiny_taxonomy, AcronymMap({})) is tiny_taxonomy

    def test_idempotent(self):
        tax = Taxonomy([TaxonomyNode(id="x", name="ABC topics in AB research")])
        mapping = AcronymMap({"ABC": "Alpha Beta Consortium", "AB": "Alpha Beta"})
        once = expand_acronyms(tax, mapping)
        twice = expand_acronyms(once, mapping)
        assert once.node("x").name == "Alpha Beta Consortium topics in Alpha Beta research"
        assert {n.id: n for n in once} == {n.id: n for n in twice}

    def test_whole_token_only(self):
        tax = Taxonomy([TaxonomyNode(id="x", name="SCAB and SCA topics")])
        out = expand_acronyms(tax, AcronymMap({"SCA": "Supply Chain Analytics"}))
        assert out.node("x").name == "SCAB and Supply Chain Analytics topics"

    def test_keys_that_begin_or_end_with_punctuation(self):
        tax = Taxonomy([
            TaxonomyNode(id="a", name="U.S. Law"),
            TaxonomyNode(id="b", name="C++ Tools"),
            TaxonomyNode(id="c", name="AI Ethics"),
            TaxonomyNode(id="d", name="MAIL and U.S.A. and C++x"),
        ])
        mapping = AcronymMap({"U.S.": "United States", "C++": "C plus plus",
                              "AI": "Artificial Intelligence"})
        out = expand_acronyms(tax, mapping)
        assert [out.node(nid).name for nid in "abcd"] == [
            "United States Law", "C plus plus Tools", "Artificial Intelligence Ethics",
            "MAIL and U.S.A. and C++x"]

    def test_structure_preserved(self):
        tax = random_forest(random.Random(3), 200)
        out = expand_acronyms(tax, AcronymMap({"markets": "open markets"}))
        assert len(out) == len(tax)
        for node in tax:
            assert out.node(node.id).parent_id == node.parent_id

    def test_map_validation(self, tmp_path):
        with pytest.raises(TaxonomyParseError):
            AcronymMap({"OK": "  "})
        with pytest.raises(TaxonomyParseError):
            AcronymMap({"two words": "nope"})
        path = tmp_path / "acronyms.json"
        path.write_text('{"A": "one", "A": "two"}', encoding="utf-8")
        with pytest.raises(TaxonomyParseError, match="acronym map key 'A' is repeated"):
            load_acronym_map(path)

    def test_suggestions_flag_initialisms(self):
        tax = Taxonomy(
            [
                TaxonomyNode(id="p", name="Food Science Research Network"),
                TaxonomyNode(id="c", name="FSRN Conferences", parent_id="p"),
                TaxonomyNode(id="d", name="Misc Topics", parent_id="p"),
            ]
        )
        assert suggest_acronyms(tax) == {"FSRN": "Food Science Research Network"}


class TestGenerateDescription:
    def _taxonomy(self):
        return Taxonomy(
            [
                TaxonomyNode(id="p", name="Game Theory", description="Strategic interaction"),
                TaxonomyNode(id="c", name="Auction Design", parent_id="p"),
                TaxonomyNode(id="e", name="Bargaining Theory", parent_id="p",
                             description="Negotiation models and outcomes"),
            ]
        )

    def test_prompt_carries_label_parent_and_exemplar(self):
        tax = self._taxonomy()
        gateway = recording_mock_gateway()
        generate_descriptions(tax, {"c": "e"}, gateway)
        payload = gateway.provider.calls[0].user_payload
        assert payload == {"nodes": [node_payload(tax.node(i)) for i in ("c", "p", "e")]}
        assert [node["name"] for node in payload["nodes"]] == [
            "Auction Design", "Game Theory", "Bargaining Theory"]
        assert payload["nodes"][1]["description"] == "Strategic interaction"

    def test_top_level_node_omits_parent_fields(self):
        tax = Taxonomy(
            [
                TaxonomyNode(id="r", name="Ecology"),
                TaxonomyNode(id="e", name="Biology", description="Living systems"),
            ]
        )
        gateway = recording_mock_gateway()
        text = generate_descriptions(tax, {"r": "e"}, gateway)["r"]
        assert text
        payload = gateway.provider.calls[0].user_payload
        assert payload == {"nodes": [node_payload(tax.node(i)) for i in ("r", "e")]}
        assert render_user_text(gateway.provider.calls[0]).split("\n") == [
            "Label Name: Ecology",
            'Example: the label "Biology" is described as: Living systems']

    def test_prompt_nodes_are_shaped_like_every_other_prompt(self):
        tax = Taxonomy(
            [
                TaxonomyNode(id="p", name="Game\tTheory",
                             description=" ".join(f"w{i}" for i in range(90))),
                TaxonomyNode(id="c", name="Auction\ntheory", parent_id="p"),
                TaxonomyNode(id="e", name="Bargaining  Theory", parent_id="p",
                             description="Negotiation\nmodels"),
            ]
        )
        gateway = recording_mock_gateway()
        generate_descriptions(tax, {"c": "e"}, gateway)
        lines = render_user_text(gateway.provider.calls[0]).split("\n")
        assert lines[:2] == ["Label Name: Auction theory", "Parent Name: Game Theory"]
        assert lines[2] == "Parent Description: " + " ".join(f"w{i}" for i in range(60))
        assert lines[3:] == [
            'Example: the label "Bargaining Theory" is described as: Negotiation models']

    def test_mock_description_contains_node_name(self, mock_gw):
        text = generate_descriptions(self._taxonomy(), {"c": "e"}, mock_gw)["c"]
        assert "Auction Design" in text

    def test_preconditions(self, mock_gw):
        tax = self._taxonomy()
        with pytest.raises(ValueError, match="already has"):
            generate_descriptions(tax, {"p": "e"}, mock_gw)
        with pytest.raises(ValueError, match="no description"):
            generate_descriptions(tax, {"c": "c"}, mock_gw)

    @staticmethod
    def _wide_taxonomy(n: int) -> Taxonomy:
        """One described root over `n` undescribed children c00, c01, ..."""
        return Taxonomy([TaxonomyNode(id="r", name="Economics", description="The economy"),
                         *(TaxonomyNode(id=f"c{i:02d}", name=f"Topic {i}", parent_id="r")
                           for i in range(n))])

    def test_descriptions_are_asked_at_once(self):
        class SlowMock(MockProvider):
            def complete(self, spec, reminder=None):
                time.sleep(0.05)
                return super().complete(spec, reminder)

        n = 20
        tax = self._wide_taxonomy(n)
        exemplars = {f"c{i:02d}": "r" for i in range(n)}
        start = time.perf_counter()
        texts = generate_descriptions(tax, exemplars, LlmGateway(SlowMock(), ProviderConfig()))
        elapsed = time.perf_counter() - start
        assert texts == generate_descriptions(tax, exemplars, LlmGateway(MockProvider()))
        assert list(texts) == sorted(exemplars)
        assert elapsed < n * 0.05 / 4

    def test_failure_of_the_first_node_in_id_order_is_raised(self):
        class FailingMock(MockProvider):
            """Fails the 7th node at once and the 3rd after 50 ms; replies empty to the 5th."""

            def complete(self, spec, reminder=None):
                label = spec.user_payload["nodes"][0]["name"]
                if label == "Topic 6":
                    raise TransportError("7th failed")
                if label == "Topic 2":
                    time.sleep(0.05)
                    raise TransportError("3rd failed")
                if label == "Topic 4":
                    return '{"description": ""}'
                return super().complete(spec, reminder)

        tax = self._wide_taxonomy(10)
        exemplars = {f"c{i:02d}": "r" for i in range(10)}
        gateway = LlmGateway(FailingMock(), ProviderConfig(max_retries=0))
        with pytest.raises(TransportError, match="3rd failed"):
            generate_descriptions(tax, exemplars, gateway)
        del exemplars["c02"]
        with pytest.raises(DescriptionError, match="'c04'"):
            generate_descriptions(tax, exemplars, gateway)


class TestDescriptionExemplars:
    @staticmethod
    def nearest_described(tax, node_id):
        """The rule `taxonomy describe` used to apply per node: a scan of every described node."""
        depth = tax.depth(node_id)
        described = [n for n in tax if n.description]
        return min(described, key=lambda n: (abs(tax.depth(n.id) - depth), n.id)).id

    def test_matches_nearest_depth_scan_on_random_forests(self):
        rng = random.Random(17)
        for _ in range(40):
            tax = random_forest(rng, rng.randint(1, 300), max_depth=rng.randint(2, 9))
            missing = sorted(n.id for n in tax if not n.description)
            exemplars = description_exemplars(tax)
            if not any(n.description for n in tax):
                assert exemplars == {}
                continue
            assert list(exemplars) == missing
            assert exemplars == {nid: self.nearest_described(tax, nid) for nid in missing}

    def test_equal_distance_above_and_below_picks_the_lower_id(self):
        tax = Taxonomy([
            TaxonomyNode(id="z", name="Top", description="top"),
            TaxonomyNode(id="m", name="Middle", parent_id="z"),
            TaxonomyNode(id="a", name="Bottom", parent_id="m", description="bottom"),
        ])
        assert description_exemplars(tax) == {"m": "a"}

    @pytest.mark.parametrize("blank", ["", "  \n ", "\t"], ids=["empty", "newline", "tab"])
    def test_a_blank_description_is_read_as_absent(self, tmp_path, blank):
        tax = _load(tmp_path, json.dumps({"id": "r", "name": "Biology", "description": blank})
                    + '\n{"id": "e", "name": "Ecology", "parent_id": "r"}\n'
                    '{"id": "g", "name": "Genetics", "parent_id": "r", "description": "genes"}\n')
        assert tax.node("r").description is None
        assert description_exemplars(tax) == {"e": "g", "r": "g"}  # r drafted, never an exemplar
        assert node_text(tax.node("r")) == "Biology"
