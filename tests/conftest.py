"""Shared fixtures for the test suite."""
from __future__ import annotations

import pytest

from taxocat.gateway import mock_gateway
from taxocat.taxonomy import Taxonomy, TaxonomyNode

from .util import ternary_taxonomy


@pytest.fixture
def tiny_taxonomy() -> Taxonomy:
    """Smallest forest: one root with two leaf children."""
    return Taxonomy(
        [
            TaxonomyNode(id="A", name="Alpha"),
            TaxonomyNode(id="B", name="Beta", parent_id="A"),
            TaxonomyNode(id="C", name="Gamma", parent_id="A"),
        ]
    )


@pytest.fixture
def ternary() -> Taxonomy:
    return ternary_taxonomy()


@pytest.fixture
def mock_gw():
    return mock_gateway()
