"""Every source file parses under the oldest Python that pyproject.toml accepts.

The tests run on a newer interpreter, which would accept syntax the floor
rejects. `ast.parse`'s `feature_version` check is best effort: it catches
grammar added after the floor, not library calls.
"""
from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FLOOR = tuple(int(part) for part in re.search(
    r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text()).groups())
SOURCES = sorted(path for folder in ("src", "tests", "perfbench")
                 for path in (ROOT / folder).rglob("*.py"))


def test_floor_is_3_10():
    assert FLOOR == (3, 10)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)
