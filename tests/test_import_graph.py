"""Who may import what: only the command line imports `taxocat.cli`, only the
gateway imports `requests`, and the taxonomy does not import the gateway.

Every module under src/taxocat/ is parsed, and each import is resolved to
the absolute module names it can bind. Imports under `TYPE_CHECKING` and
inside functions count.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "taxocat"
CLI = "taxocat.cli"


def imported_names(source: str, package: list[str]) -> list[tuple[int, str]]:
    """(line, absolute name) for every module or module attribute `source`
    imports, read as a module of `package`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            found.append((node.lineno, module))
            found += [(node.lineno, f"{module}.{alias.name}") for alias in node.names]
    return found


def _is_cli(name: str) -> bool:
    return name == CLI or name.startswith(CLI + ".")


@pytest.mark.parametrize("source", [
    "from .cli import RunConfig", "from . import cli", "import taxocat.cli",
    "from taxocat import cli", "from taxocat.cli import main",
    "if TYPE_CHECKING:\n    from .cli import RunConfig",
])
def test_every_spelling_of_a_cli_import_is_seen(source):
    assert any(_is_cli(name) for _, name in imported_names(source, ["taxocat"]))


def _imports(path: Path) -> list[tuple[int, str]]:
    return imported_names(path.read_text(encoding="utf-8"),
                          ["taxocat", *path.parent.relative_to(PACKAGE).parts])


def test_no_library_module_imports_cli():
    offenders = [
        f"{path.relative_to(PACKAGE.parent)}:{line} imports {name}"
        for path in sorted(PACKAGE.rglob("*.py")) if path.name != "cli.py"
        for line, name in _imports(path)
        if _is_cli(name)
    ]
    assert not offenders


def test_only_the_gateway_imports_requests():
    importers = {
        path.name for path in PACKAGE.rglob("*.py")
        for _, name in _imports(path) if name.split(".")[0] == "requests"
    }
    assert importers == {"gateway.py"}


def test_taxonomy_does_not_import_the_gateway():
    assert not [f"taxonomy.py:{line} imports {name}"
                for line, name in _imports(PACKAGE / "taxonomy.py")
                if name == "taxocat.gateway" or name.startswith("taxocat.gateway.")]
