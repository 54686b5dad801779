"""Who may import what: only the command line imports `taxocat.cli`, only the
gateway imports `requests` or `threading` (the one module with locks), and
the taxonomy does not import the gateway.
Also, no function takes a stream where a file is meant: files are paths.

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


def _importers(module: str) -> set[str]:
    return {path.name for path in PACKAGE.rglob("*.py")
            for _, name in _imports(path) if name.split(".")[0] == module}


def test_only_the_gateway_imports_requests():
    assert _importers("requests") == {"gateway.py"}


def test_only_the_gateway_imports_threading():
    # The batch path ranks and writes in one thread and shares no lock.
    assert _importers("threading") == {"gateway.py"}


def test_taxonomy_does_not_import_the_gateway():
    assert not [f"taxonomy.py:{line} imports {name}"
                for line, name in _imports(PACKAGE / "taxonomy.py")
                if name == "taxocat.gateway" or name.startswith("taxocat.gateway.")]


STREAM_TYPES = {"IO", "TextIO", "BinaryIO", "StringIO"}


def _names(expr: ast.expr) -> set[str]:
    """Every name `expr` spells, reading `a.b` as `b`."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(expr) if isinstance(node, (ast.Name, ast.Attribute))}


def _annotation_names(annotation: ast.expr | None) -> set[str]:
    """The names an annotation spells, quoted or not."""
    if annotation is None:
        return set()
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        annotation = ast.parse(annotation.value, mode="eval").body
    return _names(annotation)


def stream_parameters(sources: dict[str, str]) -> list[str]:
    """A "module:line function(parameter)" entry for every parameter annotated
    with a stream type, directly or through a module-level alias of one."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    streams = set(STREAM_TYPES)
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.Assign) and _names(node.value) & STREAM_TYPES:
                streams |= {target.id for target in node.targets if isinstance(target, ast.Name)}
    return [
        f"{name}:{node.lineno} {node.name}({arg.arg})"
        for name, tree in trees.items()
        for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs,
                    node.args.vararg, node.args.kwarg)
        if arg is not None and _annotation_names(arg.annotation) & streams
    ]


@pytest.mark.parametrize("source", [
    "def load(source: str | Path | IO[str]): ...", "def load(source: typing.TextIO): ...",
    "def load(source: 'IO[str]'): ...", "def load(*, source: StringIO): ...",
    "File = str | IO[str]\ndef load(source: File): ...",
    "File = str | IO[str]\ndef load(source: ndjson.File): ...",
])
def test_every_spelling_of_a_stream_parameter_is_seen(source):
    [found] = stream_parameters({"m.py": source})
    assert found.endswith(" load(source)")


def test_no_function_takes_a_stream():
    offenders = stream_parameters({
        str(path.relative_to(PACKAGE.parent)): path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.rglob("*.py"))
    })
    assert not offenders
