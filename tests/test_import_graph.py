"""Who may import what: only the command line imports `taxocat.cli`, only the
gateway imports `requests` or `threading` (the one module with locks), only
the pipeline imports a `ThreadPoolExecutor`, the taxonomy does not import
the gateway, and only the gateway builds a `PromptSpec`. One call path: only
the gateway calls `call_with_retry`, and only the gateway and the pipeline
open a call group. Also, no function takes a stream where a file is meant:
files are paths.

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


def _uses_thread_pool_executor(path: Path) -> bool:
    """Whether the module imports ThreadPoolExecutor or reads it off a module."""
    return (any(name.rsplit(".", 1)[-1] == "ThreadPoolExecutor" for _, name in _imports(path))
            or any(isinstance(node, ast.Attribute) and node.attr == "ThreadPoolExecutor"
                   for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))))


def test_only_the_pipeline_imports_a_thread_pool_executor():
    # Its document workers; the gateway's calls run on its own CallPool.
    assert {path.name for path in PACKAGE.rglob("*.py")
            if _uses_thread_pool_executor(path)} == {"pipeline.py"}


def test_taxonomy_does_not_import_the_gateway():
    assert not [f"taxonomy.py:{line} imports {name}"
                for line, name in _imports(PACKAGE / "taxonomy.py")
                if name == "taxocat.gateway" or name.startswith("taxocat.gateway.")]


def prompt_spec_calls(source: str) -> list[int]:
    """The line of every call of `PromptSpec`, by its name or off a module."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and "PromptSpec" in _names(node.func)]


@pytest.mark.parametrize("source", [
    "PromptSpec(t, {})", "gw.PromptSpec(t, {})", "taxocat.gateway.PromptSpec(t, payload, 3)",
    "specs = [PromptSpec(t, p) for p in payloads]",
])
def test_every_spelling_of_a_prompt_spec_call_is_seen(source):
    assert prompt_spec_calls(source) == [1]


def test_only_the_gateway_builds_a_prompt_spec():
    # One prompt layer: every other module asks gateway.doc_spec or description_spec.
    assert [f"{path.name}:{line}" for path in sorted(PACKAGE.rglob("*.py"))
            if path.name != "gateway.py"
            for line in prompt_spec_calls(path.read_text(encoding="utf-8"))] == []


def method_calls(source: str, method: str) -> list[int]:
    """The line of every call of `.method()` off any object; a call of
    `.group` counts only without arguments, as a regex match's does not."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == method and (method != "group" or not node.args)]


@pytest.mark.parametrize(("source", "method"), [
    ("gateway.call_with_retry(spec)", "call_with_retry"),
    ("self._gateway.call_with_retry(spec)", "call_with_retry"),
    ("replies = [gw.call_with_retry(s) for s in specs]", "call_with_retry"),
    ("with gateway.group() as calls: pass", "group"),
    ("groups = (gateway.group() for doc in docs)", "group"),
])
def test_every_spelling_of_a_method_call_is_seen(source, method):
    assert method_calls(source, method) == [1]


def test_a_regex_match_group_is_not_a_call_group():
    assert method_calls("name = match.group(0)", "group") == []


def _callers(method: str) -> set[str]:
    return {path.name for path in PACKAGE.rglob("*.py")
            if method_calls(path.read_text(encoding="utf-8"), method)}


def test_only_the_gateway_calls_call_with_retry():
    # Every other module sends its calls through a document's CallGroup.
    assert _callers("call_with_retry") == {"gateway.py"}


def test_only_the_gateway_and_the_pipeline_open_call_groups():
    # The pipeline makes one per document; the gateway one per describe run.
    assert _callers("group") == {"gateway.py", "pipeline.py"}


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
