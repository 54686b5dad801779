"""The JSON files taxocat reads or writes: newline-delimited records, or one document.

A line file is UTF-8 text with one JSON object per line; blank lines are
skipped. Each function takes the caller's error class and a short name for
the file (`what`): a file that cannot be opened, read, decoded or written
raises that class naming the file, and a line that is not a JSON object
raises it as "<what> line N: ...".
"""
from __future__ import annotations

import json
import math
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Iterable, Iterator

File = str | Path | IO[str]  # a path, or a stream the caller opened and closes


def _failure(verb: str, what: str, file: File, exc: Exception) -> str:
    name = file if isinstance(file, (str, Path)) else getattr(file, "name", "<stream>")
    if isinstance(exc, UnicodeError):
        return f"cannot {verb} {what} {name}: not valid UTF-8 ({exc.reason})"
    return f"cannot {verb} {what} {name}: {getattr(exc, 'strerror', None) or exc}"


def _open(file: File, mode: str, error: type[Exception], what: str) -> IO[str]:
    if not isinstance(file, (str, Path)):
        return file
    try:
        return open(file, mode, encoding="utf-8")
    except OSError as exc:
        raise error(_failure("read" if mode == "r" else "write", what, file, exc)) from exc


@contextmanager
def reading(file: File, error: type[Exception], what: str) -> Iterator[IO[str]]:
    """The file open for reading; a failure to read or decode it raises `error`."""
    fh = _open(file, "r", error, what)
    try:
        yield fh
    except (OSError, UnicodeDecodeError) as exc:
        raise error(_failure("read", what, file, exc)) from exc
    finally:
        if fh is not file:
            fh.close()


def read_records(file: File, error: type[Exception], what: str
                 ) -> Iterator[tuple[int, dict[str, Any]]]:
    """(line number, object) for each non-blank line."""
    with reading(file, error, what) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise error(f"{what} line {lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(record, dict):
                raise error(f"{what} line {lineno}: expected a JSON object")
            yield lineno, record


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def read_json(file: File, error: type[Exception], what: str) -> Any:
    """The one JSON document in the file. Text that is not JSON, NaN, Infinity,
    a number too large for a float and a key repeated in an object raise `error`."""

    def unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
        data: dict[str, Any] = {}
        for key, value in pairs:
            if key in data:
                raise error(f"{what} key {key!r} is repeated")
            data[key] = value
        return data

    with reading(file, error, what) as fh:
        text = fh.read()
    try:
        return json.loads(text, object_pairs_hook=unique_keys,
                          parse_float=_finite, parse_constant=_finite)
    except ValueError as exc:
        raise error(_failure("read", what, file, exc)) from None


def write_records(file: File, records: Iterable[dict[str, Any]], error: type[Exception],
                  what: str, append: bool = False) -> None:
    """Write each record as one line as soon as it arrives.

    Only the file's own I/O raises `error`: an exception raised while
    producing a record propagates unchanged.
    """
    fh = _open(file, "a" if append else "w", error, what)

    def io(step, *args) -> None:
        try:
            step(*args)
        except (OSError, UnicodeEncodeError) as exc:
            raise error(_failure("write", what, file, exc)) from exc

    try:
        for record in records:
            io(fh.write, json.dumps(record, ensure_ascii=False) + "\n")
    finally:
        if fh is not file:
            io(fh.close)
