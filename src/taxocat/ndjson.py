"""The JSON files taxocat reads or writes: newline-delimited records, or one document.

A line file is UTF-8 text with one JSON object per line; blank lines are
skipped. Every function takes the file's path, the caller's error class and
a short name for the file (`what`): a file that cannot be opened, read,
decoded or written raises that class naming the path, and a line that is
not a JSON object raises it as "<what> line N: ...".
"""
from __future__ import annotations

import json
import math
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Iterable, Iterator

File = str | Path


def _failure(verb: str, what: str, file: File, exc: Exception) -> str:
    if isinstance(exc, UnicodeError):
        return f"cannot {verb} {what} {file}: not valid UTF-8 ({exc.reason})"
    return f"cannot {verb} {what} {file}: {getattr(exc, 'strerror', None) or exc}"


@contextmanager
def reading(file: File, error: type[Exception], what: str) -> Iterator[IO[str]]:
    """The file open for reading; a failure to open, read or decode it raises `error`."""
    try:
        with open(file, encoding="utf-8") as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        raise error(_failure("read", what, file, exc)) from exc


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
    def io(step, *args, **kwargs):
        try:
            return step(*args, **kwargs)
        except (OSError, UnicodeEncodeError) as exc:
            raise error(_failure("write", what, file, exc)) from exc

    fh = io(open, file, "a" if append else "w", encoding="utf-8")
    try:
        for record in records:
            io(fh.write, json.dumps(record, ensure_ascii=False) + "\n")
    finally:
        io(fh.close)
