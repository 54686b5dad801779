"""Document metadata unit (title, keywords, abstract) and its file format."""
from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

from . import ndjson

logger = logging.getLogger(__name__)

# Advisory word-count ranges observed in production data; violations are
# logged, never rejected.
TITLE_WORDS = (3, 28)
KEYWORD_WORDS_MAX = 41
ABSTRACT_WORDS = (20, 400)


class DocumentError(Exception):
    pass


@dataclass(frozen=True)
class Document:
    doc_id: str
    title: str
    keywords: tuple[str, ...] = ()
    abstract: str = ""

    def __post_init__(self):
        if not self.title.strip():
            raise DocumentError(f"document {self.doc_id!r} has an empty title")


def document_text(doc: Document) -> str:
    """Title, comma-joined keywords, and abstract on separate lines.

    Missing keywords or abstract contribute nothing (no blank lines).
    """
    segments = [doc.title]
    if doc.keywords:
        segments.append(", ".join(doc.keywords))
    if doc.abstract:
        segments.append(doc.abstract)
    return "\n".join(segments)


def check_length_advisories(doc: Document) -> list[str]:
    """Word-count warnings for out-of-range fields (advisory only)."""
    warnings = []
    n_title = len(doc.title.split())
    if not TITLE_WORDS[0] <= n_title <= TITLE_WORDS[1]:
        warnings.append(f"title has {n_title} words (typical {TITLE_WORDS[0]}-{TITLE_WORDS[1]})")
    n_kw = sum(len(k.split()) for k in doc.keywords)
    if n_kw > KEYWORD_WORDS_MAX:
        warnings.append(f"keywords total {n_kw} words (typical <= {KEYWORD_WORDS_MAX})")
    if doc.abstract:
        n_abs = len(doc.abstract.split())
        if not ABSTRACT_WORDS[0] <= n_abs <= ABSTRACT_WORDS[1]:
            warnings.append(
                f"abstract has {n_abs} words (typical {ABSTRACT_WORDS[0]}-{ABSTRACT_WORDS[1]})"
            )
    return warnings


def load_documents(source: str | Path) -> list[Document]:
    """Read newline-delimited JSON documents: {doc_id, title, keywords, abstract}."""
    docs = []
    seen: set[str] = set()
    for lineno, record in ndjson.read_records(source, DocumentError, "documents"):
        where = f"documents line {lineno}"
        try:
            doc_id = record["doc_id"]
            title = record["title"]
        except KeyError as exc:
            raise DocumentError(f"{where}: missing field {exc.args[0]!r}") from None
        if not isinstance(doc_id, str) or not doc_id:
            raise DocumentError(f"{where}: 'doc_id' must be a non-empty string")
        if not isinstance(title, str) or not title.strip():
            raise DocumentError(f"{where}: 'title' must be a non-empty string")
        if doc_id in seen:
            raise DocumentError(f"{where}: duplicate doc_id {doc_id!r}")
        seen.add(doc_id)
        keywords = record.get("keywords", [])
        if not isinstance(keywords, list) or any(not isinstance(k, str) for k in keywords):
            raise DocumentError(f"{where}: 'keywords' must be a list of strings")
        abstract = record.get("abstract", "")
        if not isinstance(abstract, str):
            raise DocumentError(f"{where}: 'abstract' must be a string")
        doc = Document(doc_id=doc_id, title=title, keywords=tuple(keywords), abstract=abstract)
        for warning in check_length_advisories(doc):
            logger.warning("document %s: %s", doc_id, warning)
        docs.append(doc)
    return docs
