"""Simulated hosted LLM provider and the call-chain metric built on its log.

The simulator answers with the gateway's deterministic mock
(``gateway.mock_complete``), so outputs are identical to ``--mock``, but
each call returns only after a simulated network latency of

    base_ms + ms_per_1k_chars * prompt_chars / 1000

where prompt_chars is counted the way ``LlmGateway`` counts characters
out (system text plus rendered user text). Large listwise prompts are
therefore slower per call than small pointwise ones. The latency is a
deadline measured from the call's start, so the mock's own CPU time is
part of it rather than added to it.

``MockProvider`` is not used because it keeps every PromptSpec it sees,
which would make memory grow with run length.
"""
from __future__ import annotations

import math
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

from taxocat import gateway as gw


@dataclass(frozen=True)
class CallRecord:
    doc_id: str | None
    template: str
    chars_out: int
    start: float
    end: float


class SimulatedProvider:
    """Mock answers after a prompt-size-dependent latency; logs every call."""

    def __init__(self, base_ms: float = 0.0, ms_per_1k_chars: float = 0.0):
        if base_ms < 0 or ms_per_1k_chars < 0:
            raise ValueError("latency constants must be >= 0")
        self.base_ms = base_ms
        self.ms_per_1k_chars = ms_per_1k_chars
        self._lock = threading.Lock()
        self._log: list[CallRecord] = []

    def latency_s(self, chars_out: int) -> float:
        return (self.base_ms + self.ms_per_1k_chars * chars_out / 1000.0) / 1000.0

    def complete(self, spec: gw.PromptSpec, reminder: str | None = None) -> str:
        start = time.perf_counter()
        chars_out = len(spec.system_text) + len(gw.render_user_text(spec))
        raw = gw.mock_complete(spec)
        remaining = start + self.latency_s(chars_out) - time.perf_counter()
        if remaining > 0:
            time.sleep(remaining)
        end = time.perf_counter()
        document = spec.user_payload.get("document")
        doc_id = document.get("doc_id") if isinstance(document, dict) else None
        record = CallRecord(doc_id, spec.template_id.value, chars_out, start, end)
        with self._lock:
            self._log.append(record)
        return raw

    def drain(self) -> list[CallRecord]:
        """Return the calls logged so far and start a new log."""
        with self._lock:
            log, self._log = self._log, []
        return log


def longest_sequential_chain(intervals: Iterable[tuple[float, float]]) -> int:
    """Length of the longest chain of calls in which each starts after the previous ended.

    This is the largest set of pairwise non-overlapping intervals, found by
    taking intervals in order of end time.
    """
    count = 0
    last_end = -math.inf
    for start, end in sorted(intervals, key=lambda iv: (iv[1], iv[0])):
        if start >= last_end:
            count += 1
            last_end = end
    return count


def chain_per_doc(log: Sequence[CallRecord], doc_ids: Sequence[str]) -> float:
    """Mean longest sequential chain over the given documents (0 for a doc without calls)."""
    by_doc: dict[str | None, list[tuple[float, float]]] = defaultdict(list)
    for record in log:
        by_doc[record.doc_id].append((record.start, record.end))
    return sum(longest_sequential_chain(by_doc.get(d, ())) for d in doc_ids) / len(doc_ids)
