"""SME judgment ingestion and method-level metrics.

Each judgment carries a binary correctness verdict and a 1-5 quality score
(1 unacceptable ... 5 excellent). Per method we report accuracy% and the
score distribution S-5% ... S-1%, rounded half-up to one decimal; lower is
better for S-2/S-1, higher for the rest.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import IO, Iterable, Sequence

from . import ndjson

SCORE_VALUES = (5, 4, 3, 2, 1)
LOWER_IS_BETTER = frozenset({1, 2})


class JudgmentError(Exception):
    pass


@dataclass(frozen=True)
class Judgment:
    doc_id: str
    method: str
    correct: bool
    score: int
    rationale: str | None = None

    def __post_init__(self):
        if self.score not in (1, 2, 3, 4, 5):
            raise JudgmentError(f"score must be in 1..5, got {self.score}")


@dataclass(frozen=True)
class MethodReport:
    method: str
    n: int
    accuracy_pct: float
    score_dist_pct: dict[int, float]


def percent(count: int, total: int) -> float:
    """100 * count / total, rounded half-up to one decimal."""
    if total <= 0:
        raise JudgmentError("total must be positive")
    value = (Decimal(count) * 100) / Decimal(total)
    return float(value.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def load_judgments(source: str | Path | IO[str]) -> list[Judgment]:
    """Read newline-delimited JSON judgments: {doc_id, method, correct, score, rationale?}."""
    judgments = []
    seen: set[tuple[str, str]] = set()
    for lineno, record in ndjson.read_records(source, JudgmentError, "judgments"):
        where = f"judgments line {lineno}"
        try:
            doc_id = record["doc_id"]
            method = record["method"]
            correct = record["correct"]
            score = record["score"]
        except KeyError as exc:
            raise JudgmentError(f"{where}: missing field {exc.args[0]!r}") from None
        if not isinstance(doc_id, str) or not doc_id:
            raise JudgmentError(f"{where}: 'doc_id' must be a non-empty string")
        if not isinstance(method, str) or not method:
            raise JudgmentError(f"{where}: 'method' must be a non-empty string")
        if not isinstance(correct, bool):
            raise JudgmentError(f"{where}: 'correct' must be a boolean")
        if isinstance(score, bool) or not isinstance(score, int) or score not in (1, 2, 3, 4, 5):
            raise JudgmentError(f"{where}: 'score' must be an integer in 1..5")
        key = (doc_id, method)
        if key in seen:
            raise JudgmentError(f"{where}: duplicate judgment for {key}")
        seen.add(key)
        rationale = record.get("rationale")
        if rationale is not None and not isinstance(rationale, str):
            raise JudgmentError(f"{where}: 'rationale' must be a string")
        judgments.append(
            Judgment(doc_id=doc_id, method=method, correct=correct, score=score, rationale=rationale)
        )
    return judgments


def compute_metrics(
    judgments: Iterable[Judgment], methods: Sequence[str] | None = None
) -> dict[str, MethodReport]:
    """Accuracy% and S-i% per method, one-decimal half-up rounding."""
    grouped: dict[str, list[Judgment]] = {}
    for judgment in judgments:
        grouped.setdefault(judgment.method, []).append(judgment)
    wanted = list(methods) if methods is not None else sorted(grouped)
    reports: dict[str, MethodReport] = {}
    for method in wanted:
        pool = grouped.get(method, [])
        if not pool:
            raise JudgmentError(f"no judgments for method {method!r}")
        n = len(pool)
        correct = sum(1 for j in pool if j.correct)
        dist = {
            score: percent(sum(1 for j in pool if j.score == score), n)
            for score in SCORE_VALUES
        }
        reports[method] = MethodReport(
            method=method, n=n, accuracy_pct=percent(correct, n), score_dist_pct=dist
        )
    return reports


@dataclass(frozen=True)
class ComparisonTable:
    reports: tuple[MethodReport, ...]  # best first

    def render(self) -> str:
        headers = ["Method", "n", "Accuracy%", "S-5% ^", "S-4% ^", "S-3% ^", "S-2% v", "S-1% v"]
        rows = [
            [
                r.method,
                str(r.n),
                f"{r.accuracy_pct:.1f}",
                *(f"{r.score_dist_pct[s]:.1f}" for s in SCORE_VALUES),
            ]
            for r in self.reports
        ]
        widths = [max(len(h), *(len(row[i]) for row in rows)) for i, h in enumerate(headers)]
        def fmt(cells):
            return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()
        lines = [fmt(headers), fmt(["-" * w for w in widths])]
        lines.extend(fmt(row) for row in rows)
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = [
            {
                "method": r.method,
                "n": r.n,
                "accuracy_pct": r.accuracy_pct,
                "score_dist_pct": {
                    f"S-{s}": {"value": r.score_dist_pct[s],
                               "better": "lower" if s in LOWER_IS_BETTER else "higher"}
                    for s in SCORE_VALUES
                },
            }
            for r in self.reports
        ]
        return json.dumps(payload, indent=2)


def compare_methods(reports: Iterable[MethodReport]) -> ComparisonTable:
    """Rows ordered by accuracy desc, then S-5% desc, then method name."""
    pool = list(reports)
    if not pool:
        raise JudgmentError("no reports to compare")
    pool.sort(key=lambda r: (-r.accuracy_pct, -r.score_dist_pct[5], r.method))
    return ComparisonTable(reports=tuple(pool))
