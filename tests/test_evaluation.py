"""Judgment ingestion and metric arithmetic."""
from __future__ import annotations

import json
import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taxocat.evaluation import (
    Judgment,
    JudgmentError,
    MethodReport,
    compare_methods,
    compute_metrics,
    load_judgments,
    percent,
)


def _lines(tmp_path, records):
    path = tmp_path / "judgments.ndjson"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path


def _judgments(method, correct_count, score_counts):
    out = []
    i = 0
    scores = [s for s, c in score_counts.items() for _ in range(c)]
    for score in scores:
        out.append(
            Judgment(doc_id=f"d{i}", method=method, correct=i < correct_count, score=score)
        )
        i += 1
    return out


def _half_up(value: float) -> float:
    # Independent one-decimal half-up rounding oracle for non-negative values.
    return math.floor(value * 10 + 0.5) / 10


class TestLoadJudgments:
    def test_valid_record_accepted(self, tmp_path):
        loaded = load_judgments(
            _lines(tmp_path, [{"doc_id": "d1", "method": "select_pointwise", "correct": True,
                               "score": 5}])
        )
        assert loaded == [
            Judgment(doc_id="d1", method="select_pointwise", correct=True, score=5)
        ]

    def test_score_out_of_range(self, tmp_path):
        with pytest.raises(JudgmentError, match="1..5"):
            load_judgments(_lines(tmp_path, [{"doc_id": "d", "method": "m", "correct": True,
                                              "score": 6}]))

    def test_seventy_lines(self, tmp_path):
        records = [
            {"doc_id": f"d{i}", "method": "m", "correct": True, "score": 1 + i % 5}
            for i in range(70)
        ]
        assert len(load_judgments(_lines(tmp_path, records))) == 70

    def test_duplicate_doc_method_rejected(self, tmp_path):
        records = [
            {"doc_id": "d", "method": "m", "correct": True, "score": 5},
            {"doc_id": "d", "method": "m", "correct": False, "score": 1},
        ]
        with pytest.raises(JudgmentError, match="duplicate"):
            load_judgments(_lines(tmp_path, records))

    def test_same_doc_different_methods_allowed(self, tmp_path):
        records = [
            {"doc_id": "d", "method": "m1", "correct": True, "score": 5},
            {"doc_id": "d", "method": "m2", "correct": False, "score": 1},
        ]
        assert len(load_judgments(_lines(tmp_path, records))) == 2

    def test_malformed_line_position(self, tmp_path):
        path = tmp_path / "judgments.ndjson"
        path.write_text('{"doc_id": "d", "method": "m", "correct": true, "score": 3}\n{oops\n')
        with pytest.raises(JudgmentError, match="line 2"):
            load_judgments(path)

    def test_boolean_score_rejected(self, tmp_path):
        with pytest.raises(JudgmentError):
            load_judgments(_lines(tmp_path, [{"doc_id": "d", "method": "m", "correct": True,
                                              "score": True}]))

    def test_rationale_kept(self, tmp_path):
        loaded = load_judgments(
            _lines(tmp_path, [{"doc_id": "d", "method": "m", "correct": True, "score": 4,
                     "rationale": "solid set"}])
        )
        assert loaded[0].rationale == "solid set"


class TestComputeMetrics:
    def test_best_method_row_reproduced(self):
        # 70 judgments, 66 correct, scores {5:23, 4:27, 3:16, 2:3, 1:1}.
        pool = _judgments("select_pointwise", 66, {5: 23, 4: 27, 3: 16, 2: 3, 1: 1})
        report = compute_metrics(pool)["select_pointwise"]
        assert report.n == 70
        assert report.accuracy_pct == 94.3
        assert report.score_dist_pct == {5: 32.9, 4: 38.6, 3: 22.9, 2: 4.3, 1: 1.4}

    def test_degenerate_all_correct(self):
        pool = _judgments("m", 10, {5: 10})
        report = compute_metrics(pool)["m"]
        assert report.accuracy_pct == 100.0
        assert report.score_dist_pct[5] == 100.0
        assert all(report.score_dist_pct[s] == 0.0 for s in (4, 3, 2, 1))

    def test_fuzz_against_counting_oracle(self):
        rng = random.Random(2)
        for _ in range(100):
            n = rng.randint(1, 200)
            pool = [
                Judgment(doc_id=f"d{i}", method="m", correct=rng.random() < 0.5,
                         score=rng.randint(1, 5))
                for i in range(n)
            ]
            report = compute_metrics(pool)["m"]
            counts = Counter(j.score for j in pool)
            assert report.accuracy_pct == _half_up(100 * sum(j.correct for j in pool) / n)
            for score in (1, 2, 3, 4, 5):
                assert report.score_dist_pct[score] == _half_up(100 * counts[score] / n)

    @given(st.lists(st.tuples(st.booleans(), st.integers(1, 5)), min_size=1, max_size=150))
    @settings(max_examples=200)
    # S-5..S-1 = 7.1 + 57.1 + 7.1 + 7.1 + 21.4 sums to 99.79999999999998 in floats.
    @example([(True, 5)] + [(True, 4)] * 8 + [(True, 3)] + [(True, 2)] + [(True, 1)] * 3)
    def test_distribution_sums_to_hundred(self, rows):
        pool = [
            Judgment(doc_id=f"d{i}", method="m", correct=c, score=s)
            for i, (c, s) in enumerate(rows)
        ]
        report = compute_metrics(pool)["m"]
        # Each bucket is off by at most 0.05 after half-up rounding, so the sum
        # is a multiple of 0.1 within 0.2 of 100; compare it in whole tenths.
        total_tenths = round(sum(report.score_dist_pct.values()) * 10)
        assert abs(total_tenths - 1000) <= 2
        assert 0.0 <= report.accuracy_pct <= 100.0

    def test_permutation_invariant(self):
        rng = random.Random(5)
        pool = [
            Judgment(doc_id=f"d{i}", method="m", correct=rng.random() < 0.7,
                     score=rng.randint(1, 5))
            for i in range(60)
        ]
        shuffled = pool[:]
        rng.shuffle(shuffled)
        assert compute_metrics(pool) == compute_metrics(shuffled)

    def test_no_judgments_no_reports(self):
        assert compute_metrics([]) == {}

    def test_percent_requires_positive_total(self):
        with pytest.raises(JudgmentError):
            percent(1, 0)


def _report(method, accuracy, s5=0.0):
    dist = {5: s5, 4: 0.0, 3: 0.0, 2: 0.0, 1: 0.0}
    return MethodReport(method=method, n=70, accuracy_pct=accuracy, score_dist_pct=dist)


class TestCompareMethods:
    def test_accuracy_order(self):
        table = compare_methods([_report("rerank", 70.0), _report("select_pointwise", 94.3)])
        assert [r.method for r in table.reports] == ["select_pointwise", "rerank"]

    def test_single_row(self):
        table = compare_methods([_report("only", 50.0)])
        assert len(table.reports) == 1
        assert "only" in table.render()

    def test_tie_breaks_by_s5_then_name(self):
        reports = [
            _report("zeta", 80.0, s5=10.0),
            _report("alpha", 80.0, s5=30.0),
            _report("beta", 80.0, s5=10.0),
        ]
        # Sort oracle: (-accuracy, -s5, name).
        expected = sorted(reports, key=lambda r: (-r.accuracy_pct, -r.score_dist_pct[5], r.method))
        table = compare_methods(reports)
        assert [r.method for r in table.reports] == [r.method for r in expected]
        assert [r.method for r in table.reports] == ["alpha", "beta", "zeta"]

    def test_render_marks_direction(self):
        text = compare_methods([_report("m", 50.0)]).render()
        assert "S-5% ^" in text and "S-1% v" in text

    def test_json_payload(self):
        payload = json.loads(compare_methods([_report("m", 50.0)]).to_json())
        assert payload[0]["score_dist_pct"]["S-2"]["better"] == "lower"

    def test_empty_errors(self):
        with pytest.raises(JudgmentError):
            compare_methods([])
