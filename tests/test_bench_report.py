"""Unit tests for the ``scripts.bench_report`` regression gate."""

from __future__ import annotations

from scripts.bench_report import check_regressions


def _entry(cpu_count, fused_workers_seconds):
    return {
        "section": "bench_baseline",
        "mode": "check",
        "cpu_count": cpu_count,
        "report": {"fused_workers_seconds": fused_workers_seconds},
    }


def test_other_core_counts_do_not_gate():
    # The pooled report on one core runs serially and is ~8x faster than
    # the real pool on two cores; only the 2-core predecessor compares.
    history = [_entry(2, 0.046), *[_entry(1, 0.006)] * 3, _entry(2, 0.05)]
    assert check_regressions(history, tolerance=1.0) == []


def test_same_core_count_regression_still_fails():
    history = [_entry(2, 0.006), *[_entry(1, 0.006)] * 3, _entry(2, 0.05)]
    failures = check_regressions(history, tolerance=1.0)
    assert any(
        "report_fused_workers" in failure and "cpu_count=2" in failure
        for failure in failures
    )
