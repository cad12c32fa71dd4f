"""Tier-1 perf smoke: the bench-baseline script's --check mode.

Running ``scripts/bench_baseline.py --check`` from the test suite means
a perf-engine regression (parallel determinism, cache round-trip,
analysis-engine parity) fails fast in CI instead of surfacing only when
someone refreshes ``BENCH_baseline.json``.
"""

from __future__ import annotations

import json

import pytest

from scripts.bench_baseline import main as bench_main


@pytest.fixture()
def isolated_cache(tmp_path, monkeypatch):
    from repro.perf.cache import CACHE_DIR_ENV

    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    return tmp_path


def test_bench_baseline_check_mode(isolated_cache, tmp_path, capsys):
    output = tmp_path / "BENCH_smoke.json"
    assert bench_main(["--check", "--workers", "2", "--output", str(output)]) == 0
    doc = json.loads(output.read_text())
    payload = doc["bench_baseline"]
    assert payload["mode"] == "check"
    assert payload["deterministic"] is True
    analysis = payload["analysis"]
    assert analysis["parity"] is True
    assert analysis["default_engine"] in ("fused", "py")
    for stage in ("table1", "figure1", "figure5", "table2", "periodicity"):
        assert analysis["stages"][stage]["py_seconds"] >= 0.0
        assert analysis["stages"][stage]["fused_seconds"] >= 0.0
    store = payload["store"]
    assert store["parity"] is True
    assert store["tuples"] == 1_000_000
    assert store["build_tuples_per_second"] > 0
    assert store["analyze_tuples_per_second"] > 0
    # The 1M-tuple parallel build ran against the same synthetic feed
    # and compacted to the byte-identical store as the serial build.
    assert store["parallel_digest_match"] is True
    assert store["build_workers"] == 2
    assert store["build_parallel_tuples_per_second"] > 0
    assert store["build_speedup"] > 0
    assert store["build_speedup_enforced"] is False  # --check records only
    # The RSS gate (analyzer peak delta vs materialized-triples
    # footprint) ran and stayed within bounds, or RSS was unreadable.
    if store["rss_fraction_of_materialized"] is not None:
        assert store["rss_fraction_of_materialized"] <= store["rss_gate_fraction"]
    report = payload["report"]
    assert report["parity"] is True
    assert report["workers_parity"] is True
    assert report["speedup_enforced"] is False  # --check records, full gates
    assert report["py_seconds"] >= 0.0
    assert report["fused_seconds"] >= 0.0
    assert report["fused_workers_seconds"] >= 0.0
    serve = payload["serve"]
    assert serve["parity_diffs"] == 0  # served == direct on every family
    assert serve["queries"] == 64
    assert serve["cold_seconds"] >= 0.0
    assert serve["warm_seconds"] >= 0.0
    assert serve["batch_speedup"] > 0
    assert serve["speedup_enforced"] is False  # --check records, full gates
    # Warm queries never recomputed analysis: exactly one registry miss
    # (the cold artifact build), everything after that a hit.
    assert serve["registry"]["misses"] == 1
    assert serve["registry"]["hits"] >= 64
    obs = payload["obs"]
    assert obs["stitch_diffs"] == 0  # pooled stitched run == untraced run
    assert obs["stitch_workers"] == 2
    assert obs["disabled_overhead"] > 0
    assert obs["max_overhead"] == 1.05
    assert obs["overhead_enforced"] is False  # --check records, full gates
    assert payload["telemetry"]["parity"] is True  # traced runs == fused reference
    history = tmp_path / "BENCH_history.jsonl"
    assert history.exists()
    records = [json.loads(line) for line in history.read_text().splitlines()]
    assert records and records[-1]["section"] == "bench_baseline"
    assert records[-1]["ok"] is True
    assert records[-1]["report"]["parity"] is True
    # bench_report skips a stage its extractor finds no number for, so a
    # key the bench stopped writing would silently switch its gate off.
    from scripts.bench_report import RATE_EXTRACTORS, STAGE_EXTRACTORS

    for label, extract in {**STAGE_EXTRACTORS, **RATE_EXTRACTORS}.items():
        assert isinstance(extract(records[-1]), (int, float)), label
    out = capsys.readouterr().out
    assert "results identical" in out
    assert "artifacts identical" in out
    assert "report: py" in out
    assert "serve: cold" in out
    assert "obs: disabled-telemetry" in out

    # The trend reporter consumes the freshly appended history and its
    # regression gate passes on a single-entry history.
    from scripts.bench_report import main as report_main

    assert report_main(["--history", str(history), "--check"]) == 0
    out = capsys.readouterr().out
    assert "report_fused" in out
    assert "end_to_end" in out


def test_bench_baseline_takes_only_run_options():
    from scripts.bench_baseline import build_parser

    options = {opt for action in build_parser()._actions for opt in action.option_strings}
    assert options == {"-h", "--help", "--check", "--workers", "--seed", "--output"}


def test_profile_hook_writes_artifacts(tmp_path, monkeypatch):
    from repro.perf.profiling import (
        PROFILE_DIR_ENV,
        PROFILE_ENV,
        maybe_profile,
        profiling_enabled,
    )

    monkeypatch.delenv(PROFILE_ENV, raising=False)
    assert not profiling_enabled()
    with maybe_profile("noop") as profile:
        assert profile is None  # disabled: pure pass-through

    monkeypatch.setenv(PROFILE_ENV, "1")
    monkeypatch.setenv(PROFILE_DIR_ENV, str(tmp_path / "profiles"))
    assert profiling_enabled()
    with maybe_profile("smoke stage") as profile:
        assert profile is not None
        sum(range(1000))
    stats = tmp_path / "profiles" / "profile_smoke_stage.pstats"
    text = tmp_path / "profiles" / "profile_smoke_stage.txt"
    assert stats.exists()
    assert "cumulative" in text.read_text()
