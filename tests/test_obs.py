"""Tests for the telemetry subsystem: metrics, spans, logging, wiring."""

from __future__ import annotations

import json
import logging
import time

import pytest

from repro.obs import (
    CORE_COUNTERS,
    KeyValueFormatter,
    MetricsRegistry,
    Tracer,
    configure_logging,
    disable_telemetry,
    dump_telemetry,
    enable_telemetry,
    get_logger,
    get_tracer,
    level_from_verbosity,
    metric_inc,
    span,
    subtract_snapshots,
    telemetry,
    telemetry_enabled,
    telemetry_snapshot,
)

ATLAS_SCALE = dict(probes_per_as=4, years=0.3, cache=False)


@pytest.fixture(autouse=True)
def telemetry_off():
    """Start each test disabled with empty global state, and clean up after."""
    enable_telemetry(reset=True)
    disable_telemetry()
    yield
    disable_telemetry()
    root = get_logger()
    for handler in list(root.handlers):
        if handler.get_name() == "repro-obs":
            root.removeHandler(handler)
    root.setLevel(logging.NOTSET)


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


def test_counter_labels_feed_unlabeled_total():
    registry = MetricsRegistry()
    registry.inc("drops", 2, reason="bad_tag")
    registry.inc("drops", 3, reason="short")
    registry.inc("drops")
    assert registry.counter("drops") == 6
    assert registry.counter("drops", reason="bad_tag") == 2
    assert registry.counter("drops", reason="short") == 3


def test_gauge_and_histogram():
    registry = MetricsRegistry()
    registry.set_gauge("workers", 4)
    registry.set_gauge("workers", 2)
    assert registry.gauge("workers") == 2
    for value in (0.5, 1.5, 4.0):
        registry.observe("chunk_seconds", value)
    snap = registry.snapshot()
    hist = snap["histograms"]["chunk_seconds"][""]
    assert hist["count"] == 3
    assert hist["sum"] == 6.0
    assert hist["min"] == 0.5 and hist["max"] == 4.0


def test_snapshot_subtract_then_merge_round_trips():
    registry = MetricsRegistry()
    registry.inc("tasks", 5, kind="sim")
    before = registry.snapshot()
    registry.inc("tasks", 2, kind="sim")
    registry.observe("latency", 1.0)
    delta = subtract_snapshots(registry.snapshot(), before)
    assert delta["counters"]["tasks"]["kind=sim"] == 2

    parent = MetricsRegistry()
    parent.inc("tasks", 10, kind="sim")
    parent.merge(delta)
    assert parent.counter("tasks", kind="sim") == 12
    assert parent.snapshot()["histograms"]["latency"][""]["count"] == 1


# ---------------------------------------------------------------------------
# Tracing spans
# ---------------------------------------------------------------------------


def test_span_nesting_and_exports(tmp_path):
    tracer = Tracer()
    with tracer.span("outer", stage="build"):
        with tracer.span("inner"):
            pass
    assert len(tracer.roots) == 1
    tree = tracer.as_dicts()[0]
    assert tree["name"] == "outer"
    assert tree["attrs"] == {"stage": "build"}
    assert [child["name"] for child in tree["children"]] == ["inner"]

    path = tracer.export_jsonl(tmp_path / "trace.jsonl")
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [(r["name"], r["depth"], r["path"]) for r in records] == [
        ("outer", 0, "outer"),
        ("inner", 1, "outer/inner"),
    ]
    rendered = tracer.render_tree()
    assert "outer" in rendered and "  inner" in rendered


def test_span_marks_errors_and_propagates():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("doomed"):
            raise ValueError("boom")
    assert tracer.roots[0].attrs["error"] == "ValueError"


def test_reset_keeps_open_span_timeline():
    tracer = Tracer()
    time.sleep(0.05)  # the outer span starts well after the epoch
    with tracer.span("outer") as outer:
        time.sleep(0.1)
        tracer.reset()
        with tracer.span("inner") as inner:
            time.sleep(0.05)
    assert outer.duration >= 0.15
    assert inner.start >= outer.start
    assert inner.duration >= 0.05
    assert tracer.roots == [outer]


def test_disabled_span_is_shared_noop():
    assert not telemetry_enabled()
    first = span("anything", attr=1)
    second = span("other")
    assert first is second  # no allocation on the disabled path
    with first as active:
        active.set(more="attrs")
    assert get_tracer().roots == []


def test_enable_preregisters_core_counters():
    with telemetry(True, reset=True):
        metrics = telemetry_snapshot()["metrics"]
    for name in CORE_COUNTERS:
        assert metrics["counters"][name][""] == 0


def test_telemetry_context_restores_previous_state():
    assert not telemetry_enabled()
    with telemetry(True, reset=True):
        assert telemetry_enabled()
        with telemetry(False):
            assert not telemetry_enabled()
        assert telemetry_enabled()
    assert not telemetry_enabled()


def test_dump_telemetry_writes_json(tmp_path):
    with telemetry(True, reset=True):
        with span("cli/test"):
            metric_inc("cache.hits")
        target = dump_telemetry(tmp_path / "out" / "tel.json", extra={"k": "v"})
    payload = json.loads(target.read_text())
    assert payload["spans"][0]["name"] == "cli/test"
    assert payload["metrics"]["counters"]["cache.hits"][""] == 1
    assert payload["k"] == "v"


# ---------------------------------------------------------------------------
# Structured logging
# ---------------------------------------------------------------------------


def test_get_logger_namespacing():
    assert get_logger("perf.cache").name == "repro.perf.cache"
    assert get_logger("repro.x").name == "repro.x"
    assert get_logger().name == "repro"


def test_key_value_formatter_appends_extras():
    formatter = KeyValueFormatter()
    record = logging.LogRecord("repro.t", logging.INFO, "f.py", 1, "did it", (), None)
    record.kept = 5
    record.note = "two words"
    line = formatter.format(record)
    assert line.endswith("did it kept=5 note='two words'")


def test_level_from_verbosity():
    assert level_from_verbosity(-1) == logging.ERROR
    assert level_from_verbosity(0) == logging.WARNING
    assert level_from_verbosity(1) == logging.INFO
    assert level_from_verbosity(2) == logging.DEBUG


def test_configure_logging_replaces_handler(capsys):
    root = configure_logging(verbosity=1)
    handlers = [h for h in root.handlers if h.get_name() == "repro-obs"]
    assert len(handlers) == 1
    root = configure_logging(verbosity=2)  # reconfigure must not stack
    handlers = [h for h in root.handlers if h.get_name() == "repro-obs"]
    assert len(handlers) == 1
    assert root.level == logging.DEBUG
    for handler in handlers:
        root.removeHandler(handler)


# ---------------------------------------------------------------------------
# Instrumented pipeline: counters, spans, invariance
# ---------------------------------------------------------------------------


def test_pipeline_emits_spans_and_counters():
    from repro.workloads import analyze_atlas_scenario, build_atlas_scenario

    with telemetry(True, reset=True):
        scenario = build_atlas_scenario(seed=5, **ATLAS_SCALE)
        analyze_atlas_scenario(scenario)
        snapshot = telemetry_snapshot()

    counters = snapshot["metrics"]["counters"]
    assert counters["collection.probes_collected"][""] == len(scenario.raw_probes)
    assert counters["collection.records_generated"][""] > 0
    assert counters["sanitize.probes_input"][""] == len(scenario.raw_probes)

    roots = {root["name"]: root for root in snapshot["spans"]}
    build = roots["collection/atlas"]
    children = [child["name"] for child in build["children"]]
    assert "collection/isp_simulations" in children
    assert "collection/probes" in children
    assert "collection/sanitize" in children
    report = roots["analysis/report"]
    assert {child["name"] for child in report["children"]} == {
        "analysis/fused/pass", "analysis/fused/network",
    }


def test_stream_and_checkpoint_counters(tmp_path):
    from repro.workloads import build_atlas_scenario, stream_analyze_atlas_scenario

    scenario = build_atlas_scenario(seed=5, **ATLAS_SCALE)
    with telemetry(True, reset=True):
        result = stream_analyze_atlas_scenario(
            scenario, chunk_hours=720, checkpoint=tmp_path, min_probes=2
        )
        resumed = stream_analyze_atlas_scenario(
            scenario, chunk_hours=720, checkpoint=tmp_path, resume=True, min_probes=2
        )
        counters = telemetry_snapshot()["metrics"]["counters"]
    assert result is not None and resumed is not None
    assert counters["stream.chunks_processed"][""] == result.stats.chunks_folded
    assert counters["checkpoint.saves"][""] > 0
    assert counters["checkpoint.hits"][""] >= 1
    assert counters["stream.resumes"][""] == 1


def test_worker_pool_merges_child_metrics():
    from repro.workloads import build_atlas_scenario

    with telemetry(True, reset=True):
        build_atlas_scenario(seed=5, workers=2, **ATLAS_SCALE)
        counters = telemetry_snapshot()["metrics"]["counters"]
    # Worker-side per-probe counters must ride back to the parent; the
    # pool.tasks series carries one entry per worker pid when the fan-out
    # actually ran (single-core hosts take the serial path).
    assert counters["collection.probes_collected"][""] > 0
    assert counters["pool.tasks"][""] >= 0


def test_telemetry_invariance():
    from repro.perf.verify import telemetry_invariance_diffs

    assert telemetry_invariance_diffs(probes_per_as=4, years=0.4, seed=7) == []


def test_cli_telemetry_flag_dumps_span_tree(tmp_path, capsys):
    from repro.cli import main

    target = tmp_path / "telemetry.json"
    assert main([
        "report", "--probes-per-as", "3", "--years", "0.3",
        "--telemetry", str(target),
    ]) == 0
    out = capsys.readouterr().out
    assert f"telemetry written to {target}" in out
    payload = json.loads(target.read_text())
    root = payload["spans"][0]
    assert root["name"] == "cli/report"
    children = [child["name"] for child in root["children"]]
    assert "collection/atlas" in children
    assert "analysis/report" in children
    assert "report/render" in children
    counters = payload["metrics"]["counters"]
    for name in CORE_COUNTERS:
        assert name in counters


def test_cli_verbose_flag_emits_structured_logs(capsys):
    from repro.cli import main

    assert main([
        "report", "--probes-per-as", "3", "--years", "0.3", "-v",
    ]) == 0
    err = capsys.readouterr().err
    assert "repro.atlas.sanitize probes sanitized" in err
    assert "kept=" in err
