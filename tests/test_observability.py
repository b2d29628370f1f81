"""Tests for the observability layer: span tracer, metrics, trace summaries."""

from __future__ import annotations

import json
import logging
import tracemalloc

import pytest

import repro.campaign.engine as engine_module
from repro.campaign import CampaignEngine
from repro.cli import main
from repro.core.chips import ChipPopulation
from repro.core.selection import FixedEpochPolicy
from repro.observability import (
    CHROME_TRACE_NAME,
    MetricsRegistry,
    load_trace,
    merge_metric_shards,
    merge_shards,
    metrics,
    read_shard,
    render_trace_summary,
    split_key,
    summarize_trace,
    to_chrome_trace,
    trace,
    write_chrome_trace,
)
from repro.observability.summary import PHASE_SPANS
from repro.observability.tracer import _DISABLED_SPAN
from repro.utils.logging import get_logger


@pytest.fixture(autouse=True)
def _reset_observability():
    """Every test leaves the process-wide singletons disabled and empty."""
    yield
    trace.disable()
    metrics.enabled = False
    metrics.reset()


@pytest.fixture(scope="module")
def population(smoke_context):
    preset = smoke_context.preset
    return ChipPopulation.generate(
        count=4,
        rows=preset.array_rows,
        cols=preset.array_cols,
        fault_rates=(0.05, 0.25),
        seed=321,
    )


class TestTracer:
    def test_disabled_span_is_shared_noop_singleton(self):
        assert trace.span("a") is _DISABLED_SPAN
        assert trace.span("a") is trace.span("b", chips=4)
        with trace.span("anything") as span:
            span.set(more="attrs")
        assert trace.shard_path() is None

    def test_disabled_span_path_allocates_nothing(self):
        tracemalloc.start()
        for _ in range(100):  # warm caches (bytecode, tracemalloc internals)
            with trace.span("warm"):
                pass
        trace.instant("warm")
        baseline, _ = tracemalloc.get_traced_memory()
        for _ in range(5000):
            with trace.span("hot.path", chips=8):
                pass
            trace.instant("hot.instant", chip_id="c0")
        current, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # Transient kwargs dicts are freed; nothing is retained per span.
        assert current - baseline < 4096

    def test_enabled_spans_record_to_host_pid_shard(self, tmp_path):
        import os

        from repro.utils.hostinfo import host_tag

        trace.enable(tmp_path)
        with trace.span("campaign.triage", chips=3):
            pass
        trace.instant("campaign.chip", chip_id="chip-0")
        shard = trace.shard_path()
        # Shards are host-qualified so cross-host collection never collides.
        assert shard is not None
        assert shard.name == f"trace-{host_tag()}-{os.getpid()}.jsonl"
        events = read_shard(shard)
        assert [e["name"] for e in events] == ["campaign.triage", "campaign.chip"]
        span_event, instant_event = events
        assert span_event["attrs"] == {"chips": 3}
        assert span_event["duration"] >= 0.0
        assert span_event["pid"] == os.getpid()
        assert span_event["host"] == host_tag()
        assert "duration" not in instant_event

    def test_span_set_updates_attrs(self, tmp_path):
        trace.enable(tmp_path)
        with trace.span("campaign.run", jobs=2) as span:
            span.set(chips=7)
        (event,) = read_shard(trace.shard_path())
        assert event["attrs"] == {"jobs": 2, "chips": 7}

    def test_span_recorded_even_when_body_raises(self, tmp_path):
        trace.enable(tmp_path)
        with pytest.raises(RuntimeError):
            with trace.span("campaign.execute"):
                raise RuntimeError("boom")
        assert [e["name"] for e in read_shard(trace.shard_path())] == ["campaign.execute"]

    def test_torn_shard_lines_are_skipped(self, tmp_path):
        trace.enable(tmp_path)
        with trace.span("ok"):
            pass
        trace.disable()
        shard = next(tmp_path.glob("trace-*.jsonl"))
        with shard.open("a", encoding="utf-8") as handle:
            handle.write('{"name": "torn", "sta')  # simulated mid-write kill
        events = read_shard(shard)
        assert [e["name"] for e in events] == ["ok"]

    def test_merge_shards_sorts_by_start(self, tmp_path):
        (tmp_path / "trace-1.jsonl").write_text(
            '{"name": "b", "start": 2.0, "pid": 1, "duration": 0.5}\n'
        )
        (tmp_path / "trace-2.jsonl").write_text(
            '{"name": "a", "start": 1.0, "pid": 2, "duration": 0.25}\n'
        )
        events = merge_shards(tmp_path)
        assert [e["name"] for e in events] == ["a", "b"]

    def test_chrome_trace_export(self, tmp_path):
        trace.enable(tmp_path)
        with trace.span("campaign.run", chips=2):
            with trace.span("campaign.execute"):
                pass
        trace.instant("campaign.chip", chip_id="c1")
        output = write_chrome_trace(tmp_path)
        assert output == tmp_path / CHROME_TRACE_NAME
        document = json.loads(output.read_text())
        assert document["displayTimeUnit"] == "ms"
        entries = {e["name"]: e for e in document["traceEvents"]}
        from repro.utils.hostinfo import host_tag

        assert entries["campaign.run"]["ph"] == "X"
        assert entries["campaign.run"]["cat"] == "campaign"
        # The host rides in args because chrome pids must stay integers.
        assert entries["campaign.run"]["args"] == {"chips": 2, "host": host_tag()}
        assert entries["campaign.chip"]["ph"] == "i"
        # Timestamps are microseconds relative to the earliest event.
        assert min(e["ts"] for e in document["traceEvents"]) == 0.0
        assert entries["campaign.run"]["dur"] >= entries["campaign.execute"]["dur"]
        # Re-merging is idempotent.
        assert json.loads(write_chrome_trace(tmp_path).read_text()) == document


class TestMetrics:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.counter("chips").inc()
        registry.counter("chips").inc(2)
        registry.gauge("phase").set("execute")
        for value in (0.1, 0.2, 0.3, 0.4):
            registry.histogram("fsync").observe(value)
        snapshot = registry.snapshot()
        assert snapshot["chips"] == {"type": "counter", "value": 3}
        assert snapshot["phase"]["value"] == "execute"
        histogram = snapshot["fsync"]
        assert histogram["count"] == 4
        assert histogram["min"] == pytest.approx(0.1)
        assert histogram["max"] == pytest.approx(0.4)
        assert histogram["mean"] == pytest.approx(0.25)
        assert 0.1 <= histogram["p50"] <= 0.4

    def test_labels_fold_into_key_and_split_back(self):
        registry = MetricsRegistry()
        registry.counter("chips", strategy="fat", policy="fixed").inc()
        (key,) = registry.snapshot().keys()
        assert key == "chips{policy=fixed,strategy=fat}"
        assert split_key(key) == ("chips", {"policy": "fixed", "strategy": "fat"})
        assert split_key("plain") == ("plain", {})

    def test_timer_noop_when_disabled(self):
        registry = MetricsRegistry()
        with registry.timer("gemm"):
            pass
        assert registry.snapshot() == {}
        registry.enabled = True
        with registry.timer("gemm"):
            pass
        assert registry.snapshot()["gemm"]["count"] == 1

    def test_shard_merge_sums_counters_and_merges_histograms(self, tmp_path):
        first = MetricsRegistry()
        first.counter("chips").inc(2)
        first.gauge("phase").set("triage")
        first.histogram("fsync").observe(0.1)
        first.write_shard(tmp_path).rename(tmp_path / "metrics-111.json")

        second = MetricsRegistry()
        second.counter("chips").inc(3)
        second.gauge("phase").set("execute")  # later write wins
        second.histogram("fsync").observe(0.3)
        second.write_shard(tmp_path).rename(tmp_path / "metrics-222.json")

        merged = merge_metric_shards(tmp_path)
        assert merged["chips"] == {"type": "counter", "value": 5}
        assert merged["phase"]["value"] == "execute"
        assert merged["fsync"]["count"] == 2
        assert merged["fsync"]["min"] == pytest.approx(0.1)
        assert merged["fsync"]["max"] == pytest.approx(0.3)


class TestSummary:
    def _events(self):
        return [
            {"name": "campaign.run", "start": 0.0, "duration": 10.0, "pid": 1},
            {"name": "campaign.resume_scan", "start": 0.0, "duration": 0.5, "pid": 1},
            {"name": "campaign.triage", "start": 0.5, "duration": 1.5, "pid": 1},
            {"name": "campaign.plan", "start": 2.0, "duration": 0.5, "pid": 1},
            {"name": "campaign.execute", "start": 2.5, "duration": 7.0, "pid": 1},
            {
                "name": "campaign.chunk", "start": 2.6, "duration": 6.0, "pid": 2,
                "attrs": {"chips": 3, "strategy": "fat"},
            },
            {
                "name": "campaign.chunk", "start": 2.6, "duration": 3.0, "pid": 3,
                "attrs": {"chips": 1, "strategy": "fap"},
            },
            {"name": "campaign.chip", "start": 9.0, "pid": 1, "attrs": {"chip_id": "c0"}},
        ]

    def test_summarize_attributes_phases_workers_strategies(self):
        summary = summarize_trace(self._events())
        assert summary["total_wall_seconds"] == pytest.approx(10.0)
        assert summary["accounted_percent"] == pytest.approx(95.0)
        phases = {row["phase"]: row for row in summary["phases"]}
        assert phases["execute"]["percent"] == pytest.approx(70.0)
        workers = {row["pid"]: row for row in summary["workers"]}
        assert workers[2]["utilization"] == pytest.approx(6.0 / 7.0)
        assert workers[3]["chips"] == 1
        strategies = {row["strategy"]: row for row in summary["strategies"]}
        assert strategies["fat"]["chips_per_second"] == pytest.approx(0.5)
        assert summary["chips_committed"] == 1

    def test_render_contains_sections_and_bars(self):
        rendered = render_trace_summary(summarize_trace(self._events()))
        assert "Per-phase breakdown" in rendered
        assert "Per-worker utilization" in rendered
        assert "Per-strategy attribution" in rendered
        for phase in PHASE_SPANS:
            assert phase.split(".", 1)[1] in rendered
        assert "#" in rendered

    def test_step1_profile_span_reports_its_cache_state(self):
        events = self._events() + [
            {
                "name": "step1.profile", "start": -1.0, "duration": 0.25, "pid": 1,
                "attrs": {"preset": "smoke", "cache": "hit"},
            },
        ]
        summary = summarize_trace(events)
        assert summary["step1"] == [{"seconds": 0.25, "cache": "hit"}]
        # Step 1 runs before campaign.run, so it is not one of its phases.
        assert summary["accounted_percent"] == pytest.approx(95.0)
        assert "Step-1 profile: 250.0ms (disk cache hit)" in render_trace_summary(summary)
        assert "Step-1 profile" not in render_trace_summary(summarize_trace(self._events()))

    def test_load_trace_from_dir_shard_and_chrome_json(self, tmp_path):
        trace.enable(tmp_path)
        with trace.span("campaign.run"):
            pass
        trace.disable()
        from_dir = load_trace(tmp_path)
        assert [e["name"] for e in from_dir] == ["campaign.run"]
        shard = next(tmp_path.glob("trace-*.jsonl"))
        assert [e["name"] for e in load_trace(shard)] == ["campaign.run"]
        merged = write_chrome_trace(tmp_path)
        from_chrome = load_trace(merged)
        assert [e["name"] for e in from_chrome] == ["campaign.run"]
        assert from_chrome[0]["duration"] == pytest.approx(
            from_dir[0]["duration"], abs=1e-6
        )
        with pytest.raises(FileNotFoundError):
            load_trace(tmp_path / "missing.json")


class TestCampaignTracing:
    def test_parallel_workers_write_shards_into_merged_trace(
        self, smoke_context, population, tmp_path
    ):
        import os

        trace.enable(tmp_path / "trace")
        metrics.enabled = True
        engine = CampaignEngine(
            smoke_context, jobs=2, fat_batch=1, store_base=tmp_path / "campaigns"
        )
        engine.run(population, FixedEpochPolicy(0.25))
        trace.disable()
        metrics.enabled = False

        events = merge_shards(tmp_path / "trace")
        chunk_spans = [e for e in events if e["name"] == "campaign.chunk"]
        worker_pids = {e["pid"] for e in chunk_spans}
        # Every chunk executed in a pool worker, never in the parent.
        assert worker_pids and os.getpid() not in worker_pids
        assert sum(e["attrs"]["chips"] for e in chunk_spans) == len(population)
        chips = [e["attrs"]["chip_id"] for e in events if e["name"] == "campaign.chip"]
        assert sorted(chips) == sorted(chip.chip_id for chip in population)

        # Phase spans are disjoint and tile the campaign.run wall-clock.
        total = sum(e["duration"] for e in events if e["name"] == "campaign.run")
        phase_total = sum(
            e["duration"] for e in events if e["name"] in PHASE_SPANS
        )
        assert phase_total <= total * 1.05
        assert phase_total >= total * 0.5

        # End-of-run artifacts: merged Chrome trace + merged metrics.
        assert (tmp_path / "trace" / "trace.json").exists()
        merged_metrics = json.loads((tmp_path / "trace" / "metrics.json").read_text())
        assert merged_metrics["campaign.chips_completed{strategy=fat}"]["value"] == len(
            population
        )
        assert merged_metrics["store.appends"]["value"] > 0

    def test_traced_campaign_bit_identical_to_untraced(
        self, smoke_context, population, tmp_path
    ):
        policy = FixedEpochPolicy(0.25)
        plain_engine = CampaignEngine(smoke_context, jobs=1, store_base=tmp_path / "plain")
        plain = plain_engine.run(population, policy)

        trace.enable(tmp_path / "trace")
        metrics.enabled = True
        traced_engine = CampaignEngine(smoke_context, jobs=1, store_base=tmp_path / "traced")
        traced = traced_engine.run(population, policy)
        trace.disable()
        metrics.enabled = False

        assert traced.results == plain.results
        assert traced_engine.last_report.fingerprint == plain_engine.last_report.fingerprint
        plain_lines = (plain_engine.last_report.store_dir / "results.jsonl").read_bytes()
        traced_lines = (traced_engine.last_report.store_dir / "results.jsonl").read_bytes()
        assert plain_lines == traced_lines

    def test_killed_then_resumed_trace_has_no_duplicate_chip_events(
        self, smoke_context, population, tmp_path, monkeypatch
    ):
        policy = FixedEpochPolicy(0.25)
        trace.enable(tmp_path / "trace")
        real_execute = engine_module.execute_job_chunk
        calls = {"count": 0}

        def dying_execute(framework, chunk, fat_batch=8, attempt=0):
            if calls["count"] >= 1:
                raise RuntimeError("simulated kill")
            calls["count"] += 1
            return real_execute(framework, chunk, fat_batch=fat_batch, attempt=attempt)

        monkeypatch.setattr(engine_module, "execute_job_chunk", dying_execute)
        # Inline exceptions no longer crash the campaign: with retries
        # exhausted the failing chunks are quarantined and the run completes
        # with failed_chips (max_chunk_retries=0 skips the backoff sleeps).
        engine = CampaignEngine(
            smoke_context,
            jobs=1,
            fat_batch=1,
            store_base=tmp_path / "campaigns",
            max_chunk_retries=0,
        )
        first = engine.run(population, policy)
        assert len(first.failed_chips) == len(population) - 1
        assert engine.last_report.executed == 1

        monkeypatch.setattr(engine_module, "execute_job_chunk", real_execute)
        resumed_engine = CampaignEngine(
            smoke_context, jobs=1, fat_batch=1, store_base=tmp_path / "campaigns"
        )
        resumed = resumed_engine.run(population, policy)
        trace.disable()

        assert resumed_engine.last_report.skipped == 1
        assert not resumed.failed_chips
        events = merge_shards(tmp_path / "trace")
        chips = [e["attrs"]["chip_id"] for e in events if e["name"] == "campaign.chip"]
        # Chip events are emitted only after the store append: the chip
        # recorded before the kill appears once, resumed chips appear once,
        # and nothing is duplicated across the two runs.
        assert len(chips) == len(set(chips))
        assert sorted(chips) == sorted(chip.chip_id for chip in population)
        assert len(resumed.results) == len(population)

    def test_heartbeat_reports_eta_and_phase(self, smoke_context, population):
        class ListHandler(logging.Handler):
            def __init__(self):
                super().__init__()
                self.messages = []

            def emit(self, record):
                self.messages.append(record.getMessage())

        handler = ListHandler()
        logger = get_logger("campaign.engine")
        previous_level = logger.level
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        try:
            engine = CampaignEngine(
                smoke_context, jobs=1, fat_batch=1, heartbeat_seconds=0.0
            )
            engine.run(population, FixedEpochPolicy(0.25))
        finally:
            logger.removeHandler(handler)
            logger.setLevel(previous_level)
        beats = [m for m in handler.messages if "heartbeat" in m]
        assert len(beats) == len(population) - 1
        assert "chips/s" in beats[0]
        assert "eta" in beats[0]
        assert "phase execute" in beats[0]


class TestObservabilityCli:
    def test_campaign_trace_flag_and_trace_command(self, capsys, tmp_path):
        trace_dir = tmp_path / "trace"
        assert main([
            "campaign",
            "--preset", "smoke",
            "--chips", "2",
            "--policy", "fixed",
            "--fixed-epochs", "0.25",
            "--campaign-dir", str(tmp_path / "campaigns"),
            "--trace", str(trace_dir),
        ]) == 0
        capsys.readouterr()
        assert (trace_dir / "trace.json").exists()
        assert (trace_dir / "metrics.json").exists()

        assert main(["trace", str(trace_dir)]) == 0
        out = capsys.readouterr().out
        assert "Per-phase breakdown" in out
        assert "execute" in out

        # The merged Chrome trace summarizes identically to the shard dir.
        assert main(["trace", str(trace_dir / "trace.json")]) == 0
        assert "Per-phase breakdown" in capsys.readouterr().out

    def test_trace_path_rejected_for_other_commands(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "some/path"])
        assert excinfo.value.code == 2
        assert "trace" in capsys.readouterr().err

    def test_trace_command_on_missing_path_errors(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", str(tmp_path / "nope")])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_trace_command_on_empty_dir_reports_no_events(self, capsys, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["trace", str(empty)]) == 1
        assert "no trace events" in capsys.readouterr().out
