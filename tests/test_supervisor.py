"""Tests for the chunk ledger's recovery paths and the chaos harness.

The recovery unit tests drive a :class:`CampaignCoordinator` with real
local socket worker processes and place chaos faults on chosen chunks to
exercise death/hang/retry/quarantine one at a time; the integration tests
run real smoke-scale campaigns under seeded chaos and assert the headline
guarantee: recovery is invisible in the results.
"""

from __future__ import annotations

import logging
import os
import re

import pytest

from repro.campaign import (
    CampaignCoordinator,
    CampaignEngine,
    CampaignStore,
    ChaosError,
    ChaosSpec,
    SchedulerConfig,
    SupervisorConfig,
    build_jobs,
    plan_job_chunks,
    resolve_chaos,
)
from repro.campaign.chaos import ChaosSchedule
from repro.core.chips import ChipPopulation
from repro.core.selection import FixedEpochPolicy
from repro.observability import metrics


@pytest.fixture(scope="module")
def population(smoke_context):
    preset = smoke_context.preset
    return ChipPopulation.generate(
        count=4,
        rows=preset.array_rows,
        cols=preset.array_cols,
        fault_rates=(0.05, 0.25),
        seed=123,
    )


def _fast_config(**overrides):
    base = dict(backoff_base=0.05, backoff_max=0.2)
    base.update(overrides)
    return SupervisorConfig(**base)


@pytest.fixture()
def worker_losses(caplog, monkeypatch):
    """Records of ``worker HOST:PID lost (CAUSE)`` as ``(pid, cause)`` pairs."""
    # The library's logger hierarchy does not propagate to the root logger;
    # let it through so caplog can observe the losses.
    monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
    caplog.set_level(logging.WARNING, logger="repro.campaign.scheduler")

    def losses():
        found = []
        for record in caplog.records:
            match = re.search(r"worker \S+:(\d+) lost \((\w+)", record.getMessage())
            if match:
                found.append((int(match.group(1)), match.group(2)))
        return found

    return losses


def _reaped(pid):
    """``True`` once ``pid`` is neither running nor an unreaped zombie."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


class TestChaosSpec:
    def test_parse_round_trip(self):
        spec = ChaosSpec.parse("seed=7,kill=2,hang=1,exc=1,poison=1,torn=2,hang_s=5")
        assert spec.seed == 7
        assert (spec.kill, spec.hang, spec.exc, spec.poison, spec.torn) == (2, 1, 1, 1, 2)
        assert spec.hang_s == 5.0
        assert ChaosSpec.parse(spec.describe() + ",hang_s=5") == spec

    @pytest.mark.parametrize(
        "bad",
        ["", "kill", "kill=", "kill=x", "frob=1", "hang_s=0", "kill=-1", "hang_s=abc"],
    )
    def test_parse_rejects_malformed_specs(self, bad):
        with pytest.raises(ValueError):
            ChaosSpec.parse(bad)

    def test_resolve_chaos_normalizes(self):
        assert resolve_chaos(None) is None
        spec = ChaosSpec(kill=1)
        assert resolve_chaos(spec) is spec
        assert resolve_chaos("kill=1") == ChaosSpec(kill=1)

    def test_schedule_is_deterministic(self):
        spec = ChaosSpec.parse("seed=11,kill=2,exc=1,torn=2")
        first = spec.schedule(16)
        second = spec.schedule(16)
        assert first.actions == second.actions
        assert first.torn_points == second.torn_points
        assert len(first.actions) == 3
        # A different seed plans different fault points (overwhelmingly).
        other = ChaosSpec.parse("seed=12,kill=2,exc=1,torn=2").schedule(16)
        assert (other.actions, other.torn_points) != (first.actions, first.torn_points)

    def test_faults_beyond_chunk_count_are_dropped(self):
        schedule = ChaosSpec.parse("kill=5,exc=5").schedule(3)
        assert len(schedule.actions) == 3

    def test_first_attempt_only_except_poison(self):
        schedule = ChaosSpec(exc=1, poison=1).schedule(2)
        (exc_index,) = [i for i, a in schedule.actions.items() if a == "exc"]
        (poison_index,) = [i for i, a in schedule.actions.items() if a == "poison"]
        assert schedule.action_for(exc_index, 0) == "exc"
        assert schedule.action_for(exc_index, 1) is None
        assert schedule.action_for(poison_index, 0) == "poison"
        assert schedule.action_for(poison_index, 5) == "poison"

    def test_inline_downgrades_process_faults(self):
        schedule = ChaosSpec(kill=1).schedule(1)
        # Would SIGKILL the test process if not downgraded.
        schedule.maybe_inject(0, 0, allow_process_faults=False)
        exc_schedule = ChaosSpec(exc=1).schedule(1)
        with pytest.raises(ChaosError):
            exc_schedule.maybe_inject(0, 0, allow_process_faults=False)


class TestSupervisorConfig:
    def test_backoff_is_capped_exponential(self):
        config = SupervisorConfig(backoff_base=0.5, backoff_max=3.0)
        assert config.backoff_seconds(0) == 0.0
        assert config.backoff_seconds(1) == 0.5
        assert config.backoff_seconds(2) == 1.0
        assert config.backoff_seconds(10) == 3.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_chunk_retries": -1},
            {"chunk_timeout": 0.0},
            {"timeout_factor": 0.0},
            {"backoff_base": -1.0},
        ],
    )
    def test_rejects_invalid_values(self, kwargs):
        with pytest.raises(ValueError):
            SupervisorConfig(**kwargs)


class TestCoordinatorRecovery:
    """Each recovery path of the socket executor, with real local workers.

    Faults are placed on chosen chunks through a hand-built chaos schedule;
    the coordinator ships each attempt's fault in its chunk frame.
    """

    @pytest.fixture(scope="class")
    def plan(self, smoke_context):
        preset = smoke_context.preset
        chips = ChipPopulation.generate(
            count=6,
            rows=preset.array_rows,
            cols=preset.array_cols,
            fault_rates=(0.05, 0.25),
            seed=99,
        )
        jobs = build_jobs(smoke_context.framework(), chips, FixedEpochPolicy(0.25))
        plan = plan_job_chunks(jobs, fat_batch=2)
        assert len(plan) == 3
        return plan

    def _run(self, smoke_context, plan, actions, config):
        coordinator = CampaignCoordinator(
            smoke_context.preset,
            fat_batch=2,
            supervisor_config=config,
            config=SchedulerConfig(poll_interval=0.01, shard_grace=10.0),
            local_workers=2,
        )
        schedule = ChaosSchedule(
            spec=ChaosSpec(hang_s=30.0), actions=actions, torn_points=set()
        )
        recorded = []
        try:
            failures = coordinator.run_plan(plan, recorded.append, chaos=schedule)
            alive = {
                pid for pid, process in coordinator._local_processes.items()
                if process.is_alive()
            }
        finally:
            coordinator.close()
        return [[row.chip_id for row in rows] for rows in recorded], failures, alive

    def _chip_ids(self, chunks):
        return [[job.chip_id for job in chunk] for chunk in chunks]

    def test_healthy_plan_completes(self, smoke_context, plan, worker_losses):
        recorded, failures, alive = self._run(smoke_context, plan, {}, _fast_config())
        assert not failures
        assert recorded == self._chip_ids(plan)  # committed in plan order
        assert len(alive) == 2
        assert not worker_losses()

    def test_worker_death_reassigns_chunk(self, smoke_context, plan, worker_losses):
        deaths = metrics.counter("campaign.worker_deaths").value
        respawns = metrics.counter("campaign.workers_respawned").value
        recorded, failures, alive = self._run(
            smoke_context, plan, {1: "kill"}, _fast_config()
        )
        assert not failures
        assert recorded == self._chip_ids(plan)
        assert metrics.counter("campaign.worker_deaths").value > deaths
        assert metrics.counter("campaign.workers_respawned").value > respawns
        ((pid, cause),) = worker_losses()
        assert cause == "disconnected"
        assert pid not in alive and _reaped(pid)

    def test_hung_worker_is_killed_and_chunk_retried(
        self, smoke_context, plan, worker_losses
    ):
        hangs = metrics.counter("campaign.worker_hangs").value
        respawns = metrics.counter("campaign.workers_respawned").value
        recorded, failures, alive = self._run(
            smoke_context, plan, {0: "hang"}, _fast_config(chunk_timeout=1.0)
        )
        assert not failures
        assert recorded == self._chip_ids(plan)
        assert metrics.counter("campaign.worker_hangs").value > hangs
        assert metrics.counter("campaign.workers_respawned").value > respawns
        ((pid, cause),) = worker_losses()
        assert cause == "hang"
        # SIGKILLed and reaped by the coordinator, not left sleeping.
        assert pid not in alive and _reaped(pid)

    def test_poison_chunk_is_quarantined_others_complete(
        self, smoke_context, plan, worker_losses
    ):
        recorded, failures, alive = self._run(
            smoke_context, plan, {0: "poison"}, _fast_config(max_chunk_retries=1)
        )
        assert recorded == self._chip_ids(plan)[1:]
        assert len(failures) == 1
        failure = failures[0]
        assert failure.chip_ids == self._chip_ids(plan)[0]
        assert failure.attempts == 2
        assert "ChaosError" in failure.error
        records = failure.to_chip_records()
        assert [r["chip_id"] for r in records] == failure.chip_ids
        assert all(r["attempts"] == 2 and r["strategy"] == "fat" for r in records)
        # An exception in a chunk costs no worker.
        assert not worker_losses()
        assert len(alive) == 2


class TestChaosCampaigns:
    """End-to-end: seeded chaos campaigns finish with undisturbed results."""

    def _run(self, context, population, tmp_path, name, **engine_kwargs):
        engine = CampaignEngine(
            context,
            store_base=tmp_path / name,
            supervisor_config=engine_kwargs.pop("supervisor_config", _fast_config()),
            **engine_kwargs,
        )
        result = engine.run(population, FixedEpochPolicy(0.25))
        return engine, result

    def _store_lines(self, engine):
        return sorted(
            (engine.last_report.store_dir / "results.jsonl").read_text().splitlines()
        )

    def test_worker_sigkill_mid_chunk_is_invisible(
        self, smoke_context, population, tmp_path, worker_losses
    ):
        deaths_before = metrics.counter("campaign.worker_deaths").value
        retries_before = metrics.counter("campaign.chunk_retries").value
        respawns_before = metrics.counter("campaign.workers_respawned").value
        _, baseline = self._run(
            smoke_context, population, tmp_path, "plain", jobs=2, fat_batch=2
        )
        chaos_engine, chaotic = self._run(
            smoke_context,
            population,
            tmp_path,
            "chaos",
            jobs=2,
            fat_batch=2,
            chaos="seed=3,kill=1",
        )
        assert chaotic.results == baseline.results
        assert not chaotic.failed_chips
        assert chaos_engine.last_report.failed == 0
        assert metrics.counter("campaign.worker_deaths").value > deaths_before
        assert metrics.counter("campaign.chunk_retries").value > retries_before
        # The killed local worker was reaped and replaced during the run.
        assert metrics.counter("campaign.workers_respawned").value > respawns_before
        ((pid, cause),) = worker_losses()
        assert cause == "disconnected" and _reaped(pid)
        # Recovery is invisible on disk too: same rows, verified clean.
        baseline_engine_dir = tmp_path / "plain"
        plain_lines = sorted(
            next(baseline_engine_dir.iterdir()).joinpath("results.jsonl")
            .read_text()
            .splitlines()
        )
        assert self._store_lines(chaos_engine) == plain_lines
        assert CampaignStore(chaos_engine.last_report.store_dir).verify().is_clean

    def test_hang_is_detected_and_chunk_reassigned(
        self, smoke_context, population, tmp_path, worker_losses
    ):
        hangs_before = metrics.counter("campaign.worker_hangs").value
        respawns_before = metrics.counter("campaign.workers_respawned").value
        _, baseline = self._run(
            smoke_context, population, tmp_path, "plain", jobs=2, fat_batch=2
        )
        _, chaotic = self._run(
            smoke_context,
            population,
            tmp_path,
            "chaos",
            jobs=2,
            fat_batch=2,
            chaos="seed=5,hang=1,hang_s=30",
            supervisor_config=_fast_config(chunk_timeout=2.0),
        )
        assert chaotic.results == baseline.results
        assert not chaotic.failed_chips
        assert metrics.counter("campaign.worker_hangs").value > hangs_before
        # The hung worker was SIGKILLed and reaped, not left sleeping.
        assert metrics.counter("campaign.workers_respawned").value > respawns_before
        ((pid, cause),) = worker_losses()
        assert cause == "hang" and _reaped(pid)

    def test_transient_exception_retried_inline(
        self, smoke_context, population, tmp_path
    ):
        retries_before = metrics.counter("campaign.chunk_retries").value
        _, baseline = self._run(
            smoke_context, population, tmp_path, "plain", jobs=1, fat_batch=2
        )
        _, chaotic = self._run(
            smoke_context,
            population,
            tmp_path,
            "chaos",
            jobs=1,
            fat_batch=2,
            chaos="seed=1,exc=1",
        )
        assert chaotic.results == baseline.results
        assert not chaotic.failed_chips
        assert metrics.counter("campaign.chunk_retries").value > retries_before

    def test_torn_write_is_repaired(self, smoke_context, population, tmp_path):
        _, baseline = self._run(
            smoke_context, population, tmp_path, "plain", jobs=1, fat_batch=2
        )
        chaos_engine, chaotic = self._run(
            smoke_context,
            population,
            tmp_path,
            "chaos",
            jobs=1,
            fat_batch=2,
            chaos="seed=2,torn=1",
        )
        assert chaotic.results == baseline.results
        store = CampaignStore(chaos_engine.last_report.store_dir)
        report = store.verify()
        assert report.is_clean
        assert not report.torn_tail

    def test_poison_chunk_quarantined_and_campaign_degrades(
        self, smoke_context, population, tmp_path
    ):
        chaos_engine, chaotic = self._run(
            smoke_context,
            population,
            tmp_path,
            "chaos",
            jobs=2,
            fat_batch=2,
            chaos="seed=4,poison=1",
            supervisor_config=_fast_config(max_chunk_retries=1),
        )
        assert chaotic.failed_chips
        assert chaos_engine.last_report.failed == len(chaotic.failed_chips)
        assert (
            len(chaotic.results) + len(chaotic.failed_chips) == len(population)
        )
        for record in chaotic.failed_chips:
            assert record["attempts"] == 2
            assert "ChaosError" in record["reason"]
        store = CampaignStore(chaos_engine.last_report.store_dir)
        quarantine = store.read_quarantine()
        assert len(quarantine) == 1
        assert quarantine[0]["chip_ids"] == [
            r["chip_id"] for r in chaotic.failed_chips
        ]
        assert store.verify().quarantined == len(chaotic.failed_chips)

        # A clean resume re-executes exactly the quarantined chips and
        # clears the quarantine file.
        resumed_engine, resumed = self._run(
            smoke_context, population, tmp_path, "chaos", jobs=1, fat_batch=2
        )
        assert not resumed.failed_chips
        assert len(resumed.results) == len(population)
        assert resumed_engine.last_report.skipped == len(chaotic.results)
        assert not store.quarantine_path.exists()

        # The degraded-then-repaired campaign matches an undisturbed one.
        _, baseline = self._run(
            smoke_context, population, tmp_path, "plain", jobs=1, fat_batch=2
        )
        assert resumed.results == baseline.results
