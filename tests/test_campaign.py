"""Tests for the parallel campaign engine, its store, and the disk cache."""

from __future__ import annotations

import dataclasses
import json
import os
import pickle

import numpy as np
import pytest

from repro.campaign import (
    CampaignEngine,
    CampaignStore,
    CampaignStoreError,
    ChipJob,
    build_jobs,
    campaign_fingerprint,
    execute_job,
    plan_job_chunks,
)
from repro.campaign.store import decode_result_line
from repro.cli import main
from repro.core.chips import ChipPopulation
from repro.core.selection import FixedEpochPolicy
from repro.experiments import ExperimentContext, smoke_preset
from repro.nn.serialization import state_dicts_equal
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


@pytest.fixture
def framework(smoke_context):
    return smoke_context.framework()


class TestChipJob:
    def test_jobs_are_picklable_and_json_round_trip(self, framework, population):
        jobs = build_jobs(framework, population, FixedEpochPolicy(0.25))
        assert [job.chip_id for job in jobs] == [chip.chip_id for chip in population]
        for job in jobs:
            assert pickle.loads(pickle.dumps(job)) == job
            assert ChipJob.from_dict(json.loads(json.dumps(job.to_dict()))) == job
            # The shallow to_dict serializes exactly like a deep asdict copy.
            assert json.dumps(job.to_dict(), sort_keys=True) == json.dumps(
                dataclasses.asdict(job), sort_keys=True
            )

    def test_execution_is_deterministic(self, framework, population):
        job = build_jobs(framework, population, FixedEpochPolicy(0.25))[0]
        first = execute_job(framework, job)
        second = execute_job(framework, job)
        assert first == second
        assert first.epochs_allocated == 0.25

    def test_negative_epochs_rejected(self):
        with pytest.raises(ValueError):
            ChipJob(chip={"chip_id": "c"}, epochs=-1.0, target_accuracy=0.9, policy_name="p")

    def test_result_round_trips_through_dict(self, framework, population):
        job = build_jobs(framework, population, FixedEpochPolicy(0.25))[0]
        result = execute_job(framework, job)
        restored = type(result).from_dict(json.loads(json.dumps(result.to_dict())))
        assert restored == result


class TestPlanner:
    def _jobs(self, budgets):
        return [
            ChipJob(
                chip={"chip_id": f"chip-{i}"},
                epochs=budget,
                target_accuracy=0.9,
                policy_name="p",
            )
            for i, budget in enumerate(budgets)
        ]

    def test_same_budget_groups_chunked_by_fat_batch(self):
        jobs = self._jobs([0.5, 0.5, 0.5, 0.5, 0.5])
        plan = plan_job_chunks(jobs, fat_batch=2)
        assert [len(chunk) for chunk in plan] == [2, 2, 1]
        assert [job.chip_id for chunk in plan for job in chunk] == [
            job.chip_id for job in jobs
        ]

    def test_zero_epoch_and_singleton_budgets_stay_per_job(self):
        jobs = self._jobs([0.0, 0.0, 0.25, 0.5, 0.5])
        plan = plan_job_chunks(jobs, fat_batch=8)
        sizes = {tuple(job.chip_id for job in chunk): len(chunk) for chunk in plan}
        # zero-epoch lookups and the lone 0.25 budget are single-job chunks;
        # the 0.5 pair is one batched chunk.
        assert sorted(sizes.values()) == [1, 1, 1, 2]
        # no chip lost or duplicated
        planned = [job.chip_id for chunk in plan for job in chunk]
        assert sorted(planned) == sorted(job.chip_id for job in jobs)

    def test_plan_splits_large_groups_across_workers(self):
        # One 24-chip budget group at fat_batch=8 would be 3 chunks — too few
        # for 4 workers; worker-aware planning caps chunks at ceil(24/4)=6.
        jobs = self._jobs([0.5] * 24)
        plan = plan_job_chunks(jobs, fat_batch=8, workers=4)
        assert [len(chunk) for chunk in plan] == [6, 6, 6, 6]
        # More workers than jobs in a group degrades gracefully to per-job.
        small = plan_job_chunks(self._jobs([0.5] * 3), fat_batch=8, workers=8)
        assert [len(chunk) for chunk in small] == [1, 1, 1]
        with pytest.raises(ValueError):
            plan_job_chunks(jobs, fat_batch=8, workers=0)

    def test_fat_batch_one_disables_coalescing(self):
        jobs = self._jobs([0.5, 0.5, 0.5])
        plan = plan_job_chunks(jobs, fat_batch=1)
        assert [len(chunk) for chunk in plan] == [1, 1, 1]

    def test_planning_is_deterministic(self):
        jobs = self._jobs([0.5, 0.25, 0.5, 0.25, 0.5])
        first = plan_job_chunks(jobs, fat_batch=2)
        second = plan_job_chunks(jobs, fat_batch=2)
        assert first == second

    def test_invalid_fat_batch_rejected(self):
        with pytest.raises(ValueError):
            plan_job_chunks(self._jobs([0.5]), fat_batch=0)


class TestEngineEquivalence:
    def test_serial_and_parallel_runs_are_bit_identical(self, smoke_context, population):
        policy = FixedEpochPolicy(0.25)
        serial = CampaignEngine(smoke_context, jobs=1).run(population, policy)
        parallel = CampaignEngine(smoke_context, jobs=2).run(population, policy)
        assert serial.results == parallel.results
        assert serial.target_accuracy == parallel.target_accuracy
        assert [r.chip_id for r in parallel.results] == [c.chip_id for c in population]

    def test_engine_reduce_matches_framework_run(self, smoke_context, population):
        engine = CampaignEngine(smoke_context, jobs=2)
        via_engine = engine.run_reduce(population, statistic="max")
        via_framework = smoke_context.framework().run(population, statistic="max")
        assert via_engine.results == via_framework.results
        assert via_engine.policy_name == via_framework.policy_name == "reduce-max"

    def test_invalid_worker_counts_rejected(self, smoke_context):
        with pytest.raises(ValueError):
            CampaignEngine(smoke_context, jobs=0)

    @pytest.mark.parametrize("listen", [None, ("127.0.0.1", 0)], ids=["jobs", "listen"])
    def test_consecutive_runs_plan_for_the_same_worker_count(
        self, smoke_context, population, monkeypatch, listen
    ):
        """A reused engine counts each of its workers once when planning."""
        import repro.campaign.engine as engine_module

        planned_for = []

        def spy(jobs, fat_batch, workers=1):
            planned_for.append(workers)
            return plan_job_chunks(jobs, fat_batch, workers=workers)

        monkeypatch.setattr(engine_module, "plan_job_chunks", spy)
        with CampaignEngine(smoke_context, jobs=2, fat_batch=2, listen=listen) as engine:
            for _ in range(2):
                engine.run(population, FixedEpochPolicy(0.25))
        assert planned_for == [2, 2]


class TestFusedTriage:
    """Triage covers only single-job chunks; a multi-job chunk measures its
    chips' initial accuracy in its own stacked trainer, with the same values."""

    @pytest.fixture(scope="class")
    def five_chips(self, smoke_context):
        preset = smoke_context.preset
        return ChipPopulation.generate(
            count=5,
            rows=preset.array_rows,
            cols=preset.array_cols,
            fault_rates=(0.05, 0.25),
            seed=123,
        )

    @staticmethod
    def _spy_triage(monkeypatch):
        from repro.core.reduce import ReduceFramework

        triaged = []
        original = ReduceFramework.triage_population

        def spy(self, chips, *args, **kwargs):
            chips = list(chips)
            triaged.append([chip.chip_id for chip in chips])
            return original(self, chips, *args, **kwargs)

        monkeypatch.setattr(ReduceFramework, "triage_population", spy)
        return triaged

    @staticmethod
    def _spy_include_initial(monkeypatch):
        from repro.accelerator.batched import BatchedFaultTrainer

        flags = []
        original = BatchedFaultTrainer.train

        def spy(self, epochs, eval_checkpoints=None, include_initial=True):
            flags.append(include_initial)
            return original(self, epochs, eval_checkpoints, include_initial)

        monkeypatch.setattr(BatchedFaultTrainer, "train", spy)
        return flags

    def test_triage_receives_only_single_job_chunks(
        self, smoke_context, five_chips, monkeypatch, tmp_path
    ):
        from repro.observability import merge_shards, trace

        policy = FixedEpochPolicy(0.25)
        framework = smoke_context.framework()
        # One positive budget, 5 chips, fat_batch 2: chunks of 2, 2 and 1.
        plan = plan_job_chunks(build_jobs(framework, five_chips, policy), 2)
        assert [len(chunk) for chunk in plan] == [2, 2, 1]
        singles = [chunk[0].chip_id for chunk in plan if len(chunk) == 1]
        full_triage = framework.triage_population(five_chips)

        triaged = self._spy_triage(monkeypatch)
        trace.enable(tmp_path / "trace")
        try:
            fused = CampaignEngine(smoke_context, jobs=1, fat_batch=2).run(
                five_chips, policy
            )
        finally:
            trace.disable()
        assert triaged == [singles]
        events = merge_shards(tmp_path / "trace")
        (triage_span,) = [e for e in events if e["name"] == "campaign.triage"]
        assert triage_span["attrs"] == {"chips": 1, "deferred": 4}
        chunk_spans = [e for e in events if e["name"] == "campaign.chunk"]
        assert sorted(
            (e["attrs"]["chips"], e["attrs"]["initial_eval"]) for e in chunk_spans
        ) == [(1, False), (2, True), (2, True)]

        fed = CampaignEngine(smoke_context, jobs=1, fat_batch=2).run(
            five_chips, policy, triage=dict(full_triage)
        )
        assert triaged == [singles]
        assert fed.results == fused.results
        assert [r.accuracy_before for r in fused.results] == [
            full_triage[chip.chip_id] for chip in five_chips
        ]

    def test_same_triage_key_sweep_arm_runs_no_initial_eval(
        self, smoke_context, five_chips, monkeypatch
    ):
        from repro.campaign import run_strategy_sweep

        policy = FixedEpochPolicy(0.25)
        separate = {
            name: CampaignEngine(smoke_context, jobs=1, fat_batch=2).run(
                five_chips, policy, strategy=name
            )
            for name in ("fat", "fap+fat")
        }
        flags = self._spy_include_initial(monkeypatch)
        sweep = run_strategy_sweep(
            smoke_context, five_chips, policy, "fat,fap+fat", fat_batch=2
        )
        # Arm 1 measures the initial accuracy in both of its 2-chip chunks;
        # arm 2 (same triage key) reads every value arm 1 wrote back.
        assert flags == [True, True, False, False]
        for name, campaign in separate.items():
            assert sweep.campaigns[name].results == campaign.results


class TestStoreAndResume:
    def test_store_written_and_rerun_skips_all_chips(self, smoke_context, population, tmp_path):
        policy = FixedEpochPolicy(0.25)
        first = CampaignEngine(smoke_context, jobs=1, store_base=tmp_path)
        result = first.run(population, policy)
        report = first.last_report
        assert report.executed == len(population)
        assert report.skipped == 0
        assert report.store_dir is not None and report.store_dir.is_dir()
        lines = (report.store_dir / "results.jsonl").read_text().strip().splitlines()
        assert len(lines) == len(population)

        second = CampaignEngine(smoke_context, jobs=1, store_base=tmp_path)
        resumed = second.run(population, policy)
        assert second.last_report.executed == 0
        assert second.last_report.skipped == len(population)
        assert resumed.results == result.results

    def test_clean_resume_leaves_results_file_untouched(
        self, smoke_context, population, tmp_path, monkeypatch
    ):
        import repro.campaign.store as store_module

        policy = FixedEpochPolicy(0.25)
        engine = CampaignEngine(smoke_context, jobs=1, store_base=tmp_path)
        engine.run(population, policy)
        results_path = engine.last_report.store_dir / "results.jsonl"
        before, data = results_path.stat(), results_path.read_bytes()

        decoded = []
        decode = store_module.decode_result_line

        def counting_decode(line):
            decoded.append(json.loads(line)["chip_id"])
            return decode(line)

        monkeypatch.setattr(store_module, "decode_result_line", counting_decode)
        compactions = metrics.counter("store.compactions").value
        resumed = CampaignEngine(smoke_context, jobs=1, store_base=tmp_path)
        resumed.run(population, policy)
        assert resumed.last_report.skipped == len(population)
        # One parse per row: the resume scan reuses compact()'s results.
        assert sorted(decoded) == sorted(chip.chip_id for chip in population)
        after = results_path.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        assert results_path.read_bytes() == data
        assert metrics.counter("store.compactions").value == compactions

    def test_killed_then_resumed_campaign_completes_without_duplicates(
        self, smoke_context, population, tmp_path
    ):
        policy = FixedEpochPolicy(0.25)
        engine = CampaignEngine(smoke_context, jobs=1, store_base=tmp_path)
        full = engine.run(population, policy)
        results_path = engine.last_report.store_dir / "results.jsonl"

        # Simulate a kill after two chips, mid-write of the third: keep two
        # complete lines plus a torn trailing fragment.
        lines = results_path.read_text().splitlines()
        results_path.write_text("\n".join(lines[:2]) + "\n" + lines[2][: len(lines[2]) // 2])

        resumed_engine = CampaignEngine(smoke_context, jobs=2, store_base=tmp_path)
        resumed = resumed_engine.run(population, policy)
        assert resumed_engine.last_report.skipped == 2
        assert resumed_engine.last_report.executed == len(population) - 2
        assert resumed.results == full.results

        recorded = [
            json.loads(line)["chip_id"]
            for line in results_path.read_text().strip().splitlines()
        ]
        assert len(recorded) == len(set(recorded)) == len(population)

    def test_killed_mid_batched_chunk_resumes_under_jobs(
        self, smoke_context, population, tmp_path
    ):
        """Kill/resume at chunk granularity with --jobs N x batched groups.

        The store's group protocol appends a whole batched chunk per fsync;
        a kill mid-chunk leaves the previous chunks durable plus a torn
        fragment.  Resuming (again under --jobs N) must re-run exactly the
        unrecorded chips — no duplicates, no losses, bit-identical results.
        """
        policy = FixedEpochPolicy(0.25)
        engine = CampaignEngine(smoke_context, jobs=2, fat_batch=2, store_base=tmp_path)
        full = engine.run(population, policy)
        results_path = engine.last_report.store_dir / "results.jsonl"
        lines = results_path.read_text().splitlines()
        assert len(lines) == len(population)
        # Simulate a kill mid-way through the second batched chunk: the
        # first chunk's group append is durable, the next line is torn.
        results_path.write_text(
            "\n".join(lines[:2]) + "\n" + lines[2][: len(lines[2]) // 2]
        )

        resumed_engine = CampaignEngine(
            smoke_context, jobs=2, fat_batch=2, store_base=tmp_path
        )
        resumed = resumed_engine.run(population, policy)
        assert resumed_engine.last_report.skipped == 2
        assert resumed_engine.last_report.executed == len(population) - 2
        assert resumed.results == full.results
        recorded = [
            json.loads(line)["chip_id"]
            for line in results_path.read_text().strip().splitlines()
        ]
        assert len(recorded) == len(set(recorded)) == len(population)

    def test_resumed_plan_regroups_into_same_budget_groups(
        self, framework, population
    ):
        jobs = build_jobs(framework, population, FixedEpochPolicy(0.25))
        full_plan = plan_job_chunks(jobs, fat_batch=3)
        # Chips recorded before the kill drop out; the remaining jobs regroup
        # into the same budget groups (every chunk still single-budget, and
        # the set of budgets is unchanged), just with fewer members.
        pending = jobs[2:]
        resumed_plan = plan_job_chunks(pending, fat_batch=3)
        for chunk in full_plan + resumed_plan:
            assert len({job.epochs for job in chunk}) == 1
        assert {job.epochs for chunk in resumed_plan for job in chunk} == {
            job.epochs for job in pending
        }
        planned = [job.chip_id for chunk in resumed_plan for job in chunk]
        assert sorted(planned) == sorted(job.chip_id for job in pending)

    def test_append_many_is_one_durable_group(self, framework, population, tmp_path):
        jobs = build_jobs(framework, population, FixedEpochPolicy(0.0))
        results = [execute_job(framework, job) for job in jobs]
        store = CampaignStore.open(tmp_path, "d" * 64, manifest={"policy": "p"})
        store.append_many(results[:3])
        store.append_many([])  # no-op
        store.append_many(results[3:])
        recorded = store.completed()
        assert list(recorded) == [result.chip_id for result in results]
        assert list(recorded.values()) == results

    def test_no_resume_re_executes_everything(self, smoke_context, population, tmp_path):
        policy = FixedEpochPolicy(0.25)
        CampaignEngine(smoke_context, jobs=1, store_base=tmp_path).run(population, policy)
        engine = CampaignEngine(smoke_context, jobs=1, store_base=tmp_path, resume=False)
        engine.run(population, policy)
        assert engine.last_report.executed == len(population)

    def test_store_rejects_foreign_fingerprint(self, tmp_path):
        store = CampaignStore.open(tmp_path, "a" * 64, manifest={"policy": "p"})
        assert store.read_manifest()["fingerprint"] == "a" * 64
        # Same directory (first 16 chars collide) but a different campaign.
        colliding = "a" * 16 + "b" * 48
        with pytest.raises(CampaignStoreError):
            CampaignStore.open(tmp_path, colliding, manifest={"policy": "p"})

    def test_completed_skips_corrupt_lines(self, tmp_path):
        store = CampaignStore.open(tmp_path, "c" * 64, manifest={"policy": "p"})
        store.results_path.write_text('{"not a result": true}\n{torn')
        assert store.completed() == {}

    @pytest.mark.parametrize("old_version", [2, 3])
    def test_old_version_store_never_resumes_strategy_tagged_campaign(
        self, smoke_context, population, tmp_path, monkeypatch, old_version
    ):
        """A version-2/3 store (pre-strategy fingerprints) is invisible to a
        version-4 campaign: the format version is part of every fingerprint,
        so the old store's directory is never matched and every chip
        re-executes instead of resuming against old-numerics results."""
        import repro.campaign.store as store_module

        policy = FixedEpochPolicy(0.25)
        monkeypatch.setattr(store_module, "STORE_FORMAT_VERSION", old_version)
        old_engine = CampaignEngine(smoke_context, jobs=1, store_base=tmp_path)
        old_engine.run(population, policy)
        old_fingerprint = old_engine.last_report.fingerprint
        old_dir = old_engine.last_report.store_dir
        assert old_engine.last_report.executed == len(population)

        monkeypatch.undo()
        new_engine = CampaignEngine(smoke_context, jobs=1, store_base=tmp_path)
        new_engine.run(population, policy)
        # Nothing resumed: the strategy-tagged campaign owns a fresh store.
        assert new_engine.last_report.skipped == 0
        assert new_engine.last_report.executed == len(population)
        assert new_engine.last_report.fingerprint != old_fingerprint
        assert new_engine.last_report.store_dir != old_dir
        # Forcing a different campaign onto the old store's directory (same
        # policy, colliding 16-char prefix) is refused outright.
        colliding = old_fingerprint[:16] + "f" * (len(old_fingerprint) - 16)
        assert colliding != old_fingerprint
        with pytest.raises(CampaignStoreError):
            CampaignStore.open(tmp_path, colliding, manifest={"policy": policy.name})


class TestStoreIntegrity:
    """Checksummed lines, manifest corruption, ENOSPC and verify-store."""

    def _store_with_results(self, framework, population, tmp_path):
        jobs = build_jobs(framework, population, FixedEpochPolicy(0.0))
        results = [execute_job(framework, job) for job in jobs]
        store = CampaignStore.open(tmp_path, "e" * 64, manifest={"policy": "p"})
        store.append_many(results)
        return store, results

    def test_lines_are_checksummed_and_verify_clean(
        self, framework, population, tmp_path
    ):
        store, results = self._store_with_results(framework, population, tmp_path)
        for line in store.results_path.read_text().splitlines():
            assert '"checksum"' in line
            result, status = decode_result_line(line)
            assert status == "ok"
        report = store.verify()
        assert report.is_clean
        assert report.valid == len(results)
        assert report.legacy_unchecksummed == 0
        assert "clean" in report.describe()

    def test_silent_corruption_detected_and_chip_re_executed(
        self, framework, population, tmp_path
    ):
        """A flipped digit in a still-parseable line — which the pre-checksum
        reader accepted as a valid row — is now detected and skipped."""
        store, results = self._store_with_results(framework, population, tmp_path)
        lines = store.results_path.read_text().splitlines()
        row = json.loads(lines[0])
        row["accuracy_after"] = row["accuracy_after"] + 0.125  # silent bit-rot
        corrupted = json.dumps(row, sort_keys=True)
        assert json.loads(corrupted)  # the old reader would have taken it
        store.results_path.write_text("\n".join([corrupted] + lines[1:]) + "\n")

        assert decode_result_line(corrupted) == (None, "checksum-mismatch")
        completed = store.completed()
        assert results[0].chip_id not in completed
        assert len(completed) == len(results) - 1
        report = store.verify()
        assert not report.is_clean
        assert report.checksum_mismatches == [1]

    def test_legacy_unchecksummed_lines_remain_readable(
        self, framework, population, tmp_path
    ):
        store, results = self._store_with_results(framework, population, tmp_path)
        # Rewrite the store as a pre-checksum (v4) store would have left it.
        store.results_path.write_text(
            "".join(json.dumps(r.to_dict(), sort_keys=True) + "\n" for r in results)
        )
        assert list(store.completed().values()) == results
        report = store.verify()
        assert report.is_clean
        assert report.legacy_unchecksummed == len(results)
        # compact() canonicalizes legacy lines to checksummed ones.
        assert list(store.compact().values()) == results
        assert store.verify().legacy_unchecksummed == 0
        assert list(store.completed().values()) == results

    def test_clean_compact_fsyncs_file_and_directory_in_place(
        self, framework, population, tmp_path, monkeypatch
    ):
        store, results = self._store_with_results(framework, population, tmp_path)
        before = store.results_path.stat()
        synced = _record_fsyncs(monkeypatch)
        assert list(store.compact().values()) == results
        after = store.results_path.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        assert before.st_ino in synced
        assert store.directory.stat().st_ino in synced

    def test_append_creating_results_file_fsyncs_directory(
        self, framework, population, tmp_path, monkeypatch
    ):
        jobs = build_jobs(framework, population, FixedEpochPolicy(0.0))
        results = [execute_job(framework, job) for job in jobs[:2]]
        store = CampaignStore.open(tmp_path, "9" * 64, manifest={"policy": "p"})
        synced = _record_fsyncs(monkeypatch)
        store.append_many(results[:1])
        assert synced == [store.results_path.stat().st_ino, store.directory.stat().st_ino]
        # Later appends only extend an existing entry: the file alone.
        del synced[:]
        store.append_many(results[1:])
        assert synced == [store.results_path.stat().st_ino]

    @pytest.mark.parametrize(
        "damage", ["torn-tail", "duplicate-row", "checksum-mismatch", "legacy"]
    )
    def test_damaged_store_is_rewritten_clean_by_compact(
        self, framework, population, tmp_path, damage
    ):
        store, results = self._store_with_results(framework, population, tmp_path)
        lines = store.results_path.read_text().splitlines()
        expected = results
        if damage == "torn-tail":
            text = "\n".join(lines) + "\n" + lines[0][: len(lines[0]) // 2]
        elif damage == "duplicate-row":
            text = "\n".join(lines + [lines[1]]) + "\n"
        elif damage == "checksum-mismatch":
            row = json.loads(lines[0])
            row["accuracy_after"] += 0.125
            text = "\n".join([json.dumps(row, sort_keys=True)] + lines[1:]) + "\n"
            expected = results[1:]
        else:
            text = "".join(json.dumps(r.to_dict(), sort_keys=True) + "\n" for r in results)
        store.results_path.write_text(text)
        inode = store.results_path.stat().st_ino
        compactions = metrics.counter("store.compactions").value

        assert list(store.compact().values()) == expected
        assert store.results_path.stat().st_ino != inode
        assert metrics.counter("store.compactions").value == compactions + 1
        report = store.verify()
        assert report.is_clean, report.describe()
        assert report.legacy_unchecksummed == 0
        assert report.valid == len(expected)
        # A second compaction finds the rewritten file canonical.
        inode = store.results_path.stat().st_ino
        assert list(store.compact().values()) == expected
        assert store.results_path.stat().st_ino == inode

    def test_torn_tail_repaired_before_next_append(
        self, framework, population, tmp_path
    ):
        store, results = self._store_with_results(framework, population, tmp_path)
        with store.results_path.open("a", encoding="utf-8") as handle:
            handle.write('{"chip_id": "torn-fragm')
        assert store.verify().torn_tail
        store.append(results[0])
        report = store.verify()
        assert not report.torn_tail
        assert report.is_clean or set(report.duplicates) == {results[0].chip_id}
        assert len(store.completed()) == len(results)

    def test_corrupt_manifest_with_results_refuses_open(
        self, framework, population, tmp_path
    ):
        store, _ = self._store_with_results(framework, population, tmp_path)
        store.manifest_path.write_text("{ not json")
        with pytest.raises(CampaignStoreError, match="refusing"):
            CampaignStore.open(tmp_path, "e" * 64, manifest={"policy": "p"})
        assert not store.verify().is_clean
        assert store.verify().manifest_error

    def test_corrupt_manifest_of_empty_store_is_overwritten(self, tmp_path):
        store = CampaignStore.open(tmp_path, "f" * 64, manifest={"policy": "p"})
        store.manifest_path.write_text("{ not json")
        reopened = CampaignStore.open(tmp_path, "f" * 64, manifest={"policy": "p"})
        assert reopened.read_manifest()["fingerprint"] == "f" * 64

    def test_failed_append_rolls_back_and_raises(
        self, framework, population, tmp_path, monkeypatch
    ):
        import errno

        store, results = self._store_with_results(framework, population, tmp_path)
        before = store.results_path.read_bytes()

        def no_space(fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "fsync", no_space)
        with pytest.raises(CampaignStoreError, match="disk full"):
            store.append_many(results[:1])
        monkeypatch.undo()
        # The half-flushed group never masquerades as durable rows.
        assert store.results_path.read_bytes() == before
        assert list(store.completed().values()) == results

    def test_verify_store_cli_reports_corruption(
        self, framework, population, tmp_path, capsys
    ):
        store, _ = self._store_with_results(framework, population, tmp_path)
        assert main(["verify-store", str(tmp_path)]) == 0
        assert "all clean" in capsys.readouterr().out

        lines = store.results_path.read_text().splitlines()
        row = json.loads(lines[0])
        row["epochs_trained"] = 99.0
        store.results_path.write_text(
            "\n".join([json.dumps(row, sort_keys=True)] + lines[1:]) + "\n"
        )
        assert main(["verify-store", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "checksum mismatch" in out
        assert "INTEGRITY ISSUES FOUND" in out

    def test_verify_store_cli_without_stores(self, tmp_path, capsys):
        assert main(["verify-store", str(tmp_path / "nowhere")]) == 1
        assert "no campaign stores" in capsys.readouterr().out


def _record_fsyncs(monkeypatch):
    """Spy on ``os.fsync``: the inode of every file or directory synced, in order."""
    synced = []
    fsync = os.fsync

    def recording_fsync(fd):
        synced.append(os.fstat(fd).st_ino)
        return fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    return synced


class TestHeartbeat:
    def _capture(self):
        import logging

        class ListHandler(logging.Handler):
            def __init__(self):
                super().__init__(level=logging.INFO)
                self.messages = []

            def emit(self, record):
                self.messages.append(record.getMessage())

        return ListHandler()

    def test_heartbeat_logs_progress_and_throughput(self, smoke_context, population):
        import logging

        from repro.utils.logging import get_logger

        handler = self._capture()
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
        # heartbeat_seconds=0 fires after every chunk except the last one
        # (completion is covered by the final report line).
        assert len(beats) == len(population) - 1
        assert "chips/s" in beats[0]
        final = [m for m in handler.messages if "campaign finished" in m]
        assert final and "rate=" in final[0]

    def test_heartbeat_disabled(self, smoke_context, population):
        import logging

        from repro.utils.logging import get_logger

        handler = self._capture()
        logger = get_logger("campaign.engine")
        previous_level = logger.level
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        try:
            engine = CampaignEngine(smoke_context, jobs=1, heartbeat_seconds=None)
            engine.run(population, FixedEpochPolicy(0.0))
        finally:
            logger.removeHandler(handler)
            logger.setLevel(previous_level)
        assert not any("heartbeat" in m for m in handler.messages)

    def test_negative_heartbeat_rejected(self, smoke_context):
        with pytest.raises(ValueError):
            CampaignEngine(smoke_context, heartbeat_seconds=-1.0)


class TestFingerprint:
    def test_fingerprint_is_stable_and_input_sensitive(self, framework, population):
        preset = smoke_preset()
        jobs = build_jobs(framework, population, FixedEpochPolicy(0.25))
        base = campaign_fingerprint(preset, "fixed-0.25ep", 0.9, jobs)
        assert base == campaign_fingerprint(preset, "fixed-0.25ep", 0.9, jobs)
        assert base != campaign_fingerprint(preset, "fixed-0.5ep", 0.9, jobs)
        assert base != campaign_fingerprint(preset, "fixed-0.25ep", 0.91, jobs)
        other_jobs = build_jobs(framework, population, FixedEpochPolicy(0.5))
        assert base != campaign_fingerprint(preset, "fixed-0.25ep", 0.9, other_jobs)
        smaller = ChipPopulation(population.chips[:2])
        fewer_jobs = build_jobs(framework, smaller, FixedEpochPolicy(0.25))
        assert base != campaign_fingerprint(preset, "fixed-0.25ep", 0.9, fewer_jobs)


    def test_fingerprint_golden_digest(self, framework, population):
        # Pinned so any change to job or fault-map serialization that would
        # orphan existing stores fails here by name, not via a later resume.
        jobs = build_jobs(framework, population, FixedEpochPolicy(0.25))
        assert campaign_fingerprint(smoke_preset(), "fixed-0.25ep", 0.9, jobs) == (
            "62d4f51409bc9bd42f70159c86fdc23464462ea33dd7b9e6d4293161da2a9f9b"
        )


class TestDiskCache:
    def _tiny_preset(self):
        preset = smoke_preset()
        preset.pretrain_epochs = 1.0
        return preset

    def test_cache_files_written_and_reloaded(self, tmp_path, monkeypatch):
        preset = self._tiny_preset()
        first = ExperimentContext.from_preset(preset, use_cache=False, disk_cache_dir=tmp_path)
        cached_files = sorted(p.name for p in tmp_path.iterdir())
        assert any(name.endswith(".npz") for name in cached_files)
        assert any(name.endswith(".json") for name in cached_files)

        # A second build must not pre-train: poison the Trainer to prove it.
        class _Boom:
            def __init__(self, *args, **kwargs):
                raise AssertionError("pre-training ran despite a warm disk cache")

        monkeypatch.setattr("repro.experiments.common.Trainer", _Boom)
        second = ExperimentContext.from_preset(preset, use_cache=False, disk_cache_dir=tmp_path)
        assert state_dicts_equal(first.pretrained_state, second.pretrained_state)
        assert second.clean_accuracy == first.clean_accuracy

    @pytest.mark.parametrize(
        "corruption",
        [b"garbage", b"PK\x03\x04truncated-zip"],
        ids=["not-a-zip", "torn-zip"],
    )
    def test_unreadable_cache_entry_falls_back_to_pretraining(self, tmp_path, corruption):
        preset = self._tiny_preset()
        first = ExperimentContext.from_preset(preset, use_cache=False, disk_cache_dir=tmp_path)
        for path in tmp_path.glob("*.npz"):
            path.write_bytes(corruption)
        second = ExperimentContext.from_preset(preset, use_cache=False, disk_cache_dir=tmp_path)
        assert state_dicts_equal(first.pretrained_state, second.pretrained_state)

    # -- Step-1 profile entries ----------------------------------------------------

    @staticmethod
    def _profile_path(cache_dir):
        (path,) = cache_dir.glob("*.profile.json")
        return path

    @staticmethod
    def _count_analyzer_runs(monkeypatch):
        from repro.core.resilience import ResilienceAnalyzer

        calls = []
        original = ResilienceAnalyzer.run

        def counting_run(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ResilienceAnalyzer, "run", counting_run)
        return calls

    def test_profile_persisted_and_reloaded_without_step1(self, tmp_path, monkeypatch, population):
        from repro.core.resilience import ResilienceAnalyzer

        preset = self._tiny_preset()
        first = ExperimentContext.from_preset(preset, use_cache=False, disk_cache_dir=tmp_path)
        profile = first.resilience_profile()
        assert self._profile_path(tmp_path).exists()

        def _boom(self, *args, **kwargs):
            raise AssertionError("Step 1 ran despite a warm profile cache")

        monkeypatch.setattr(ResilienceAnalyzer, "run", _boom)
        second = ExperimentContext.from_preset(preset, use_cache=False, disk_cache_dir=tmp_path)
        loaded = second.resilience_profile()
        assert np.array_equal(loaded.accuracies, profile.accuracies)
        assert loaded.clean_accuracy == profile.clean_accuracy
        for statistic in ("max", "mean"):
            assert second.framework().build_policy(statistic).epochs_for_population(
                population
            ) == first.framework().build_policy(statistic).epochs_for_population(population)

    def test_profile_not_persisted_without_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        context = ExperimentContext.from_preset(self._tiny_preset(), use_cache=False)
        assert context.disk_cache_dir is None
        context.resilience_profile()
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda path: path.write_bytes(b"garbage"),
            lambda path: path.write_bytes(path.read_bytes()[:40]),
            lambda path: path.write_text(json.dumps([1, 2])),
            lambda path: _edit_profile(path, fault_rates=lambda rates: rates[:-1] + [0.99]),
            lambda path: _edit_profile(
                path, epoch_checkpoints=lambda checkpoints: [0.0] + [c * 2 for c in checkpoints[1:]]
            ),
            lambda path: _edit_profile(
                path, accuracies=lambda grid: [rate[:1] for rate in grid]
            ),
            lambda path: _edit_profile(path, clean_accuracy=lambda value: value - 0.125),
        ],
        ids=["garbage", "torn", "not-a-dict", "rates", "checkpoints", "trials", "clean-accuracy"],
    )
    def test_bad_profile_entry_is_recomputed(self, tmp_path, monkeypatch, mutate):
        preset = self._tiny_preset()
        first = ExperimentContext.from_preset(preset, use_cache=False, disk_cache_dir=tmp_path)
        expected = first.resilience_profile().to_dict()
        path = self._profile_path(tmp_path)
        mutate(path)

        calls = self._count_analyzer_runs(monkeypatch)
        second = ExperimentContext.from_preset(preset, use_cache=False, disk_cache_dir=tmp_path)
        assert second.resilience_profile().to_dict() == expected
        assert len(calls) == 1
        # The recomputed profile replaced the bad entry.
        assert json.loads(path.read_text()) == expected

    def test_force_recomputes_and_rewrites_entry(self, tmp_path, monkeypatch):
        preset = self._tiny_preset()
        first = ExperimentContext.from_preset(preset, use_cache=False, disk_cache_dir=tmp_path)
        expected = first.resilience_profile().to_dict()
        path = self._profile_path(tmp_path)
        # A consistent but different entry is a hit, so it is what loads ...
        _edit_profile(path, accuracies=lambda grid: [[[0.5] * len(t) for t in r] for r in grid])

        calls = self._count_analyzer_runs(monkeypatch)
        second = ExperimentContext.from_preset(preset, use_cache=False, disk_cache_dir=tmp_path)
        assert np.all(second.resilience_profile().accuracies == 0.5)
        assert not calls
        # ... until force=True recomputes the profile and overwrites the entry.
        assert second.resilience_profile(force=True).to_dict() == expected
        assert len(calls) == 1
        assert json.loads(path.read_text()) == expected

    def test_step1_span_and_counters_report_cache_state(self, tmp_path, monkeypatch):
        from repro.observability import metrics, read_shard, trace

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        preset = self._tiny_preset()
        trace.enable(tmp_path / "trace")
        metrics.reset()
        metrics.enabled = True
        try:
            for cache_dir in (None, tmp_path / "cache", tmp_path / "cache"):
                context = ExperimentContext.from_preset(
                    preset, use_cache=False, disk_cache_dir=cache_dir
                )
                context.resilience_profile()
            trace.flush()
            events = read_shard(trace.shard_path())
            counters = metrics.snapshot()
        finally:
            trace.disable()
            metrics.enabled = False
            metrics.reset()
        spans = [e for e in events if e["name"] == "step1.profile"]
        assert [span["attrs"]["cache"] for span in spans] == ["off", "miss", "hit"]
        assert counters["step1.profile_cache_hits"]["value"] == 1
        assert counters["step1.profile_cache_misses"]["value"] == 1

    def test_reduce_campaign_with_warm_profile_cache_is_byte_identical(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.core.resilience import ResilienceAnalyzer

        def run(campaign_dir):
            # A fresh in-memory context cache per run, as in a new process.
            monkeypatch.setattr("repro.experiments.common._CONTEXT_CACHE", {})
            argv = [
                "campaign", "--preset", "smoke", "--chips", "3",
                "--policy", "reduce-mean",
                "--cache-dir", str(tmp_path / "cache"),
                "--campaign-dir", str(tmp_path / campaign_dir),
            ]
            assert main(argv) == 0
            assert "executed=3" in capsys.readouterr().out
            (results,) = (tmp_path / campaign_dir).glob("*/results.jsonl")
            return results.read_bytes()

        cold = run("first")
        assert list((tmp_path / "cache").glob("*.profile.json"))

        def _boom(self, *args, **kwargs):
            raise AssertionError("Step 1 ran despite a warm profile cache")

        monkeypatch.setattr(ResilienceAnalyzer, "run", _boom)
        assert run("second") == cold


def _edit_profile(path, **edits):
    """Rewrite fields of a cached profile entry in place."""
    data = json.loads(path.read_text())
    for key, edit in edits.items():
        data[key] = edit(data[key])
    path.write_text(json.dumps(data))


class TestCampaignCli:
    def test_campaign_command_runs_and_resumes(self, capsys, tmp_path):
        base = [
            "campaign",
            "--preset",
            "smoke",
            "--chips",
            "3",
            "--policy",
            "fixed",
            "--fixed-epochs",
            "0.25",
            "--campaign-dir",
            str(tmp_path / "campaigns"),
            "--output",
            str(tmp_path / "campaign.json"),
        ]
        assert main(base + ["--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "fixed-0.25ep" in out
        assert "executed=3" in out
        payload = json.loads((tmp_path / "campaign.json").read_text())
        assert payload["figure"] == "campaign"
        assert payload["report"]["executed"] == 3
        assert len(payload["chips"]) == 3

        assert main(base) == 0
        out = capsys.readouterr().out
        assert "skipped=3" in out
        rerun = json.loads((tmp_path / "campaign.json").read_text())
        assert rerun["report"]["executed"] == 0
        assert rerun["chips"] == payload["chips"]

    def test_fig3_accepts_jobs_and_campaign_dir(self, capsys, tmp_path):
        args = [
            "fig3",
            "--preset",
            "smoke",
            "--chips",
            "2",
            "--jobs",
            "2",
            "--campaign-dir",
            str(tmp_path / "campaigns"),
        ]
        assert main(args) == 0
        assert "reduce-max" in capsys.readouterr().out
        stores = list((tmp_path / "campaigns").iterdir())
        # One store per policy: reduce-max, reduce-mean and the fixed budgets.
        assert len(stores) >= 3
        # Re-running resumes every policy from the stores.
        assert main(args) == 0
        assert "reduce-max" in capsys.readouterr().out

    def test_jobs_must_be_positive(self):
        with pytest.raises(SystemExit):
            main(["fig3", "--preset", "smoke", "--jobs", "0"])

    def test_engine_args_validated_before_context_build(self, capsys):
        """Bad engine-constructor args exit with a usage error (code 2), not
        a traceback from CampaignEngine.__init__ after pre-training."""
        for argv in (
            ["campaign", "--preset", "smoke", "--fat-batch", "0"],
            ["campaign", "--preset", "smoke", "--chips", "0"],
            ["campaign", "--preset", "smoke", "--fixed-epochs", "-1"],
            ["campaign", "--preset", "smoke", "--max-chunk-retries", "-1"],
            ["campaign", "--preset", "smoke", "--chunk-timeout", "0"],
            ["campaign", "--preset", "smoke", "--chaos", "kill"],
            ["campaign", "--preset", "smoke", "--chaos", "frobnicate=1"],
            ["campaign", "--preset", "smoke", "--chaos", "kill=many"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert "usage:" in err
