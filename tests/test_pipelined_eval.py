"""Determinism tests for the pipelined evaluation path.

The pipelined eval path — background batch prefetch, widened multi-checkpoint
GEMMs, and the sweep-wide shared lowering cache — is a pure performance
feature: every knob combination must produce bit-identical results, stores and
fingerprints.  These tests pin that contract at every level: the prefetcher
unit, the batched evaluator/trainer, whole campaigns (serial, ``--jobs 2 x
--fat-batch 4``, chaos kill and kill/resume) and multi-arm strategy sweeps,
where arms 2..K must *hit* the lowerings arm 1 computed.

The smoke preset is an MLP, which never exercises the im2col lowering cache,
so campaign-level tests run a conv variant of it (LeNet-5 on 12x12 images).
"""

from __future__ import annotations

import dataclasses
import json
import time

import numpy as np
import pytest

from repro import nn
from repro.accelerator import FaultMap, model_fault_masks
from repro.accelerator.batched import (
    BatchedFaultEvaluator,
    BatchedFaultTrainer,
    EvalPipeline,
    LoweringCache,
    _LoweringPrefetcher,
)
from repro.campaign import CampaignEngine
from repro.campaign.sweep import run_strategy_sweep
from repro.cli import main
from repro.core.chips import ChipPopulation
from repro.core.selection import FixedEpochPolicy
from repro.experiments import ExperimentContext, smoke_preset
from repro.experiments.presets import ModelSpec
from repro.observability import metrics
from repro.training import TrainingConfig


def _conv_preset():
    """The smoke preset with a conv model, so eval passes im2col-lower.

    ``test_per_class=40`` gives the trainer's eval loader (batch size 128)
    more than one batch, so the background prefetcher genuinely runs during
    campaign evaluations instead of being a no-op on a single batch.
    """
    base = smoke_preset()
    return dataclasses.replace(
        base,
        name="smoke-conv",
        dataset=dataclasses.replace(base.dataset, image_size=12, test_per_class=40),
        model=ModelSpec(name="lenet5", kwargs={}),
    )


def _fresh_conv_context():
    return ExperimentContext.from_preset(_conv_preset(), use_cache=False)


@pytest.fixture(scope="module")
def conv_context():
    return _fresh_conv_context()


@pytest.fixture(scope="module")
def conv_population(conv_context):
    preset = conv_context.preset
    return ChipPopulation.generate(
        count=4,
        rows=preset.array_rows,
        cols=preset.array_cols,
        fault_rates=(0.05, 0.25),
        seed=123,
    )


@pytest.fixture
def enabled_metrics():
    metrics.enabled = True
    metrics.reset()
    try:
        yield metrics
    finally:
        metrics.enabled = False
        metrics.reset()


def _lowering_counters():
    snap = metrics.snapshot()
    return {
        key.split(".", 1)[1]: value["value"]
        for key, value in snap.items()
        if key.startswith("lowering_cache.") and value["type"] == "counter"
    }


def _small_cnn(bundle, rng_base=0):
    channels = bundle.input_shape[0]
    return nn.Sequential(
        nn.Conv2d(channels, 4, 3, padding=1, rng=rng_base),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Conv2d(4, 6, 3, padding=1, rng=rng_base + 1),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Flatten(),
        nn.Linear(6 * 2 * 2, bundle.num_classes, rng=rng_base + 2),
    )


def _cnn_mask_sets(bundle, num_chips=3):
    return [
        model_fault_masks(
            _small_cnn(bundle), FaultMap.random(16, 16, 0.05 + 0.04 * i, seed=i)
        )
        for i in range(num_chips)
    ]


def _assert_histories_equal(actual, expected):
    """Record-by-record history equality with NaN-aware loss comparison."""
    assert len(actual) == len(expected)
    for history, reference in zip(actual, expected):
        assert history.epochs == reference.epochs
        assert history.accuracies == reference.accuracies
        assert len(history.records) == len(reference.records)
        for record, ref in zip(history.records, reference.records):
            assert record.steps == ref.steps
            if np.isnan(ref.train_loss):
                assert np.isnan(record.train_loss)
            else:
                assert record.train_loss == ref.train_loss


class TestPrefetcherUnit:
    def test_prefetcher_populates_cache_in_background(self):
        cache = LoweringCache()
        prefetcher = _LoweringPrefetcher(cache)
        data = np.arange(12.0, dtype=np.float32).reshape(3, 4)

        def lower(batch):
            return batch * 2.0, 2, 2

        try:
            prefetcher.offer_recipe("im2col", "conv1", 3, lower)
            prefetcher.submit(1, data)
            deadline = time.monotonic() + 5.0
            while len(cache) == 0 and time.monotonic() < deadline:
                time.sleep(0.001)
        finally:
            prefetcher.close()
        assert len(cache) == 1
        entry = cache.get_or_compute(
            ("im2col", "conv1", 3, 1), lambda: pytest.fail("expected a cache hit")
        )
        np.testing.assert_array_equal(entry[0], data * 2.0)
        assert entry[1:] == (2, 2)

    def test_submissions_without_recipe_are_dropped(self):
        cache = LoweringCache()
        prefetcher = _LoweringPrefetcher(cache)
        prefetcher.submit(0, np.zeros((2, 2), dtype=np.float32))
        prefetcher.close()  # never started: close is a no-op
        assert len(cache) == 0

    def test_first_recipe_wins(self):
        prefetcher = _LoweringPrefetcher(LoweringCache())
        first = lambda batch: (batch, 1, 1)  # noqa: E731
        prefetcher.offer_recipe("im2col", "conv1", 8, first)
        prefetcher.offer_recipe("im2col_t", "conv2", 16, lambda batch: (batch, 9, 9))
        assert prefetcher._recipe == ("im2col", "conv1", 8, first)


class TestEvaluatorPrefetch:
    def test_prefetch_on_off_accuracies_identical(self, image_bundle, enabled_metrics):
        model = _small_cnn(image_bundle)
        mask_sets = _cnn_mask_sets(image_bundle)
        num_batches = -(-len(image_bundle.test) // 16)
        assert num_batches > 1  # otherwise prefetch has nothing to overlap

        on = BatchedFaultEvaluator(
            model, mask_sets, lowering_cache=LoweringCache(), prefetch=True
        ).evaluate_accuracy(image_bundle.test, batch_size=16)
        on_counters = _lowering_counters()
        metrics.reset()
        off = BatchedFaultEvaluator(
            model, mask_sets, lowering_cache=LoweringCache(), prefetch=False
        ).evaluate_accuracy(image_bundle.test, batch_size=16)
        off_counters = _lowering_counters()

        assert on == off
        # The consuming thread observes every batch exactly once either way;
        # with prefetch on, any background computation lands under
        # ``prefetched`` (and turns the consumer's miss into a hit), never
        # double-counting a miss.
        assert on_counters.get("hits", 0) + on_counters.get("misses", 0) == num_batches
        assert off_counters.get("misses", 0) == num_batches
        assert "prefetched" not in off_counters

    def test_prefetch_disabled_spawns_no_thread(self, image_bundle):
        model = _small_cnn(image_bundle)
        evaluator = BatchedFaultEvaluator(model, _cnn_mask_sets(image_bundle), prefetch=False)
        evaluator.evaluate_accuracy(image_bundle.test, batch_size=16)
        assert evaluator._prefetcher is None


class TestWidenedEval:
    def _train(self, bundle, widened):
        model = _small_cnn(bundle)
        trainer = BatchedFaultTrainer(
            model,
            _cnn_mask_sets(bundle),
            bundle.train,
            bundle.test,
            config=TrainingConfig(learning_rate=0.05, batch_size=16, seed=3),
            widened_eval=widened,
        )
        histories = trainer.train(1.0, eval_checkpoints=[0.5, 1.0])
        states = [trainer.chip_state_dict(i) for i in range(3)]
        return histories, states

    def test_widened_matches_per_checkpoint_eval(self, image_bundle, monkeypatch):
        """Stacking C checkpoints into one widened GEMM changes nothing."""
        widened_calls = []
        original = BatchedFaultTrainer._evaluate_snapshots_widened

        def counting(self, snapshots):
            widened_calls.append(len(snapshots))
            return original(self, snapshots)

        monkeypatch.setattr(BatchedFaultTrainer, "_evaluate_snapshots_widened", counting)
        wide_histories, wide_states = self._train(image_bundle, widened=True)
        # 3 deferred passes (initial + two checkpoints) ran as one widened GEMM.
        assert widened_calls == [3]
        plain_histories, plain_states = self._train(image_bundle, widened=False)
        _assert_histories_equal(wide_histories, plain_histories)
        for wide, plain in zip(wide_states, plain_states):
            assert set(wide) == set(plain)
            for name in plain:
                np.testing.assert_array_equal(wide[name], plain[name])

    def test_falls_back_per_snapshot_over_the_float_cap(self, image_bundle, monkeypatch):
        """Snapshots too large to concatenate still evaluate identically."""
        import repro.accelerator.batched as batched_module

        plain_histories, _ = self._train(image_bundle, widened=False)
        monkeypatch.setattr(batched_module, "WIDENED_EVAL_MAX_FLOATS", 0)
        capped_histories, _ = self._train(image_bundle, widened=True)
        _assert_histories_equal(capped_histories, plain_histories)

    def test_single_checkpoint_run_is_not_deferred(self, image_bundle, monkeypatch):
        """The campaign path (one final checkpoint, no initial) stays inline."""
        called = []
        monkeypatch.setattr(
            BatchedFaultTrainer,
            "_evaluate_snapshots",
            lambda self, snapshots: called.append(len(snapshots)) or [],
        )
        model = _small_cnn(image_bundle)
        trainer = BatchedFaultTrainer(
            model,
            _cnn_mask_sets(image_bundle),
            image_bundle.train,
            image_bundle.test,
            config=TrainingConfig(learning_rate=0.05, batch_size=16, seed=3),
            widened_eval=True,
        )
        trainer.train(0.25, include_initial=False)
        # The final drain ran, but with zero deferred snapshots: the single
        # checkpoint was evaluated inline, exactly as on the campaign path.
        assert called == [0]


class TestCampaignPrefetchDeterminism:
    def _run(self, context, population, store_base, **engine_kwargs):
        engine = CampaignEngine(context, store_base=store_base, **engine_kwargs)
        result = engine.run(population, FixedEpochPolicy(0.25))
        report = engine.last_report
        store_bytes = (report.store_dir / "results.jsonl").read_bytes()
        return result, report, store_bytes

    def test_prefetch_on_off_stores_bit_identical(
        self, conv_context, conv_population, tmp_path
    ):
        on, on_report, on_bytes = self._run(
            conv_context, conv_population, tmp_path / "on", jobs=1, prefetch=True
        )
        off, off_report, off_bytes = self._run(
            conv_context, conv_population, tmp_path / "off", jobs=1, prefetch=False
        )
        assert on.results == off.results
        assert on_bytes == off_bytes
        # Prefetch is not part of the work definition: same fingerprint, so
        # a store written with it off resumes a campaign run with it on.
        assert on_report.fingerprint == off_report.fingerprint

    def test_prefetch_under_jobs_and_fat_batch(
        self, conv_context, conv_population, tmp_path
    ):
        """--jobs 2 x --fat-batch 4 with prefetch on matches prefetch off."""
        on, _, on_bytes = self._run(
            conv_context,
            conv_population,
            tmp_path / "on",
            jobs=2,
            fat_batch=4,
            prefetch=True,
        )
        off, _, off_bytes = self._run(
            conv_context,
            conv_population,
            tmp_path / "off",
            jobs=2,
            fat_batch=4,
            prefetch=False,
        )
        assert on.results == off.results
        # A parallel store appends chunks in completion order, which varies
        # run to run with or without prefetch; the recorded lines themselves
        # must match byte for byte.
        assert sorted(on_bytes.splitlines()) == sorted(off_bytes.splitlines())

    def test_killed_then_resumed_with_prefetch(
        self, conv_context, conv_population, tmp_path
    ):
        full, report, _ = self._run(
            conv_context,
            conv_population,
            tmp_path,
            jobs=2,
            fat_batch=4,
            prefetch=True,
        )
        results_path = report.store_dir / "results.jsonl"
        lines = results_path.read_text().splitlines()
        results_path.write_text("\n".join(lines[:2]) + "\n" + lines[2][: len(lines[2]) // 2])

        resumed, resumed_report, _ = self._run(
            conv_context,
            conv_population,
            tmp_path,
            jobs=2,
            fat_batch=4,
            prefetch=True,
        )
        assert resumed_report.skipped == 2
        assert resumed_report.executed == len(conv_population) - 2
        assert resumed.results == full.results
        recorded = [
            json.loads(line)["chip_id"]
            for line in results_path.read_text().strip().splitlines()
        ]
        assert len(recorded) == len(set(recorded)) == len(conv_population)

    def test_chaos_worker_kill_with_prefetch(
        self, conv_context, conv_population, tmp_path
    ):
        baseline, _, _ = self._run(
            conv_context,
            conv_population,
            tmp_path / "plain",
            jobs=2,
            fat_batch=2,
            prefetch=False,
        )
        chaotic, chaotic_report, _ = self._run(
            conv_context,
            conv_population,
            tmp_path / "chaos",
            jobs=2,
            fat_batch=2,
            prefetch=True,
            chaos="seed=3,kill=1",
        )
        assert chaotic.results == baseline.results
        assert chaotic_report.failed == 0


class TestSweepLoweringReuse:
    def test_later_arms_hit_lowerings_of_the_first(
        self, conv_population, enabled_metrics
    ):
        """Arms 2..K re-use arm 1's eval-batch lowerings: extra hits, zero
        extra misses.  Prefetch is off so the hit/miss split is deterministic
        (background lowerings shift counts between ``misses``/``prefetched``)."""
        policy = FixedEpochPolicy(0.25)
        run_strategy_sweep(
            _fresh_conv_context(),
            conv_population,
            policy,
            "fat",
            fat_batch=2,
            prefetch=False,
        )
        one_arm = _lowering_counters()
        metrics.reset()
        run_strategy_sweep(
            _fresh_conv_context(),
            conv_population,
            policy,
            "fat,fam+fat",
            fat_batch=2,
            prefetch=False,
        )
        two_arms = _lowering_counters()
        assert one_arm.get("hits", 0) > 0
        assert two_arms["misses"] == one_arm["misses"]
        assert two_arms["hits"] > one_arm["hits"]

    def test_cache_bytes_gauge_tracks_shared_cache(
        self, conv_population, enabled_metrics
    ):
        context = _fresh_conv_context()
        run_strategy_sweep(
            context,
            conv_population,
            FixedEpochPolicy(0.25),
            "fat",
            fat_batch=2,
            prefetch=False,
        )
        cache = context.eval_pipeline.cache
        assert cache.nbytes > 0
        assert metrics.snapshot()["lowering_cache.bytes"]["value"] == cache.nbytes


class TestEvalPipelineConfig:
    def test_defaults(self):
        pipeline = EvalPipeline()
        assert pipeline.prefetch is True
        assert pipeline.widened_eval is True
        assert pipeline.cache.max_bytes == int(128.0 * 1024 * 1024)

    def test_configure_updates_in_place(self):
        pipeline = EvalPipeline()
        cache = pipeline.cache
        assert pipeline.configure(prefetch=False, lowering_cache_mb=1.0) is pipeline
        assert pipeline.prefetch is False
        assert pipeline.cache is cache  # same cache object, resized
        assert cache.max_bytes == 1024 * 1024

    def test_negative_cache_mb_rejected(self, smoke_context):
        with pytest.raises(ValueError):
            EvalPipeline(lowering_cache_mb=-1.0)
        with pytest.raises(ValueError):
            CampaignEngine(smoke_context, lowering_cache_mb=-1.0)

    def test_context_pipeline_is_shared_across_frameworks(self, smoke_context):
        pipeline = smoke_context.eval_pipeline
        assert smoke_context.framework().eval_pipeline is pipeline
        assert smoke_context.framework().eval_pipeline is pipeline


class TestCLIFlags:
    def test_negative_lowering_cache_mb_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--preset", "smoke", "--lowering-cache-mb", "-1"])
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_no_prefetch_campaign_runs(self, tmp_path, capsys):
        args = [
            "campaign",
            "--preset",
            "smoke",
            "--chips",
            "2",
            "--no-prefetch",
            "--lowering-cache-mb",
            "16",
            "--campaign-dir",
            str(tmp_path / "campaigns"),
        ]
        assert main(args) == 0
        assert capsys.readouterr().out
