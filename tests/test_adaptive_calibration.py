"""Tests for the adaptive-incremental baseline, BN recalibration and profile persistence."""

import numpy as np
import pytest

from repro import nn
from repro.accelerator import FaultMap
from repro.core import (
    ChipPopulation,
    load_profile,
    run_adaptive_campaign,
    save_profile,
)
from repro.core.adaptive import adaptive_retrain_chip
from repro.mitigation import apply_fap, recalibrate_batchnorm, reset_batchnorm_stats
from repro.training import Trainer, TrainingConfig, evaluate_accuracy

from tests.test_profiles import make_profile


class TestAdaptiveRetraining:
    @pytest.fixture()
    def framework(self, smoke_context):
        framework = smoke_context.framework()
        framework.analyze_resilience()
        return framework

    def test_adaptive_chip_meets_or_exhausts_budget(self, framework, smoke_context):
        population = ChipPopulation.generate(
            2, *smoke_context.array.shape, fault_rates=[0.0, 0.3], seed=5
        )
        clean_chip_result, clean_evals = adaptive_retrain_chip(framework, population[0], [0.25, 1.0])
        # A fault-free chip needs no retraining and only the initial evaluation.
        assert clean_chip_result.epochs_trained == 0.0
        assert clean_evals == 1
        assert clean_chip_result.meets_constraint

        faulty_result, faulty_evals = adaptive_retrain_chip(framework, population[1], [0.25, 1.0])
        assert faulty_evals >= 1
        assert faulty_result.epochs_trained <= 1.0 + 1e-6
        if not faulty_result.meets_constraint:
            # Budget exhausted: it must have trained up to the full schedule.
            assert faulty_result.epochs_trained == pytest.approx(1.0, rel=0.05)

    def test_adaptive_campaign_bookkeeping(self, framework, smoke_context):
        population = ChipPopulation.generate(
            3, *smoke_context.array.shape, fault_rates=(0.0, 0.25), seed=6
        )
        result = run_adaptive_campaign(framework, population, increments=[0.25, 1.0])
        assert result.campaign.policy_name == "adaptive-incremental"
        assert result.campaign.num_chips == 3
        assert set(result.evaluations_per_chip) == {chip.chip_id for chip in population}
        assert result.total_evaluations >= 3  # at least the initial evaluation per chip
        assert result.average_evaluations >= 1.0

    def test_invalid_increments(self, framework, smoke_context):
        population = ChipPopulation.generate(1, *smoke_context.array.shape, seed=0)
        with pytest.raises(ValueError):
            adaptive_retrain_chip(framework, population[0], [])


class TestBatchNormCalibration:
    def _bn_model(self, seed=0):
        return nn.Sequential(
            nn.Conv2d(2, 4, 3, padding=1, bias=False, rng=seed),
            nn.BatchNorm2d(4),
            nn.ReLU(),
            nn.Flatten(),
            nn.Linear(4 * 8 * 8, 4, rng=seed + 1),
        )

    def test_reset_batchnorm_stats(self):
        model = self._bn_model()
        bn = model[1]
        bn.running_mean = np.full(4, 3.0, dtype=np.float32)
        assert reset_batchnorm_stats(model) == 1
        np.testing.assert_allclose(bn.running_mean, np.zeros(4))
        np.testing.assert_allclose(bn.running_var, np.ones(4))

    def test_recalibration_updates_stats_without_touching_weights(self, image_bundle):
        model = self._bn_model()
        weights_before = model[0].weight.data.copy()
        used = recalibrate_batchnorm(model, image_bundle.train, num_batches=2, batch_size=16)
        assert used == 2
        assert not np.allclose(model[1].running_mean, 0.0)
        np.testing.assert_allclose(model[0].weight.data, weights_before)

    def test_recalibration_restores_mode_and_momentum(self, image_bundle):
        model = self._bn_model()
        model.eval()
        original_momentum = model[1].momentum
        recalibrate_batchnorm(model, image_bundle.train, num_batches=1, momentum=0.5)
        assert not model.training
        assert model[1].momentum == original_momentum

    def test_no_batchnorm_is_noop(self, image_bundle, small_mlp):
        assert recalibrate_batchnorm(small_mlp, image_bundle.train) == 0

    def test_recalibration_helps_after_fap(self, image_bundle):
        """After pruning, recalibrated BN statistics should not hurt accuracy."""
        model = self._bn_model(seed=3)
        config = TrainingConfig(learning_rate=0.05, batch_size=16, seed=0)
        Trainer(model, image_bundle.train, image_bundle.test, config).train(3.0)
        apply_fap(model, FaultMap.random(16, 16, 0.4, seed=2))
        stale = evaluate_accuracy(model, image_bundle.test)
        recalibrate_batchnorm(model, image_bundle.train)
        recalibrated = evaluate_accuracy(model, image_bundle.test)
        assert recalibrated >= stale - 0.1


class TestProfilePersistence:
    def test_save_and_load_round_trip(self, tmp_path):
        profile = make_profile()
        path = tmp_path / "profiles" / "resilience.json"
        save_profile(profile, path)
        restored = load_profile(path)
        np.testing.assert_allclose(restored.accuracies, profile.accuracies)
        np.testing.assert_allclose(restored.epoch_checkpoints, profile.epoch_checkpoints)
        assert restored.clean_accuracy == profile.clean_accuracy
        # Lookups behave identically after the round trip.
        assert restored.epochs_required(0.15, 0.93, statistic="max") == profile.epochs_required(
            0.15, 0.93, statistic="max"
        )

    def test_save_is_atomic(self, tmp_path, monkeypatch):
        profile = make_profile()
        path = tmp_path / "resilience.json"
        save_profile(profile, path)

        def killed_before_rename(src, dst):
            raise OSError("killed before the rename")

        # A write interrupted before its rename leaves the old entry intact.
        monkeypatch.setattr("repro.utils.config.os.replace", killed_before_rename)
        with pytest.raises(OSError):
            save_profile(make_profile(), path)
        assert np.array_equal(load_profile(path).accuracies, profile.accuracies)
