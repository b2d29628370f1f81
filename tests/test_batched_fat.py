"""Exact-equivalence tests for batched multi-chip fault-aware retraining.

The contract of :class:`~repro.accelerator.batched.BatchedFaultTrainer` is
that retraining B chips in one stacked batched loop is *bit-identical* to B
serial :class:`~repro.training.Trainer` runs with the same config: same
per-chip weights, same per-step losses, same checkpoint accuracies.  These
tests pin that on the BLAS build in use, across optimizers, model families
(MLP / CNN), dropout and label smoothing, and then up through the framework
(``retrain_chips_batched``) and the campaign engine's coalescing phase.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.accelerator import FaultMap, model_fault_masks
from repro.accelerator.batched import BatchedFaultTrainer, UnsupportedModelError
from repro.campaign import CampaignEngine, build_jobs, execute_jobs_batched
from repro.core.chips import ChipPopulation
from repro.core.selection import FixedEpochPolicy
from repro.data import make_blob_classification
from repro.models import MLP
from repro.training import Trainer, TrainingConfig


def _mlp_factory(bundle):
    return lambda: MLP(8, bundle.num_classes, hidden_sizes=(24, 16), seed=0)


def _cnn_factory(bundle):
    channels = bundle.input_shape[0]

    def make():
        return nn.Sequential(
            nn.Conv2d(channels, 4, 3, padding=1, rng=0),
            nn.ReLU(),
            nn.MaxPool2d(2),
            nn.Conv2d(4, 6, 3, padding=1, rng=1),
            nn.ReLU(),
            nn.MaxPool2d(2),
            nn.Flatten(),
            nn.Linear(6 * 2 * 2, bundle.num_classes, rng=2),
        )

    return make


def _mask_sets(make_model, num_chips=4, rows=16, cols=16):
    maps = [FaultMap.random(rows, cols, 0.05 + 0.04 * i, seed=i) for i in range(num_chips)]
    return [model_fault_masks(make_model(), fault_map) for fault_map in maps]


def _serial_runs(make_model, pretrained, mask_sets, bundle, config, epochs, checkpoints):
    runs = []
    for masks in mask_sets:
        model = make_model()
        model.load_state_dict(pretrained)
        trainer = Trainer(model, bundle.train, bundle.test, config=config, masks=masks)
        history = trainer.train(epochs, eval_checkpoints=checkpoints)
        runs.append((history, model.state_dict()))
    return runs


def _assert_batched_equals_serial(
    make_model, bundle, mask_sets, config, epochs, checkpoints=None
):
    model = make_model()
    pretrained = model.state_dict()
    serial = _serial_runs(
        make_model, pretrained, mask_sets, bundle, config, epochs, checkpoints
    )
    model.load_state_dict(pretrained)
    batched = BatchedFaultTrainer(
        model, mask_sets, bundle.train, bundle.test, config=config
    )
    histories = batched.train(epochs, eval_checkpoints=checkpoints)
    assert len(histories) == len(mask_sets)
    for chip, (serial_history, serial_state) in enumerate(serial):
        history = histories[chip]
        assert history.epochs == serial_history.epochs
        assert history.accuracies == serial_history.accuracies
        serial_losses = [record.train_loss for record in serial_history.records]
        batched_losses = [record.train_loss for record in history.records]
        for serial_loss, batched_loss in zip(serial_losses, batched_losses):
            if np.isnan(serial_loss):
                assert np.isnan(batched_loss)
            else:
                assert batched_loss == serial_loss
        state = batched.chip_state_dict(chip)
        assert set(state) == set(serial_state)
        for name in serial_state:
            np.testing.assert_array_equal(state[name], serial_state[name])
    # The shared model itself must be untouched by batched training.
    for name, value in model.state_dict().items():
        np.testing.assert_array_equal(value, pretrained[name])
    for _, module in model.named_modules():
        assert "forward" not in module.__dict__


class TestTrainerEquivalence:
    def test_mlp_sgd_momentum_with_checkpoints(self, blob_bundle):
        make = _mlp_factory(blob_bundle)
        _assert_batched_equals_serial(
            make,
            blob_bundle,
            _mask_sets(make, num_chips=5),
            TrainingConfig(learning_rate=0.05, batch_size=16, seed=3),
            epochs=1.5,
            checkpoints=[0.5, 1.0],
        )

    @pytest.mark.parametrize("optimizer", ["adam", "adamw"])
    def test_mlp_adaptive_optimizers(self, blob_bundle, optimizer):
        make = _mlp_factory(blob_bundle)
        _assert_batched_equals_serial(
            make,
            blob_bundle,
            _mask_sets(make),
            TrainingConfig(
                optimizer=optimizer,
                learning_rate=0.003,
                batch_size=16,
                seed=3,
                weight_decay=0.01,
            ),
            epochs=1.0,
        )

    def test_cnn_through_stacked_conv_backward(self, image_bundle):
        make = _cnn_factory(image_bundle)
        _assert_batched_equals_serial(
            make,
            image_bundle,
            _mask_sets(make),
            TrainingConfig(learning_rate=0.02, batch_size=16, seed=5),
            epochs=1.0,
            checkpoints=[0.5],
        )

    def test_dropout_stream_matches_serial(self, blob_bundle):
        def make():
            return MLP(8, blob_bundle.num_classes, hidden_sizes=(32,), dropout=0.5, seed=4)

        _assert_batched_equals_serial(
            make,
            blob_bundle,
            _mask_sets(make, num_chips=3),
            TrainingConfig(learning_rate=0.05, batch_size=16, seed=7),
            epochs=1.0,
        )

    def test_label_smoothing_composition(self, blob_bundle):
        make = _mlp_factory(blob_bundle)
        _assert_batched_equals_serial(
            make,
            blob_bundle,
            _mask_sets(make),
            TrainingConfig(learning_rate=0.05, batch_size=16, seed=3, label_smoothing=0.1),
            epochs=1.0,
        )

    def test_masks_stay_enforced_on_every_chip(self, blob_bundle):
        make = _mlp_factory(blob_bundle)
        mask_sets = _mask_sets(make, num_chips=3)
        model = make()
        trainer = BatchedFaultTrainer(
            model,
            mask_sets,
            blob_bundle.train,
            blob_bundle.test,
            config=TrainingConfig(learning_rate=0.1, batch_size=16, seed=0),
        )
        trainer.train(1.0, include_initial=False)
        for chip, masks in enumerate(mask_sets):
            state = trainer.chip_state_dict(chip)
            for name, mask in masks.items():
                np.testing.assert_array_equal(
                    state[f"{name}.weight"][mask], np.zeros(int(mask.sum()))
                )

    def test_single_chip_batch_matches_serial(self, blob_bundle):
        make = _mlp_factory(blob_bundle)
        _assert_batched_equals_serial(
            make,
            blob_bundle,
            _mask_sets(make, num_chips=1),
            TrainingConfig(learning_rate=0.05, batch_size=16, seed=3),
            epochs=0.5,
        )

    def test_batchnorm1d_model_matches_serial(self, blob_bundle):
        def make():
            return nn.Sequential(
                nn.Linear(8, 16, rng=0),
                nn.BatchNorm1d(16),
                nn.ReLU(),
                nn.Linear(16, blob_bundle.num_classes, rng=1),
            )

        _assert_batched_equals_serial(
            make,
            blob_bundle,
            _mask_sets(make, num_chips=3),
            TrainingConfig(learning_rate=0.05, batch_size=16, seed=3),
            epochs=1.0,
            checkpoints=[0.5],
        )

    def test_batchnorm2d_cnn_matches_serial(self, image_bundle):
        """Training-mode BatchNorm2d/1d through the stacked path.

        The per-chip-fold batch statistics, the fused analytic backward, the
        per-chip running-statistics updates and the eval-mode per-chip
        normalisation must all be bit-identical to the serial trainer —
        state_dict comparison covers running_mean/running_var too.
        """
        channels = image_bundle.input_shape[0]

        def make():
            return nn.Sequential(
                nn.Conv2d(channels, 4, 3, padding=1, bias=False, rng=0),
                nn.BatchNorm2d(4),
                nn.ReLU(),
                nn.MaxPool2d(2),
                nn.Conv2d(4, 6, 3, padding=1, bias=False, rng=1),
                nn.BatchNorm2d(6),
                nn.ReLU(),
                nn.MaxPool2d(2),
                nn.Flatten(),
                nn.Linear(6 * 2 * 2, 8, rng=2),
                nn.BatchNorm1d(8),
                nn.ReLU(),
                nn.Linear(8, image_bundle.num_classes, rng=3),
            )

        _assert_batched_equals_serial(
            make,
            image_bundle,
            _mask_sets(make, num_chips=3),
            TrainingConfig(learning_rate=0.05, batch_size=16, seed=3),
            epochs=1.0,
            checkpoints=[0.5],
        )

    def test_vgg11_mini_trains_through_stacked_path(self, image_bundle):
        """The flagship training-mode-BatchNorm workload: no serial fallback.

        ``vgg11_mini`` exercises the degenerate 1x1-spatial tail convolutions
        (whose K-major lowering is layout-sensitive) on top of a BatchNorm
        after every convolution.
        """
        from repro.models import vgg11_mini

        def make():
            return vgg11_mini(
                input_shape=image_bundle.input_shape,
                num_classes=image_bundle.num_classes,
                seed=0,
            )

        _assert_batched_equals_serial(
            make,
            image_bundle,
            _mask_sets(make, num_chips=2, rows=32, cols=32),
            TrainingConfig(learning_rate=0.02, batch_size=16, seed=5),
            epochs=0.5,
            checkpoints=[0.25],
        )


class TestTrainerValidation:
    def test_empty_mask_sets_rejected(self, blob_bundle):
        with pytest.raises(ValueError):
            BatchedFaultTrainer(
                MLP(8, blob_bundle.num_classes, seed=0),
                [],
                blob_bundle.train,
                blob_bundle.test,
            )

    def test_mismatched_mask_keys_rejected(self, blob_bundle):
        make = _mlp_factory(blob_bundle)
        mask_sets = _mask_sets(make, num_chips=2)
        broken = dict(mask_sets[1])
        broken.pop(next(iter(broken)))
        with pytest.raises(ValueError):
            BatchedFaultTrainer(make(), [mask_sets[0], broken], blob_bundle.train, blob_bundle.test)

    def test_unknown_mask_layer_rejected(self, blob_bundle):
        with pytest.raises(KeyError):
            BatchedFaultTrainer(
                MLP(8, blob_bundle.num_classes, seed=0),
                [{"no.such.layer": np.zeros((1, 1), dtype=bool)}],
                blob_bundle.train,
                blob_bundle.test,
            )

    def test_unknown_parametric_layer_raises_unsupported(self, blob_bundle):
        class Scale(nn.Module):
            def __init__(self):
                super().__init__()
                self.weight = nn.Parameter(np.ones(8, dtype=np.float32))

            def forward(self, x):
                return x * self.weight

        model = nn.Sequential(Scale(), nn.Linear(8, blob_bundle.num_classes, rng=0))
        masks = {"1": np.zeros((blob_bundle.num_classes, 8), dtype=bool)}
        with pytest.raises(UnsupportedModelError):
            BatchedFaultTrainer(model, [masks], blob_bundle.train, blob_bundle.test)

    def test_masked_batchnorm_layer_rejected(self, blob_bundle):
        model = nn.Sequential(
            nn.Linear(8, 16, rng=0),
            nn.BatchNorm1d(16),
            nn.ReLU(),
            nn.Linear(16, blob_bundle.num_classes, rng=1),
        )
        masks = {"1": np.zeros((16,), dtype=bool)}
        with pytest.raises(ValueError, match="batch norm"):
            BatchedFaultTrainer(model, [masks], blob_bundle.train, blob_bundle.test)

    def test_empty_train_loader_rejected(self):
        bundle = make_blob_classification(
            num_classes=2, features=4, train_per_class=1, test_per_class=1, seed=0
        )
        from repro.data import DataLoader

        empty_loader = DataLoader(bundle.train, batch_size=64, drop_last=True)
        model = MLP(4, 2, hidden_sizes=(8,), seed=0)
        masks = [{"body.0": np.zeros((8, 4), dtype=bool)}]
        with pytest.raises(ValueError, match="no batches"):
            BatchedFaultTrainer(model, masks, empty_loader, bundle.test)


class TestPerChipGradClip:
    def test_matches_serial_clip_per_slice(self, rng):
        chips = 3
        stacks = [
            nn.Parameter(rng.standard_normal((chips, 6, 5)).astype(np.float32)),
            nn.Parameter(rng.standard_normal((chips, 6)).astype(np.float32)),
        ]
        grads = [rng.standard_normal(p.data.shape).astype(np.float32) * 4 for p in stacks]
        for param, grad in zip(stacks, grads):
            param.grad = grad.copy()
        norms = nn.clip_grad_norm_per_chip(stacks, max_norm=1.5, num_chips=chips)
        for chip in range(chips):
            serial_params = []
            for grad in grads:
                p = nn.Parameter(np.zeros(grad.shape[1:], dtype=np.float32))
                p.grad = grad[chip].copy()
                serial_params.append(p)
            serial_norm = nn.clip_grad_norm(serial_params, 1.5)
            assert norms[chip] == serial_norm
            for stacked, serial in zip(stacks, serial_params):
                np.testing.assert_array_equal(stacked.grad[chip], serial.grad)

    def test_validation(self):
        param = nn.Parameter(np.zeros((2, 3), dtype=np.float32))
        param.grad = np.ones((2, 3), dtype=np.float32)
        with pytest.raises(ValueError):
            nn.clip_grad_norm_per_chip([param], max_norm=1.0, num_chips=0)
        with pytest.raises(ValueError):
            nn.clip_grad_norm_per_chip([param], max_norm=0.0, num_chips=2)
        with pytest.raises(ValueError):
            nn.clip_grad_norm_per_chip([param], max_norm=1.0, num_chips=5)


@pytest.fixture(scope="module")
def fat_population(smoke_context):
    preset = smoke_context.preset
    return ChipPopulation.generate(
        count=5,
        rows=preset.array_rows,
        cols=preset.array_cols,
        fault_rates=(0.05, 0.3),
        seed=321,
    )


class TestFrameworkBatchedFat:
    def test_retrain_chips_batched_matches_serial(self, smoke_context, fat_population):
        framework = smoke_context.framework()
        chips = list(fat_population)
        serial = [framework.retrain_chip(chip, 0.5) for chip in chips]
        batched = framework.retrain_chips_batched(chips, 0.5)
        assert batched == serial

    @pytest.mark.parametrize("strategy", ["fat", "fam+fat"])
    def test_initial_accuracy_from_trainer_matches_triage(
        self, smoke_context, fat_population, monkeypatch, strategy
    ):
        from repro.accelerator.batched import BatchedFaultTrainer

        framework = smoke_context.framework()
        chips = list(fat_population)
        triage = framework.triage_population(chips, strategy=strategy)
        flags = []
        original = BatchedFaultTrainer.train

        def spy(self, epochs, eval_checkpoints=None, include_initial=True):
            flags.append(include_initial)
            return original(self, epochs, eval_checkpoints, include_initial)

        monkeypatch.setattr(BatchedFaultTrainer, "train", spy)
        fed = framework.retrain_chips_batched(
            chips, 0.25, accuracies_before=triage, fat_batch=3, strategy=strategy
        )
        assert flags == [False, False]
        measured = framework.retrain_chips_batched(
            chips, 0.25, accuracies_before=None, fat_batch=3, strategy=strategy
        )
        assert flags[2:] == [True, True]
        partial = framework.retrain_chips_batched(
            chips,
            0.25,
            accuracies_before={chip.chip_id: triage[chip.chip_id] for chip in chips[::2]},
            fat_batch=3,
            strategy=strategy,
        )
        assert measured == fed
        assert partial == fed
        assert [result.accuracy_before for result in measured] == [
            triage[chip.chip_id] for chip in chips
        ]

    def test_chunking_is_transparent(self, smoke_context, fat_population):
        framework = smoke_context.framework()
        chips = list(fat_population)
        full = framework.retrain_chips_batched(chips, 0.25)
        chunked = framework.retrain_chips_batched(chips, 0.25, fat_batch=2)
        assert chunked == full

    def test_retrain_population_batched_toggle(self, smoke_context, fat_population):
        framework = smoke_context.framework()
        policy = FixedEpochPolicy(0.25)
        batched = framework.retrain_population(fat_population, policy, batched=True)
        serial = framework.retrain_population(fat_population, policy, batched=False)
        assert batched.results == serial.results

    def test_retrain_population_triages_only_unbatched_chips(
        self, smoke_context, fat_population, monkeypatch
    ):
        from repro.core.reduce import ReduceFramework
        from repro.core.selection import RetrainingPolicy

        chips = list(fat_population)

        class _TwoBudgets(RetrainingPolicy):
            # Chips 0-2 share a budget (one batched group); chip 3 has its
            # own (singleton, per-chip path) and chip 4 gets none.
            name = "two-budgets"
            budgets = {chips[0].chip_id: 0.25, chips[1].chip_id: 0.25,
                       chips[2].chip_id: 0.25, chips[3].chip_id: 0.5,
                       chips[4].chip_id: 0.0}

            def epochs_for_chip(self, chip):
                return self.budgets[chip.chip_id]

        framework = smoke_context.framework()
        serial = framework.retrain_population(fat_population, _TwoBudgets(), batched=False)
        triaged = []
        original = ReduceFramework.triage_population

        def spy(self, population, *args, **kwargs):
            population = list(population)
            triaged.append([chip.chip_id for chip in population])
            return original(self, population, *args, **kwargs)

        monkeypatch.setattr(ReduceFramework, "triage_population", spy)
        batched = framework.retrain_population(fat_population, _TwoBudgets())
        assert triaged == [[chips[3].chip_id, chips[4].chip_id]]
        assert batched.results == serial.results

    def test_zero_epoch_chips_skip_training(self, smoke_context, fat_population):
        framework = smoke_context.framework()
        chips = list(fat_population)
        results = framework.retrain_chips_batched(chips, 0.0)
        serial = [framework.retrain_chip(chip, 0.0) for chip in chips]
        assert results == serial
        assert all(result.epochs_trained == 0.0 for result in results)
        # With every accuracy_before supplied (the triage path), zero-epoch
        # chips are pure lookups — still identical to the serial shortcut.
        triage = framework.triage_population(chips)
        shortcut = framework.retrain_chips_batched(chips, 0.0, accuracies_before=triage)
        assert shortcut == serial


class TestStrategyBatchedFat:
    """Serial-vs-batched bit-identity for strategy-tagged retraining.

    A strategy's masks (plain FAP, or FAM's saliency-permuted masks) are just
    another per-chip mask set stacked into the batched trainer's
    keep-multipliers, so ``retrain_chips_batched(strategy=...)`` must equal
    the per-chip serial path bit for bit — including the hybrid bypass
    strategy, whose bypassable chips never enter training at all.
    """

    @pytest.mark.parametrize("strategy", ["fap+fat", "fam+fat"])
    def test_strategy_batched_matches_serial(
        self, smoke_context, fat_population, strategy
    ):
        framework = smoke_context.framework()
        chips = list(fat_population)
        serial = [
            framework.retrain_chip(chip, 0.5, strategy=strategy) for chip in chips
        ]
        batched = framework.retrain_chips_batched(chips, 0.5, strategy=strategy)
        assert batched == serial
        assert all(result.strategy == strategy for result in batched)

    @pytest.mark.parametrize("strategy", ["fap+fat", "fam+fat"])
    def test_strategy_chunking_is_transparent(
        self, smoke_context, fat_population, strategy
    ):
        framework = smoke_context.framework()
        chips = list(fat_population)
        full = framework.retrain_chips_batched(chips, 0.25, strategy=strategy)
        chunked = framework.retrain_chips_batched(
            chips, 0.25, strategy=strategy, fat_batch=2
        )
        assert chunked == full

    def test_bypass_hybrid_batched_matches_serial(self, smoke_context):
        from repro.accelerator import FaultMap
        from repro.core.chips import Chip, ChipPopulation

        preset = smoke_context.preset
        rows, cols = preset.array_rows, preset.array_cols
        # Mix bypassable chips (sparse faults) with chips where every row and
        # column is hit (bypass infeasible -> FAT fallback).
        chips = [
            Chip("sparse-0", FaultMap.from_indices(rows, cols, [(1, 2), (5, 2)])),
            Chip(
                "dense-0",
                FaultMap.from_indices(rows, cols, [(i, i) for i in range(rows)]),
            ),
            Chip("sparse-1", FaultMap.from_indices(rows, cols, [(3, 4)])),
            Chip(
                "dense-1",
                FaultMap.from_indices(
                    rows, cols, [(i, (i + 1) % cols) for i in range(rows)]
                ),
            ),
        ]
        framework = smoke_context.framework()
        serial = [
            framework.retrain_chip(chip, 0.25, strategy="bypass+fat") for chip in chips
        ]
        batched = framework.retrain_chips_batched(chips, 0.25, strategy="bypass+fat")
        assert batched == serial
        by_id = {result.chip_id: result for result in batched}
        assert by_id["sparse-0"].epochs_trained == 0.0
        assert by_id["sparse-0"].accuracy_after == framework.clean_accuracy
        assert by_id["dense-0"].epochs_trained == 0.25
        # Fed triage values, the same call returns the same rows: bypassed
        # chips and the FAT fallback's trainer agree with triage_population.
        triage = framework.triage_population(chips, strategy="bypass+fat")
        fed = framework.retrain_chips_batched(
            chips, 0.25, accuracies_before=triage, strategy="bypass+fat"
        )
        assert fed == batched

    def test_engine_strategy_coalescing_matches_per_job(
        self, smoke_context, fat_population
    ):
        policy = FixedEpochPolicy(0.25)
        coalesced = CampaignEngine(smoke_context, jobs=1, fat_batch=4).run(
            fat_population, policy, strategy="fam+fat"
        )
        per_job = CampaignEngine(smoke_context, jobs=1, fat_batch=1).run(
            fat_population, policy, strategy="fam+fat"
        )
        assert coalesced.results == per_job.results
        assert all(result.strategy == "fam+fat" for result in coalesced.results)


class TestEngineCoalescing:
    def test_fat_batch_results_identical_to_per_job(self, smoke_context, fat_population):
        policy = FixedEpochPolicy(0.25)
        coalesced = CampaignEngine(smoke_context, jobs=1, fat_batch=4).run(
            fat_population, policy
        )
        per_job = CampaignEngine(smoke_context, jobs=1, fat_batch=1).run(
            fat_population, policy
        )
        assert coalesced.results == per_job.results

    def test_jobs_batched_execution_helper(self, smoke_context, fat_population):
        framework = smoke_context.framework()
        jobs = build_jobs(framework, fat_population, FixedEpochPolicy(0.25))
        batched = execute_jobs_batched(framework, jobs, fat_batch=3)
        serial = [framework.retrain_chip(job.to_chip(), job.epochs) for job in jobs]
        assert batched == serial

    def test_mixed_budget_jobs_rejected(self, smoke_context, fat_population):
        framework = smoke_context.framework()
        jobs = build_jobs(framework, fat_population, FixedEpochPolicy(0.25))
        import dataclasses

        mixed = [jobs[0], dataclasses.replace(jobs[1], epochs=0.5)]
        with pytest.raises(ValueError):
            execute_jobs_batched(framework, mixed)

    def test_invalid_fat_batch_rejected(self, smoke_context):
        with pytest.raises(ValueError):
            CampaignEngine(smoke_context, fat_batch=0)

    def test_jobs_workers_run_batched_groups_identically(
        self, smoke_context, fat_population
    ):
        """--jobs N x --fat-batch B composes: workers execute whole stacked
        chunks and the results stay bit-identical to serial per-job runs."""
        policy = FixedEpochPolicy(0.25)
        parallel_batched = CampaignEngine(smoke_context, jobs=2, fat_batch=3).run(
            fat_population, policy
        )
        serial_per_job = CampaignEngine(smoke_context, jobs=1, fat_batch=1).run(
            fat_population, policy
        )
        assert parallel_batched.results == serial_per_job.results

    def test_eval_lowering_cache_reused_across_checkpoints(
        self, smoke_context, monkeypatch
    ):
        """Per-checkpoint evaluations lower each eval batch exactly once."""
        import repro.accelerator.batched as batched_module
        from repro.accelerator import FaultMap, model_fault_masks
        from repro.accelerator.batched import BatchedFaultTrainer

        context = smoke_context
        # The smoke preset is an MLP (no conv), so build a conv workload at
        # the same scale from the context's bundle.
        model = nn.Sequential(
            nn.Conv2d(context.bundle.input_shape[0], 4, 3, padding=1, rng=0),
            nn.ReLU(),
            nn.Flatten(),
            nn.Linear(4 * 8 * 8, context.bundle.num_classes, rng=1),
        )
        mask_sets = [
            model_fault_masks(model, FaultMap.random(16, 16, 0.05 + 0.05 * i, seed=i))
            for i in range(2)
        ]
        trainer = BatchedFaultTrainer(
            model,
            mask_sets,
            context.bundle.train,
            context.bundle.test,
            config=TrainingConfig(learning_rate=0.05, batch_size=32, seed=0),
        )
        calls = []
        real = batched_module.im2col_t

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(batched_module, "im2col_t", counting)
        first = trainer.evaluate()
        lowered_first_pass = len(calls)
        assert lowered_first_pass > 0
        second = trainer.evaluate()
        assert len(calls) == lowered_first_pass  # no re-lowering
        assert second == first

    def test_store_resume_with_coalescing(self, smoke_context, fat_population, tmp_path):
        policy = FixedEpochPolicy(0.25)
        engine = CampaignEngine(smoke_context, jobs=1, fat_batch=3, store_base=tmp_path)
        full = engine.run(fat_population, policy)
        assert engine.last_report.executed == len(fat_population)

        resumed_engine = CampaignEngine(
            smoke_context, jobs=1, fat_batch=3, store_base=tmp_path
        )
        resumed = resumed_engine.run(fat_population, policy)
        assert resumed_engine.last_report.executed == 0
        assert resumed.results == full.results
