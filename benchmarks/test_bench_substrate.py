"""Micro-benchmarks of the substrate the experiments are built on.

Unlike the figure-level benchmarks (which run once), these use repeated timing
so regressions in the hot paths — convolution forward/backward, fault-mask
generation, one fault-aware training step, resilience-profile lookups — are
visible in the pytest-benchmark statistics.
"""

import numpy as np
import pytest

from repro import nn
from repro.accelerator import FaultMap, model_fault_masks
from repro.core import AccuracyConstraint, ResilienceDrivenPolicy
from repro.core.chips import Chip
from repro.data import DataLoader
from repro.models import build_model
from repro.nn import functional as F
from repro.training import Trainer, TrainingConfig

RNG = np.random.default_rng(0)


@pytest.fixture(scope="module")
def conv_inputs():
    x = nn.Tensor(RNG.standard_normal((8, 16, 16, 16)).astype(np.float32), requires_grad=True)
    weight = nn.Tensor(RNG.standard_normal((32, 16, 3, 3)).astype(np.float32), requires_grad=True)
    bias = nn.Tensor(RNG.standard_normal(32).astype(np.float32), requires_grad=True)
    return x, weight, bias


def test_bench_conv2d_forward(benchmark, conv_inputs):
    x, weight, bias = conv_inputs
    with nn.no_grad():
        result = benchmark(lambda: F.conv2d(x, weight, bias, stride=1, padding=1))
    assert result.shape == (8, 32, 16, 16)


def test_bench_conv2d_forward_backward(benchmark, conv_inputs):
    x, weight, bias = conv_inputs

    def step():
        out = F.conv2d(x, weight, bias, stride=1, padding=1)
        loss = (out * out).mean()
        x.grad = weight.grad = bias.grad = None
        loss.backward()
        return loss.item()

    loss_value = benchmark(step)
    assert np.isfinite(loss_value)


def test_bench_fault_mask_generation_vgg11(benchmark):
    """Mask generation for a full-width VGG11 on the paper's 256x256 array."""
    model = build_model("vgg11", (3, 32, 32), 10, seed=0, width_multiplier=1.0)
    fault_map = FaultMap.random(256, 256, 0.1, seed=0)
    masks = benchmark(model_fault_masks, model, fault_map)
    total = sum(int(mask.sum()) for mask in masks.values())
    assert total > 0


def test_bench_fault_aware_training_step(benchmark, fast_context):
    """Masked-retrain-step: one masked optimizer step of the fast preset's model."""
    context = fast_context
    context.restore_pretrained()
    masks = model_fault_masks(context.model, FaultMap.random(*context.array.shape, 0.2, seed=0))
    trainer = Trainer(
        context.model,
        context.bundle.train,
        context.bundle.test,
        config=TrainingConfig(learning_rate=0.01, batch_size=40, seed=0),
        masks=masks,
    )
    benchmark(trainer._train_steps, 1)
    context.restore_pretrained()


def test_bench_evaluation_pass(benchmark, fast_context):
    """Full test-set evaluation of the fast preset's model."""
    from repro.training import evaluate_accuracy

    accuracy = benchmark(evaluate_accuracy, fast_context.model, fast_context.bundle.test)
    assert 0.0 <= accuracy <= 1.0


def _population_mask_sets(context, num_chips=16):
    fault_maps = [
        FaultMap.random(*context.array.shape, 0.05 + 0.015 * i, seed=100 + i)
        for i in range(num_chips)
    ]
    return [model_fault_masks(context.model, fault_map) for fault_map in fault_maps]


def test_bench_population_evaluation_serial(benchmark, fast_context):
    """Population-evaluation baseline: B chips evaluated one at a time.

    This is the pre-batching code path (restore pre-trained weights, apply
    the chip's masks, run a full test-set pass) — the comparator for the
    batched benchmark below.
    """
    from repro.training import apply_weight_masks, evaluate_accuracy

    context = fast_context
    mask_sets = _population_mask_sets(context)

    def run():
        accuracies = []
        for masks in mask_sets:
            context.restore_pretrained()
            apply_weight_masks(context.model, masks)
            accuracies.append(evaluate_accuracy(context.model, context.bundle.test))
        return accuracies

    accuracies = benchmark(run)
    context.restore_pretrained()
    assert len(accuracies) == len(mask_sets)


def test_bench_population_evaluation_batched(benchmark, fast_context):
    """Population-evaluation via the batched multi-chip evaluator.

    Same 16 chips and test set as the serial benchmark; results are required
    to match the serial path exactly (see tests/test_batched_eval.py).
    """
    from repro.accelerator import evaluate_chip_accuracies

    context = fast_context
    context.restore_pretrained()
    mask_sets = _population_mask_sets(context)
    accuracies = benchmark(
        evaluate_chip_accuracies, context.model, context.bundle.test, mask_sets
    )
    assert len(accuracies) == len(mask_sets)


def test_bench_population_triage(benchmark, fast_context, fast_population):
    """Step-2.5 triage: batched accuracy_before for the whole population."""
    framework = fast_context.framework()
    triage = benchmark(framework.triage_population, fast_population)
    assert len(triage) == len(fast_population)


def _fat_mask_sets(context, num_chips=8):
    fault_maps = [
        FaultMap.random(*context.array.shape, 0.08 + 0.02 * i, seed=200 + i)
        for i in range(num_chips)
    ]
    return [model_fault_masks(context.model, fault_map) for fault_map in fault_maps]


def test_bench_fat_retraining_serial_8chips(benchmark, fast_context):
    """Baseline Step 3: 8 chips retrained one at a time (0.5 epochs each).

    This is the pre-batching campaign inner loop — restore the pre-trained
    weights, train under the chip's masks, evaluate — and the comparator for
    the batched benchmark below.
    """
    context = fast_context
    mask_sets = _fat_mask_sets(context)
    config = TrainingConfig(learning_rate=0.04, batch_size=40, seed=0)

    def run():
        accuracies = []
        for masks in mask_sets:
            context.restore_pretrained()
            trainer = Trainer(
                context.model,
                context.bundle.train,
                context.bundle.test,
                config=config,
                masks=masks,
            )
            history = trainer.train(0.5, include_initial=False)
            accuracies.append(history.final_accuracy)
        return accuracies

    accuracies = benchmark(run)
    context.restore_pretrained()
    assert len(accuracies) == len(mask_sets)


def test_bench_fat_retraining_batched_8chips(benchmark, fast_context):
    """Batched Step 3: the same 8 chips retrained in one stacked loop.

    Same chips, data, config and seed as the serial benchmark; per-chip
    results are bit-identical (see tests/test_batched_fat.py).  The paper's
    dominant cost is exactly this loop, so the serial/batched ratio here is
    the campaign-throughput lever at --jobs 1.
    """
    from repro.accelerator.batched import BatchedFaultTrainer

    context = fast_context
    mask_sets = _fat_mask_sets(context)
    config = TrainingConfig(learning_rate=0.04, batch_size=40, seed=0)

    def run():
        context.restore_pretrained()
        trainer = BatchedFaultTrainer(
            context.model,
            mask_sets,
            context.bundle.train,
            context.bundle.test,
            config=config,
        )
        histories = trainer.train(0.5, include_initial=False)
        return [history.final_accuracy for history in histories]

    accuracies = benchmark(run)
    context.restore_pretrained()
    assert len(accuracies) == len(mask_sets)


def _mlp_fat_setup(context, num_chips=8):
    mask_sets = [
        model_fault_masks(
            context.model, FaultMap.random(*context.array.shape, 0.05 + 0.02 * i, seed=300 + i)
        )
        for i in range(num_chips)
    ]
    config = TrainingConfig(learning_rate=0.05, batch_size=32, seed=0)
    return mask_sets, config


def test_bench_fat_retraining_serial_mlp_8chips(benchmark, smoke_context):
    """Serial FAT baseline on the MLP (smoke) workload: 8 chips, 1 epoch each."""
    context = smoke_context
    mask_sets, config = _mlp_fat_setup(context)

    def run():
        accuracies = []
        for masks in mask_sets:
            context.restore_pretrained()
            trainer = Trainer(
                context.model,
                context.bundle.train,
                context.bundle.test,
                config=config,
                masks=masks,
            )
            accuracies.append(trainer.train(1.0, include_initial=False).final_accuracy)
        return accuracies

    accuracies = benchmark(run)
    context.restore_pretrained()
    assert len(accuracies) == len(mask_sets)


def test_bench_fat_retraining_batched_mlp_8chips(benchmark, smoke_context):
    """Batched FAT on the MLP (smoke) workload: the same 8 chips in one loop.

    The MLP's per-step arrays are tiny, so the serial loop is dominated by
    per-chip Python/autograd overhead — exactly what the stacked trainer
    amortizes; this is the upper end of the batched-FAT speedup range.
    """
    from repro.accelerator.batched import BatchedFaultTrainer

    context = smoke_context
    mask_sets, config = _mlp_fat_setup(context)

    def run():
        context.restore_pretrained()
        trainer = BatchedFaultTrainer(
            context.model,
            mask_sets,
            context.bundle.train,
            context.bundle.test,
            config=config,
        )
        return [h.final_accuracy for h in trainer.train(1.0, include_initial=False)]

    accuracies = benchmark(run)
    context.restore_pretrained()
    assert len(accuracies) == len(mask_sets)


def _bn_fat_setup(context, num_chips=4):
    """A vgg11_mini (training-mode BatchNorm) FAT workload at fast scale."""
    from repro.models import vgg11_mini

    model = vgg11_mini(
        input_shape=context.bundle.input_shape,
        num_classes=context.bundle.num_classes,
        seed=0,
    )
    pretrained = model.state_dict()
    mask_sets = [
        model_fault_masks(
            model, FaultMap.random(*context.array.shape, 0.06 + 0.03 * i, seed=400 + i)
        )
        for i in range(num_chips)
    ]
    config = TrainingConfig(learning_rate=0.02, batch_size=40, seed=0)
    return model, pretrained, mask_sets, config


def test_bench_fat_retraining_serial_batchnorm_4chips(benchmark, fast_context):
    """Serial FAT on the training-mode-BatchNorm workload (vgg11_mini).

    Exercises the fused batch-norm autograd op (previously ~15 generic
    autograd nodes per BN layer, profiled at ~20% of a vgg11_mini step) and
    the comparator for the stacked run below.
    """
    context = fast_context
    model, pretrained, mask_sets, config = _bn_fat_setup(context)

    def run():
        accuracies = []
        for masks in mask_sets:
            model.load_state_dict(pretrained)
            trainer = Trainer(
                model, context.bundle.train, context.bundle.test, config=config, masks=masks
            )
            accuracies.append(trainer.train(0.25, include_initial=False).final_accuracy)
        return accuracies

    accuracies = benchmark(run)
    assert len(accuracies) == len(mask_sets)


def test_bench_fat_retraining_batched_batchnorm_4chips(benchmark, fast_context):
    """Batched FAT on the BatchNorm workload: the stacked path, no fallback.

    Training-mode BatchNorm previously forced this model onto the serial
    per-chip trainer; the stacked per-chip-fold batch norm keeps the whole
    VGG-style flagship on the batched substrate, bit-identical to serial.
    """
    from repro.accelerator.batched import BatchedFaultTrainer

    context = fast_context
    model, pretrained, mask_sets, config = _bn_fat_setup(context)

    def run():
        model.load_state_dict(pretrained)
        trainer = BatchedFaultTrainer(
            model, mask_sets, context.bundle.train, context.bundle.test, config=config
        )
        return [h.final_accuracy for h in trainer.train(0.25, include_initial=False)]

    accuracies = benchmark(run)
    assert len(accuracies) == len(mask_sets)


def test_bench_resilience_profile_lookup(benchmark, fast_profile):
    """Step-2 lookups must be effectively free compared with retraining."""
    chip = Chip("bench", FaultMap.random(64, 64, 0.17, seed=5))
    policy = ResilienceDrivenPolicy(
        profile=fast_profile,
        constraint=AccuracyConstraint.within_drop_of_clean(0.02),
        statistic="max",
    )
    epochs = benchmark(policy.epochs_for_chip, chip)
    assert epochs >= 0.0


def test_bench_dataloader_iteration(benchmark, fast_context):
    loader = DataLoader(fast_context.bundle.train, batch_size=40, shuffle=True, seed=0)

    def run_epoch():
        count = 0
        for _inputs, _targets in loader:
            count += 1
        return count

    batches = benchmark(run_epoch)
    assert batches == len(loader)


# ---------------------------------------------------------------------------
# Pipelined eval path: multi-checkpoint retraining + sweep-wide reuse
# ---------------------------------------------------------------------------


CHECKPOINT_EVAL_CHECKPOINTS = (0.05, 0.10, 0.15, 0.20, 0.25)


def _checkpoint_eval_run(context, mask_sets, *, pipelined, lowering_cache=None):
    """One eval-dominated retraining run: 0.25 epochs, 5 checkpoint evals.

    Mirrors the production sweep shape (``resilience.py`` / ``reduce.py``):
    the initial accuracy is already known from triage, so the run evaluates
    only at the epoch checkpoints (``include_initial=False``).

    ``pipelined=False`` is the eager eval path — no prefetch thread, no
    deferred/widened multi-checkpoint pass, a zero-byte cache so every
    checkpoint re-lowers every eval batch.  ``pipelined=True`` is the
    default path.
    """
    from repro.accelerator.batched import BatchedFaultTrainer, LoweringCache

    if lowering_cache is None:
        lowering_cache = LoweringCache() if pipelined else LoweringCache(max_bytes=0)
    context.restore_pretrained()
    trainer = BatchedFaultTrainer(
        context.model,
        mask_sets,
        context.bundle.train,
        context.bundle.test,
        config=TrainingConfig(learning_rate=0.04, batch_size=40, seed=0),
        lowering_cache=lowering_cache,
        prefetch=pipelined,
        widened_eval=pipelined,
    )
    histories = trainer.train(
        0.25, eval_checkpoints=CHECKPOINT_EVAL_CHECKPOINTS, include_initial=False
    )
    return [history.final_accuracy for history in histories]


def test_bench_checkpoint_eval_baseline_8chips(benchmark, fast_context):
    """Eager multi-checkpoint eval: 8 chips x 5 per-checkpoint eval passes.

    The pre-pipelining campaign eval loop — each checkpoint interrupts
    training for its own stacked B-chip pass, re-lowering the eval batches
    every time — and the comparator for the pipelined benchmark below.
    """
    context = fast_context
    mask_sets = _fat_mask_sets(context)
    accuracies = benchmark(
        _checkpoint_eval_run, context, mask_sets, pipelined=False
    )
    context.restore_pretrained()
    assert len(accuracies) == len(mask_sets)


def test_bench_checkpoint_eval_pipelined_8chips(benchmark, fast_context):
    """Pipelined multi-checkpoint eval: same 8 chips, same 5 checkpoints.

    Checkpoints snapshot the stacked weights; at 10 train batches per epoch
    the 5 checkpoints quantize to 2 unique optimizer steps, so the deferred
    pass evaluates 2 snapshots as one widened (2*8)-chip GEMM over lowerings
    cached once (and prefetched in the background) instead of 5 eager
    passes; results are bit-identical to the eager baseline (see
    tests/test_pipelined_eval.py).
    """
    context = fast_context
    mask_sets = _fat_mask_sets(context)
    accuracies = benchmark(
        _checkpoint_eval_run, context, mask_sets, pipelined=True
    )
    context.restore_pretrained()
    assert len(accuracies) == len(mask_sets)


def test_bench_sweep_eval_reuse_2arms(benchmark, fast_context):
    """Checkpoints x strategies scaling: 2 arms sharing one lowering cache.

    Models a strategy sweep's eval load — K arms retrain the same population
    and walk the same unshuffled eval batches — with the sweep-wide shared
    cache: arm 2 hits every lowering arm 1 computed, so eval-lowering cost
    stays O(batches), not O(arms x batches).
    """
    from repro.accelerator.batched import LoweringCache

    context = fast_context
    mask_sets = _fat_mask_sets(context)

    def run():
        cache = LoweringCache()
        return [
            _checkpoint_eval_run(
                context, mask_sets, pipelined=True, lowering_cache=cache
            )
            for _arm in range(2)
        ]

    arms = benchmark(run)
    context.restore_pretrained()
    assert len(arms) == 2 and all(len(arm) == len(mask_sets) for arm in arms)

