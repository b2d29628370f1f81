"""The Reduce framework: orchestration of Steps 1-3.

``ReduceFramework`` ties everything together exactly as in Fig. 1 of the
paper: given a pre-trained DNN, a dataset, a user-defined accuracy constraint
and the fault maps of the faulty chips, it

1. computes the DNN's resilience to faults at different fault rates and
   amounts of retraining (:class:`~repro.core.resilience.ResilienceAnalyzer`),
2. selects the retraining amount for each chip from the resilience profile
   (:class:`~repro.core.selection.ResilienceDrivenPolicy`), and
3. performs fault-aware retraining per chip and returns the fault-aware DNNs
   together with the bookkeeping needed to reproduce Fig. 3
   (:class:`CampaignResult`).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import nn
from repro.accelerator.batched import (
    BatchedFaultTrainer,
    EvalPipeline,
    evaluate_chip_accuracies,
)
from repro.accelerator.systolic_array import SystolicArray
from repro.core.chips import Chip, ChipPopulation
from repro.core.constraints import AccuracyConstraint
from repro.core.profiles import ResilienceProfile
from repro.core.resilience import ResilienceAnalyzer, ResilienceConfig
from repro.core.selection import FixedEpochPolicy, ResilienceDrivenPolicy, RetrainingPolicy
from repro.data.synthetic import DatasetBundle
from repro.mitigation.strategy import (
    DEFAULT_STRATEGY_NAME,
    StrategyLike,
    resolve_strategy,
)
from repro.nn.serialization import clone_state_dict
from repro.training import (
    Trainer,
    TrainingConfig,
    enforce_weight_masks,
    evaluate_accuracy,
)
from repro.utils.logging import get_logger
from repro.utils.rng import derive_seed

logger = get_logger("core.reduce")

# Chips whose Step-2 budgets agree are retrained together in stacked batches
# of at most this many chips (bounds the stacked-weight memory footprint).
DEFAULT_FAT_BATCH = 8


@dataclasses.dataclass(frozen=True)
class ChipRetrainingResult:
    """Per-chip outcome of a retraining campaign (one point of Fig. 3a-e)."""

    chip_id: str
    fault_rate: float
    epochs_allocated: float
    epochs_trained: float
    accuracy_before: float
    accuracy_after: float
    meets_constraint: bool
    masked_weight_fraction: float
    # The mitigation strategy the chip was prepared with ("fat" = the
    # classic FAP-masks-plus-retraining flow of the original campaigns).
    strategy: str = DEFAULT_STRATEGY_NAME

    @property
    def accuracy_recovered(self) -> float:
        return self.accuracy_after - self.accuracy_before

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ChipRetrainingResult":
        return cls(
            chip_id=str(data["chip_id"]),
            fault_rate=float(data["fault_rate"]),
            epochs_allocated=float(data["epochs_allocated"]),
            epochs_trained=float(data["epochs_trained"]),
            accuracy_before=float(data["accuracy_before"]),
            accuracy_after=float(data["accuracy_after"]),
            meets_constraint=bool(data["meets_constraint"]),
            masked_weight_fraction=float(data["masked_weight_fraction"]),
            strategy=str(data.get("strategy", DEFAULT_STRATEGY_NAME)),
        )


@dataclasses.dataclass
class CampaignResult:
    """Aggregate outcome of retraining a whole chip population under one policy."""

    policy_name: str
    target_accuracy: float
    clean_accuracy: float
    results: List[ChipRetrainingResult]
    # Chips the supervisor gave up on (quarantined chunks): one record per
    # chip with at least ``chip_id``, ``reason`` and ``attempts``.  A
    # degraded campaign reports them here instead of crashing; the per-chip
    # views below cover only the chips that completed.
    failed_chips: List[Dict[str, object]] = dataclasses.field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.results and not self.failed_chips:
            raise ValueError("a campaign result must contain at least one chip result")

    # -- per-chip views -------------------------------------------------------

    @property
    def num_chips(self) -> int:
        return len(self.results)

    def epochs(self) -> np.ndarray:
        """Per-chip retraining amounts actually spent (scatter y-axis of Fig. 3)."""
        return np.array([result.epochs_trained for result in self.results])

    def accuracies(self) -> np.ndarray:
        """Per-chip final accuracies (scatter x-axis of Fig. 3)."""
        return np.array([result.accuracy_after for result in self.results])

    def fault_rates(self) -> np.ndarray:
        return np.array([result.fault_rate for result in self.results])

    # -- aggregates ------------------------------------------------------------

    @property
    def average_epochs(self) -> float:
        """Average retraining epochs per chip (x-axis of Fig. 3f)."""
        return float(self.epochs().mean())

    @property
    def total_epochs(self) -> float:
        """Total retraining cost over the whole population."""
        return float(self.epochs().sum())

    @property
    def fraction_meeting_constraint(self) -> float:
        """Fraction of chips meeting the accuracy constraint (y-axis of Fig. 3f)."""
        return float(np.mean([result.meets_constraint for result in self.results]))

    @property
    def percent_meeting_constraint(self) -> float:
        return 100.0 * self.fraction_meeting_constraint

    @property
    def mean_accuracy(self) -> float:
        return float(self.accuracies().mean())

    @property
    def worst_accuracy(self) -> float:
        return float(self.accuracies().min())

    def summary(self) -> Dict[str, float]:
        """The row this policy contributes to Fig. 3f."""
        return {
            "policy": self.policy_name,
            "num_chips": self.num_chips,
            "target_accuracy": self.target_accuracy,
            "average_epochs": self.average_epochs,
            "total_epochs": self.total_epochs,
            "percent_meeting_constraint": self.percent_meeting_constraint,
            "mean_accuracy": self.mean_accuracy,
            "worst_accuracy": self.worst_accuracy,
        }

    def scatter_points(self) -> List[Dict[str, float]]:
        """(accuracy, epochs) pairs for the Fig. 3a-e style scatter plots."""
        return [
            {
                "chip_id": result.chip_id,
                "accuracy": result.accuracy_after,
                "epochs": result.epochs_trained,
                "fault_rate": result.fault_rate,
                "meets_constraint": float(result.meets_constraint),
            }
            for result in self.results
        ]

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "policy_name": self.policy_name,
            "target_accuracy": self.target_accuracy,
            "clean_accuracy": self.clean_accuracy,
            "summary": self.summary(),
            "chips": [dataclasses.asdict(result) for result in self.results],
        }
        if self.failed_chips:
            payload["failed_chips"] = list(self.failed_chips)
        return payload


def _build_chip_result(
    chip: Chip,
    masks: Dict[str, np.ndarray],
    epochs_allocated: float,
    epochs_trained: float,
    accuracy_before: float,
    accuracy_after: float,
    target: float,
    strategy: str = DEFAULT_STRATEGY_NAME,
) -> ChipRetrainingResult:
    """Assemble one chip's result row (shared by the serial and batched paths)."""
    masked = sum(int(mask.sum()) for mask in masks.values())
    total = sum(mask.size for mask in masks.values())
    return ChipRetrainingResult(
        chip_id=chip.chip_id,
        fault_rate=chip.fault_rate,
        epochs_allocated=float(epochs_allocated),
        epochs_trained=float(epochs_trained),
        accuracy_before=accuracy_before,
        accuracy_after=accuracy_after,
        meets_constraint=accuracy_after >= target - 1e-12,
        masked_weight_fraction=masked / total if total else 0.0,
        strategy=strategy,
    )


@dataclasses.dataclass
class ReduceConfig:
    """Top-level configuration of the Reduce framework."""

    constraint: AccuracyConstraint = dataclasses.field(
        default_factory=lambda: AccuracyConstraint.within_drop_of_clean(0.02)
    )
    resilience: ResilienceConfig = dataclasses.field(default_factory=ResilienceConfig)
    retraining: Optional[TrainingConfig] = None
    statistic: str = "max"
    interpolation: str = "ceil"
    margin_epochs: float = 0.0

    def effective_retraining_config(self) -> TrainingConfig:
        """Training hyper-parameters used for per-chip retraining (Step 3)."""
        return self.retraining if self.retraining is not None else self.resilience.training


class ReduceFramework:
    """End-to-end implementation of the Reduce flow (Fig. 1 of the paper)."""

    def __init__(
        self,
        model: nn.Module,
        pretrained_state: Dict[str, np.ndarray],
        bundle: DatasetBundle,
        array: SystolicArray,
        config: Optional[ReduceConfig] = None,
        eval_pipeline: Optional[EvalPipeline] = None,
    ) -> None:
        self.model = model
        self.pretrained_state = clone_state_dict(pretrained_state)
        self.bundle = bundle
        self.array = array
        self.config = config if config is not None else ReduceConfig()
        # Pipelined-eval configuration + the shared lowering cache.  Passing
        # one pipeline into several frameworks (as the experiment context
        # does) shares the cache across them: triage, campaign chunks and
        # whole strategy-sweep arms over the same population lower each eval
        # batch once instead of once per consumer.
        self.eval_pipeline = eval_pipeline if eval_pipeline is not None else EvalPipeline()
        self._profile: Optional[ResilienceProfile] = None
        self._clean_accuracy: Optional[float] = None

    # -- shared helpers -----------------------------------------------------------

    def _restore_pretrained(self) -> None:
        self.model.load_state_dict(self.pretrained_state)

    @property
    def clean_accuracy(self) -> float:
        """Accuracy of the pre-trained model on a fault-free chip."""
        if self._clean_accuracy is None:
            self._restore_pretrained()
            self._clean_accuracy = evaluate_accuracy(self.model, self.bundle.test)
        return self._clean_accuracy

    @property
    def target_accuracy(self) -> float:
        """The accuracy constraint resolved to an absolute threshold."""
        return self.config.constraint.resolve(self.clean_accuracy)

    # -- Step 1: resilience analysis -----------------------------------------------

    def analyze_resilience(self, force: bool = False) -> ResilienceProfile:
        """Run (or return the cached) resilience analysis."""
        if self._profile is None or force:
            analyzer = ResilienceAnalyzer(
                self.model,
                self.pretrained_state,
                self.bundle,
                self.array,
                self.config.resilience,
            )
            self._profile = analyzer.run()
            self._clean_accuracy = self._profile.clean_accuracy
        return self._profile

    def set_profile(self, profile: ResilienceProfile) -> None:
        """Inject a pre-computed resilience profile (e.g. loaded from disk)."""
        self._profile = profile
        self._clean_accuracy = profile.clean_accuracy

    def set_clean_accuracy(self, accuracy: float) -> None:
        """Inject a pre-computed clean accuracy (e.g. from the experiment
        context), avoiding a redundant test-set evaluation."""
        self._clean_accuracy = float(accuracy)

    # -- Step 2: retraining-amount selection -----------------------------------------

    def build_policy(self, statistic: Optional[str] = None) -> ResilienceDrivenPolicy:
        """The resilience-driven selection policy backed by the Step-1 profile."""
        profile = self.analyze_resilience()
        return ResilienceDrivenPolicy(
            profile=profile,
            constraint=self.config.constraint,
            statistic=statistic if statistic is not None else self.config.statistic,
            interpolation=self.config.interpolation,
            margin_epochs=self.config.margin_epochs,
        )

    def select_retraining_amounts(
        self, population: ChipPopulation, statistic: Optional[str] = None
    ) -> Dict[str, float]:
        """Per-chip retraining amounts (Step 2 output)."""
        return self.build_policy(statistic).epochs_for_population(population)

    # -- Step 2.5: batched population triage --------------------------------------

    def triage_population(
        self,
        chips: Iterable[Chip],
        chip_chunk: int = 16,
        strategy: StrategyLike = None,
    ) -> Dict[str, float]:
        """Pre-retraining accuracy of every chip, in batched multi-chip passes.

        This is the "accuracy checkpoint" each retraining run would otherwise
        evaluate serially (``accuracy_before`` in the per-chip results): the
        pre-trained model under each chip's masks.  ``strategy`` selects how
        those masks are built (plain FAP masks by default; FAM strategies
        measure under their permuted masks — bypass strategies measure under
        the plain masks, their *pre-mitigation* faulty accuracy).  All chips
        share the pre-trained weights and differ only in their masks, so a
        :class:`~repro.accelerator.batched.BatchedFaultEvaluator` computes B
        of them per forward sweep.  Results are numerically identical to the
        serial per-chip evaluation.
        """
        chip_list = list(chips)
        if not chip_list:
            return {}
        strategy = resolve_strategy(strategy)
        self._restore_pretrained()
        eval_batch = self.config.effective_retraining_config().batch_size * 4
        accuracies: List[float] = []
        # The pipeline's shared lowering cache serves the whole population —
        # and any other consumer of this pipeline (later campaign chunks,
        # other sweep arms): every chunk evaluates the same unshuffled test
        # batches against the same pre-trained weights, so each batch is
        # im2col-lowered exactly once regardless of how many chip chunks (or
        # strategy arms) walk it.
        pipeline = self.eval_pipeline
        # Masks are built (and released) chunk by chunk so peak memory is
        # bounded by ``chip_chunk`` mask sets, not the population size.
        for start in range(0, len(chip_list), chip_chunk):
            mask_sets = [
                strategy.chip_masks(self.model, chip.fault_map)
                for chip in chip_list[start:start + chip_chunk]
            ]
            accuracies.extend(
                evaluate_chip_accuracies(
                    self.model,
                    self.bundle.test,
                    mask_sets,
                    batch_size=eval_batch,
                    chip_chunk=chip_chunk,
                    lowering_cache=pipeline.cache,
                    prefetch=pipeline.prefetch,
                )
            )
        return {chip.chip_id: acc for chip, acc in zip(chip_list, accuracies)}

    # -- Step 3: per-chip fault-aware retraining ---------------------------------------

    def _fat_training_config(self) -> TrainingConfig:
        """Training config for Step-3 retraining, with the FAT seed resolved.

        The seed is shared across the whole population (not derived per chip):
        chips differ in their fault masks, not in their data — and a shared
        mini-batch/dropout stream is what lets same-budget chips coalesce into
        one :class:`BatchedFaultTrainer` run that is bit-identical to the
        serial per-chip path.
        """
        return dataclasses.replace(
            self.config.effective_retraining_config(),
            seed=derive_seed(self.config.resilience.seed, "fat"),
        )

    def retrain_chip(
        self,
        chip: Chip,
        epochs: float,
        return_state: bool = False,
        target_accuracy: Optional[float] = None,
        accuracy_before: Optional[float] = None,
        strategy: StrategyLike = None,
    ) -> Union[ChipRetrainingResult, tuple]:
        """Mitigate (and possibly retrain) the pre-trained model for one chip.

        The framework model is restored to its pre-trained weights first, so
        repeated calls are independent.  With ``return_state=True`` the
        fault-aware weights (the DNN shipped to that chip) are returned too.
        ``target_accuracy`` overrides the framework's resolved constraint —
        campaign workers pass the value resolved once in the parent process so
        executing a job never needs the clean-accuracy evaluation.
        ``accuracy_before`` injects a pre-computed initial accuracy (from the
        batched :meth:`triage_population` pass, which is numerically identical
        to the serial evaluation) so the per-chip run skips the initial
        test-set sweep; zero-epoch chips then need no training machinery at
        all.

        ``strategy`` selects the mitigation recipe (default: classic FAT).
        Non-retraining strategies clamp the budget to zero; FAM strategies
        retrain under saliency-permuted masks; bypass strategies return the
        clean accuracy for bypassable chips (the shrunk array has no faults)
        and fall back to FAP(+FAT, if the strategy retrains) otherwise.
        """
        if epochs < 0:
            raise ValueError("epochs must be non-negative")
        strategy = resolve_strategy(strategy)
        target = target_accuracy if target_accuracy is not None else self.target_accuracy
        self._restore_pretrained()
        if strategy.bypass and strategy.bypass_plan(chip.fault_map) is not None:
            # Bypassable chip: the surviving PEs form a fault-free array, so
            # the shipped DNN is the unmodified pre-trained model (no weights
            # pruned, nothing retrained).  ``accuracy_before`` remains the
            # chip's pre-mitigation faulty accuracy (under the plain masks,
            # which are only built when triage has not measured it already).
            if accuracy_before is None:
                masks = strategy.chip_masks(self.model, chip.fault_map)
                enforce_weight_masks(self.model, masks)
                accuracy_before = evaluate_accuracy(
                    self.model,
                    self.bundle.test,
                    batch_size=self.config.effective_retraining_config().batch_size * 4,
                )
                self._restore_pretrained()
            result = _build_chip_result(
                chip, {}, 0.0, 0.0, accuracy_before, self.clean_accuracy, target,
                strategy=strategy.name,
            )
            if return_state:
                return result, clone_state_dict(self.model.state_dict())
            return result
        masks = strategy.chip_masks(self.model, chip.fault_map)
        epochs = strategy.effective_epochs(epochs, chip.fault_map)
        if epochs > 0 or return_state or accuracy_before is None:
            training_config = self._fat_training_config()
            trainer = Trainer(
                self.model,
                self.bundle.train,
                self.bundle.test,
                config=training_config,
                masks=masks,
            )
            if accuracy_before is None:
                accuracy_before = trainer.evaluate()
            if epochs > 0:
                history = trainer.train(epochs, include_initial=False)
                accuracy_after = history.final_accuracy
                epochs_trained = history.total_epochs
            else:
                accuracy_after = accuracy_before
                epochs_trained = 0.0
        else:
            # Triage already measured this chip and no retraining or state
            # was requested: the result is fully determined.
            accuracy_after = accuracy_before
            epochs_trained = 0.0
        result = _build_chip_result(
            chip, masks, epochs, epochs_trained, accuracy_before, accuracy_after,
            target, strategy=strategy.name,
        )
        if return_state:
            return result, clone_state_dict(self.model.state_dict())
        return result

    def retrain_chips_batched(
        self,
        chips: Sequence[Chip],
        epochs: float,
        target_accuracy: Optional[float] = None,
        accuracies_before: Optional[Dict[str, float]] = None,
        fat_batch: int = DEFAULT_FAT_BATCH,
        strategy: StrategyLike = None,
    ) -> List[ChipRetrainingResult]:
        """Mitigate several chips under one strategy/budget in stacked batches.

        Equivalent to ``[self.retrain_chip(chip, epochs, ...) for chip in
        chips]`` — bit-identical results on this BLAS build — but each batch
        of up to ``fat_batch`` chips shares every GEMM of the retraining loop
        through a :class:`~repro.accelerator.batched.BatchedFaultTrainer`.
        Every parametric layer family stacks (including training-mode batch
        norm, whose per-chip-fold statistics replicate the serial runs), so
        there is no serial fallback: a genuinely unstackable custom layer
        raises :class:`~repro.accelerator.batched.UnsupportedModelError` at
        trainer construction.

        ``accuracies_before`` injects pre-computed initial accuracies (from
        :meth:`triage_population`) per chip id.  A missing one is measured
        where the chip trains: as the initial checkpoint of its stacked
        trainer, evaluated in one widened pass with the final checkpoint.

        ``strategy`` prepares each chip exactly like the serial path: a
        strategy's masks are just another per-chip mask set stacked into the
        batched trainer's keep-multipliers, so FAP/FAM prune masks ride the
        same machinery as plain fault masks.  Bypassable chips under a bypass
        strategy never enter training (their accuracy is preserved by the
        shrunk array); the rest of the batch trains normally.
        """
        if epochs < 0:
            raise ValueError("epochs must be non-negative")
        if fat_batch < 1:
            raise ValueError(f"fat_batch must be >= 1, got {fat_batch}")
        strategy = resolve_strategy(strategy)
        chip_list = list(chips)
        if not chip_list:
            return []
        target = target_accuracy if target_accuracy is not None else self.target_accuracy
        before_map = accuracies_before or {}
        eval_batch = self.config.effective_retraining_config().batch_size * 4
        pipeline = self.eval_pipeline
        results: List[Optional[ChipRetrainingResult]] = [None] * len(chip_list)

        # Bypassable chips are satisfied by the shrunk array alone: their
        # result is fully determined once the pre-mitigation accuracy is
        # known, so they are peeled off before any stacked training.
        if strategy.bypass:
            bypassed = [
                index for index, chip in enumerate(chip_list)
                if strategy.bypass_plan(chip.fault_map) is not None
            ]
            bypassed_set = set(bypassed)
            trainable = [
                index for index in range(len(chip_list)) if index not in bypassed_set
            ]
        else:
            bypassed = []
            trainable = list(range(len(chip_list)))
        if bypassed:
            before = [before_map.get(chip_list[index].chip_id) for index in bypassed]
            missing = [pos for pos, value in enumerate(before) if value is None]
            if missing:
                self._restore_pretrained()
                mask_sets = [
                    strategy.chip_masks(self.model, chip_list[bypassed[pos]].fault_map)
                    for pos in missing
                ]
                evaluated = evaluate_chip_accuracies(
                    self.model,
                    self.bundle.test,
                    mask_sets,
                    batch_size=eval_batch,
                    chip_chunk=fat_batch,
                    lowering_cache=pipeline.cache,
                    prefetch=pipeline.prefetch,
                )
                for position, pos in enumerate(missing):
                    before[pos] = evaluated[position]
            clean = self.clean_accuracy
            for pos, index in enumerate(bypassed):
                results[index] = _build_chip_result(
                    chip_list[index], {}, 0.0, 0.0, before[pos], clean, target,
                    strategy=strategy.name,
                )

        # Non-retraining strategies spend no budget; bypass-infeasible chips
        # of a retraining bypass strategy fall back to the full FAT budget.
        epochs = float(epochs) if strategy.retrain else 0.0
        for start in range(0, len(trainable), fat_batch):
            indices = trainable[start:start + fat_batch]
            chunk = [chip_list[index] for index in indices]
            self._restore_pretrained()
            mask_sets = [strategy.chip_masks(self.model, chip.fault_map) for chip in chunk]
            if epochs == 0:
                # No training requested: any missing initial accuracy comes
                # from the forward-only batched evaluator (identical to the
                # triage values), and no stacked training machinery is built
                # (mirrors the serial ``retrain_chip`` zero-epoch shortcut).
                before = [before_map.get(chip.chip_id) for chip in chunk]
                missing = [i for i, value in enumerate(before) if value is None]
                if missing:
                    evaluated = evaluate_chip_accuracies(
                        self.model,
                        self.bundle.test,
                        [mask_sets[i] for i in missing],
                        batch_size=eval_batch,
                        chip_chunk=fat_batch,
                        lowering_cache=pipeline.cache,
                            prefetch=pipeline.prefetch,
                    )
                    for position, index in enumerate(missing):
                        before[index] = evaluated[position]
                for position, index in enumerate(indices):
                    results[index] = _build_chip_result(
                        chunk[position], mask_sets[position], 0.0, 0.0,
                        before[position], before[position], target,
                        strategy=strategy.name,
                    )
                continue
            trainer = BatchedFaultTrainer(
                self.model,
                mask_sets,
                self.bundle.train,
                self.bundle.test,
                config=self._fat_training_config(),
                lowering_cache=pipeline.cache,
                prefetch=pipeline.prefetch,
                widened_eval=pipeline.widened_eval,
            )
            # A missing initial accuracy is the trainer's step-0 checkpoint:
            # recorded by ``train`` itself, it shares the deferred widened eval
            # pass with the final checkpoint instead of costing its own pass.
            before = [before_map.get(chip.chip_id) for chip in chunk]
            include_initial = any(value is None for value in before)
            histories = trainer.train(epochs, include_initial=include_initial)
            if include_initial:
                before = [
                    value if value is not None else history.records[0].eval_accuracy
                    for value, history in zip(before, histories)
                ]
            for position, index in enumerate(indices):
                results[index] = _build_chip_result(
                    chunk[position], mask_sets[position], epochs,
                    histories[position].total_epochs, before[position],
                    histories[position].final_accuracy, target,
                    strategy=strategy.name,
                )
        return list(results)

    def retrain_population(
        self,
        population: ChipPopulation,
        policy: RetrainingPolicy,
        progress: bool = False,
        batched: bool = True,
        fat_batch: int = DEFAULT_FAT_BATCH,
        strategy: StrategyLike = None,
    ) -> CampaignResult:
        """Run Step 3 for every chip under an arbitrary retraining policy.

        With ``batched=True`` (the default) chips whose Step-2 budgets agree
        are retrained together through the stacked batched-FAT path, which is
        bit-identical to the serial per-chip loop on this BLAS build, and
        measures their initial accuracy in its own eval pass.  The initial
        accuracy checkpoints of every other chip are evaluated first in
        batched multi-chip passes (:meth:`triage_population`).
        ``strategy`` selects the mitigation recipe applied before/instead of
        retraining (default: classic FAT).
        """
        strategy = resolve_strategy(strategy)
        amounts = policy.epochs_for_population(population)
        effective = {
            chip.chip_id: strategy.effective_epochs(
                float(amounts[chip.chip_id]), chip.fault_map
            )
            for chip in population
        }
        batched_groups: List[Tuple[float, List[Chip]]] = []
        if batched:
            groups: Dict[float, List[Chip]] = {}
            for chip in population:
                groups.setdefault(effective[chip.chip_id], []).append(chip)
            batched_groups = [
                (epochs, chips)
                for epochs, chips in groups.items()
                if epochs > 0 and len(chips) > 1
            ]
        batched_ids = {chip.chip_id for _, chips in batched_groups for chip in chips}
        triage = self.triage_population(
            [chip for chip in population if chip.chip_id not in batched_ids],
            strategy=strategy,
        )
        by_id: Dict[str, ChipRetrainingResult] = {}
        for epochs, chips in batched_groups:
            for result in self.retrain_chips_batched(
                chips, epochs, fat_batch=fat_batch, strategy=strategy
            ):
                by_id[result.chip_id] = result
        results: List[ChipRetrainingResult] = []
        for chip in population:
            result = by_id.get(chip.chip_id)
            if result is None:
                result = self.retrain_chip(
                    chip,
                    effective[chip.chip_id],
                    accuracy_before=triage.get(chip.chip_id),
                    strategy=strategy,
                )
            results.append(result)
            if progress:
                logger.info(
                    "chip %s: rate=%.3f epochs=%.3f acc=%.3f meets=%s",
                    chip.chip_id,
                    result.fault_rate,
                    result.epochs_trained,
                    result.accuracy_after,
                    result.meets_constraint,
                )
        return CampaignResult(
            policy_name=policy.name,
            target_accuracy=self.target_accuracy,
            clean_accuracy=self.clean_accuracy,
            results=results,
        )

    # -- end-to-end -----------------------------------------------------------------

    def run(
        self,
        population: ChipPopulation,
        statistic: Optional[str] = None,
        progress: bool = False,
    ) -> CampaignResult:
        """Steps 1 + 2 + 3 for a chip population with the Reduce policy."""
        policy = self.build_policy(statistic)
        return self.retrain_population(population, policy, progress=progress)

    def run_fixed_policy(
        self,
        population: ChipPopulation,
        epochs: float,
        progress: bool = False,
    ) -> CampaignResult:
        """The state-of-the-art baseline: fixed retraining amount per chip."""
        return self.retrain_population(population, FixedEpochPolicy(epochs), progress=progress)
