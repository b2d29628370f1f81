"""Work-unit layer of the campaign engine.

The Step 2+3 slice of the Reduce flow for one chip — look up the retraining
amount, restore the pre-trained weights, retrain under the chip's fault masks
and evaluate against the constraint — is embarrassingly parallel across a
chip population.  A :class:`ChipJob` captures everything that slice needs
beyond the (shared, pre-trained) framework as plain JSON-compatible data:

* the serialized chip (``Chip.to_dict()``: id + fault-map coordinates),
* the retraining amount chosen by the policy in the parent process, and
* the accuracy target resolved once against the clean accuracy.

Jobs are therefore picklable, hashable enough to fingerprint, and executing
one is a pure function of ``(framework pre-trained state, job)``: the
retraining seed is a deterministic function of the campaign configuration
(shared by every chip — see :meth:`ReduceFramework._fat_training_config`),
so the result does not depend on which process runs the job or in what order
jobs complete.  Because the seed (and therefore the mini-batch and dropout
streams) is shared, jobs with the same epoch budget can also be *coalesced*:
:func:`execute_jobs_batched` retrains a whole group through one stacked
multi-chip trainer and returns exactly what per-job execution would.

The planner/executor split builds on exactly that purity:
:func:`plan_job_chunks` partitions pending jobs into same-budget *chunks* of
at most ``fat_batch`` jobs, and :func:`execute_job_chunk` runs one chunk —
batched when it holds several jobs, per-job otherwise.  A chunk is both the
unit of dispatch (the campaign engine hands whole chunks to worker
processes, so ``--jobs N`` and ``--fat-batch B`` compose) and the unit of
resume granularity (results are persisted chunk by chunk).  Any partition of
the same jobs yields bit-identical results, so a resumed campaign may regroup
the remaining jobs differently without changing a single recorded value.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.chips import Chip, ChipPopulation
from repro.core.reduce import ChipRetrainingResult, ReduceFramework
from repro.core.selection import RetrainingPolicy
from repro.mitigation.strategy import (
    DEFAULT_STRATEGY_NAME,
    StrategyLike,
    resolve_strategy,
)
from repro.observability import metrics, trace


@dataclasses.dataclass(frozen=True)
class ChipJob:
    """One chip's select+mitigate+evaluate step, as a self-contained unit."""

    chip: Dict[str, Any]
    epochs: float
    target_accuracy: float
    policy_name: str
    # Initial (pre-retraining) accuracy measured by the engine's batched
    # triage pass (single-job chunks) or handed over from an earlier sweep
    # arm; workers then skip that evaluation.  ``None`` in a multi-job chunk
    # means its stacked trainer measures it.  Not part of the campaign
    # fingerprint: it is derived data, not work definition.
    accuracy_before: Optional[float] = None
    # How the chip is mitigated before/instead of spending the budget (part
    # of the work definition, so part of the campaign fingerprint).
    strategy: str = DEFAULT_STRATEGY_NAME

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")

    @property
    def chip_id(self) -> str:
        return str(self.chip["chip_id"])

    def to_chip(self) -> Chip:
        return Chip.from_dict(self.chip)

    def with_accuracy_before(self, accuracy: float) -> "ChipJob":
        return dataclasses.replace(self, accuracy_before=float(accuracy))

    def to_dict(self) -> Dict[str, Any]:
        # Shallow on purpose: ``dataclasses.asdict`` deep-copies every
        # fault-map pair, and the coordinator serializes each dispatched
        # chunk on its one event-loop thread.  Same JSON either way.
        return {field.name: getattr(self, field.name) for field in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ChipJob":
        accuracy_before = data.get("accuracy_before")
        return cls(
            chip=dict(data["chip"]),
            epochs=float(data["epochs"]),
            target_accuracy=float(data["target_accuracy"]),
            policy_name=str(data["policy_name"]),
            accuracy_before=None if accuracy_before is None else float(accuracy_before),
            strategy=str(data.get("strategy", DEFAULT_STRATEGY_NAME)),
        )


def build_jobs(
    framework: ReduceFramework,
    population: ChipPopulation,
    policy: RetrainingPolicy,
    strategy: StrategyLike = None,
) -> List[ChipJob]:
    """Resolve a policy over a population into per-chip jobs (Step 2 output).

    Jobs are returned in population order; the campaign engine preserves that
    order in its results regardless of completion order, so serial and
    parallel runs are directly comparable.  ``strategy`` tags every job and
    clamps the budget to what the strategy actually spends (zero for
    non-retraining strategies and for bypassable chips under ``bypass+fat``),
    so the planner groups jobs by the work they really represent.
    """
    resolved = resolve_strategy(strategy)
    amounts = policy.epochs_for_population(population)
    target = framework.target_accuracy
    return [
        ChipJob(
            chip=chip.to_dict(),
            epochs=resolved.effective_epochs(float(amounts[chip.chip_id]), chip.fault_map),
            target_accuracy=target,
            policy_name=policy.name,
            strategy=resolved.name,
        )
        for chip in population
    ]


def execute_job(framework: ReduceFramework, job: ChipJob) -> ChipRetrainingResult:
    """Run one job against a framework holding the pre-trained weights."""
    return framework.retrain_chip(
        job.to_chip(),
        job.epochs,
        target_accuracy=job.target_accuracy,
        accuracy_before=job.accuracy_before,
        strategy=job.strategy,
    )


def group_jobs_for_batching(
    jobs: Sequence[ChipJob],
) -> Dict[Tuple[float, str], List[ChipJob]]:
    """Group jobs by ``(budget, strategy)`` (insertion-ordered).

    A stacked batched-FAT run shares one mini-batch stream and one set of
    stacked keep-multipliers, so only jobs that agree on the budget *and*
    the mitigation strategy may coalesce — a multi-strategy sweep's jobs
    partition cleanly along this key.
    """
    groups: Dict[Tuple[float, str], List[ChipJob]] = {}
    for job in jobs:
        groups.setdefault((float(job.epochs), job.strategy), []).append(job)
    return groups


def plan_job_chunks(
    jobs: Sequence[ChipJob], fat_batch: int, workers: int = 1
) -> List[List[ChipJob]]:
    """Partition pending jobs into executor chunks (the campaign *plan*).

    Jobs are grouped by ``(budget, strategy)`` (:func:`group_jobs_for_batching`);
    every positive-budget group with at least two jobs is cut into batched
    chunks of at most ``fat_batch`` jobs, which the executor retrains through
    one stacked :class:`~repro.accelerator.batched.BatchedFaultTrainer` run
    each.  Everything else — zero-epoch triage lookups, singleton budgets,
    or ``fat_batch == 1`` — becomes single-job chunks on the per-job path.

    ``workers`` is the dispatch parallelism the plan should be able to feed:
    a group is chunked at ``min(fat_batch, ceil(len(group) / workers))`` so a
    single large budget group still splits across every worker instead of
    collapsing into one chunk (slightly smaller stacked batches in exchange
    for keeping all requested processes busy).  ``workers=1`` (the inline
    path) leaves ``fat_batch`` as the only cap.

    Chunks preserve the within-group job order, so planning the same pending
    jobs always yields the same chunks, and executing any plan over the same
    jobs yields bit-identical per-chip results (the batched trainer's
    serial-equivalence guarantee); only the completion order may differ.
    """
    if fat_batch < 1:
        raise ValueError(f"fat_batch must be >= 1, got {fat_batch}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    chunks: List[List[ChipJob]] = []
    for (epochs, _strategy), group in group_jobs_for_batching(jobs).items():
        chunk_cap = min(fat_batch, -(-len(group) // workers))
        if chunk_cap > 1 and epochs > 0 and len(group) > 1:
            for start in range(0, len(group), chunk_cap):
                chunks.append(group[start:start + chunk_cap])
        else:
            chunks.extend([job] for job in group)
    return chunks


def execute_job_chunk(
    framework: ReduceFramework,
    chunk: Sequence[ChipJob],
    fat_batch: int = 8,
    attempt: int = 0,
) -> List[ChipRetrainingResult]:
    """Execute one plan chunk; returns results in chunk order.

    Multi-job chunks run through the stacked batched trainer; single-job
    chunks (and ``fat_batch == 1``) take the per-job path.  Either way the
    results equal ``[execute_job(framework, job) for job in chunk]``.
    ``attempt`` tags the chunk span so a trace distinguishes first executions
    from supervisor retries after a worker death or hang.
    """
    chunk_list = list(chunk)
    if not chunk_list:
        return []
    # The chunk span is an execution *attempt*: it lands in the shard of
    # whichever process ran the chunk (worker shards are keyed by pid), and a
    # killed-then-resumed campaign may legitimately record the same chunk
    # twice.  Committed chips are the parent-side "campaign.chip" instants.
    pipeline = framework.eval_pipeline
    with trace.span(
        "campaign.chunk",
        chips=len(chunk_list),
        epochs=chunk_list[0].epochs,
        strategy=chunk_list[0].strategy,
        batched=len(chunk_list) > 1 and fat_batch > 1,
        initial_eval=any(job.accuracy_before is None for job in chunk_list),
        attempt=attempt,
        prefetch=pipeline.prefetch,
        widened_eval=pipeline.widened_eval,
    ):
        if len(chunk_list) <= 1 or fat_batch <= 1:
            results = [execute_job(framework, job) for job in chunk_list]
        else:
            results = execute_jobs_batched(framework, chunk_list, fat_batch=fat_batch)
    metrics.counter("campaign.chunks_executed").inc()
    return results


def execute_jobs_batched(
    framework: ReduceFramework,
    jobs: Sequence[ChipJob],
    fat_batch: int = 8,
) -> List[ChipRetrainingResult]:
    """Execute a same-budget group of jobs through the stacked batched trainer.

    Returns results in job order, bit-identical (on this BLAS build) to
    ``[execute_job(framework, job) for job in jobs]``.  All jobs must share
    the same ``epochs``, ``target_accuracy`` and ``strategy``.
    """
    job_list = list(jobs)
    if not job_list:
        return []
    epochs = job_list[0].epochs
    target = job_list[0].target_accuracy
    strategy = job_list[0].strategy
    for job in job_list[1:]:
        if job.epochs != epochs or job.target_accuracy != target or job.strategy != strategy:
            raise ValueError(
                "batched execution requires jobs with identical epochs, target "
                f"and strategy (got epochs {job.epochs} vs {epochs}, "
                f"target {job.target_accuracy} vs {target}, strategy "
                f"{job.strategy!r} vs {strategy!r})"
            )
    accuracies_before = {
        job.chip_id: job.accuracy_before
        for job in job_list
        if job.accuracy_before is not None
    }
    return framework.retrain_chips_batched(
        [job.to_chip() for job in job_list],
        epochs,
        target_accuracy=target,
        accuracies_before=accuracies_before,
        fat_batch=fat_batch,
        strategy=strategy,
    )
