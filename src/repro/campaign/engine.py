"""Sharded, resumable campaign engine (the campaign planner/executor).

The engine turns ``ReduceFramework.retrain_population`` into a dispatchable
workload in two stages:

* **Plan.** Step 2 (policy resolution) runs once in the parent process and
  is frozen into picklable :class:`~repro.campaign.jobs.ChipJob` units; the
  pending jobs are then partitioned into same-budget *chunks* of at most
  ``fat_batch`` jobs (:func:`~repro.campaign.jobs.plan_job_chunks`).
* **Execute.** Whole chunks — not single chips — are executed by one of
  two executors.  ``jobs == 1`` runs them inline, in this process.
  Otherwise a :class:`~repro.campaign.scheduler.CampaignCoordinator` serves
  them to socket workers: ``jobs`` local worker processes that join over
  loopback, plus any remote workers (``listen=``/``workers=``).  A
  multi-job chunk runs through one stacked
  :class:`~repro.accelerator.batched.BatchedFaultTrainer`, so process-level
  parallelism and stacked-GEMM batching compose: ``--jobs N`` workers each
  retrain ``--fat-batch`` chips per dispatch.

A local fleet is created at the first run that needs one and serves every
later run of the engine; a distributed engine owns its coordinator from
construction time, so remote workers can join (``repro-reduce worker
--join HOST:PORT``) before the first run.  Chunks are pulled via
work-stealing claims, results commit through the same content-addressed
store in this process, and the population-shared retraining seed makes
every chunk bit-identical no matter which process or host executed it — a
distributed campaign resumes and fingerprints exactly like a local one.

Execution is fault-tolerant.  Both executors drive one
:class:`~repro.campaign.supervisor.ChunkLedger`: a chunk whose execution
raises, or whose worker dies, disconnects or blows its deadline, is retried
with capped exponential backoff, and a chunk that keeps failing is
quarantined — the campaign completes every other chip and reports the
casualties in ``CampaignResult.failed_chips`` (and the store's
``quarantine.jsonl``) instead of crashing.  A deterministic chaos harness
(:mod:`repro.campaign.chaos`, ``chaos=``/``--chaos``) injects worker
SIGKILLs, hangs, transient exceptions and torn trailing writes at seeded
points so every one of those recovery paths is exercised in tests; kill and
hang are no-ops inline.

With a store base directory the engine persists every finished chunk to a
content-addressed JSONL store (one fsync per chunk — the group-result
protocol) and skips already-completed chips on restart, so a killed campaign
loses at most the chunks in flight and resumes where it left off.

Determinism: the retraining seed is a pure function of the campaign
configuration and is shared by every chip (see
``ReduceFramework._fat_training_config``) — population-shared seeding is
what makes a chunk executed in any worker bit-identical to per-chip serial
execution.  Every execution restores the same pre-trained weights first and
results are re-ordered to population order, so serial, parallel, batched and
resumed runs produce bit-identical results; a resumed campaign re-plans only
the remaining jobs, and any partition of the same jobs yields the same
per-chip values.
"""

from __future__ import annotations

import dataclasses
import time
import weakref
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.campaign.chaos import ChaosSchedule, ChaosSpec, resolve_chaos
from repro.campaign.jobs import (
    ChipJob,
    build_jobs,
    execute_job_chunk,
    plan_job_chunks,
)
from repro.campaign.scheduler import CampaignCoordinator, SchedulerConfig
from repro.campaign.store import CampaignStore, campaign_fingerprint
from repro.campaign.transport import format_address
from repro.campaign.supervisor import ChunkFailure, ChunkLedger, SupervisorConfig
from repro.core.chips import ChipPopulation
from repro.core.reduce import CampaignResult, ChipRetrainingResult
from repro.core.selection import FixedEpochPolicy, RetrainingPolicy
from repro.mitigation.strategy import StrategyLike, resolve_strategy
from repro.observability import (
    metrics,
    trace,
    write_chrome_trace,
    write_merged_metrics,
)
from repro.utils.logging import get_logger
from repro.utils.timing import Timer, format_duration

logger = get_logger("campaign.engine")

PathLike = Union[str, Path]

@dataclasses.dataclass
class CampaignReport:
    """Bookkeeping of one engine run (what executed, what was resumed)."""

    policy_name: str
    total_chips: int
    executed: int
    skipped: int
    jobs: int
    elapsed_seconds: float
    fingerprint: Optional[str] = None
    store_dir: Optional[Path] = None
    failed: int = 0

    @property
    def chips_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return float("inf") if self.executed else 0.0
        return self.executed / self.elapsed_seconds

    def describe(self) -> str:
        parts = [
            f"policy={self.policy_name}",
            f"chips={self.total_chips}",
            f"executed={self.executed}",
            f"skipped={self.skipped}",
            f"jobs={self.jobs}",
            f"elapsed={format_duration(self.elapsed_seconds)}",
        ]
        if self.failed:
            parts.append(f"failed={self.failed}")
        if self.executed:
            parts.append(f"rate={self.chips_per_second:.2f}chips/s")
        if self.store_dir is not None:
            parts.append(f"store={self.store_dir}")
        return " ".join(parts)


class CampaignEngine:
    """Run retraining campaigns over chip populations, sharded and resumable.

    Parameters
    ----------
    context:
        An :class:`~repro.experiments.common.ExperimentContext` providing the
        pre-trained model, dataset and array.
    jobs:
        Number of local worker processes; ``1`` (the default) executes
        inline with no multiprocessing involved.  ``jobs > 1`` forks that
        many socket workers joined to a loopback coordinator.
    store_base:
        Base directory for persistent result stores.  ``None`` keeps results
        in memory only (the legacy behaviour).
    resume:
        When a store is used, skip chips whose results are already recorded.
    progress:
        Log one line per completed chip.
    disk_cache_dir:
        Forwarded to local workers so spawn-started processes can load the
        pre-trained state from the on-disk context cache instead of
        re-pre-training.
    fat_batch:
        Maximum number of same-budget chips retrained together in one
        stacked batched-FAT run — the plan chunk size.  Applies to the
        inline path and to every worker at ``jobs > 1``; ``1`` disables
        coalescing.  Results are bit-identical either way; the stacked runs
        just share every GEMM across the batch.
    heartbeat_seconds:
        Interval of the progress heartbeat (one INFO line with completed/
        total chips and chips/s throughput).  ``None`` disables it.
    max_chunk_retries:
        Re-executions allowed per chunk after a worker death, hang or
        transient exception before the chunk is quarantined (default 2, so a
        chunk runs at most 3 times).
    chunk_timeout:
        Fixed per-chunk deadline in seconds for hang detection.  ``None``
        (the default) adapts the deadline to the observed chunk durations;
        see :class:`~repro.campaign.supervisor.SupervisorConfig`.
    chaos:
        Deterministic fault-injection spec (a string in the ``--chaos``
        grammar or a :class:`~repro.campaign.chaos.ChaosSpec`); ``None``
        disables injection.  Chaos never changes committed values — retried
        chunks are bit-identical — it only exercises the recovery paths.
    supervisor_config:
        Full :class:`~repro.campaign.supervisor.SupervisorConfig` override
        (tests tune backoff and deadlines through this).  When given, it is
        used verbatim and ``max_chunk_retries``/``chunk_timeout`` are
        ignored.
    prefetch:
        Background double-buffering of eval-batch lowerings (``False`` ←
        ``--no-prefetch``): while one batch's stacked GEMMs run, a helper
        thread lowers the next batch.  Pure throughput knob — results are
        bit-identical either way — applied to the inline path and every
        worker.
    lowering_cache_mb:
        Byte cap (in MB) of the shared eval-lowering cache
        (``--lowering-cache-mb``); ``None`` keeps the default
        (:data:`~repro.accelerator.batched.DEFAULT_LOWERING_CACHE_MB`).
        LRU entries are evicted past the cap — a throughput fallback, never
        a correctness change.
    listen:
        ``(host, port)`` to accept socket workers on (``--listen``); turns
        the engine distributed.  Port ``0`` binds an ephemeral port — the
        bound address is ``engine.listen_address``.
    workers:
        ``(host, port)`` addresses of listening socket workers the
        coordinator should dial (``--workers host:port,…``); also turns the
        engine distributed.  In distributed mode ``jobs`` is the number of
        *local* socket workers forked alongside the remote ones and may be
        ``0`` (remote-only execution).
    scheduler_config:
        Transport knobs (:class:`~repro.campaign.scheduler.SchedulerConfig`)
        of the coordinator; chunk retry/deadline policy stays in
        ``supervisor_config`` and is shared with the inline executor.

    An engine that started worker processes should be closed (``close()``
    or a ``with`` block); otherwise they are reaped when the engine is
    garbage-collected.
    """

    DEFAULT_FAT_BATCH = 8
    DEFAULT_HEARTBEAT_SECONDS = 30.0
    DEFAULT_MAX_CHUNK_RETRIES = 2

    def __init__(
        self,
        context,
        jobs: int = 1,
        store_base: Optional[PathLike] = None,
        resume: bool = True,
        progress: bool = False,
        disk_cache_dir: Optional[PathLike] = None,
        fat_batch: Optional[int] = None,
        heartbeat_seconds: Optional[float] = DEFAULT_HEARTBEAT_SECONDS,
        max_chunk_retries: Optional[int] = None,
        chunk_timeout: Optional[float] = None,
        chaos: Optional[Union[str, ChaosSpec]] = None,
        supervisor_config: Optional[SupervisorConfig] = None,
        prefetch: bool = True,
        lowering_cache_mb: Optional[float] = None,
        listen: Optional[Tuple[str, int]] = None,
        workers: Optional[Sequence[Tuple[str, int]]] = None,
        scheduler_config: Optional[SchedulerConfig] = None,
    ) -> None:
        self.distributed = listen is not None or bool(workers)
        if self.distributed:
            # jobs counts *local socket workers* here; 0 = remote-only.
            if jobs < 0:
                raise ValueError(f"jobs must be >= 0 in distributed mode, got {jobs}")
        elif jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if fat_batch is not None and fat_batch < 1:
            raise ValueError(f"fat_batch must be >= 1, got {fat_batch}")
        if heartbeat_seconds is not None and heartbeat_seconds < 0:
            raise ValueError(
                f"heartbeat_seconds must be non-negative, got {heartbeat_seconds}"
            )
        if lowering_cache_mb is not None and lowering_cache_mb < 0:
            raise ValueError(
                f"lowering_cache_mb must be non-negative, got {lowering_cache_mb}"
            )
        self.context = context
        self.jobs = int(jobs)
        self.store_base = Path(store_base) if store_base is not None else None
        self.resume = resume
        self.progress = progress
        self.disk_cache_dir = str(disk_cache_dir) if disk_cache_dir is not None else None
        self.fat_batch = int(fat_batch) if fat_batch is not None else self.DEFAULT_FAT_BATCH
        self.heartbeat_seconds = heartbeat_seconds
        self.chaos_spec = resolve_chaos(chaos)
        self.prefetch = bool(prefetch)
        self.lowering_cache_mb = (
            float(lowering_cache_mb) if lowering_cache_mb is not None else None
        )
        if supervisor_config is not None:
            self.supervisor_config = supervisor_config
        else:
            # SupervisorConfig validates the retry/timeout ranges.
            self.supervisor_config = SupervisorConfig(
                max_chunk_retries=(
                    int(max_chunk_retries)
                    if max_chunk_retries is not None
                    else self.DEFAULT_MAX_CHUNK_RETRIES
                ),
                chunk_timeout=chunk_timeout,
            )
        self.last_report: Optional[CampaignReport] = None

        self.scheduler_config = scheduler_config
        self._coordinator: Optional[CampaignCoordinator] = None
        self._close_coordinator: Optional[weakref.finalize] = None
        self.listen_address: Optional[Tuple[str, int]] = None
        if self.distributed:
            self._start_coordinator(listen=listen, connect=list(workers or ()))
            self.listen_address = self._coordinator.address

    # -- public API ---------------------------------------------------------------

    def run(
        self,
        population: ChipPopulation,
        policy: RetrainingPolicy,
        strategy: StrategyLike = None,
        triage: Optional[Dict[str, float]] = None,
    ) -> CampaignResult:
        """Execute Step 3 for every chip under ``policy`` (Steps 1+2 given).

        ``strategy`` selects the mitigation recipe every job is tagged with
        (default: classic FAT) — the fingerprint, the store and the planner
        all key on it, so each strategy of a sweep owns its own resumable
        store.  ``triage`` optionally shares pre-computed (or to-be-computed)
        ``accuracy_before`` values across runs: missing chips are evaluated
        in one batched pass and written back into the mapping, so a sweep can
        hand the same dict to every strategy that measures its initial
        accuracy under the same masks.
        """
        strategy = resolve_strategy(strategy)
        with trace.span(
            "campaign.run",
            policy=policy.name,
            strategy=strategy.name,
            jobs=self.jobs,
        ) as run_span:
            result = self._run(population, policy, strategy, triage, run_span)
        self._write_observability_artifacts()
        return result

    def _run(
        self,
        population: ChipPopulation,
        policy: RetrainingPolicy,
        strategy,
        triage: Optional[Dict[str, float]],
        run_span,
    ) -> CampaignResult:
        metrics.gauge("campaign.phase").set("plan")
        # Eval-pipeline knobs apply to the context (and so to every framework
        # built from it, here and in this run's inline chunk executions); the
        # shared lowering cache survives across runs of the same engine and
        # across sweep arms sharing the context.
        self.context.configure_eval_pipeline(
            prefetch=self.prefetch, lowering_cache_mb=self.lowering_cache_mb
        )
        with trace.span("campaign.plan", stage="build_jobs"):
            framework = self.context.framework()
            job_list = build_jobs(framework, population, policy, strategy=strategy)
            target_accuracy = framework.target_accuracy
            clean_accuracy = framework.clean_accuracy
            run_span.set(chips=len(job_list))

            store: Optional[CampaignStore] = None
            fingerprint: Optional[str] = None
            if self.store_base is not None:
                fingerprint = campaign_fingerprint(
                    self.context.preset, policy.name, target_accuracy, job_list
                )
                store = CampaignStore.open(
                    self.store_base,
                    fingerprint,
                    manifest={
                        "policy": policy.name,
                        "strategy": strategy.name,
                        "preset": self.context.preset.name,
                        "num_chips": len(job_list),
                        "target_accuracy": target_accuracy,
                        "clean_accuracy": clean_accuracy,
                        "array_shape": list(population.array_shape),
                    },
                )

        known: Dict[str, ChipRetrainingResult] = {}
        if store is not None:
            if self.resume:
                metrics.gauge("campaign.phase").set("resume_scan")
                with trace.span("campaign.resume_scan"):
                    store.compact()
                    wanted = {job.chip_id for job in job_list}
                    known = {
                        chip_id: result
                        for chip_id, result in store.completed().items()
                        if chip_id in wanted
                    }
            else:
                store.clear_results()

        pending = [job for job in job_list if job.chip_id not in known]
        if known:
            logger.info(
                "campaign %s: resuming, %d/%d chips already recorded in %s",
                policy.name,
                len(known),
                len(job_list),
                store.directory if store is not None else "?",
            )

        timer = Timer().start()
        done = len(known)

        if pending:
            # Batched triage: the initial accuracy checkpoint of every pending
            # chip is B masked variants of the same pre-trained model, so one
            # multi-chip sweep replaces |pending| serial test-set passes.  The
            # values are numerically identical to the serial evaluation, and
            # zero-epoch jobs become pure lookups for the executor.  A caller-
            # supplied ``triage`` dict is consulted first and extended in
            # place, so sweeps share one pass among same-mask strategies.
            metrics.gauge("campaign.phase").set("triage")
            with trace.span("campaign.triage", chips=len(pending)):
                triage = triage if triage is not None else {}
                missing = [job.to_chip() for job in pending if job.chip_id not in triage]
                if missing:
                    triage.update(framework.triage_population(missing, strategy=strategy))
                pending = [
                    job.with_accuracy_before(triage[job.chip_id])
                    if job.chip_id in triage
                    else job
                    for job in pending
                ]

        executed = 0
        last_heartbeat = time.monotonic()
        chips_counter = metrics.counter(
            "campaign.chips_completed", strategy=strategy.name
        )
        heartbeat_count = chips_counter.value
        # Planned after chunking (the schedule needs the chunk count); the
        # closure below reads the rebound value at call time.
        chaos_schedule: Optional[ChaosSchedule] = None

        def record_chunk(results: Sequence[ChipRetrainingResult]) -> None:
            """Group-result protocol: persist + account one chunk at a time."""
            nonlocal done, executed, last_heartbeat, heartbeat_count
            if store is not None:
                store.append_many(results)
                if chaos_schedule is not None:
                    chaos_schedule.maybe_tear(store)
            metrics.counter("campaign.chunks_recorded").inc()
            chips_counter.inc(len(results))
            for result in results:
                known[result.chip_id] = result
                done += 1
                executed += 1
                # Committed-chip instants are emitted parent-side *after* the
                # store append succeeded, so a merged trace never contains
                # duplicate chip events across a kill/resume cycle (resumed
                # chips are loaded from the store and emit none).
                trace.instant(
                    "campaign.chip", chip_id=result.chip_id, strategy=strategy.name
                )
                if self.progress:
                    logger.info(
                        "campaign %s: %d/%d chip %s rate=%.3f epochs=%.3f acc=%.3f meets=%s",
                        policy.name,
                        done,
                        len(job_list),
                        result.chip_id,
                        result.fault_rate,
                        result.epochs_trained,
                        result.accuracy_after,
                        result.meets_constraint,
                    )
            now = time.monotonic()
            if (
                self.heartbeat_seconds is not None
                and now - last_heartbeat >= self.heartbeat_seconds
                and done < len(job_list)
            ):
                # Recent rate from the chips-completed counter delta over the
                # heartbeat window (falling back to the cumulative rate on the
                # first beat), which feeds the ETA for the remaining chips.
                window = max(now - last_heartbeat, 1e-9)
                recent_rate = (chips_counter.value - heartbeat_count) / window
                last_heartbeat = now
                heartbeat_count = chips_counter.value
                elapsed_so_far = max(now - started, 1e-9)
                rate = recent_rate if recent_rate > 0 else executed / elapsed_so_far
                remaining = len(job_list) - done
                phase = metrics.gauge("campaign.phase").value or "execute"
                eta = format_duration(remaining / rate) if rate > 0 else "?"
                logger.info(
                    "campaign %s: heartbeat %d/%d chips done "
                    "(%.1f chips/s, eta %s, phase %s)",
                    policy.name,
                    done,
                    len(job_list),
                    rate,
                    eta,
                    phase,
                )

        failures: List[ChunkFailure] = []
        if pending:
            # Worker-aware planning: one big same-budget group still splits
            # across all requested workers instead of starving them.
            metrics.gauge("campaign.phase").set("plan")
            with trace.span("campaign.plan", stage="chunk", chips=len(pending)):
                plan = plan_job_chunks(
                    pending, self.fat_batch, workers=self._plan_worker_hint()
                )
            metrics.counter("campaign.chunks_planned").inc(len(plan))
            if self.chaos_spec is not None:
                chaos_schedule = self.chaos_spec.schedule(len(plan))
                logger.warning(
                    "campaign %s: chaos injection enabled (%s) over %d chunks",
                    policy.name,
                    self.chaos_spec.describe(),
                    len(plan),
                )
            batched_chips = sum(len(chunk) for chunk in plan if len(chunk) > 1)
            if batched_chips:
                logger.info(
                    "campaign %s: planned %d chips into %d chunks, "
                    "%d chips in stacked batched-FAT chunks (fat_batch=%d)",
                    policy.name,
                    len(pending),
                    len(plan),
                    batched_chips,
                    self.fat_batch,
                )
            started = time.monotonic()
            # Triaged zero-epoch jobs are pure result-row lookups: shipping
            # them to workers would cost far more than executing them here,
            # so non-retraining strategy campaigns always run inline.
            all_lookups = all(
                job.epochs == 0 and job.accuracy_before is not None
                for job in pending
            )
            metrics.gauge("campaign.phase").set("execute")
            use_workers = self._coordinator is not None or (
                self.jobs > 1 and len(plan) > 1
            )
            with trace.span(
                "campaign.execute", chunks=len(plan), chips=len(pending)
            ):
                if use_workers and not all_lookups:
                    failures = self._execute_on_workers(
                        plan, record_chunk, strategy, chaos_schedule
                    )
                else:
                    failures = self._execute_inline(
                        framework, plan, record_chunk, chaos_schedule
                    )
        elapsed = timer.stop()
        metrics.gauge("campaign.phase").set("finalize")

        # Graceful degradation: quarantined chunks become per-chip failure
        # records instead of an engine crash.  The store's quarantine file is
        # rewritten every run — cleared when a previously-poisoned campaign
        # completes cleanly — and a chaos-torn trailing fragment (or any other
        # torn tail) is repaired before the store is handed back to callers.
        failed_chips: List[Dict[str, object]] = [
            record for failure in failures for record in failure.to_chip_records()
        ]
        if failed_chips:
            metrics.counter("campaign.chips_failed").inc(len(failed_chips))
            logger.error(
                "campaign %s: %d chip(s) in %d quarantined chunk(s) failed "
                "permanently: %s",
                policy.name,
                len(failed_chips),
                len(failures),
                ", ".join(str(record["chip_id"]) for record in failed_chips),
            )
        if store is not None:
            store.write_quarantine([failure.to_dict() for failure in failures])
            store.repair()

        self.last_report = CampaignReport(
            policy_name=policy.name,
            total_chips=len(job_list),
            executed=len(pending) - len(failed_chips),
            skipped=len(job_list) - len(pending),
            jobs=self.jobs,
            elapsed_seconds=elapsed,
            fingerprint=fingerprint,
            store_dir=store.directory if store is not None else None,
            failed=len(failed_chips),
        )
        logger.info("campaign finished: %s", self.last_report.describe())
        if self.last_report.executed:
            metrics.gauge(
                "campaign.chips_per_second", strategy=strategy.name
            ).set(self.last_report.chips_per_second)

        results = [known[job.chip_id] for job in job_list if job.chip_id in known]
        return CampaignResult(
            policy_name=policy.name,
            target_accuracy=target_accuracy,
            clean_accuracy=clean_accuracy,
            results=results,
            failed_chips=failed_chips,
        )

    def _write_observability_artifacts(self) -> None:
        """Refresh merged trace/metrics artifacts after a run (idempotent).

        Re-running after every ``run()`` keeps the merged views current for
        multi-arm sweeps: each arm's spans simply extend the same shards and
        the merge is rewritten atomically.
        """
        if not (trace.enabled or metrics.enabled):
            return
        # Snapshot process-wide cache stats into gauges so the merged metrics
        # carry fault-mask LRU effectiveness without touching mapping.py's
        # hot path (the counters there are plain dict increments already).
        from repro.accelerator.mapping import mask_cache_stats

        for key, value in mask_cache_stats().items():
            metrics.gauge(f"mask_cache.{key}").set(value)
        directory = trace.directory
        if trace.enabled and directory is not None:
            trace.flush()
            metrics.write_shard(directory)
            write_chrome_trace(directory)
            write_merged_metrics(directory)
        elif (
            metrics.enabled
            and self.last_report is not None
            and self.last_report.store_dir is not None
        ):
            metrics.write_shard(self.last_report.store_dir)
            write_merged_metrics(self.last_report.store_dir)

    def run_reduce(
        self,
        population: ChipPopulation,
        statistic: str = "max",
        strategy: StrategyLike = None,
    ) -> CampaignResult:
        """Steps 1+2+3 with the resilience-driven policy (Step 1 cached)."""
        self.context.resilience_profile()
        policy = self.context.framework().build_policy(statistic)
        return self.run(population, policy, strategy=strategy)

    def run_fixed(
        self,
        population: ChipPopulation,
        epochs: float,
        strategy: StrategyLike = None,
    ) -> CampaignResult:
        """The fixed-budget baseline through the engine."""
        return self.run(population, FixedEpochPolicy(epochs), strategy=strategy)

    # -- executor: inline dispatch ---------------------------------------------------

    def _execute_inline(
        self,
        framework,
        plan: Sequence[List[ChipJob]],
        record_chunk: Callable[[Sequence[ChipRetrainingResult]], None],
        chaos_schedule: Optional[ChaosSchedule] = None,
    ) -> List[ChunkFailure]:
        """Execute the plan in-process, one chunk at a time (Step 3).

        Results are recorded (and persisted) after every chunk, so a killed
        campaign loses at most the chunk in flight rather than a whole
        budget group.  Chunks run against the same
        :class:`~repro.campaign.supervisor.ChunkLedger` the coordinator
        drives: a chunk that raises is retried (after its backoff) up to
        ``max_chunk_retries`` times and then quarantined, so one poisoned
        chip cannot take down an otherwise healthy inline campaign.  Each
        chunk is settled before the next one starts, so commits stay in plan
        order.  Chaos process faults (kill/hang) are downgraded to no-ops
        inline — killing the only process is not a recoverable fault.
        """
        ledger = ChunkLedger(plan, self.supervisor_config)
        for state in ledger.chunks:
            while state.status == "pending":
                delay = state.not_before - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                attempt = ledger.start(state)
                started = time.monotonic()
                try:
                    if chaos_schedule is not None:
                        chaos_schedule.maybe_inject(
                            state.index, attempt, allow_process_faults=False
                        )
                    results = execute_job_chunk(
                        framework, state.chunk, fat_batch=self.fat_batch, attempt=attempt
                    )
                except Exception as error:  # noqa: BLE001 - quarantine boundary
                    ledger.fail(state, repr(error), time.monotonic())
                else:
                    ledger.complete(state, time.monotonic() - started)
                    record_chunk(results)
        return ledger.failures

    # -- executor: socket workers ----------------------------------------------------

    def _plan_worker_hint(self) -> int:
        """Worker count for plan sizing (each local or remote worker once)."""
        if self._coordinator is None:
            return max(1, self.jobs)
        return max(1, self._coordinator.worker_hint())

    def _start_coordinator(
        self,
        listen: Optional[Tuple[str, int]] = None,
        connect: Sequence[Tuple[str, int]] = (),
    ) -> None:
        self._coordinator = CampaignCoordinator(
            preset=self.context.preset,
            listen=listen,
            connect=connect,
            fat_batch=self.fat_batch,
            prefetch=self.prefetch,
            lowering_cache_mb=self.lowering_cache_mb,
            supervisor_config=self.supervisor_config,
            config=self.scheduler_config,
            local_workers=self.jobs,
            disk_cache_dir=self.disk_cache_dir,
        )
        # Reaps the worker processes of an engine that is dropped unclosed.
        self._close_coordinator = weakref.finalize(self, self._coordinator.close)

    def _execute_on_workers(
        self,
        plan: Sequence[List[ChipJob]],
        record_chunk: Callable[[Sequence[ChipRetrainingResult]], None],
        strategy,
        chaos_schedule: Optional[ChaosSchedule] = None,
    ) -> List[ChunkFailure]:
        """Serve plan chunks to socket workers via the coordinator.

        Results commit through ``record_chunk`` on this thread exactly like
        the inline executor, so the store/fsync/resume protocol — and the
        bit-identity guarantee — is unchanged; only the transport differs.
        """
        if self._coordinator is None:
            self._start_coordinator()
        logger.info(
            "campaign: serving %d chips in %d chunks to socket workers "
            "(%d local, listening on %s)",
            sum(len(chunk) for chunk in plan),
            len(plan),
            self.jobs,
            format_address(self._coordinator.address),
        )
        return self._coordinator.run_plan(
            plan, record_chunk, strategy=strategy.name, chaos=chaos_schedule
        )

    def close(self) -> None:
        """Shut down the worker fleet (idempotent; no-op when none started)."""
        if self._close_coordinator is not None:
            self._close_coordinator()
        self._coordinator = None
        self._close_coordinator = None

    def __enter__(self) -> "CampaignEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def run_campaign(
    context,
    population: ChipPopulation,
    policy: RetrainingPolicy,
    jobs: int = 1,
    store_base: Optional[PathLike] = None,
    resume: bool = True,
    progress: bool = False,
    fat_batch: Optional[int] = None,
    strategy: StrategyLike = None,
    prefetch: bool = True,
    lowering_cache_mb: Optional[float] = None,
) -> CampaignResult:
    """One-call convenience wrapper around :class:`CampaignEngine`."""
    engine = CampaignEngine(
        context,
        jobs=jobs,
        store_base=store_base,
        resume=resume,
        progress=progress,
        fat_batch=fat_batch,
        prefetch=prefetch,
        lowering_cache_mb=lowering_cache_mb,
    )
    return engine.run(population, policy, strategy=strategy)
