"""Parallel campaign engine: sharded, resumable chip-population runs.

This package is the layer between the per-chip math of
:mod:`repro.core.reduce` and the figure runners: it freezes Step 2 decisions
into picklable per-chip jobs, executes them in chunks — inline at
``jobs == 1``, otherwise through one socket coordinator serving local and
remote worker processes — and persists results to a checksummed,
content-addressed JSONL store that supports resuming interrupted campaigns
and verifying store integrity.  Both executors share one retry/quarantine
chunk ledger (:mod:`repro.campaign.supervisor`), and a deterministic chaos
harness (:mod:`repro.campaign.chaos`) exercises every recovery path from
tests.

:mod:`repro.campaign.transport` frames JSON messages over TCP sockets with a
versioned hello handshake, and :mod:`repro.campaign.scheduler` serves plan
chunks to socket workers via work-stealing claims.  ``--jobs N`` workers
join over loopback; remote workers join the same coordinator from other
hosts, so distributed recovery is local recovery.
"""

from repro.campaign.chaos import CHAOS_ENV_VAR, ChaosError, ChaosSpec, resolve_chaos
from repro.campaign.engine import CampaignEngine, CampaignReport, run_campaign
from repro.campaign.jobs import (
    ChipJob,
    build_jobs,
    execute_job,
    execute_job_chunk,
    execute_jobs_batched,
    group_jobs_for_batching,
    plan_job_chunks,
)
from repro.campaign.store import (
    CampaignStore,
    CampaignStoreError,
    StoreVerification,
    campaign_fingerprint,
    discover_stores,
)
from repro.campaign.scheduler import (
    CampaignCoordinator,
    SchedulerConfig,
    SchedulerError,
    WorkerRejected,
    run_worker,
)
from repro.campaign.supervisor import (
    ChunkFailure,
    ChunkLedger,
    SupervisorConfig,
)
from repro.campaign.sweep import StrategySweepResult, run_strategy_sweep
from repro.campaign.transport import (
    PROTOCOL_VERSION,
    FrameDecoder,
    FrameError,
    HandshakeError,
    TransportError,
    find_free_port,
    parse_address,
)

__all__ = [
    "CHAOS_ENV_VAR",
    "ChaosError",
    "ChaosSpec",
    "resolve_chaos",
    "CampaignEngine",
    "CampaignReport",
    "run_campaign",
    "ChipJob",
    "build_jobs",
    "execute_job",
    "execute_job_chunk",
    "execute_jobs_batched",
    "group_jobs_for_batching",
    "plan_job_chunks",
    "CampaignStore",
    "CampaignStoreError",
    "StoreVerification",
    "campaign_fingerprint",
    "discover_stores",
    "ChunkFailure",
    "ChunkLedger",
    "SupervisorConfig",
    "StrategySweepResult",
    "run_strategy_sweep",
    "CampaignCoordinator",
    "SchedulerConfig",
    "SchedulerError",
    "WorkerRejected",
    "run_worker",
    "PROTOCOL_VERSION",
    "FrameDecoder",
    "FrameError",
    "HandshakeError",
    "TransportError",
    "find_free_port",
    "parse_address",
]
