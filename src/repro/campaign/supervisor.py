"""Chunk-level fault tolerance shared by both campaign executors.

The campaign engine executes a plan either inline (``jobs == 1``) or through
the socket :class:`~repro.campaign.scheduler.CampaignCoordinator` (local
worker processes and/or remote hosts).  Both drive the same
:class:`ChunkLedger`, so every execution path recovers the same way:

* **Retry with backoff.**  A chunk that fails — an exception in the chunk,
  or the loss of the worker holding it (death, dropped link, stale
  heartbeats, a blown deadline) — is re-dispatched after
  ``backoff_base * 2**(n-1)`` seconds, capped at ``backoff_max``.
* **Deadline.**  With an explicit ``chunk_timeout`` the per-chunk deadline
  is fixed; otherwise it adapts to the observed chunk durations
  (``timeout_factor x`` the slowest completed chunk, floored at
  ``timeout_floor``) so a campaign whose chunks take minutes is not killed
  by a default tuned for seconds.
* **Quarantine.**  Retries are capped at ``max_chunk_retries`` per chunk; a
  chunk that fails beyond the cap — e.g. a poison chunk that kills every
  worker it touches — is reported as a :class:`ChunkFailure`, persisted by
  the engine to ``quarantine.jsonl``, and the campaign completes every other
  chunk instead of crashing.
* **Duplicate drop.**  A late result for a chunk that was already
  reassigned and committed is dropped, so the store never records a chunk
  twice.

:class:`ChunkCommitSequencer` then commits completed chunks in plan order.
Because the retraining seed is population-shared, re-executing a chunk on
any worker commits bit-identical rows, so recovery is invisible in
``results.jsonl``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.campaign.jobs import ChipJob
from repro.observability import metrics, trace
from repro.utils.logging import get_logger

logger = get_logger("campaign.supervisor")


@dataclasses.dataclass
class SupervisorConfig:
    """Fault-tolerance knobs of the campaign executors.

    ``max_chunk_retries`` is the number of *re-executions* allowed per chunk
    (so a chunk runs at most ``max_chunk_retries + 1`` times before it is
    quarantined).  ``chunk_timeout`` fixes the per-chunk deadline in seconds;
    ``None`` derives it from observed durations as
    ``max(timeout_floor, timeout_factor * slowest completed chunk)`` — until
    a first chunk completes there is no deadline, so a cold campaign is never
    killed by a mis-tuned default.  Backoff before the n-th retry is
    ``backoff_base * 2**(n-1)`` capped at ``backoff_max`` seconds.
    """

    max_chunk_retries: int = 2
    chunk_timeout: Optional[float] = None
    timeout_factor: float = 10.0
    timeout_floor: float = 30.0
    backoff_base: float = 0.5
    backoff_max: float = 30.0

    def __post_init__(self) -> None:
        if self.max_chunk_retries < 0:
            raise ValueError(
                f"max_chunk_retries must be >= 0, got {self.max_chunk_retries}"
            )
        if self.chunk_timeout is not None and self.chunk_timeout <= 0:
            raise ValueError(
                f"chunk_timeout must be positive, got {self.chunk_timeout}"
            )
        if self.timeout_factor <= 0 or self.timeout_floor < 0:
            raise ValueError("timeout_factor must be > 0 and timeout_floor >= 0")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff values must be non-negative")

    def backoff_seconds(self, attempt: int) -> float:
        """Delay before dispatching attempt ``attempt`` (attempt 0 = none)."""
        if attempt <= 0 or self.backoff_base <= 0:
            return 0.0
        return min(self.backoff_base * (2.0 ** (attempt - 1)), self.backoff_max)


@dataclasses.dataclass
class ChunkFailure:
    """A quarantined chunk: its jobs, the attempt count, and the last error."""

    chunk: List[ChipJob]
    attempts: int
    error: str

    @property
    def chip_ids(self) -> List[str]:
        return [job.chip_id for job in self.chunk]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "chip_ids": self.chip_ids,
            "attempts": self.attempts,
            "error": self.error,
            "epochs": self.chunk[0].epochs if self.chunk else None,
            "strategy": self.chunk[0].strategy if self.chunk else None,
        }

    def to_chip_records(self) -> List[Dict[str, Any]]:
        """Per-chip failure records for ``CampaignResult.failed_chips``."""
        return [
            {
                "chip_id": job.chip_id,
                "reason": self.error,
                "attempts": self.attempts,
                "strategy": job.strategy,
                "epochs": job.epochs,
            }
            for job in self.chunk
        ]


class _ChunkState:
    """Scheduling state of one plan chunk."""

    __slots__ = ("index", "chunk", "attempts", "not_before", "last_error", "status")

    def __init__(self, index: int, chunk: List[ChipJob]) -> None:
        self.index = index
        self.chunk = chunk
        self.attempts = 0  # executions started so far
        self.not_before = 0.0  # monotonic time before which it must not dispatch
        self.last_error = ""
        self.status = "pending"  # pending | running | done | quarantined


class ChunkLedger:
    """Transport-agnostic chunk-state machine of one campaign plan.

    The ledger owns everything about *what work is in which state* — ready
    selection with backoff, attempt counting, duplicate-completion dropping,
    retry-or-quarantine on failure, and the adaptive per-chunk deadline —
    while staying ignorant of *who* executes chunks.  The engine's inline
    executor and the socket-transport
    :class:`~repro.campaign.scheduler.CampaignCoordinator` both run their
    chunks against one ledger, so an in-process exception and a remote
    worker death are retried and quarantined by the same machinery.
    """

    def __init__(
        self, plan: Sequence[List[ChipJob]], config: Optional[SupervisorConfig] = None
    ) -> None:
        self.config = config if config is not None else SupervisorConfig()
        self.chunks = [_ChunkState(i, list(chunk)) for i, chunk in enumerate(plan)]
        self.failures: List[ChunkFailure] = []
        self._durations: List[float] = []

    # -- deadline -------------------------------------------------------------

    def deadline_seconds(self) -> Optional[float]:
        """Per-chunk deadline: fixed, or adaptive from observed durations."""
        if self.config.chunk_timeout is not None:
            return self.config.chunk_timeout
        if not self._durations:
            return None
        return max(
            self.config.timeout_floor,
            self.config.timeout_factor * max(self._durations),
        )

    # -- scheduling -----------------------------------------------------------

    def outstanding(self) -> int:
        return sum(
            1 for state in self.chunks if state.status in ("pending", "running")
        )

    def ready_chunk(self, now: float) -> Optional[_ChunkState]:
        """The dispatchable chunk with the earliest backoff release."""
        best: Optional[_ChunkState] = None
        for state in self.chunks:
            if state.status != "pending" or state.not_before > now:
                continue
            if best is None or state.not_before < best.not_before:
                best = state
                if best.not_before <= 0.0:
                    break
        return best

    def start(self, state: _ChunkState) -> int:
        """Mark a chunk dispatched; returns its zero-based attempt index."""
        state.status = "running"
        state.attempts += 1
        return state.attempts - 1

    def complete(self, state: _ChunkState, duration: Optional[float]) -> bool:
        """Mark a chunk done; ``False`` when it was already committed.

        A hang-killed (or presumed-lost) worker that actually finished after
        its reassigned twin produces a duplicate completion: the caller must
        drop the payload so the store never records a chunk twice.
        """
        if state.status == "done":
            return False
        if duration is not None and duration > 0:
            self._durations.append(duration)
        state.status = "done"
        return True

    def fail(self, state: _ChunkState, error: str, now: float) -> None:
        """Retry (with backoff) or quarantine a failed chunk."""
        state.last_error = error
        if state.attempts > self.config.max_chunk_retries:
            state.status = "quarantined"
            failure = ChunkFailure(
                chunk=state.chunk, attempts=state.attempts, error=error
            )
            self.failures.append(failure)
            metrics.counter("campaign.chunks_quarantined").inc()
            trace.instant(
                "campaign.chunk_quarantined",
                chunk=state.index,
                attempts=state.attempts,
                chips=len(state.chunk),
                error=error,
            )
            logger.error(
                "chunk %d quarantined after %d attempt(s) (%d chip(s)): %s",
                state.index,
                state.attempts,
                len(state.chunk),
                error,
            )
            return
        backoff = self.config.backoff_seconds(state.attempts)
        state.status = "pending"
        state.not_before = now + backoff
        metrics.counter("campaign.chunk_retries").inc()
        trace.instant(
            "campaign.chunk_retry",
            chunk=state.index,
            attempt=state.attempts,
            backoff_seconds=backoff,
            error=error,
        )
        logger.warning(
            "chunk %d failed on attempt %d (%s); retrying in %.2fs",
            state.index,
            state.attempts,
            error,
            backoff,
        )


class ChunkCommitSequencer:
    """Reorders chunk commits into plan order so the store is deterministic.

    Workers complete chunks in whatever order scheduling, retries and worker
    deaths dictate, but the JSONL store must read exactly like the serial
    run's — rows in plan order, byte for byte — for cross-run ``cmp`` diffing
    and the distributed bit-identity guarantee.  The sequencer holds a
    completed chunk until every earlier chunk has either committed or been
    quarantined, then flushes in index order.  The cost is crash-window
    granularity, not correctness: a crash loses only the *held* chunks,
    which simply re-execute on resume.
    """

    def __init__(
        self, plan_size: int, record_chunk: Callable[[Sequence[Any]], None]
    ) -> None:
        self._record = record_chunk
        self._plan_size = int(plan_size)
        self._next = 0
        self._held: Dict[int, Sequence[Any]] = {}
        self._skipped: set = set()

    @property
    def held(self) -> int:
        """Completed chunks waiting on an earlier chunk (uncommitted)."""
        return len(self._held)

    def commit(self, chunk_index: int, payload: Sequence[Any]) -> None:
        """Queue one completed chunk; flush every now-in-order commit."""
        if chunk_index < self._next or chunk_index in self._skipped:
            # A straggler duplicate of an already-committed (or quarantined)
            # chunk — the ledger normally drops these, but a quarantine that
            # later "completes" lands here and must not commit out of order.
            logger.info("dropping late commit for chunk %d", chunk_index)
            return
        self._held[chunk_index] = payload
        self._flush()

    def skip(self, chunk_index: int) -> None:
        """Mark a chunk that will never commit (quarantined) as sequenced."""
        if chunk_index < self._next:
            return
        self._skipped.add(chunk_index)
        self._flush()

    def _flush(self) -> None:
        while self._next < self._plan_size:
            if self._next in self._held:
                self._record(self._held.pop(self._next))
            elif self._next in self._skipped:
                self._skipped.discard(self._next)
            else:
                return
            self._next += 1
