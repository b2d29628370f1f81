"""Shared pieces of the Reduce benchmark: the driver (``run.py``) and the
per-lot child process (``lot_child.py``) both import this module.

It holds environment hygiene, the seeded chip lots every workload draws,
an in-memory span recorder that wraps the library's public methods from
outside, result/store checks, and the per-layer metrics computed from
recorded operations.  Nothing here changes the program: spans come from
wrapping class attributes for the duration of a traced operation, and
counters from the program's own ``mask_cache_stats()``, metrics registry and
trace shards.

Only the standard library is imported at module level, so a child process
can time ``import repro.cli`` without this module's imports inside it.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import json
import os
import statistics
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# Benchmark-owned state inside the checkout: per-run scratch directories and
# the reference digests of jobs=1 runs (see ``ReferenceDigests``).
STATE_DIR = ROOT / ".perfbench"

# Variables that would change what a run measures: a shared pre-train cache,
# a different compute backend, or chaos kills injected into timed runs.
SCRUBBED_ENV = ("REPRO_CACHE_DIR", "REPRO_BACKEND", "REPRO_CHAOS")

# Statistic of the Reduce policy every workload runs (``--policy reduce-mean``).
POLICY_STATISTIC = "mean"


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def source_present() -> bool:
    """Whether the program's sources are in the checkout."""
    return (SRC / "repro" / "__init__.py").is_file()


def scrub_environment() -> None:
    """Drop the variables in ``SCRUBBED_ENV`` for this process and its children."""
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)


def child_environment() -> Dict[str, str]:
    """Environment for a child process: scrubbed, importing ``repro`` from ``src``."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return env


def environment_report() -> Dict[str, Any]:
    """CPU count, numpy/BLAS versions and every ``*_NUM_THREADS`` setting.

    BLAS thread counts are recorded, never set: the benchmark measures the
    program with the threading it would get from the user's environment.
    """
    import numpy as np

    blas = {}
    config = getattr(getattr(np, "__config__", None), "CONFIG", None)
    if isinstance(config, dict):
        blas = config.get("Build Dependencies", {}).get("blas", {}) or {}
    return {
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def make_lot(preset, seed: int, index: int, count: int):
    """Lot ``index`` of ``count`` chips for workload seed ``seed``.

    Chip qualities are stratified over the preset's fault-rate range (one
    chip per equal-width stratum, placed uniformly inside it), so every lot
    spans the whole range and per-lot budget mixes differ little between
    seeds; the fault maps themselves are drawn by
    ``ChipPopulation.generate`` from the seed.
    """
    import numpy as np

    from repro.core.chips import ChipPopulation
    from repro.utils.rng import derive_seed

    low, high = preset.chip_fault_rate_range
    rng = np.random.default_rng(derive_seed(seed, "perfbench-lot-rates", index))
    strata = (np.arange(count) + rng.uniform(size=count)) / count
    return ChipPopulation.generate(
        count=count,
        rows=preset.array_rows,
        cols=preset.array_cols,
        fault_rates=[float(low + s * (high - low)) for s in strata],
        seed=derive_seed(seed, "perfbench-lot-maps", index),
    )


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail_percentile(values: Sequence[float]) -> Optional[Tuple[int, float]]:
    """The highest whole percentile with at least ten samples beyond it.

    Returns ``(percentile, value)`` (nearest-rank), or ``None`` when fewer
    than twenty samples leave no percentile at or above the median with ten
    samples beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for pct in range(50, 100):
        rank = -(-pct * n // 100)  # nearest-rank index, 1-based
        if rank >= 1 and n - rank >= 10:
            best = (pct, float(ordered[rank - 1]))
    return best


def describe_samples(values: Sequence[float]) -> str:
    """``median`` plus the tail percentile rule, with the sample count."""
    tail = tail_percentile(values)
    text = f"n={len(values)}, min={min(values):.4g}, max={max(values):.4g}"
    if tail is not None:
        text += f", p{tail[0]}={tail[1]:.4g}"
    else:
        text += ", no tail percentile (needs n>=20)"
    return text


# ---------------------------------------------------------------------------
# Span recording around the library's public calls
# ---------------------------------------------------------------------------

# (module, class, method, layer).  Class attributes are wrapped because
# callers resolve them at call time; ``from``-imported module functions are
# bound at import, so wrapping those would miss their callers.
LAYER_CALLS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.experiments.common", "ExperimentContext", "from_preset", "experiments"),
    ("repro.experiments.common", "ExperimentContext", "resilience_profile", "core.resilience"),
    ("repro.training", "Trainer", "train", "training"),
    ("repro.training", "Trainer", "evaluate", "training"),
    ("repro.core.selection", "RetrainingPolicy", "epochs_for_population", "core.selection"),
    ("repro.core.reduce", "ReduceFramework", "triage_population", "core.reduce"),
    ("repro.core.reduce", "ReduceFramework", "retrain_chip", "core.reduce"),
    ("repro.core.reduce", "ReduceFramework", "retrain_chips_batched", "core.reduce"),
    ("repro.accelerator.batched", "BatchedFaultTrainer", "train", "accelerator.batched"),
    ("repro.accelerator.batched", "BatchedFaultEvaluator", "evaluate_accuracy", "accelerator.batched"),
    ("repro.campaign.store", "CampaignStore", "append_many", "campaign.store"),
    ("repro.campaign.store", "CampaignStore", "completed", "campaign.store"),
    ("repro.campaign.store", "CampaignStore", "compact", "campaign.store"),
    ("repro.campaign.engine", "CampaignEngine", "run", "campaign.engine"),
)
IMPORT_SPAN = "cli.import"
LAYER_OF = {f"{cls}.{attr}": layer for _, cls, attr, layer in LAYER_CALLS}
LAYER_OF[IMPORT_SPAN] = "cli"


# Span attributes taken from a wrapped call's return value.
OBSERVERS = {
    "RetrainingPolicy.epochs_for_population":
        lambda budgets: {"budget_classes": len({float(v) for v in budgets.values()})},
    "ReduceFramework.triage_population": lambda accuracies: {"chips": len(accuracies)},
}

# A span is ``[name, start, end, parent_index, pid, attrs]`` with
# ``time.perf_counter()`` timestamps, which are comparable across processes
# on one machine (a monotonic system clock).
Span = List[Any]


class SpanRecorder:
    """Spans kept in memory, recorded only while :meth:`installed` is active."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, start: float, end: float) -> None:
        """Record an already-timed root span (e.g. the ``repro.cli`` import)."""
        with self._lock:
            self.spans.append([name, start, end, None, os.getpid(), {}])

    def _wrap(self, name: str, func):
        recorder = self
        observe = OBSERVERS.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            span: Span = [name, time.perf_counter(), None, stack[-1] if stack else None,
                          os.getpid(), {}]
            with recorder._lock:
                index = len(recorder.spans)
                recorder.spans.append(span)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if observe is not None:
                span[5].update(observe(result))
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self) -> Iterator["SpanRecorder"]:
        """Wrap every ``LAYER_CALLS`` method; restore the originals on exit."""
        undo = []
        try:
            for module_name, class_name, attr, _layer in LAYER_CALLS:
                owner = getattr(importlib.import_module(module_name), class_name)
                raw = inspect.getattr_static(owner, attr)
                name = f"{class_name}.{attr}"
                if isinstance(raw, classmethod):
                    patched: Any = classmethod(self._wrap(name, raw.__func__))
                else:
                    patched = self._wrap(name, raw)
                undo.append((owner, attr, owner.__dict__.get(attr)))
                setattr(owner, attr, patched)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                if original is None:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)


def _union_seconds(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_seconds(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[3] is not None:
            children.setdefault(span[3], []).append((span[1], span[2]))
    return [
        (span[2] - span[1]) - _union_seconds(children.get(index, ()))
        for index, span in enumerate(spans)
    ]


# ---------------------------------------------------------------------------
# Operation records
# ---------------------------------------------------------------------------


def new_record(wall: float, window: Tuple[float, float], spans: Sequence[Span]) -> Dict[str, Any]:
    """One traced operation: wall-clock, spans and the share they attribute.

    ``attributed`` is the part of the ``window`` covered by root spans, so a
    record never claims more of the wall-clock than its spans account for.
    """
    start, end = window
    roots = [
        (max(s[1], start), min(s[2], end))
        for s in spans
        if s[3] is None and s[2] is not None and s[2] > start and s[1] < end
    ]
    return {
        "wall": wall,
        "attributed": _union_seconds(roots),
        "spans": [list(s) for s in spans],
        "counters": {},
        "mask": {"hits": 0, "misses": 0},
        "chunk_s": [],
        "busy": [],
        "store_bytes": 0,
    }


def merge_records(records: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum the records of the processes that make up one operation."""
    merged = new_record(0.0, (0.0, 0.0), [])
    for record in records:
        offset = len(merged["spans"])
        for span in record["spans"]:
            merged["spans"].append(
                span[:3] + [None if span[3] is None else span[3] + offset] + span[4:]
            )
        merged["wall"] += record["wall"]
        merged["attributed"] += record["attributed"]
        for key, value in record["counters"].items():
            merged["counters"][key] = merged["counters"].get(key, 0) + value
        for key in ("hits", "misses"):
            merged["mask"][key] += record["mask"][key]
        merged["chunk_s"] += record["chunk_s"]
        merged["busy"] += record["busy"]
        merged["store_bytes"] = max(merged["store_bytes"], record["store_bytes"])
    return merged


@contextlib.contextmanager
def program_observability(trace_dir: Path) -> Iterator[Dict[str, int]]:
    """Turn on the program's tracer and metrics registry for one operation.

    Yields a dict that holds the fault-mask LRU hit/miss deltas on exit.
    """
    from repro.accelerator.mapping import mask_cache_stats
    from repro.observability import metrics, trace

    metrics.reset()
    metrics.enabled = True
    trace.enable(trace_dir)
    before = mask_cache_stats()
    mask = {"hits": 0, "misses": 0}
    try:
        yield mask
    finally:
        trace.disable()
        metrics.enabled = False
        after = mask_cache_stats()
        mask.update({key: after[key] - before[key] for key in mask})


def capture_program_observability(record: Dict[str, Any], trace_dir: Path) -> None:
    """Fold the program's own trace shards and merged metrics into ``record``.

    Chunk durations and per-worker utilisation come from the per-(host, pid)
    ``campaign.chunk`` spans (pool workers write their own shards); counters
    from the ``metrics.json`` the engine merges after each run.
    """
    from repro.observability import MERGED_METRICS_NAME, load_trace, summarize_trace

    events = load_trace(trace_dir) if any(trace_dir.glob("*.jsonl")) else []
    record["chunk_s"] = [
        float(e["duration"]) for e in events
        if e.get("name") == "campaign.chunk" and e.get("duration") is not None
    ]
    if events:
        record["busy"] = [w["utilization"] for w in summarize_trace(events)["workers"]]
    merged = trace_dir / MERGED_METRICS_NAME
    if merged.exists():
        payload = json.loads(merged.read_text(encoding="utf-8"))
        record["counters"] = {
            key: snap["value"] for key, snap in payload.items() if snap.get("type") == "counter"
        }


def _counter(record: Dict[str, Any], name: str) -> float:
    """Sum of a counter over all its label sets (``name`` or ``name{...}``)."""
    return float(sum(
        value for key, value in record["counters"].items()
        if key == name or key.startswith(name + "{")
    ))


def _spans_named(record: Dict[str, Any], name: str) -> List[Span]:
    return [s for s in record["spans"] if s[0] == name]


def _total(record: Dict[str, Any], name: str) -> float:
    return sum(s[2] - s[1] for s in _spans_named(record, name))


def _trial_spans(record: Dict[str, Any]) -> List[Span]:
    """``Trainer.train`` spans under a ``resilience_profile`` span (Step-1 trials)."""
    spans = record["spans"]
    out = []
    for span in spans:
        if span[0] != "Trainer.train":
            continue
        parent = span[3]
        while parent is not None and spans[parent][0] != "ExperimentContext.resilience_profile":
            parent = spans[parent][3]
        if parent is not None:
            out.append(span)
    return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _per_op(record: Dict[str, Any]) -> Dict[str, float]:
    hits, misses = record["mask"]["hits"], record["mask"]["misses"]
    lowering_hits = _counter(record, "lowering_cache.hits")
    lowering_misses = _counter(record, "lowering_cache.misses")
    chunks = _counter(record, "campaign.chunks_recorded")
    self_times = self_seconds(record["spans"])
    engine_self = sum(
        t for span, t in zip(record["spans"], self_times) if span[0] == "CampaignEngine.run"
    )
    return {
        "cli.import_s": _total(record, IMPORT_SPAN),
        "experiments.context_s": _total(record, "ExperimentContext.from_preset"),
        "core.resilience.profile_s": _total(record, "ExperimentContext.resilience_profile"),
        "core.resilience.trials": float(len(_trial_spans(record))),
        "training.train_s": _total(record, "Trainer.train"),
        "training.train_calls": float(len(_spans_named(record, "Trainer.train"))),
        "training.eval_s": _total(record, "Trainer.evaluate"),
        "core.selection.select_s": _total(record, "RetrainingPolicy.epochs_for_population"),
        "core.selection.budget_classes": float(max(
            [s[5].get("budget_classes", 0) for s in
             _spans_named(record, "RetrainingPolicy.epochs_for_population")] or [0]
        )),
        "core.reduce.triage_s": _total(record, "ReduceFramework.triage_population"),
        "core.reduce.triage_chips": float(sum(
            s[5].get("chips", 0) for s in _spans_named(record, "ReduceFramework.triage_population")
        )),
        "accelerator.mapping.mask_hits": float(hits),
        "accelerator.mapping.mask_misses": float(misses),
        "accelerator.mapping.mask_hit_ratio": _ratio(hits, hits + misses),
        "accelerator.batched.train_s": _total(record, "BatchedFaultTrainer.train"),
        "accelerator.batched.eval_s": _total(record, "BatchedFaultEvaluator.evaluate_accuracy"),
        "accelerator.batched.lowering_hit_ratio": _ratio(
            lowering_hits, lowering_hits + lowering_misses
        ),
        "accelerator.batched.checkpoints_deduped": _counter(record, "fat.eval.checkpoints_deduped"),
        "campaign.jobs.chunks": chunks,
        "campaign.jobs.chips_per_chunk": _ratio(_counter(record, "store.results_appended"), chunks),
        "campaign.store.append_s": _total(record, "CampaignStore.append_many"),
        "campaign.store.scan_s": _total(record, "CampaignStore.completed")
        + _total(record, "CampaignStore.compact"),
        "campaign.store.bytes": float(record["store_bytes"]),
        "campaign.engine.run_s": _total(record, "CampaignEngine.run"),
        "campaign.engine.self_s": engine_self,
        "campaign.workers.busy_frac": median(record["busy"]),
        "campaign.workers.chunk_retries": _counter(record, "campaign.chunk_retries"),
        "campaign.workers.deaths": _counter(record, "campaign.worker_deaths"),
        "observability.unattributed_frac": 1.0 - _ratio(record["attributed"], record["wall"]),
    }


# Per-layer metrics that describe once-per-process set-up work: when the
# measured operations never call them (the ``fleet`` workloads build the
# context and Step-1 profile in set-up), they are taken from the set-up.
SETUP_LAYER_METRICS = (
    "cli.import_s",
    "experiments.context_s",
    "core.resilience.profile_s",
    "core.resilience.trials",
)


def layer_metrics(
    ops: Sequence[Dict[str, Any]],
    setup: Sequence[Dict[str, Any]],
    trace_overhead: float,
) -> Dict[str, float]:
    """Per-layer metrics: medians over the traced operations.

    Pooled samples (Step-1 trial and chunk durations) give medians over all
    samples of all operations.
    """
    per_op = [_per_op(record) for record in ops]
    per_setup = [_per_op(record) for record in setup]
    out: Dict[str, float] = {}
    for name in per_op[0]:
        values = [row[name] for row in per_op]
        if name in SETUP_LAYER_METRICS and not any(values) and per_setup:
            values = [row[name] for row in per_setup]
        out[name] = median(values)
    trial_records = ops if any(_trial_spans(r) for r in ops) else setup
    out["core.resilience.trial_s"] = median(
        [s[2] - s[1] for r in trial_records for s in _trial_spans(r)]
    )
    out["campaign.jobs.chunk_s"] = median([t for r in ops for t in r["chunk_s"]])
    out["observability.trace_overhead_frac"] = trace_overhead
    return out


def self_time_table(ops: Sequence[Dict[str, Any]]) -> List[Tuple[str, float, float]]:
    """``(layer, self seconds per op, share of op wall-clock)`` rows.

    Self times are summed per layer per operation and the median over
    operations is reported; the last row, ``unattributed``, is the
    wall-clock no recorded span covers, so the shares add up to 100% only
    when the spans really cover the operation.
    """
    per_op: List[Dict[str, float]] = []
    for record in ops:
        sums: Dict[str, float] = {}
        for span, seconds in zip(record["spans"], self_seconds(record["spans"])):
            layer = LAYER_OF.get(span[0], span[0])
            sums[layer] = sums.get(layer, 0.0) + seconds
        per_op.append(sums)
    wall = median([record["wall"] for record in ops])
    rows = []
    for layer in sorted({layer for sums in per_op for layer in sums}):
        seconds = median([sums.get(layer, 0.0) for sums in per_op])
        rows.append((layer, seconds, _ratio(seconds, wall)))
    rows.sort(key=lambda row: -row[1])
    unattributed = median([r["wall"] - r["attributed"] for r in ops])
    rows.append(("unattributed", unattributed, _ratio(unattributed, wall)))
    return rows


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_store(store_dir: Path, chip_ids: Sequence[str]) -> Tuple[List[str], str, int]:
    """Exactly one row per chip and nothing quarantined.

    Returns ``(errors, sha256 of results.jsonl, its size in bytes)``.
    """
    from repro.campaign.store import CampaignStore

    store = CampaignStore(store_dir)
    errors: List[str] = []
    data = store.results_path.read_bytes() if store.results_path.exists() else b""
    rows = [json.loads(line)["chip_id"] for line in data.decode("utf-8").splitlines() if line.strip()]
    if sorted(rows) != sorted(chip_ids):
        errors.append(f"store rows {len(rows)} ({len(set(rows))} distinct) != {len(chip_ids)} chips")
    quarantined = store.read_quarantine()
    if quarantined:
        errors.append(f"{len(quarantined)} quarantined chunk(s)")
    return errors, hashlib.sha256(data).hexdigest(), len(data)


def source_digest() -> str:
    """Content hash of the program's sources: the commit a reference belongs to."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class ReferenceDigests:
    """``results.jsonl`` digests of ``jobs=1`` lot runs, per source version.

    Stored as ``.perfbench/refs/<source digest>.json`` mapping
    ``"<preset>/<seed>/<lot>"`` to a sha256, so a reference is only ever
    compared with runs of the same program sources.
    """

    def __init__(self, directory: Path = STATE_DIR / "refs") -> None:
        self.path = directory / f"{source_digest()}.json"
        self.digests: Dict[str, str] = (
            json.loads(self.path.read_text(encoding="utf-8")) if self.path.exists() else {}
        )

    @staticmethod
    def key(preset: str, seed: int, lot: int) -> str:
        return f"{preset}/{seed}/{lot}"

    def get(self, key: str) -> Optional[str]:
        return self.digests.get(key)

    def put(self, key: str, digest: str) -> None:
        self.digests[key] = digest
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(f"{self.path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.digests, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.path)
