"""Benchmark of the Reduce reproduction: one workload per invocation.

    python3 perfbench/run.py --workload reduce-lot --seed 1 --seconds 20 --trace 0

Workloads (perfbench/README.md says why each was chosen):

* ``reduce-lot``: every operation starts a fresh process that takes one
  24-chip lot through the whole per-DNN flow (import, context from a warm
  pre-train disk cache, Step 1, Step 2, triage, Step 3 at ``jobs=1``), then a
  second process that resumes the completed store.
* ``fleet``: one warm process; every operation runs a 192-chip lot through
  ``CampaignEngine(jobs=1).run`` into a fresh store, then resumes it.
* ``fleet-parallel``: the lots of ``fleet`` at ``jobs=2``; its results must be
  byte-identical to the ``jobs=1`` reference.  It is not in BENCHMARK.json
  (too unsteady on two cores; see the README).

Inputs come from ``--seed``.  The run sets up (cold pre-train, plus the Step-1
profile on the fleet workloads) three times and reports the median, then
measures operations for ``--seconds`` (at least the lots the simulated
statistics are taken over).  The last stdout line is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end metric
with ``--trace 0``; with ``--trace 1`` a separate traced run alternates
untraced and traced operations on the same lot and reports every per-layer
metric.  Without the program's sources next to ``perfbench/`` it exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import benchlib

LOT_CHIPS = 24
FLEET_CHIPS = 192
# Lots the simulated statistics are taken over; every run measures at least
# this many operations, so the statistics repeat exactly for a seed.
STATS_LOTS = {"reduce-lot": 8, "fleet": 2, "fleet-parallel": 2}
JOBS = {"fleet": 1, "fleet-parallel": 2}
SETUP_REPS = 3
# No new operation starts this long after the process started, so a run
# ends well inside three minutes even on a slow machine.
START_DEADLINE_S = 120.0
CHILD_TIMEOUT_S = 100.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "lot_s": "s",
    "resume_s": "s",
    "chips_per_s": "chips/s",
    "peak_rss_mb": "MB",
    "retrain_epochs_per_chip": "epochs",
    "constraint_met_frac": "fraction",
}
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "experiments.context_s": "s",
    "core.resilience.profile_s": "s",
    "core.resilience.trials": "count",
    "core.resilience.trial_s": "s",
    "training.train_s": "s",
    "training.train_calls": "count",
    "training.eval_s": "s",
    "core.selection.select_s": "s",
    "core.selection.budget_classes": "count",
    "core.reduce.triage_s": "s",
    "core.reduce.triage_chips": "chips",
    "accelerator.mapping.mask_hits": "count",
    "accelerator.mapping.mask_misses": "count",
    "accelerator.mapping.mask_hit_ratio": "fraction",
    "accelerator.batched.train_s": "s",
    "accelerator.batched.eval_s": "s",
    "accelerator.batched.lowering_hit_ratio": "fraction",
    "accelerator.batched.checkpoints_deduped": "count",
    "campaign.jobs.chunks": "count",
    "campaign.jobs.chunk_s": "s",
    "campaign.jobs.chips_per_chunk": "chips",
    "campaign.store.append_s": "s",
    "campaign.store.scan_s": "s",
    "campaign.store.bytes": "bytes",
    "campaign.engine.run_s": "s",
    "campaign.engine.self_s": "s",
    "campaign.workers.busy_frac": "fraction",
    "campaign.workers.chunk_retries": "count",
    "campaign.workers.deaths": "count",
    "observability.trace_overhead_frac": "fraction",
    "observability.unattributed_frac": "fraction",
}
# Per-layer metrics whose layer runs in pool worker processes at jobs=2,
# where the driver's spans do not reach (the program's shards still do).
WORKER_SIDE = (
    "training.", "accelerator.batched.train_s", "accelerator.batched.eval_s",
    "accelerator.mapping.", "core.reduce.triage",
)


class Run:
    """What one invocation measured: operations, samples and errors."""

    def __init__(self, args: argparse.Namespace, workdir: Path) -> None:
        self.args = args
        self.workdir = workdir
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.samples: Dict[str, List[float]] = {}
        self.stats_rows: Dict[int, List[Dict[str, Any]]] = {}
        self.setup_s: List[float] = []
        self.setup_records: List[Dict[str, Any]] = []
        self.traced: List[Dict[str, Any]] = []
        self.overheads: List[float] = []
        self.cache_dir: Optional[Path] = None
        # End of set-up (and of untimed reference runs): measuring starts here.
        self.measure_start = self.started

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def record_op(self, errors: Sequence[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(f"op {self.attempted}: {error}" for error in errors)

    def keep_going(self, done: int, minimum: int) -> bool:
        now = time.perf_counter()
        if now - self.started > START_DEADLINE_S:
            return False
        return done < minimum or now - self.measure_start < self.args.seconds


def lot_errors(
    chip_ids: Sequence[str],
    fresh: Dict[str, Any],
    resumed: Dict[str, Any],
    store_dir: Path,
) -> Tuple[List[str], str, int]:
    """The correctness gate of one operation (a fresh run plus its resume)."""
    errors = []
    if fresh["failed"]:
        errors.append(f"{fresh['failed']} chip(s) quarantined")
    if fresh["executed"] != len(chip_ids):
        errors.append(f"fresh run executed {fresh['executed']} of {len(chip_ids)} chips")
    if [row["chip_id"] for row in fresh["rows"]] != list(chip_ids):
        errors.append("fresh run rows do not match the lot's chips")
    if resumed["executed"] != 0:
        errors.append(f"resume executed {resumed['executed']} chips, expected 0")
    if resumed["rows"] != fresh["rows"]:
        errors.append("resumed rows differ from the fresh run's")
    store_errors, digest, size = benchlib.check_store(store_dir, chip_ids)
    return errors + store_errors, digest, size


def check_reference(
    refs: benchlib.ReferenceDigests, key: str, digest: str, record: bool
) -> List[str]:
    """Compare with the ``jobs=1`` reference digest; ``record`` stores a missing one."""
    reference = refs.get(key)
    if reference is None:
        if record:
            refs.put(key, digest)
        return [] if record else [f"no jobs=1 reference for {key}"]
    if reference != digest:
        return [f"results.jsonl differs from the jobs=1 reference for {key}"]
    return []


def run_setup(run: Run, preset, profile: bool, traced: bool, import_span) -> Any:
    """Cold pre-train (plus the Step-1 profile) ``SETUP_REPS`` times.

    Each repetition drops the in-memory context cache and the fault-mask
    LRU, and pre-trains into an empty cache directory; the last one's
    context and disk cache serve the measured operations.
    """
    from repro.accelerator.mapping import clear_mask_cache
    from repro.experiments import ExperimentContext, clear_context_cache

    context = None
    for rep in range(SETUP_REPS):
        clear_context_cache()
        clear_mask_cache()
        run.cache_dir = run.workdir / f"cache-{rep}"
        recorder = benchlib.SpanRecorder()
        with recorder.installed() if traced else contextlib.nullcontext():
            start = time.perf_counter()
            context = ExperimentContext.from_preset(preset, disk_cache_dir=run.cache_dir)
            if profile:
                context.resilience_profile()
            end = time.perf_counter()
        run.setup_s.append(end - start)
        if traced:
            record = benchlib.new_record(end - start, (start, end), recorder.spans)
            record["spans"].append(import_span)
            run.setup_records.append(record)
    run.measure_start = time.perf_counter()
    return context


def simulated_statistics(run: Run, lots: int) -> Optional[Dict[str, float]]:
    """Mean epochs and constraint share over the fresh rows of lots ``0..lots-1``."""
    if any(index not in run.stats_rows for index in range(lots)):
        return None
    rows = [row for index in range(lots) for row in run.stats_rows[index]]
    return {
        "retrain_epochs_per_chip": sum(r["epochs_trained"] for r in rows) / len(rows),
        "constraint_met_frac": sum(bool(r["meets_constraint"]) for r in rows) / len(rows),
    }


# ---------------------------------------------------------------------------
# reduce-lot
# ---------------------------------------------------------------------------


def run_lot_process(run: Run, lot: int, store_base: Path, tag: str, trace_dir: Optional[Path]):
    """Start one ``lot_child.py`` process; returns ``(wall seconds, summary, error)``."""
    out = run.workdir / f"{tag}.json"
    command = [
        sys.executable, str(benchlib.BENCH_DIR / "lot_child.py"),
        "--preset", run.args.preset, "--cache-dir", str(run.cache_dir),
        "--store-base", str(store_base), "--seed", str(run.args.seed),
        "--lot", str(lot), "--chips", str(LOT_CHIPS), "--out", str(out),
    ]
    if trace_dir is not None:
        command += ["--trace", str(trace_dir)]
    start = time.perf_counter()
    proc = subprocess.Popen(
        command, env=benchlib.child_environment(), cwd=str(benchlib.ROOT),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    try:
        _, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return time.perf_counter() - start, None, f"{tag}: timed out"
    wall = time.perf_counter() - start
    if proc.returncode != 0 or not out.exists():
        tail = stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
        return wall, None, f"{tag}: exit {proc.returncode} {' '.join(tail)}"
    return wall, json.loads(out.read_text(encoding="utf-8")), None


def reduce_lot_op(run: Run, refs, lot: int, op: int, traced: bool) -> Optional[float]:
    """One fresh lot process plus its resume; returns the operation's wall-clock."""
    from repro.experiments import get_preset

    chip_ids = [chip.chip_id for chip in
                benchlib.make_lot(get_preset(run.args.preset), run.args.seed, lot, LOT_CHIPS)]
    store_base = run.workdir / f"store-{op}"
    results = []
    for phase in ("fresh", "resume"):
        trace_dir = run.workdir / f"trace-{op}-{phase}" if traced else None
        results.append(run_lot_process(run, lot, store_base, f"op{op}-{phase}", trace_dir))
    (fresh_wall, fresh, fresh_error), (resume_wall, resumed, resume_error) = results
    if fresh is None or resumed is None:
        run.record_op([e for e in (fresh_error, resume_error) if e])
        return None
    errors, digest, size = lot_errors(chip_ids, fresh, resumed, Path(fresh["store_dir"]))
    key = refs.key(f"{run.args.preset}-{LOT_CHIPS}", run.args.seed, lot)
    errors += check_reference(refs, key, digest, record=True)
    run.record_op(errors)
    shutil.rmtree(store_base, ignore_errors=True)
    if traced:
        records = []
        for summary, wall in ((fresh, fresh_wall), (resumed, resume_wall)):
            record = summary["record"]
            record["wall"] = wall
            record["store_bytes"] = size
            records.append(record)
        run.traced.append(benchlib.merge_records(records))
        return fresh_wall + resume_wall
    if not errors:
        run.sample("lot_s", fresh_wall)
        run.sample("resume_s", resume_wall)
        run.sample("chips_per_s", len(chip_ids) / fresh_wall)
        run.sample("peak_rss_mb", max(fresh["peak_rss_mb"], resumed["peak_rss_mb"]))
        run.stats_rows.setdefault(lot, fresh["rows"])
    return fresh_wall + resume_wall


def workload_reduce_lot(run: Run, import_span) -> None:
    from repro.experiments import get_preset

    run_setup(run, get_preset(run.args.preset), profile=False,
              traced=bool(run.args.trace), import_span=import_span)
    refs = benchlib.ReferenceDigests()
    measure_ops(run, lambda lot, op, traced: reduce_lot_op(run, refs, lot, op, traced),
                lot_of=lambda op: op, minimum=STATS_LOTS["reduce-lot"])


# ---------------------------------------------------------------------------
# fleet, fleet-parallel
# ---------------------------------------------------------------------------


def engine_run(context, jobs: int, store_base: Path, population, policy):
    """``CampaignEngine(jobs).run`` timed around the call; returns (seconds, result, report)."""
    from repro.campaign import CampaignEngine

    with CampaignEngine(context, jobs=jobs, store_base=store_base) as engine:
        start = time.perf_counter()
        result = engine.run(population, policy)
        seconds = time.perf_counter() - start
        return seconds, result, engine.last_report


def fleet_lot(context, policy, population, store_base: Path, jobs: int):
    """A fresh run and a resume of one lot; returns timings and the checked outcome."""
    fresh_s, result, report = engine_run(context, jobs, store_base, population, policy)
    resume_s, resumed, resume_report = engine_run(context, jobs, store_base, population, policy)
    fresh = {"rows": [r.to_dict() for r in result.results], "failed": len(result.failed_chips),
             "executed": report.executed}
    again = {"rows": [r.to_dict() for r in resumed.results], "executed": resume_report.executed}
    chip_ids = [chip.chip_id for chip in population]
    errors, digest, size = lot_errors(chip_ids, fresh, again, report.store_dir)
    return fresh_s, resume_s, fresh["rows"], errors, digest, size


def fleet_op(run: Run, context, policy, refs, jobs: int, lot: int, op: int, traced: bool):
    population = benchlib.make_lot(context.preset, run.args.seed, lot, FLEET_CHIPS)
    store_base = run.workdir / f"store-{op}"
    trace_dir = run.workdir / f"trace-{op}"
    recorder = benchlib.SpanRecorder()
    with contextlib.ExitStack() as stack:
        if traced:
            mask = stack.enter_context(benchlib.program_observability(trace_dir))
            stack.enter_context(recorder.installed())
        start = time.perf_counter()
        fresh_s, resume_s, rows, errors, digest, size = fleet_lot(
            context, policy, population, store_base, jobs
        )
        end = time.perf_counter()
    key = refs.key(f"{run.args.preset}-{FLEET_CHIPS}", run.args.seed, lot)
    errors += check_reference(refs, key, digest, record=jobs == 1)
    run.record_op(errors)
    shutil.rmtree(store_base, ignore_errors=True)
    if traced:
        record = benchlib.new_record(end - start, (start, end), recorder.spans)
        record["mask"] = mask
        record["store_bytes"] = size
        benchlib.capture_program_observability(record, trace_dir)
        run.traced.append(record)
    elif not errors:
        run.sample("lot_s", fresh_s)
        run.sample("resume_s", resume_s)
        run.sample("chips_per_s", len(population) / fresh_s)
        run.stats_rows.setdefault(lot, rows)
    return end - start


def ensure_references(run: Run, context, policy, refs, lots: int) -> None:
    """Compute missing ``jobs=1`` reference digests (untimed) before a jobs>1 run."""
    for lot in range(lots):
        key = refs.key(f"{run.args.preset}-{FLEET_CHIPS}", run.args.seed, lot)
        if refs.get(key) is not None:
            continue
        population = benchlib.make_lot(context.preset, run.args.seed, lot, FLEET_CHIPS)
        store_base = run.workdir / f"reference-{lot}"
        _, _, _, errors, digest, _ = fleet_lot(context, policy, population, store_base, 1)
        shutil.rmtree(store_base, ignore_errors=True)
        if errors:
            run.errors.extend(f"reference lot {lot}: {error}" for error in errors)
        else:
            refs.put(key, digest)


def workload_fleet(run: Run, import_span) -> None:
    from repro.experiments import get_preset

    workload = run.args.workload
    jobs = JOBS[workload]
    context = run_setup(run, get_preset(run.args.preset), profile=True,
                        traced=bool(run.args.trace), import_span=import_span)
    policy = context.framework().build_policy(benchlib.POLICY_STATISTIC)
    refs = benchlib.ReferenceDigests()
    lots = STATS_LOTS[workload]
    if jobs > 1:
        ensure_references(run, context, policy, refs, lots)
        run.measure_start = time.perf_counter()
    measure_ops(
        run,
        lambda lot, op, traced: fleet_op(run, context, policy, refs, jobs, lot, op, traced),
        # jobs>1 cycles over the reference lots; jobs=1 takes a new lot each time.
        lot_of=(lambda op: op) if jobs == 1 else (lambda op: op % lots),
        minimum=lots,
    )
    usage = [resource.getrusage(who).ru_maxrss for who in
             (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    run.sample("peak_rss_mb", max(usage) / 1024.0)


# ---------------------------------------------------------------------------
# Measurement loop and report
# ---------------------------------------------------------------------------


def measure_ops(
    run: Run,
    op: Callable[[int, int, bool], Optional[float]],
    lot_of: Callable[[int], int],
    minimum: int,
) -> None:
    """Operations for ``--seconds``; with tracing, untraced/traced pairs per lot.

    Untraced runs take at least ``minimum`` operations (the statistics
    lots).  A traced run measures each lot twice, untraced and traced, and
    the ratio of the two wall-clocks gives the tracing overhead.
    """
    def attempt(lot: int, index: int, traced: bool) -> Optional[float]:
        # An operation that raises counts as failed; the run goes on.
        try:
            return op(lot, index, traced)
        except Exception as error:  # noqa: BLE001 - reported, not swallowed
            traceback.print_exc()
            run.record_op([f"{type(error).__name__}: {error}"])
            return None

    done = 0
    if not run.args.trace:
        while run.keep_going(done, minimum):
            attempt(lot_of(done), done, False)
            done += 1
        return
    while run.keep_going(done, 1):
        lot = lot_of(done)
        # Alternate which side runs first: the first run of a lot can warm
        # caches the second one finds full.
        walls = {}
        for position, traced in enumerate((False, True) if done % 2 == 0 else (True, False)):
            walls[traced] = attempt(lot, 2 * done + position, traced)
        if walls[False] and walls[True]:
            run.overheads.append(walls[True] / walls[False] - 1.0)
        done += 1


def end_to_end_metrics(run: Run) -> Dict[str, float]:
    stats = simulated_statistics(run, STATS_LOTS[run.args.workload])
    if stats is None:
        run.errors.append("statistics lots incomplete")
        stats = {"retrain_epochs_per_chip": 0.0, "constraint_met_frac": 0.0}
    metrics = {"setup_s": benchlib.median(run.setup_s)}
    for name in ("lot_s", "resume_s", "chips_per_s", "peak_rss_mb"):
        metrics[name] = benchlib.median(run.samples.get(name, []))
    metrics.update(stats)
    return metrics


def report(run: Run, env: Dict[str, Any]) -> Dict[str, Any]:
    args = run.args
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} preset={args.preset}")
    print(f"environment: nproc={env['nproc']} numpy={env['numpy']} blas={env['blas']} "
          f"*_NUM_THREADS={env['threads'] or 'unset'}")
    if args.trace:
        if not run.traced:
            run.errors.append("no traced operation completed")
            values = {name: 0.0 for name in PER_LAYER_UNITS}
        else:
            values = benchlib.layer_metrics(
                run.traced, run.setup_records, benchlib.median(run.overheads)
            )
        units = PER_LAYER_UNITS
    else:
        values = end_to_end_metrics(run)
        units = END_TO_END_UNITS
    error_rate = run.failed / run.attempted if run.attempted else 1.0
    print(f"operations: attempted={run.attempted} failed={run.failed} error_rate={error_rate:g}")
    for error in run.errors:
        print(f"  FAILED {error}")
    for name, unit in units.items():
        note = ""
        if name in run.samples:
            note = f"  (median; {benchlib.describe_samples(run.samples[name])})"
        elif name == "setup_s":
            note = f"  (median; {benchlib.describe_samples(run.setup_s)})"
        elif args.workload == "fleet-parallel" and name.startswith(WORKER_SIDE):
            note = "  (driver-side only: this layer runs in pool workers at jobs=2)"
        print(f"  {name:<42} {values[name]:>14.6g} {unit}{note}")
    if args.trace and run.traced:
        print("self time per operation by layer (median over traced operations):")
        for layer, seconds, share in benchlib.self_time_table(run.traced):
            print(f"  {layer:<24} {seconds:>10.4f} s {100.0 * share:6.1f}%")
    return {
        "correct": run.attempted > 0 and run.failed == 0 and not run.errors,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


WORKLOADS = {
    "reduce-lot": workload_reduce_lot,
    "fleet": workload_fleet,
    "fleet-parallel": workload_fleet,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Reduce reproduction benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--preset", default="fast",
                        help="experiment preset (the tests use 'smoke')")
    args = parser.parse_args(argv)
    if not benchlib.source_present():
        print(f"perfbench: program sources not found under {benchlib.SRC}", file=sys.stderr)
        return 2

    benchlib.scrub_environment()
    sys.path.insert(0, str(benchlib.SRC))
    run = Run(args, benchlib.STATE_DIR / "work" / str(os.getpid()))
    import_start = time.perf_counter()
    import repro.cli  # noqa: F401  (timed: the import every repro-reduce process pays)
    import_span = [benchlib.IMPORT_SPAN, import_start, time.perf_counter(), None, os.getpid(), {}]
    env = benchlib.environment_report()
    run.workdir.mkdir(parents=True, exist_ok=True)
    try:
        WORKLOADS[args.workload](run, import_span)
        result = report(run, env)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    if args.trace:
        # The spans stay in memory while measuring and are written once here.
        spans_path = benchlib.STATE_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({"operations": run.traced, "setup": run.setup_records}),
                              encoding="utf-8")
        print(f"spans: {spans_path.relative_to(benchlib.ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
