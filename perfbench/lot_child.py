"""One process of the ``reduce-lot`` workload: the whole per-DNN Reduce flow.

Runs what ``repro-reduce campaign --policy reduce-mean`` runs -- import,
context from the warm pre-train disk cache, Step 1, Step 2, triage and
Step 3 of one lot at ``jobs=1`` -- into ``--store-base`` through the public
library API, with library defaults for every option it does not name.
Started twice against one store it is a fresh run and then a resume.  A JSON
summary goes to ``--out``; with ``--trace DIR`` it also holds the spans and
counters of this process (the program's own trace shards go to ``DIR``)::

    python3 perfbench/lot_child.py --preset fast --cache-dir CACHE \\
        --store-base STORE --seed 1 --lot 0 --chips 24 --out out.json
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import benchlib  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--store-base", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--lot", type=int, required=True)
    parser.add_argument("--chips", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()
    sys.path.insert(0, str(benchlib.SRC))

    import_start = time.perf_counter()
    import repro.cli  # noqa: F401  (the import every repro-reduce process pays)
    import_end = time.perf_counter()
    from repro.campaign import CampaignEngine
    from repro.experiments import ExperimentContext, get_preset

    recorder = benchlib.SpanRecorder()
    mask = None
    with contextlib.ExitStack() as stack:
        if args.trace is not None:
            recorder.add(benchlib.IMPORT_SPAN, import_start, import_end)
            mask = stack.enter_context(benchlib.program_observability(Path(args.trace)))
            stack.enter_context(recorder.installed())
        context = ExperimentContext.from_preset(
            get_preset(args.preset), disk_cache_dir=args.cache_dir
        )
        population = benchlib.make_lot(context.preset, args.seed, args.lot, args.chips)
        with CampaignEngine(context, store_base=args.store_base) as engine:
            result = engine.run_reduce(population, statistic=benchlib.POLICY_STATISTIC)
            report = engine.last_report
    end = time.perf_counter()

    summary = {
        "rows": [row.to_dict() for row in result.results],
        "failed": len(result.failed_chips),
        "executed": report.executed,
        "skipped": report.skipped,
        "store_dir": str(report.store_dir),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace is not None:
        record = benchlib.new_record(end - START, (START, end), recorder.spans)
        record["mask"] = mask
        benchlib.capture_program_observability(record, Path(args.trace))
        summary["record"] = record
    Path(args.out).write_text(json.dumps(summary), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
