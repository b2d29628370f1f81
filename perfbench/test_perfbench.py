"""Tests of the benchmark driver: smoke-preset runs of every workload.

Each run goes through ``perfbench/run.py`` in a copy of the checkout that
holds only what the benchmark is run from (``BENCHMARK.json``,
``perfbench/`` and ``src/``)::

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import benchlib

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]] + ["fleet-parallel"]
IGNORE = shutil.ignore_patterns("__pycache__", ".perfbench", ".pytest_cache")


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    shutil.copy(ROOT / "BENCHMARK.json", root)
    shutil.copytree(BENCH_DIR, root / "perfbench", ignore=IGNORE)
    shutil.copytree(ROOT / "src", root / "src", ignore=IGNORE)
    return root


def run_bench(root: Path, workload: str, trace: int, seed: int = 1):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--preset", "smoke"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric_with_its_unit(checkout, workload, trace):
    result, stdout = run_bench(checkout, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert "nproc=" in stdout and "error_rate=" in stdout
    if trace:
        assert "unattributed" in stdout
        spans = json.loads((checkout / ".perfbench" / f"spans-{workload}-seed1.json").read_text())
        assert spans["operations"] and all(op["spans"] for op in spans["operations"])


def test_corrupted_reference_digest_fails_the_operation(checkout):
    seed = 7
    clean, _ = run_bench(checkout, "fleet", 0, seed=seed)
    assert clean["correct"] and clean["failed"] == 0
    refs = list((checkout / ".perfbench" / "refs").glob("*.json"))
    assert refs
    for path in refs:
        digests = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps({key: "0" * 64 for key in digests}), encoding="utf-8")
    for workload in ("fleet-parallel", "fleet"):
        result, stdout = run_bench(checkout, workload, 0, seed=seed)
        assert result["correct"] is False, workload
        assert result["failed"] >= 1, stdout
        assert "differs from the jobs=1 reference" in stdout


def test_exits_nonzero_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=IGNORE)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_child_spans():
    spans = [
        ["outer", 0.0, 10.0, None, 1, {}],
        ["child", 1.0, 4.0, 0, 1, {}],
        ["child", 5.0, 7.0, 0, 1, {}],
        ["grandchild", 1.5, 2.0, 1, 1, {}],
    ]
    assert benchlib.self_seconds(spans) == pytest.approx([5.0, 2.5, 2.0, 0.5])
    record = benchlib.new_record(12.0, (0.0, 12.0), spans)
    assert record["attributed"] == pytest.approx(10.0)
    rows = dict((layer, share) for layer, _, share in benchlib.self_time_table([record]))
    assert rows["unattributed"] == pytest.approx(2.0 / 12.0)
    assert sum(rows.values()) == pytest.approx(1.0)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert benchlib.tail_percentile(list(range(19))) is None
    assert benchlib.tail_percentile(list(range(20)))[0] == 50
    pct, value = benchlib.tail_percentile([float(i) for i in range(100)])
    assert pct == 90 and value == 89.0


def test_span_recorder_restores_the_wrapped_methods():
    sys.path.insert(0, str(benchlib.SRC))
    from repro.campaign.store import CampaignStore
    from repro.experiments import ExperimentContext

    originals = (CampaignStore.__dict__["append_many"], ExperimentContext.__dict__["from_preset"])
    recorder = benchlib.SpanRecorder()
    with recorder.installed():
        assert CampaignStore.__dict__["append_many"] is not originals[0]
    assert (CampaignStore.__dict__["append_many"], ExperimentContext.__dict__["from_preset"]) == originals
