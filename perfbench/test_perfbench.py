"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import hashlib
import json
import os
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import calibrate
import cli_cold
import tracing
import worker
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def digest(jobs) -> str:
    """Hash of every array and number a job list hands to minksub."""
    h = hashlib.sha256()
    for job in jobs:
        h.update(job.case.encode())
        for cell in job.call.__closure__ or ():
            h.update(pickle.dumps(cell.cell_contents, protocol=4))
    return h.hexdigest()


@pytest.mark.parametrize("workload", sorted(wl.CYCLES))
def test_same_seed_same_inputs(workload):
    cycle = wl.CYCLES[workload]
    assert digest(cycle(7, 0)) == digest(cycle(7, 0))
    assert digest(cycle(7, 0)) != digest(cycle(8, 0))
    assert digest(cycle(7, 0)) != digest(cycle(7, 1))


def test_cli_corpus_same_seed_same_files(tmp_path):
    def corpus(seed, sub):
        cases = cli_cold.corpus(seed, tmp_path / sub)
        argv = [[a.replace(str(tmp_path / sub), "") for a in c.argv]
                for c in cases]
        files = sorted((p.name, p.read_text())
                       for p in (tmp_path / sub).iterdir())
        return argv, files
    assert corpus(3, "a") == corpus(3, "b")
    assert corpus(4, "c")[1] != corpus(3, "a")[1]


def traced_counts(jobs):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for i, job in enumerate(jobs):
            tracer.run_job(i, job.call)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    return tracer, summary, {k: v["calls"] for k, v in summary.items()}


def small_jobs(seed):
    """A few jobs of every in-process workload, each kind represented."""
    jobs = []
    for _, cycle in sorted(wl.CYCLES.items()):
        seen = set()
        for job in cycle(seed, 0):
            grid = job.props.get("grid", 0)
            if job.kind not in seen and grid <= 256:
                seen.add(job.kind)
                jobs.append(job)
    return jobs


def test_traced_counts_repeat_exactly():
    _, _, first = traced_counts(small_jobs(5))
    _, _, second = traced_counts(small_jobs(5))
    assert first == second
    for name in ("jets.mul", "curvature.spray_field",
                 "curvature.ricci_expanded", "pencil.spectral_split"):
        assert first[name] > 0


def test_self_times_account_for_job_time():
    tracer, summary, _ = traced_counts(small_jobs(2))
    spans = tracer.arrays()
    roots = spans["parent"] < 0
    job_s = float((spans["end"] - spans["start"])[roots].sum())
    self_s = sum(v["self_s"] for v in summary.values())
    assert self_s == pytest.approx(job_s, rel=1e-9)
    assert summary[tracing.ROOT]["self_s"] < 0.5 * job_s


def test_wrappers_reach_import_sites_and_are_removed():
    from minksub import curvature, example, invariants
    original = curvature.ricci_expanded
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert invariants.ricci_expanded is curvature.ricci_expanded
        assert example.ricci_expanded is curvature.ricci_expanded
        assert curvature.ricci_expanded is not original
    finally:
        tracer.uninstall()
    assert invariants.ricci_expanded is original
    assert curvature.ricci_expanded is original


def test_layer_metric_names_match_benchmark_json():
    named = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    fake = worker.layer_metrics({}, {})
    for name, (_, unit) in fake.items():
        assert named[name] == unit, name


def test_scipy_share_of_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:        50 |         50 |     scipy.stats._x",
        "import time:       400 |        450 |   scipy.stats",
        "import time:        10 |        760 | minksub.invariants",
        "import time:        70 |         70 | numpy",
    ])
    assert worker.scipy_import_s(text) == pytest.approx(750e-6)


def test_strict_json_refuses_nan():
    with pytest.raises(ValueError):
        wl.strict_json('{"Ric": NaN}')
    assert wl.strict_json('{"Ric": 1.5}') == {"Ric": 1.5}


def run_bench(cwd, *args, timeout=170):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_printed_with_its_unit(trace, key):
    proc = run_bench(ROOT, "--workload", "classify", "--seed", "1",
                     "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    named = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == named
    for name, unit in named.items():
        assert any(line.startswith(f"metric {name} ") and
                   line.endswith(f" {unit}") for line in lines), name


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "--workload", "sweep", "--seed", "1",
                     "--seconds", "1", "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_percentile_positions_stay_inside_one_job_size():
    # whole cycles: the sorted job-size classes scale with the cycle count,
    # so p50 and p90 read the same slot of the same class every run
    grids = sorted(slot[2] for slot in wl.SWEEP_SLOTS)
    for cycles in (2, 3, 4):
        sizes = np.repeat(grids, cycles)
        for q in (50, 90):
            pos = q / 100 * (len(sizes) - 1)
            assert sizes[int(np.floor(pos))] == sizes[int(np.ceil(pos))]


def test_clock_calibrates_every_job():
    clock = calibrate.Clock()
    out, raw = clock.time(lambda: sum(range(100000)))
    assert out == sum(range(100000)) and raw > 0.0
    failed, _ = clock.time(lambda: 1 / 0)
    assert isinstance(failed, ZeroDivisionError)
    cal = clock.calibrated()
    assert len(cal) == 2 and all(c > 0.0 for c in cal)


def test_cold_child_keeps_the_cli_contract(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = tmp_path / "samples.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "cold_child.py"), str(samples),
         "invariants", "--config", str(tmp_path / "missing.json")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "cannot read" in proc.stderr
    assert isinstance(json.loads(samples.read_text()), list)
