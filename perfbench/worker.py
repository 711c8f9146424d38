"""Benchmark child process: set up one workload, run it, report as JSON.

    python worker.py --workload W --seed S --seconds T --trace 0|1
                     [--setup-only]

Prints ``ready`` once set-up (imports, inputs of the first cycle, Jet4
tables) is done, then, unless ``--setup-only``, one line ``result {...}``.
``run.py`` starts this process with BLAS pinned to one thread and
PYTHONPATH pointing at the checkout's ``src``, and times spawn -> ready.

Untraced (``--trace 0``) runs closed-loop whole cycles of jobs for about
``--seconds`` and reports end-to-end metrics.  Traced (``--trace 1``) runs
each job of cycle 0 twice, untraced then traced, so span counts depend on
the seed alone, and reports per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
MIN_JOBS = 100          # p90 then has at least ten samples beyond it
MIN_COLD_CALLS = 20     # two cli_cold cycles: a cold call varies by ~8%
IMPORT_SAMPLES = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(np.asarray(values), q))


# -- untraced timed phase -----------------------------------------------------


def check(job, out, chk) -> None:
    """Check a job's output; a call that raised is a failed check."""
    if isinstance(out, Exception):
        chk.expect(False, job.case, "raise", repr(out)[:200])
    else:
        job.check(out, chk)


def run_cycles(cycle_fn, seed, seconds, jobs, chk, min_jobs, clock):
    """Closed loop over whole cycles; returns the jobs run, in order."""
    done = []
    cycle = 0
    planned = None
    wall0 = time.perf_counter()
    while True:
        for job in jobs:
            out, _ = clock.time(job.call, job.samples_of)
            done.append(job)
            check(job, out, chk)
        cycle += 1
        if planned is None:
            per_cycle = time.perf_counter() - wall0
            planned = max(math.ceil(min_jobs / len(jobs)),
                          round(seconds / per_cycle), 1)
        if cycle >= planned:
            return done
        jobs = cycle_fn(seed, cycle)


def e2e_metrics(raw, cal, peak_kb) -> tuple[dict, dict]:
    """Gated metrics from calibrated times; the raw ones go to info."""
    def timing(times):
        ms = [t * 1e3 for t in times]
        return {"jobs_per_s": (len(times) / sum(times), "1/s"),
                "job_ms.p50": (percentile(ms, 50), "ms"),
                "job_ms.p90": (percentile(ms, 90), "ms")}
    metrics = timing(cal)
    metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
    info = {f"raw.{k}": v for k, v in timing(raw).items()}
    info["raw.speed_factor"] = (sum(raw) / sum(cal), "ratio")
    return metrics, info


def shares(workload, done, times) -> dict:
    """Measured share of each input property among the jobs run."""
    info = {}

    def add(prefix, key_of, weight):
        acc = {}
        for job, t in zip(done, times):
            key = key_of(job)
            if key is not None:
                acc[key] = acc.get(key, 0.0) + weight(job, t)
        norm = sum(acc.values()) or 1.0
        for key, value in sorted(acc.items()):
            info[f"{prefix}.{key}"] = (value / norm, "ratio")

    add("share.time.kind", lambda j: j.kind, lambda j, t: t)
    if workload == "sweep":
        dirs = sum(j.props["directions"] for j in done)
        info["directions_per_s"] = (dirs / sum(times), "1/s")
        info["directions_per_job"] = (dirs / len(done), "count")
        add("share.directions.grid", lambda j: j.props["grid"],
            lambda j, t: j.props["directions"])
        add("share.directions.family", lambda j: j.props["family"],
            lambda j, t: j.props["directions"])
    if workload == "classify":
        add("share.pencils.path",
            lambda j: j.props.get("path"), lambda j, t: j.props["pencils"])
    return info


def dump_jobs(path, done, raw, cal) -> None:
    """Write every job's case, kind, properties and times as JSON lines."""
    with open(path, "w") as fh:
        for job, r, c in zip(done, raw, cal):
            fh.write(json.dumps({"case": job.case, "kind": job.kind,
                                 "props": job.props, "raw_s": r,
                                 "calibrated_s": c}) + "\n")


# -- traced phase ------------------------------------------------------------


LAYER_METRICS = (
    "jets.mul.calls", "jets.mul.self_s", "jets.series.calls",
    "jets.partial_tensors.calls", "jets.partial_tensors.self_s",
    "norm_expr.evaluate.calls", "norm_expr.evaluate.self_s",
    *(f"minkowski.jet.{f}.{m}" for f in
      ("euclidean", "randers", "example4", "expression")
      for m in ("calls", "self_s")),
    "minkowski.validate_norm.self_s",
    "germ.transform_germ.calls", "germ.transform_germ.self_s",
    "curvature.ricci_expanded.calls", "curvature.ricci_expanded.self_s",
    "curvature.oracle_jet.self_s", "curvature.oracle_fd.self_s",
    "curvature.spray_field.calls", "curvature.reports_to_csv.self_s",
    "invariants.sphere_grid.self_s", "invariants.audit.self_s",
    "invariants.point_type.calls", "invariants.point_type.self_s",
    "pencil.spectral_split.calls", "pencil.spectral_split.self_s",
    "pencil.type_sampled.calls", "pencil.type_sampled.self_s",
    "pencil.genericity_check.self_s", "pencil.canonical.self_s",
    "pencil.common_zero_search.calls", "pencil.common_zero_search.self_s",
    "example.verify_example.calls", "example.verify_example.self_s",
    "cli.main.self_s",
)
LAYERS = ("jets", "norm_expr", "minkowski", "germ", "curvature",
          "invariants", "pencil", "example", "cli", "bench")


def layer_metrics(summary: dict, counters: dict) -> dict:
    out = {}
    for name in LAYER_METRICS:
        span, kind = name.rsplit(".", 1)
        value = summary.get(span, {}).get(kind, 0)
        out[name] = (value, "count" if kind == "calls" else "s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (sum(
            v["self_s"] for k, v in summary.items()
            if k.split(".")[0] == layer), "s")
    czs = summary.get("pencil.common_zero_search", {}).get("calls", 0)
    found = counters.get("pencil.common_zero_search.found", 0)
    out["pencil.common_zero_search.found_ratio"] = (
        found / czs if czs else 0.0, "ratio")
    split = summary.get("pencil.spectral_split", {})
    out["pencil.fallback_ratio"] = (
        split.get("errors", 0) / split["calls"] if split.get("calls")
        else 0.0, "ratio")
    return out


def import_metrics(env: dict) -> dict:
    """Fresh-interpreter import time of the CLI and scipy's part of it."""
    code = "import minksub.cli"
    walls = []
    for _ in range(IMPORT_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                       check=True, timeout=60)
        walls.append(time.perf_counter() - t0)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          check=True, timeout=60)
    return {"cli.import_s": (sorted(walls)[len(walls) // 2], "s"),
            "cli.import.scipy_s": (scipy_import_s(proc.stderr), "s")}


def scipy_import_s(importtime: str) -> float:
    """Cumulative time of the outermost scipy imports in -X importtime."""
    rows = []
    for line in importtime.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            rows.append((len(m.group(3)) // 2, m.group(4), int(m.group(2))))
    total = 0
    stack = []  # (level, name) of the ancestors of the current row
    for level, name, cumulative in reversed(rows):  # parents first
        while stack and stack[-1][0] >= level:
            stack.pop()
        if name.split(".")[0] == "scipy" and not any(
                n.split(".")[0] == "scipy" for _, n in stack):
            total += cumulative
        stack.append((level, name))
    return total * 1e-6


def traced_run(workload, seed, jobs, chk):
    """Run each job untraced and traced; per-layer metrics.

    Alternating per job keeps both timings in the same stretch of machine
    noise, and swapping which goes first on every other job cancels the
    head start the second run of the same inputs gets from warm caches.
    """
    import tracing

    tracer = tracing.Tracer()
    untraced = traced = 0.0
    for i, job in enumerate(jobs):
        for traced_pass in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_pass:
                tracer.install()
                try:
                    out, dt = tracer.run_job(i, job.call)
                finally:
                    tracer.uninstall()
                traced += dt
            else:
                t0 = time.perf_counter()
                try:
                    out = job.call()
                except Exception as exc:
                    out = exc
                untraced += time.perf_counter() - t0
            check(job, out, chk)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload}-s{seed}.npz")
    summary = tracer.summary()
    metrics = layer_metrics(summary, tracer.counters)
    metrics["trace.job_s"] = (traced, "s")
    metrics["trace.spans"] = (len(tracer.start), "count")
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    calls = summary.get("curvature.ricci_expanded", {}).get("calls", 0)
    metrics["curvature.directions_per_s"] = (calls / untraced, "1/s")
    return metrics, summary, traced


# -- metadata -----------------------------------------------------------------


def metadata(seed: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = ROOT / "src" / "minksub"
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted(src.glob("*.py"))),
    }


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


# -- entry --------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import minksub
    if not Path(minksub.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"minksub imported from {minksub.__file__}, not from the "
              "checkout", file=sys.stderr)
        return 2
    import calibrate
    import cli_cold
    import workloads as wl

    chk = wl.Checks()
    build_s = wl.warm_tables(args.workload)
    if args.workload in ("sweep", "cli_cold"):
        wl.inv.sphere_grid(3, 2)  # scipy's Sobol tables load on first use
    if args.workload == "cli_cold":
        cases = cli_cold.corpus(args.seed, OUT_DIR / f"cli-s{args.seed}")
        cold = cli_cold.cold_jobs(cases, ROOT, dict(os.environ),
                                  OUT_DIR / f"cold-samples-{os.getpid()}")
        cycle_fn, jobs, min_jobs = (lambda seed, cycle: cold), cold, \
            MIN_COLD_CALLS
    else:
        cycle_fn = wl.CYCLES[args.workload]
        jobs, min_jobs = cycle_fn(args.seed, 0), MIN_JOBS
    print("ready", flush=True)
    if args.setup_only:
        return 0

    info = {}
    if args.trace == 0:
        clock = calibrate.Clock()
        done = run_cycles(cycle_fn, args.seed, args.seconds, jobs, chk,
                          min_jobs, clock)
        cal = clock.calibrated()
        # on cli_cold the work happens in child processes
        who = resource.RUSAGE_CHILDREN if args.workload == "cli_cold" \
            else resource.RUSAGE_SELF
        metrics, info = e2e_metrics(clock.raw, cal,
                                    resource.getrusage(who).ru_maxrss)
        info["jobs"] = (len(done), "count")
        if args.workload == "cli_cold":
            for name in cli_cold.COLD_COMMANDS:
                info[f"cold_s.{name}"] = (percentile(
                    [c for j, c in zip(done, cal)
                     if j.props["command"] == name], 50), "s")
        else:
            info.update(shares(args.workload, done, cal))
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        dump_jobs(OUT_DIR / f"jobs-{args.workload}-s{args.seed}.jsonl",
                  done, clock.raw, cal)
    else:
        cold_s = dict.fromkeys(cli_cold.COLD_COMMANDS, 0.0)
        if args.workload == "cli_cold":
            clock = calibrate.Clock()
            for job in jobs:
                out, _ = clock.time(job.call, job.samples_of)
                check(job, out, chk)
            for job, c in zip(jobs, clock.calibrated()):
                if job.props["command"] in cold_s:
                    cold_s[job.props["command"]] = c
            jobs = cli_cold.in_process_jobs(cases)
        metrics, summary, traced = traced_run(args.workload, args.seed,
                                              jobs, chk)
        metrics["jets.tables.build_s"] = (build_s, "s")
        metrics.update(import_metrics(dict(os.environ)))
        metrics["cli.exit_mismatch"] = (len(
            {f[0] for f in chk.failures if f[1] == "exit"}), "count")
        for name, value in cold_s.items():
            metrics[f"cli.cold_s.{name}"] = (value, "s")
        for name in ("curvature.oracle_fd", "curvature.oracle_jet",
                     "curvature.ricci_expanded", "pencil.genericity_check",
                     "pencil.common_zero_search", "example.verify_example"):
            if summary.get(name, {}).get("calls"):
                info[f"share.traced_time.{name}"] = (
                    summary[name]["total_s"] / traced, "ratio")
        info["spans_file"] = (str(OUT_DIR / f"spans-{args.workload}-"
                                  f"s{args.seed}.npz"), "path")

    result = {"attempted": chk.attempted, "failed": len(chk.failures),
              "correct": not chk.unexpected,
              "failures": chk.failures[:50],
              "metrics": metrics, "info": info,
              "meta": metadata(args.seed)}
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
