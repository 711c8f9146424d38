"""Run one minksub benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads: sweep, crosscheck, classify, cli_cold (see perfbench/README.md).
With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run.  Lines before it give each metric with its unit, the input
property shares, failed checks with their cases, and run metadata.

The program under test is the checkout's ``src/minksub``; the benchmark
exits 2 without a result when it is missing.  Every child process runs
with BLAS and OpenMP pinned to one thread, and all of them on one CPU.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from worker import THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "crosscheck", "classify", "cli_cold")
SETUP_SAMPLES = 3       # set-up is timed in this many extra processes
DEADLINE_S = 170.0      # the whole run, children included


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class WorkerFailed(RuntimeError):
    pass


def run_worker(args, extra, deadline) -> tuple[float, list[str]]:
    """Start worker.py; return (seconds from spawn to ready, later lines).

    The worker's remaining output is read after ready, so the spawn ->
    ready time is the set-up of that process alone.
    """
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    setup_s = None
    lines = []
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                raise WorkerFailed("deadline passed")
            ready, _, _ = select.select([proc.stdout], [], [], left)
            if not ready:
                continue
            line = proc.stdout.readline()
            if not line:
                break
            if setup_s is None and line.strip() == "ready":
                setup_s = time.perf_counter() - t0
            else:
                lines.append(line.rstrip("\n"))
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or setup_s is None:
        raise WorkerFailed(f"worker exited {code}")
    return setup_s, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "minksub" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'minksub'} is "
              "missing", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    # One CPU for this process and every child: the cores of a shared host
    # run at different speeds, and a job timed on one core but calibrated
    # on another (calibrate.Clock) would mix the two.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    try:
        main_setup, lines = run_worker(args, [], deadline)
        setups = []
        if args.trace == 0:
            # calibrated like the jobs (calibrate.Clock), each probe on its own
            clock = calibrate.Clock()
            for _ in range(SETUP_SAMPLES):
                # the probe is a child process: no samples from in here
                out, _ = clock.time(
                    lambda: run_worker(args, ["--setup-only"], deadline),
                    samples_of=lambda out: ())
                if isinstance(out, Exception):
                    raise out
                setups.append(out[0])
            # the probe's spawn -> ready share of its calibrated time
            setups = [(s, s * c / r) for s, r, c in
                      zip(setups, clock.raw, clock.calibrated())]
    except (WorkerFailed, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    results = [json.loads(line[len("result "):]) for line in lines
               if line.startswith("result ")]
    if len(results) != 1:
        print("benchmark failed: worker printed no result", file=sys.stderr)
        return 1
    res = results[0]

    metrics = dict(res["metrics"])
    if args.trace == 0:
        cal = sorted(c for _, c in setups)
        metrics["setup_s"] = (cal[len(cal) // 2], "s")
        raw = [main_setup] + [s for s, _ in setups]
        res["info"]["raw.setup_s.samples"] = (
            ",".join(f"{s:.4f}" for s in raw), "s")
    failed = res["failed"]
    attempted = res["attempted"]
    res["info"]["ops_failed_ratio"] = (failed / max(attempted, 1), "ratio")

    for name, (value, unit) in sorted(metrics.items()):
        print(f"metric {name} {value} {unit}")
    for name, (value, unit) in sorted(res["info"].items()):
        print(f"info {name} {value} {unit}")
    for case, what, detail in res["failures"]:
        print(f"failed-check {case} {what}: {detail}")
    print("meta " + json.dumps(res["meta"], sort_keys=True))
    print(json.dumps({
        "correct": res["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
