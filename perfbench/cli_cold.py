"""The cli_cold corpus: fixed ``minksub`` commands over seeded config files.

Each case is one command line, the exit code the 0/1/2 contract promises
for it, and a check of what it printed.  The same corpus runs in fresh
interpreters that run ``minksub.cli`` as ``python -m minksub.cli`` does
(timed, cold: import included) and in-process through ``cli.main``
(traced, for the cli layer's self time).
Malformed configs must exit 2; the NaN germ is one of them and is a known
defect at this commit (it exits 0 and prints NaN).
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import workloads as wl
from minksub import pencil as pc

HERE = Path(__file__).resolve().parent

# commands whose cold wall time is reported on its own
COLD_COMMANDS = ("curvature", "ricci_grid", "audit_hyper", "verify_example")
PENCIL_CONFIG = pc.CanonicalData(l=2, n=(1, 2, 1), s=1)


@dataclass
class CliCase:
    name: str
    argv: list
    expect_exit: int
    check: Callable | None = None  # check(stdout, checks, case)

    @property
    def case(self) -> str:
        return f"cli.{self.name}"


def _json_check(inner):
    def check(out, chk, case):
        try:
            rep = wl.strict_json(out)
        except ValueError as exc:
            chk.expect(False, case, "json", str(exc)[:200])
            return
        chk.expect(True, case, "json")
        inner(rep, chk, case)
    return check


def _check_curvature(rep, chk, case):
    parts = sum(rep["ricParts"].values())
    chk.expect(abs(rep["Ric"] - parts) <= 1e-9 * (1.0 + abs(rep["Ric"])),
               case, "oracle", f"Ric {rep['Ric']} vs parts {parts}")


def _check_invariants(rep, chk, case):
    chk.expect(rep["mu"] == 1, case, "verdict", f"mu {rep['mu']}")


def _check_audit(rep, chk, case):
    chk.expect(rep["verdict"] == "CONSISTENT", case, "verdict",
               f"{rep['verdict']}: {rep['notes']}")


def _check_classify(rep, chk, case):
    C = PENCIL_CONFIG
    chk.expect(rep["type"] == wl.expected_canonical_type(C), case, "verdict",
               f"type {rep['type']}")
    chk.expect(rep["canonical"] == {"l": C.l, "n": list(C.n), "s": C.s},
               case, "verdict", f"canonical {rep['canonical']}")


def _check_example(rep, chk, case):
    chk.expect(rep["verdict"] == "SUCCESS", case, "verdict", rep["verdict"])
    rel = rep["maxRelDiscrepancy"]
    chk.expect(rel is not None and rel <= wl.EXAMPLE_REL_TOL, case, "oracle",
               f"closed form vs pipeline {rel}")


def _check_grid(out, chk, case):
    try:
        header, rows = wl.strict_csv(out)
    except (ValueError, IndexError) as exc:
        chk.expect(False, case, "csv", str(exc)[:200])
        return
    chk.expect(rows.shape[0] == 4096, case, "rows", f"{rows.shape[0]} rows")
    ric = rows[:, header.index("Ric")]
    trace = sum(rows[:, header.index(f"Rik_{i}_{i}")] for i in (1, 2, 3))
    worst = float(np.max(np.abs(ric - trace) / (1.0 + np.abs(ric))))
    chk.expect(worst <= wl.FLAT_REL_TOL, case, "oracle",
               f"Ric vs trace Rik {worst:.2e}")


def corpus(seed: int, workdir: Path) -> list:
    """Write the seeded config files into ``workdir``; return the cases."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = wl.rng_for(seed, 0)

    def write(name, obj):
        path = workdir / name
        path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
        return str(path)

    def config(norm, germ):
        return {"norm": norm.to_config(), "germ": germ.to_dict()}

    curv = write("curvature.json", config(wl.random_randers(rng, 3),
                                          wl.random_germ(rng, 2, 1, 0.8)))
    u = wl.unit(rng, 2)
    invariants = write("invariants.json",
                       {"germ": wl.kernel_germ(rng, 3, 2).to_dict()})
    grid = write("grid.json", config(wl.random_randers(rng, 4),
                                     wl.random_germ(rng, 3, 1)))
    audit = write("audit.json", config(wl.random_randers(rng, 4),
                                       wl.semidefinite_germ(rng, 3, 1.0)))
    pen = pc.build_canonical(PENCIL_CONFIG)
    M = wl.congruence(rng, pen.dim)
    pencil = write("pencil.json", {"A1": (M.T @ pen.A1 @ M).tolist(),
                                   "A2": (M.T @ pen.A2 @ M).tolist()})
    good = config(wl.random_randers(rng, 3), wl.random_germ(rng, 2, 1))
    bad_kind = write("bad_kind.json", dict(good, norm={"kind": "nosuch"}))
    missing = write("missing_key.json",
                    dict(good, germ={k: v for k, v in good["germ"].items()
                                     if k != "d3"}))
    not_json = write("not_json.json", "{\"norm\": [1, 2,")
    nan_germ = dict(good, germ=dict(good["germ"]))
    nan_germ["germ"]["d2"] = [[[float("nan"), 0.5], [0.5, 1.0]]]
    nan_path = write("nan_germ.json", json.dumps(nan_germ))
    # the = form keeps a leading minus from reading as an option
    direction = f"--direction={float(u[0])!r},{float(u[1])!r}"

    return [
        CliCase("curvature", ["curvature", "--config", curv,
                              direction], 0,
                _json_check(_check_curvature)),
        CliCase("invariants", ["invariants", "--config", invariants], 0,
                _json_check(_check_invariants)),
        CliCase("ricci_grid", ["ricci-grid", "--config", grid], 0,
                _check_grid),
        CliCase("audit_hyper", ["audit", "hyper", "--config", audit], 0,
                _json_check(_check_audit)),
        CliCase("pencil_classify", ["pencil", "classify", "--file", pencil],
                0, _json_check(_check_classify)),
        CliCase("verify_example", ["verify-example", "--auto"], 0,
                _json_check(_check_example)),
        CliCase("bad_kind", ["curvature", "--config", bad_kind,
                             direction], 2),
        CliCase("missing_key", ["curvature", "--config", missing,
                                direction], 2),
        CliCase("not_json", ["invariants", "--config", not_json], 2),
        CliCase("nan_germ", ["curvature", "--config", nan_path,
                             direction], 2),
    ]


def check_case(case: CliCase, code: int, out: str, err: str,
               chk: wl.Checks) -> None:
    ok = chk.expect(code == case.expect_exit, case.case, "exit",
                    f"exit {code}, expected {case.expect_exit}; "
                    f"stderr {err.strip()[-200:]!r}")
    if case.expect_exit == 0:
        if ok and case.check is not None:
            case.check(out, chk, case.case)
    elif out.strip():
        # a usage error prints no report; whatever was printed must at
        # least be strict JSON
        try:
            wl.strict_json(out)
            chk.expect(True, case.case, "json")
        except ValueError as exc:
            chk.expect(False, case.case, "json", str(exc)[:200])


def cold_jobs(cases, root: Path, env: dict, samples: Path) -> list:
    """One job per case: a fresh interpreter running ``minksub.cli``."""
    return [wl.Job("cold", case.case,
                   lambda case=case: run_cold(case, root, env, samples),
                   lambda out, chk, case=case: check_case(case, *out[:3],
                                                          chk),
                   {"command": case.name}, samples_of=lambda out: out[3])
            for case in cases]


def in_process_jobs(cases) -> list:
    """One job per case: ``cli.main`` in this interpreter."""
    return [wl.Job("cli", case.case,
                   lambda case=case: run_in_process(case),
                   lambda out, chk, case=case: check_case(case, *out, chk),
                   {"command": case.name}) for case in cases]


def run_cold(case: CliCase, root: Path, env: dict, samples: Path) -> tuple:
    """One fresh-interpreter call through cold_child.py, which runs
    ``minksub.cli`` as ``python -m`` does and records reference-kernel
    samples in ``samples``; returns (exit code, stdout, stderr, samples)."""
    proc = subprocess.run([sys.executable, str(HERE / "cold_child.py"),
                           str(samples), *case.argv],
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=150)
    kernel_s = json.loads(samples.read_text()) if samples.is_file() else []
    samples.unlink(missing_ok=True)
    return proc.returncode, proc.stdout, proc.stderr, kernel_s


def run_in_process(case: CliCase) -> tuple:
    """``cli.main`` in this interpreter: (exit code, stdout, stderr)."""
    from minksub import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(case.argv)
    return code, out.getvalue(), err.getvalue()
