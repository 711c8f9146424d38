"""CLI surface: exit codes, JSON shapes, determinism, config errors."""

import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from minksub import cli, example
from minksub import invariants as inv
from minksub.invariants import point_invariants
from minksub.pencil import CanonicalData, build_canonical
from test_golden import (CODIM3, EXAMPLE4, EXPRESSION4, RANDERS4, SURFACE,
                         SURFACE2, strict_csv_rows, strict_json)

PARABOLOID = {
    "norm": {"kind": "euclidean", "dim": 3},
    "germ": {"n": 2, "p": 1,
             "d2": [[[1.0, 0.0], [0.0, 1.0]]],
             "d3": np.zeros((1, 2, 2, 2)).tolist()},
}

RANDERS = {
    "norm": {"kind": "randers",
             "a": np.eye(3).tolist(), "b": [0.2, 0.0, -0.1]},
    "germ": {"n": 2, "p": 1,
             "d2": [[[2.0, 0.5], [0.5, -1.0]]],
             "d3": (0.1 * np.ones((1, 2, 2, 2))).tolist()},
}


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_check_norm_valid(tmp_path, capsys):
    cfg = write(tmp_path, "n.json", {"kind": "euclidean", "dim": 3})
    code, out, err = run(capsys, ["check-norm", "--config", cfg,
                                  "--grid", "64", "--seed", "5"])
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert rep["valid"] is True
    assert rep["seed"] == 5
    assert rep["norm"] == {"kind": "euclidean", "dim": 3}
    assert list(rep) == sorted(rep)


def test_check_norm_invalid_exits_one(tmp_path, capsys):
    cfg = write(tmp_path, "n.json",
                {"kind": "expression", "dim": 2,
                 "text": "(y1^2 - y2^2) / 2"})
    code, out, _ = run(capsys, ["check-norm", "--config", cfg,
                                "--grid", "64"])
    assert code == 1
    assert json.loads(out)["valid"] is False


def test_check_norm_run_time_overflow_names_h(tmp_path, capsys):
    # finite constants, so no constant subexpression overflows; H does
    cfg = write(tmp_path, "n.json",
                {"kind": "expression", "dim": 2,
                 "text": "sqrt(y1^2 + y2^2) * 1e300 * 1e300"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no RuntimeWarning escapes
        code, out, err = run(capsys, ["check-norm", "--config", cfg,
                                      "--grid", "16"])
    assert (code, out) == (1, "")
    assert err == "error: H is not finite at direction 0\n"


@pytest.mark.parametrize("fraction", ["1", "nan", "-0.5", "1.5"])
def test_out_of_range_min_axis_fraction_exits_two(tmp_path, fraction):
    # a fresh interpreter with a timeout: a fraction of 1 used to spin
    # forever in the example norm's rejection sampler
    cfg = write(tmp_path, "n.json", {"kind": "example4", "A": 10.0,
                                     "B": 10.0, "eps1": 0.1, "eps2": 0.1})
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "minksub.cli", "check-norm", "--config", cfg,
         "--grid", "64", "--min-axis-fraction", fraction],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "--min-axis-fraction" in proc.stderr


def test_too_narrow_min_axis_cone_exits_two(tmp_path):
    # inside [0, 1) but a cone of about 1e-6 of the sphere: the sampler's
    # draw cap ends the run, where it used to spin past any timeout
    cfg = write(tmp_path, "n.json", {"kind": "example4", "A": 10.0,
                                     "B": 10.0, "eps1": 0.1, "eps2": 0.1})
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "minksub.cli", "check-norm", "--config", cfg,
         "--grid", "64", "--min-axis-fraction", "0.999999999999"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "min_axis_fraction 0.999999999999" in proc.stderr


def test_too_narrow_cone_at_the_default_grid_exits_two_quickly(tmp_path):
    # 2,000 samples: the sampler spends all 2,000,000 capped draws, in
    # blocks, well inside the timeout
    cfg = write(tmp_path, "n.json", {"kind": "example4", "A": 10.0,
                                     "B": 10.0, "eps1": 0.1, "eps2": 0.1})
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "minksub.cli", "check-norm", "--config", cfg,
         "--min-axis-fraction", "0.999999999999"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=10)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "in 2000000 draws" in proc.stderr


def test_curvature_report_shape(tmp_path, capsys):
    cfg = write(tmp_path, "c.json", RANDERS)
    code, out, _ = run(capsys, ["curvature", "--config", cfg,
                                "--direction", "1,0.5"])
    assert code == 0
    rep = json.loads(out)
    assert set(rep["ricParts"]) == {"cubicGroup", "zetaGroup", "etaGroup",
                                    "rhoGroup"}
    assert rep["Ric"] == pytest.approx(sum(rep["ricParts"].values()),
                                       rel=1e-12)
    assert rep["tolerances"] == {"condLimit": 1e12}
    assert len(rep["G"]) == 2 and len(rep["g"]) == 2


def test_curvature_takes_one_jet_and_prints_the_reports_zeta(
        tmp_path, capsys, monkeypatch):
    calls = []
    jet = cli.NormModel.jet
    monkeypatch.setattr(cli.NormModel, "jet", lambda self, *a, **k: (
        calls.append(a) or jet(self, *a, **k)))
    cfg = write(tmp_path, "c.json", RANDERS)
    code, out, _ = run(capsys, ["curvature", "--config", cfg,
                                "--direction", "1,0.5"])
    assert code == 0 and len(calls) == 1
    rep = json.loads(out)
    norm = cli.norm_from_config(RANDERS["norm"], "")
    germ = cli.germ_from_config(RANDERS["germ"], "")
    want = cli.ricci_expanded(norm, germ, np.array([1.0, 0.5]))
    assert rep["zeta"] == want.zeta.tolist()


def test_curvature_exits_one_on_a_non_positive_zeta(tmp_path, capsys):
    # g = I is positive definite, zeta = -1 is not
    cfg = write(tmp_path, "c.json", {
        "norm": {"kind": "expression", "dim": 3,
                 "text": "(y1^2 + y2^2 - y3^2) / 2"},
        "germ": PARABOLOID["germ"]})
    code, out, err = run(capsys, ["curvature", "--config", cfg,
                                  "--direction", "1,0"])
    assert (code, out) == (1, "")
    assert err == "error: zeta is not positive definite at this direction\n"


# g = I at every direction, and zeta is not positive definite: everywhere
# for "p1" and "p2"; for "twisted" along e2 but not along e1, so on
# the 8-angle grid direction 1 is the first bad one
NON_CONVEX = {
    "p1": ("(y1^2 + y2^2 - y3^2) / 2", 3),
    "p2": ("(y1^2 + y2^2 + y3^2 - y4^2) / 2", 4),
    "twisted": ("(y1^2 + y2^2) / 2 + y3^2 * (y1^2 - 2*y2^2) / (y1^2 + y2^2)"
                " / 2", 3)}
ZETA_CASES = [
    ("p1", [[1, 1]], "curvature --direction 1,0", "this direction"),
    ("p1", [[1, 1]], "ricci-grid --grid 8", "direction 0"),
    ("p1", [[1, 1]], "audit hyper --grid 8", "direction 0"),
    ("p1", [[0, 1]], "audit ruled --direction 1,0", "this direction"),
    ("p2", [[1, 1], [1, -1]], "curvature --direction 1,0", "this direction"),
    ("p2", [[1, 1], [1, -1]], "ricci-grid --grid 8", "direction 0"),
    ("p2", [[1, 1], [1, -1]], "audit codim2 --grid 8", "direction 0"),
    ("p2", [[0, 1], [0, -1]], "audit ruled --direction 1,0", "this direction"),
    ("twisted", [[1, 1]], "curvature --direction 1,1", "this direction"),
    ("twisted", [[1, 1]], "ricci-grid --grid 8", "direction 1"),
    ("twisted", [[1, 1]], "audit hyper --grid 8", "direction 1"),
    ("twisted", [[1, 0]], "audit ruled --direction 0,1", "this direction"),
]


def _non_convex_config(tmp_path, norm, diagonals):
    text, dim = NON_CONVEX[norm]
    p = len(diagonals)
    return write(tmp_path, "c.json", {
        "norm": {"kind": "expression", "dim": dim, "text": text},
        "germ": {"n": 2, "p": p,
                 "d2": [np.diag(np.array(d, float)).tolist()
                        for d in diagonals],
                 "d3": np.zeros((p, 2, 2, 2)).tolist()}})


@pytest.mark.parametrize("norm, diagonals, command, where", ZETA_CASES,
                         ids=["-".join([c[0], *c[2].split(" --")[0].split()])
                              for c in ZETA_CASES])
def test_ricci_commands_exit_one_on_a_non_positive_zeta(
        tmp_path, capsys, norm, diagonals, command, where):
    cfg = _non_convex_config(tmp_path, norm, diagonals)
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no RuntimeWarning escapes
        code, out, err = run(capsys, [*command.split(), "--config", cfg])
    assert (code, out) == (1, "")
    assert err == f"error: zeta is not positive definite at {where}\n"


def test_curvature_reads_the_twisted_norm_where_zeta_is_definite(
        tmp_path, capsys):
    cfg = _non_convex_config(tmp_path, "twisted", [[1, 1]])
    code, out, err = run(capsys, ["curvature", "--config", cfg,
                                  "--direction", "1,0"])
    assert (code, err) == (0, "")
    assert json.loads(out)["zeta"] == [[1.0]]


def test_curvature_deterministic_and_out_file(tmp_path, capsys):
    cfg = write(tmp_path, "c.json", RANDERS)
    dest = tmp_path / "rep.json"
    code, out1, _ = run(capsys, ["curvature", "--config", cfg,
                                 "--direction", "1,0.5",
                                 "--out", str(dest)])
    assert code == 0
    assert dest.read_text() == out1
    _, out2, _ = run(capsys, ["curvature", "--config", cfg,
                              "--direction", "1,0.5"])
    assert out1 == out2


def test_ricci_grid_csv(tmp_path, capsys):
    cfg = write(tmp_path, "c.json", PARABOLOID)
    code, out, _ = run(capsys, ["ricci-grid", "--config", cfg,
                                "--grid", "16"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("u_1,u_2,S,Ric")
    assert len(lines) == 17
    # paraboloid: Ric is n-1 = 1 in every direction
    ric_col = lines[0].split(",").index("Ric")
    for line in lines[1:]:
        assert float(line.split(",")[ric_col]) == pytest.approx(1.0,
                                                                rel=1e-12)


def test_invariants_report(tmp_path, capsys):
    cfg = write(tmp_path, "c.json", PARABOLOID)
    code, out, _ = run(capsys, ["invariants", "--config", cfg])
    assert code == 0
    rep = json.loads(out)
    assert rep["mu"] == 0
    assert rep["tolerances"] == {"rankTol": 1e-9, "eigTol": 1e-9}


def test_pencil_type_spectral(tmp_path, capsys):
    cfg = write(tmp_path, "p.json",
                {"A1": [[2.0, 0.0], [0.0, 3.0]],
                 "A2": [[1.0, 0.0], [0.0, 1.0]]})
    code, out, _ = run(capsys, ["pencil", "type", "--file", cfg])
    assert code == 0
    rep = json.loads(out)
    assert rep == {"type": 0, "method": "arcs",
                   "tolerances": {"eigTol": 1e-9, "pencilCondLimit": 1e10}}


def test_pencil_type_sampled_fallback(tmp_path, capsys):
    # A2 vanishes and A1 is singular: no member is invertible, the arc
    # sweep still answers
    cfg = write(tmp_path, "p.json",
                {"A1": [[1.0, 0.0], [0.0, 0.0]],
                 "A2": [[0.0, 0.0], [0.0, 0.0]]})
    code, out, _ = run(capsys, ["pencil", "type", "--file", cfg])
    rep = json.loads(out)
    assert rep["method"] == "arcs"
    assert rep["type"] == 0
    assert "samples" not in rep
    assert code == 0


def test_pencil_type_finds_a_narrow_arc(tmp_path, capsys):
    # the spectral split rejects this pencil, and 10^4 samples step over
    # its negative definite members on an arc 1e-4 wide
    phi = np.array([4.05, 2.33, 3.14, 4.05 + np.pi + 1e-4])
    cfg = write(tmp_path, "p.json", {"A1": np.diag(np.cos(phi)).tolist(),
                                     "A2": np.diag(np.sin(phi)).tolist()})
    code, out, _ = run(capsys, ["pencil", "type", "--file", cfg])
    assert code == 0
    rep = json.loads(out)
    assert (rep["type"], rep["method"]) == (0, "arcs")


def test_zero_pencil_has_no_type(tmp_path, capsys, monkeypatch):
    # a usage error, refused at the first reference read: classify runs
    # no sampled descent first
    from minksub import pencil as pencils
    descents = []
    monkeypatch.setattr(pencils, "_single_descent",
                        lambda *a: descents.append(a))
    cfg = write(tmp_path, "p.json", {"A1": np.zeros((2, 2)).tolist(),
                                     "A2": np.zeros((2, 2)).tolist()})
    for command in ("type", "classify"):
        code, out, err = run(capsys, ["pencil", command, "--file", cfg])
        assert (code, out) == (2, "")
        assert err == "config error: both pencil matrices are zero\n"
    assert descents == []
    # zero quadrics still have common zeros: e1 solves them
    monkeypatch.undo()
    code, out, _ = run(capsys, ["pencil", "common-zero", "--file", cfg])
    assert code == 0 and json.loads(out)["point"] == [1.0, 0.0]


def test_pencil_classify_canonical(tmp_path, capsys):
    pen = build_canonical(CanonicalData(l=1, n=(2,), s=1))
    cfg = write(tmp_path, "p.json",
                {"A1": pen.A1.tolist(), "A2": pen.A2.tolist()})
    code, out, _ = run(capsys, ["pencil", "classify", "--file", cfg])
    assert code == 0
    rep = json.loads(out)
    assert rep["canonical"] == {"l": 1, "n": [2], "s": 1}
    assert rep["topology"] is not None
    assert rep["genericity"]["semisimple"] is True
    assert rep["genericity"]["smoothIntersection"] is True
    assert rep["type"] is not None


def test_pencil_classify_off_canonical_still_reports(tmp_path, capsys):
    cfg = write(tmp_path, "p.json",
                {"A1": [[1.0, 0.0], [0.0, 1.0]],
                 "A2": [[1.0, 0.0], [0.0, -1.0]]})
    code, out, _ = run(capsys, ["pencil", "classify", "--file", cfg])
    assert code == 0
    rep = json.loads(out)
    assert rep["canonical"] is None
    assert any("canonical" in n for n in rep["notes"])
    assert rep["spectral"] is not None


def test_pencil_classify_types_a_jordan_pencil(tmp_path, capsys):
    cfg = write(tmp_path, "p.json",
                {"A1": [[0.0, 0.0], [0.0, 1.0]],
                 "A2": [[0.0, 1.0], [1.0, 0.0]]})
    code, out, _ = run(capsys, ["pencil", "classify", "--file", cfg])
    assert code == 0
    rep = json.loads(out)
    assert rep["type"] == 1
    assert rep["spectral"] is None
    assert any(n.startswith("spectral split unavailable")
               for n in rep["notes"])


@pytest.mark.parametrize("A1, A2", [
    (build_canonical(CanonicalData(l=1, n=(2,), s=1)).A1.tolist(),
     build_canonical(CanonicalData(l=1, n=(2,), s=1)).A2.tolist()),
    ([[0.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]),     # Jordan block
], ids=["canonical", "jordan"])
def test_pencil_classify_searches_once(tmp_path, capsys, reference_searches,
                                       A1, A2):
    # genericity_check splits the pencil and classify splits it again; the
    # reference search behind both splits and the type runs once
    from minksub import pencil as pencils
    cfg = write(tmp_path, "p.json", {"A1": A1, "A2": A2})
    code, out, _ = run(capsys, ["pencil", "classify", "--file", cfg])
    assert code == 0
    assert len(reference_searches) == 1
    # the shared search reports what the public functions report alone
    rep = json.loads(out)
    pen = pencils.SymPencil.make(A1, A2)
    assert rep["genericity"] == pencils.genericity_check(pen).to_dict()
    assert rep["type"] == pencils.pencil_type(pen)


def test_pencil_common_zero_found(tmp_path, capsys):
    cfg = write(tmp_path, "p.json",
                {"A1": [[1.0, 0, 0], [0, -1.0, 0], [0, 0, 0.0]],
                 "A2": [[0.0, 0, 0], [0, 1.0, 0], [0, 0, -1.0]]})
    code, out, _ = run(capsys, ["pencil", "common-zero", "--file", cfg])
    assert code == 0
    rep = json.loads(out)
    assert rep["found"] is True
    assert len(rep["point"]) == 3
    assert rep["residual"] <= 1e-8


def test_pencil_common_zero_not_found(tmp_path, capsys):
    cfg = write(tmp_path, "p.json",
                {"A1": np.eye(3).tolist(), "A2": np.diag([1.0, 2, 3]).tolist()})
    code, out, _ = run(capsys, ["pencil", "common-zero", "--file", cfg,
                                "--budget", "8"])
    assert code == 1
    rep = json.loads(out)
    assert rep["found"] is False and rep["point"] is None


def test_verify_example_success_and_csv(tmp_path, capsys):
    params = write(tmp_path, "params.json",
                   {"A": 10.0, "B": 10.0, "eps1": 0.1, "eps2": 0.1,
                    "eps3": 0.001, "C": 100.0})
    csv = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, ["verify-example", "--params", params,
                                "--grid", "360", "--csv", str(csv)])
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "SUCCESS"
    assert rep["tolerances"]["relTol"] == 1e-6
    assert csv.read_text().startswith("angle,ricClosed,ricPipeline\n")


def test_verify_example_failure_exit(tmp_path, capsys):
    for eps3 in (-0.001, 0.1):      # step (a) fails, then step (b)
        params = write(tmp_path, "params.json",
                       {"A": 10.0, "B": 10.0, "eps1": 0.1, "eps2": 0.1,
                        "eps3": eps3, "C": 100.0})
        csv = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, ["verify-example", "--params", params,
                                    "--grid", "360", "--csv", str(csv)])
        assert code == 1
        assert json.loads(out)["verdict"] == "FAILURE"
        # the closed form was computed; the pipeline never ran
        text = csv.read_text()
        assert text.startswith("angle,ricClosed\n")
        assert strict_csv_rows(text) == len(example._grid_angles(360))


def test_verify_example_needs_a_source(tmp_path, capsys):
    code, out, err = run(capsys, ["verify-example"])
    assert code == 2 and out == ""
    assert "one of the arguments --params --auto is required" in err


@pytest.mark.parametrize("extra, message", [
    (["--budget", "5"], "--budget needs --auto"),
    (["--auto"], "not allowed with argument --params"),
])
def test_verify_example_rejects_unused_flags(tmp_path, capsys, extra,
                                             message):
    params = write(tmp_path, "params.json",
                   {"A": 10.0, "B": 10.0, "eps1": 0.1, "eps2": 0.1,
                    "eps3": 0.001, "C": 100.0})
    code, out, err = run(capsys, ["verify-example", "--params", params,
                                  *extra])
    assert code == 2 and out == ""
    assert message in err


def test_find_params(capsys):
    code, out, _ = run(capsys, ["find-params", "--budget", "7",
                                "--grid", "360"])
    assert code == 0
    rep = json.loads(out)
    assert rep["params"]["eps3"] == 0.001


def test_audit_hyper(tmp_path, capsys):
    cfg = write(tmp_path, "c.json", PARABOLOID)
    code, out, _ = run(capsys, ["audit", "hyper", "--config", cfg,
                                "--grid", "72"])
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "CONSISTENT"
    assert rep["minRic"] == pytest.approx(1.0, rel=1e-12)


def test_audit_codim2(tmp_path, capsys):
    germ = {"n": 2, "p": 2,
            "d2": [[[2.0, 0.0], [0.0, 2.0]], [[0.0, 1.0], [1.0, 0.0]]],
            "d3": np.zeros((2, 2, 2, 2)).tolist()}
    cfg = write(tmp_path, "c.json",
                {"norm": {"kind": "euclidean", "dim": 4}, "germ": germ})
    code, out, _ = run(capsys, ["audit", "codim2", "--config", cfg,
                                "--grid", "72"])
    rep = json.loads(out)
    assert rep["verdict"] == "CONSISTENT"
    assert code == 0


@pytest.mark.parametrize("audit, n, p, nested, message", [
    ("hyper", 2, 2, True, "/germ/p: audit hyper needs p = 1, got 2"),
    ("hyper", 1, 1, False, "/n: audit hyper needs n >= 2, got 1"),
    ("codim2", 2, 1, True, "/germ/p: audit codim2 needs p = 2, got 1"),
    ("codim2", 1, 2, True, "/germ/n: audit codim2 needs n >= 2, got 1"),
], ids=["hyper-p2", "hyper-n1", "codim2-p1", "codim2-n1"])
def test_audit_on_a_germ_of_the_wrong_shape_exits_two(tmp_path, capsys, audit,
                                                     n, p, nested, message):
    germ = {"n": n, "p": p, "d2": np.stack([np.eye(n)] * p).tolist(),
            "d3": np.zeros((p, n, n, n)).tolist()}
    norm = {"kind": "euclidean", "dim": n + p}
    config = {"norm": norm, "germ": germ} if nested else {**norm, **germ}
    cfg = write(tmp_path, "c.json", config)
    code, out, err = run(capsys, ["audit", audit, "--config", cfg])
    assert code == 2
    assert out == ""
    assert err == f"config error: {message}\n"


@pytest.mark.parametrize("offset", [-1, 1], ids=["too-small", "too-large"])
@pytest.mark.parametrize("nested", [True, False], ids=["nested", "flat"])
@pytest.mark.parametrize("argv", [
    ["curvature", "--direction", "1,0"],
    ["ricci-grid", "--grid", "4"],
    ["audit", "hyper", "--grid", "8"],
    ["audit", "codim2", "--grid", "8"],
    ["audit", "ruled", "--direction", "1,0"],
], ids=["curvature", "ricci-grid", "audit-hyper", "audit-codim2",
        "audit-ruled"])
def test_a_norm_not_on_r_n_plus_p_exits_two(tmp_path, capsys, argv, nested,
                                            offset):
    p = 1 if argv[1:2] == ["hyper"] else 2
    germ = {"n": 2, "p": p, "d2": np.stack([np.eye(2)] * p).tolist(),
            "d3": np.zeros((p, 2, 2, 2)).tolist()}
    norm = {"kind": "euclidean", "dim": 2 + p + offset}
    config = {"norm": norm, "germ": germ} if nested else {**norm, **germ}
    cfg = write(tmp_path, "c.json", config)
    code, out, err = run(capsys, [*argv, "--config", cfg])
    assert (code, out) == (2, "")
    pointer = "/norm" if nested else "/"
    assert err == (f"config error: {pointer}: norm dimension {2 + p + offset} "
                   f"does not match the germ's n + p = {2 + p}\n")


def test_a_jet_dimension_out_of_range_exits_two_before_allocating(
        tmp_path, capsys):
    # np.eye(10**9) would ask for 8e18 bytes; the range check comes first
    cfg = write(tmp_path, "n.json", {"kind": "euclidean", "dim": 10**9})
    code, out, err = run(capsys, ["check-norm", "--config", cfg])
    assert (code, out) == (2, "")
    assert err == ("config error: /: jet dimension must be in 1..8, "
                   "got 1000000000\n")


@pytest.mark.parametrize("n, grid_flag, grid", [
    (2, ["--grid", "72"], {"kind": "circle", "directions": 72}),
    (3, ["--grid", "100"], {"kind": "sobol", "directions": 100}),
    (3, [], {"kind": "sobol", "directions": 4096}),
])
@pytest.mark.parametrize("audit", ["hyper", "codim2"])
def test_grid_audits_report_their_grid(tmp_path, capsys, audit, n, grid_flag,
                                       grid):
    p = 1 if audit == "hyper" else 2
    germ = {"n": n, "p": p, "d2": np.stack([np.eye(n)] * p).tolist(),
            "d3": np.zeros((p, n, n, n)).tolist()}
    cfg = write(tmp_path, "c.json",
                {"norm": {"kind": "euclidean", "dim": n + p}, "germ": germ})
    code, out, _ = run(capsys, ["audit", audit, "--config", cfg] + grid_flag)
    assert code == 0
    assert json.loads(out)["grid"] == grid


def test_audit_ruled_with_direction_and_tol(tmp_path, capsys):
    cylinder = {"norm": {"kind": "euclidean", "dim": 3},
                "germ": {"n": 2, "p": 1,
                         "d2": [[[0.0, 0.0], [0.0, 2.0]]],
                         "d3": np.zeros((1, 2, 2, 2)).tolist()}}
    cfg = write(tmp_path, "c.json", cylinder)
    code, out, _ = run(capsys, ["audit", "ruled", "--config", cfg,
                                "--direction", "1,0", "--tol", "1e-7"])
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "CONSISTENT"
    assert rep["tolerances"]["ricNonnegTol"] == 1e-7
    assert rep["tolerances"]["ruledAgreeTol"] == inv.RULED_AGREE_TOL
    assert rep["tolerances"]["ruledInLTol"] == inv.RULED_IN_L_TOL
    assert "grid" not in rep


@pytest.mark.parametrize("argv", [
    ["curvature", "--config", "c.json", "--direction", "1,0", "--tol", "5"],
    ["curvature", "--config", "c.json", "--direction", "1,0", "--grid", "9"],
    ["invariants", "--config", "c.json", "--grid", "9"],
    ["invariants", "--config", "c.json", "--tol", "5"],
    ["pencil", "type", "--file", "c.json", "--grid", "9"],
    ["check-norm", "--config", "c.json", "--tol", "5"],
    ["ricci-grid", "--config", "c.json", "--tol", "5"],
    ["audit", "ruled", "--config", "c.json", "--direction", "1,0",
     "--grid", "72"],
    ["curvature", "--config", "c.json", "--direction", "1,0", "--seed", "5"],
    ["ricci-grid", "--config", "c.json", "--seed", "5"],
    ["pencil", "type", "--file", "c.json", "--seed", "5"],
    ["audit", "hyper", "--config", "c.json", "--seed", "5"],
    ["audit", "codim2", "--config", "c.json", "--seed", "5"],
])
def test_flag_a_command_does_not_use_exits_two(tmp_path, capsys, argv):
    cfg = write(tmp_path, "c.json", PARABOLOID)
    code, out, err = run(capsys, [cfg if a == "c.json" else a for a in argv])
    assert code == 2 and out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("argv", [
    ["ricci-grid", "--config", "c.json", "--grid", "0"],
    ["ricci-grid", "--config", "c.json", "--grid", "-3"],
    ["check-norm", "--config", "c.json", "--grid", "0"],
    ["audit", "hyper", "--config", "c.json", "--grid", "0"],
    ["find-params", "--grid", "0"],
    ["audit", "hyper", "--config", "c.json", "--tol", "-1e-8"],
    ["audit", "hyper", "--config", "c.json", "--tol", "nan"],
    ["audit", "codim2", "--config", "c.json", "--tol", "inf"],
    ["verify-example", "--auto", "--grid", "100"],
    ["find-params", "--grid", "100"],
])
def test_out_of_range_grid_or_tol_exits_two(tmp_path, capsys, argv):
    cfg = write(tmp_path, "c.json", PARABOLOID)
    code, out, err = run(capsys, [cfg if a == "c.json" else a for a in argv])
    assert code == 2 and out == ""
    assert "--grid" in err or "--tol" in err


@pytest.mark.parametrize("argv", [
    ["verify-example", "--auto", "--budget", "0"],
    ["find-params", "--budget", "0"],
    ["pencil", "common-zero", "--file", "c.json", "--budget", "0"],
])
def test_budget_below_one_exits_two(tmp_path, capsys, argv):
    cfg = write(tmp_path, "c.json", {"A1": np.eye(2).tolist(),
                                     "A2": np.diag([1.0, -1.0]).tolist()})
    code, out, err = run(capsys, [cfg if a == "c.json" else a for a in argv])
    assert code == 2 and out == ""
    assert "--budget must be at least 1" in err


@pytest.mark.parametrize("command", [
    "check-norm --config n.json",
    "invariants --config c.json",
    "pencil classify --file p.json",
    "pencil common-zero --file p.json",
    "verify-example --auto",
    "find-params",
    "audit ruled --config c.json --direction 0,1",
], ids=lambda c: c.split(" --")[0].replace(" ", "-"))
@pytest.mark.parametrize("seed", ["--seed -1", "--seed=-3"],
                         ids=["separate", "joined"])
def test_negative_seed_exits_two(tmp_path, capsys, command, seed):
    paths = {"n.json": write(tmp_path, "n.json", PARABOLOID["norm"]),
             "c.json": write(tmp_path, "c.json", {
                 "norm": PARABOLOID["norm"],
                 "germ": {**PARABOLOID["germ"],
                          "d2": [np.diag([1.0, 0.0]).tolist()]}}),
             "p.json": write(tmp_path, "p.json", {
                 "A1": np.eye(2).tolist(),
                 "A2": np.diag([1.0, -1.0]).tolist()})}
    argv = f"{command} {seed}".split()
    code, out, err = run(capsys, [paths.get(a, a) for a in argv])
    assert code == 2 and out == ""
    assert f"--seed must be at least 0, got {seed[-2:]}" in err


@pytest.mark.parametrize("params, pointer", [
    ({"B": 10.0, "eps1": 0.1, "eps2": 0.1, "eps3": 0.001, "C": 100.0},
     "/A: missing"),
    ([10.0, 10.0, 0.1, 0.1, 0.001, 100.0], "/: expected a JSON object"),
    ({"A": "x", "B": 10.0, "eps1": 0.1, "eps2": 0.1, "eps3": 0.001,
      "C": 100.0}, "/A: expected a number"),
    ({"A": float("nan"), "B": 10.0, "eps1": 0.1, "eps2": 0.1,
      "eps3": 0.001, "C": 100.0}, "/A: not finite"),
    # out of the family's domain: f12 = sqrt(1 + eps3), and A, B > 0
    ({"A": 10.0, "B": 10.0, "eps1": 0.1, "eps2": 0.1, "eps3": -2.0,
      "C": 100.0}, "/eps3: must be >= -1, got -2.0"),
    ({"A": -10.0, "B": 10.0, "eps1": 0.1, "eps2": 0.1, "eps3": 0.001,
      "C": 100.0}, "/A: must be > 0, got -10.0"),
    ({"A": 10.0, "B": 0.0, "eps1": 0.1, "eps2": 0.1, "eps3": 0.001,
      "C": 100.0}, "/B: must be > 0, got 0.0"),
])
def test_malformed_example_params_exit_two(tmp_path, capsys, params,
                                           pointer):
    path = write(tmp_path, "params.json", params)
    code, out, err = run(capsys, ["verify-example", "--params", path])
    assert code == 2 and out == ""
    assert err.startswith(f"config error: {pointer}")


def test_audit_zero_tol_is_used_and_reported(tmp_path, capsys):
    cfg = write(tmp_path, "c.json", PARABOLOID)
    code, out, _ = run(capsys, ["audit", "hyper", "--config", cfg,
                                "--grid", "8", "--tol", "0"])
    assert code == 0
    assert json.loads(out)["tolerances"]["ricNonnegTol"] == 0.0


def test_find_params_grid_reaches_verify_example(monkeypatch, capsys):
    seen = []
    real = example.verify_example

    def spy(params, grid=example.GRID, seed=0):
        seen.append((grid, seed))
        return real(params, grid=grid, seed=seed)

    monkeypatch.setattr(example, "verify_example", spy)
    code, _, _ = run(capsys, ["find-params", "--budget", "1",
                              "--grid", "360", "--seed", "3"])
    assert seen == [(360, 3)]
    assert code == 1  # the first combination does not verify


def test_verify_example_auto_verifies_each_candidate_once(tmp_path, capsys,
                                                          monkeypatch):
    # the search's SUCCESS report is the one printed: 7 candidates, and
    # no second verification of the winner
    seen = []
    real = example.verify_example

    def spy(params, grid=example.GRID, seed=0):
        seen.append(params)
        return real(params, grid=grid, seed=seed)

    monkeypatch.setattr(example, "verify_example", spy)
    monkeypatch.setattr(cli, "verify_example", spy)
    auto_csv, params_csv = tmp_path / "auto.csv", tmp_path / "params.csv"
    code, auto_out, _ = run(capsys, ["verify-example", "--auto",
                                     "--csv", str(auto_csv)])
    assert code == 0
    assert len(seen) == len(set(seen)) == 7
    # the same bytes as verifying the winner on its own
    params = write(tmp_path, "params.json", seen[-1].to_dict())
    code, params_out, _ = run(capsys, ["verify-example", "--params", params,
                                       "--csv", str(params_csv)])
    assert code == 0 and len(seen) == 8
    assert auto_out == params_out
    assert auto_csv.read_bytes() == params_csv.read_bytes()


def test_config_error_unknown_kind(tmp_path, capsys):
    cfg = write(tmp_path, "c.json", {"kind": "bogus", "dim": 3})
    code, _, err = run(capsys, ["check-norm", "--config", cfg])
    assert code == 2
    assert err.startswith("config error: /kind: unknown norm kind")


def test_config_error_pointer_paths(tmp_path, capsys):
    bad = {"norm": {"kind": "randers", "a": "oops", "b": [0, 0, 0]},
           "germ": PARABOLOID["germ"]}
    cfg = write(tmp_path, "c.json", bad)
    code, _, err = run(capsys, ["curvature", "--config", cfg,
                                "--direction", "1,0"])
    assert code == 2
    assert "/norm" in err

    cfg2 = write(tmp_path, "c2.json", {"norm": PARABOLOID["norm"]})
    code, _, err = run(capsys, ["curvature", "--config", cfg2,
                                "--direction", "1,0"])
    assert code == 2
    assert "/germ" in err and "missing" in err


def test_config_error_expression_syntax(tmp_path, capsys):
    cfg = write(tmp_path, "c.json",
                {"kind": "expression", "dim": 2, "text": "y1 ^^ 2"})
    code, _, err = run(capsys, ["check-norm", "--config", cfg])
    assert code == 2
    assert "/text" in err


@pytest.mark.parametrize("argv, config, message", [
    (["check-norm", "--config"], {"kind": "euclidean", "dim": 3.0},
     "/dim: expected an integer"),
    (["check-norm", "--config"], {"kind": "expression", "dim": 2, "text": 5},
     "/text: expected a string"),
    (["pencil", "common-zero", "--file"],
     {"A1": np.eye(2).tolist(), "A2": np.diag([1.0, -1.0]).tolist(),
      "psi1": np.zeros((2, 2)).tolist()},
     "/psi1: expected shape (2,2,2), got (2, 2)"),
], ids=["integer", "expression-text", "psi1-shape"])
def test_config_reader_type_errors_exit_two(tmp_path, capsys, argv, config,
                                            message):
    cfg = write(tmp_path, "c.json", config)
    code, out, err = run(capsys, [*argv, cfg])
    assert (code, out) == (2, "")
    assert err == f"config error: {message}\n"


def test_config_error_unreadable_and_malformed(tmp_path, capsys):
    code, _, err = run(capsys, ["check-norm", "--config",
                                str(tmp_path / "absent.json")])
    assert code == 2 and "cannot read" in err

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _, err = run(capsys, ["check-norm", "--config", str(broken)])
    assert code == 2 and "not valid JSON" in err


def test_direction_arity_error(tmp_path, capsys):
    cfg = write(tmp_path, "c.json", PARABOLOID)
    code, _, err = run(capsys, ["curvature", "--config", cfg,
                                "--direction", "1,0,0"])
    assert code == 2
    assert "--direction" in err


def test_usage_errors_exit_two(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()
    assert cli.main(["no-such-command"]) == 2
    capsys.readouterr()
    assert cli.main(["curvature"]) == 2  # missing required flags
    capsys.readouterr()
    assert cli.main(["pencil"]) == 2  # missing sub-subcommand
    capsys.readouterr()


def test_runtime_error_exits_one(tmp_path, capsys):
    # indefinite norm: the pipeline rejects the fundamental tensor
    bad = {"norm": {"kind": "expression", "dim": 3,
                    "text": "(y1^2 - y2^2 + 4*y3^2) / 2"},
           "germ": PARABOLOID["germ"]}
    cfg = write(tmp_path, "c.json", bad)
    code, _, err = run(capsys, ["curvature", "--config", cfg,
                                "--direction", "1,0"])
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("bad, pointer", [
    (float("nan"), "/germ/d2/0/1/0"),
    (float("inf"), "/germ/d2/0/1/0"),
    (-float("inf"), "/germ/d2/0/1/0"),
])
def test_non_finite_config_array_exits_two(tmp_path, capsys, bad, pointer):
    cfg = json.loads(json.dumps(PARABOLOID))
    cfg["germ"]["d2"][0][1][0] = bad
    path = write(tmp_path, "c.json", cfg)
    code, out, err = run(capsys, ["curvature", "--config", path,
                                  "--direction", "1,0"])
    assert code == 2 and out == ""
    assert err.startswith(f"config error: {pointer}: not finite")


def test_non_finite_config_number_exits_two(tmp_path, capsys):
    path = write(tmp_path, "n.json",
                 {"kind": "example4", "A": float("inf"), "B": 10.0,
                  "eps1": 0.1, "eps2": 0.1})
    code, out, err = run(capsys, ["check-norm", "--config", path])
    assert code == 2 and out == ""
    assert err.startswith("config error: /A: not finite")


def test_non_finite_direction_exits_two(tmp_path, capsys):
    cfg = write(tmp_path, "c.json", PARABOLOID)
    code, _, err = run(capsys, ["curvature", "--config", cfg,
                                "--direction", "nan,1"])
    assert code == 2
    assert err.startswith("config error: --direction")


@pytest.mark.parametrize("direction", ["0,0", "0,-0"])
@pytest.mark.parametrize("argv", [["curvature"], ["audit", "ruled"]])
def test_zero_direction_exits_two(tmp_path, capsys, argv, direction):
    # a usage error, as a non-finite direction is
    cfg = write(tmp_path, "c.json", PARABOLOID)
    code, out, err = run(capsys, [*argv, "--config", cfg,
                                  f"--direction={direction}"])
    assert (code, out) == (2, "")
    assert err == "config error: --direction: must not be zero\n"


@pytest.mark.parametrize("argv", [["check-norm"], ["audit", "hyper"]])
def test_overflowing_folded_constant_exits_two(tmp_path, capsys, argv):
    # every literal is finite, their product is not: named at parse time,
    # before a jet turns it into NaN
    norm = {"kind": "expression", "dim": 3,
            "text": "(y1^2 + y2^2 + y3^2) / 2 + 1e300 * 1e300 * y1^4"}
    check_norm = argv == ["check-norm"]
    cfg = write(tmp_path, "c.json", norm if check_norm else
                {"norm": norm, "germ": PARABOLOID["germ"]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no RuntimeWarning escapes
        code, out, err = run(capsys, [*argv, "--config", cfg])
    assert (code, out) == (2, "")
    pointer = "/text" if check_norm else "/norm/text"
    assert err == (f"config error: {pointer}: a constant subexpression is "
                   "not finite\n")


def test_undefined_expression_constant_exits_two(tmp_path, capsys):
    # 1/0 is no polynomial constant: named when the norm is built, not
    # when a jet first divides by it
    cfg = write(tmp_path, "c.json",
                {"kind": "expression", "dim": 3,
                 "text": "(y1^2 + y2^2 + y3^2) / 2 + 1/0"})
    code, out, err = run(capsys, ["check-norm", "--config", cfg])
    assert (code, out) == (2, "")
    assert err == ("config error: /text: a constant subexpression cannot be "
                   "evaluated: float division by zero\n")


@pytest.mark.parametrize("kind, cfg, message", [
    ("check-norm", {"kind": "example4", "A": -10.0, "B": 10.0, "eps1": 0.1,
                    "eps2": 0.1}, "A and B must be positive"),
    ("invariants", {"n": 2, "p": 1, "d2": [[[1.0, 0.0], [0.0, 1.0]]],
                    "d3": [[[[0.0, 0.0], [0.0, 0.0]]]]},
     "d3 must have shape (1, 2, 2, 2)"),
])
def test_flat_config_errors_point_at_the_root(tmp_path, capsys, kind, cfg,
                                              message):
    path = write(tmp_path, "c.json", cfg)
    code, out, err = run(capsys, [kind, "--config", path])
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: /: {message}")


@pytest.mark.parametrize("argv", [["curvature"], ["audit", "ruled"]])
def test_underflowing_direction_exits_two(tmp_path, capsys, argv):
    # u . u underflows to 0, so the norm would see a zero direction; a
    # direction whose square overflows is left to the pipeline, which
    # names the non-finite field
    cfg = write(tmp_path, "c.json", PARABOLOID)
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no RuntimeWarning escapes
        code, out, err = run(capsys, [*argv, "--config", cfg,
                                      "--direction=1e-200,0"])
        assert (code, out) == (2, "")
        assert err == ("config error: --direction: must not be zero "
                       "(its squared length underflows)\n")
        code, out, err = run(capsys, [*argv, "--config", cfg,
                                      "--direction=1e200,0"])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "not finite" in err


@pytest.mark.parametrize("argv", [
    ["check-norm"],
    ["curvature", "--direction", "1,0"],
    ["ricci-grid", "--grid", "8"],
    ["audit", "hyper", "--grid", "8"],
])
def test_infinite_expression_literal_exits_two(tmp_path, capsys, argv):
    # 1e999 parses to inf: refused where it is written, before any jet
    # turns it into NaN
    norm = {"kind": "expression", "dim": 3,
            "text": "(y1^2 + y2^2 + y3^2) / 2 + 1e999 * y1^4 / (y1^2 + y2^2)"}
    check_norm = argv == ["check-norm"]
    cfg = write(tmp_path, "c.json", norm if check_norm else
                {"norm": norm, "germ": PARABOLOID["germ"]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no RuntimeWarning escapes
        code, out, err = run(capsys, [*argv, "--config", cfg])
    assert (code, out) == (2, "")
    pointer = "/text" if check_norm else "/norm/text"
    assert err == (f"config error: {pointer}: number is not finite "
                   "(at position 27)\n")


@pytest.mark.parametrize("direction, code, error", [
    ("1e150,0", 1, "error: Rik is not finite at this direction\n"),
    ("1e100,1e100", 0, ""),
])
def test_overflowing_direction_names_the_non_finite_field(
        tmp_path, capsys, direction, code, error):
    cfg = write(tmp_path, "c.json", RANDERS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no RuntimeWarning escapes
        got, out, err = run(capsys, ["curvature", "--config", cfg,
                                     f"--direction={direction}"])
    assert (got, err) == (code, error)
    assert (out == "") == (code == 1)


def _overflowing_config(p):
    # finite entries, but R^i_k overflows wherever u2 is not tiny: on the
    # 8-angle grid direction 0 (e1) is finite and direction 1 is not
    d2 = np.zeros((p, 2, 2))
    d2[0] = np.eye(2)
    d2[-1, 1, 1] = 1e160
    return {"norm": {"kind": "euclidean", "dim": 2 + p},
            "germ": {"n": 2, "p": p, "d2": d2.tolist(),
                     "d3": np.zeros((p, 2, 2, 2)).tolist()}}


@pytest.mark.parametrize("argv, p", [
    (["ricci-grid"], 1),
    (["audit", "hyper"], 1),
    (["audit", "codim2"], 2),
])
def test_grid_commands_name_the_non_finite_field(tmp_path, capsys, argv, p):
    cfg = write(tmp_path, "c.json", _overflowing_config(p))
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no RuntimeWarning escapes
        code, out, err = run(capsys, [*argv, "--config", cfg, "--grid", "8"])
    assert (code, out) == (1, "")
    assert err == "error: Rik is not finite at direction 1\n"


def test_audit_ruled_names_the_non_finite_field(tmp_path, capsys):
    # kappa(e1) and the cubic vanish, so e1 is a ruling, but f(e1, .) =
    # (0, 1e160) overflows R^i_k at e1
    cfg = write(tmp_path, "c.json", {
        "norm": {"kind": "euclidean", "dim": 3},
        "germ": {"n": 2, "p": 1, "d2": [[[0.0, 1e160], [1e160, 0.0]]],
                 "d3": np.zeros((1, 2, 2, 2)).tolist()}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no RuntimeWarning escapes
        code, out, err = run(capsys, ["audit", "ruled", "--config", cfg,
                                      "--direction", "1,0"])
    assert (code, out) == (1, "")
    assert err == "error: Rik is not finite at this direction\n"


@pytest.mark.parametrize("direction, code, error", [
    ("1e150,0", 1, "error: cubic contraction scale is not finite: inf\n"),
    ("1e200,0", 1, "error: kappa(u) scale is not finite: inf\n"),
    ("1e100,0", 0, ""),
])
def test_audit_ruled_rejects_an_overflowing_direction(
        tmp_path, capsys, direction, code, error):
    # ruled along e1 (kappa and the cubic vanish there) with a nonzero d3,
    # so |u|^3 overflows the cubic check's scale before anything else
    d3 = 0.1 * np.ones((1, 2, 2, 2))
    d3[0, 0, 0, 0] = 0.0
    cfg = write(tmp_path, "c.json",
                {"norm": {"kind": "euclidean", "dim": 3},
                 "germ": {"n": 2, "p": 1, "d2": [[[0.0, 0.0], [0.0, 1.0]]],
                          "d3": d3.tolist()}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = run(capsys, ["audit", "ruled", "--config", cfg,
                                     f"--direction={direction}"])
    assert (got, err) == (code, error)
    if code == 0:
        assert json.loads(out)["verdict"] == "CONSISTENT"


def _kernel4_germ():
    # n = 4, p = 3: e1 is the common kernel, and the members near +-e1 of
    # the normal sphere are definite on its complement
    d2 = np.zeros((3, 4, 4))
    d2[0] = -np.diag(np.arange(4.0))
    d2[1, 1, 2] = d2[1, 2, 1] = 0.5
    d2[2, 2, 3] = d2[2, 3, 2] = -0.5
    d2[2, 1, 1] = 0.25
    return {"n": 4, "p": 3, "d2": d2.tolist(),
            "d3": np.zeros((3, 4, 4, 4)).tolist()}


def _type3_zero_config():
    pen = build_canonical(CanonicalData(l=0, n=(), s=3))
    rng = np.random.default_rng(0)
    return {"A1": pen.A1.tolist(), "A2": pen.A2.tolist(),
            "psi1": rng.uniform(-1, 1, (6, 6, 6)).tolist(),
            "psi2": rng.uniform(-1, 1, (6, 6, 6)).tolist()}


# an expression norm mixing folded polynomial pieces with sqrt, a negative
# power and a degree-6 term
MIXED = {"norm": {"kind": "expression", "dim": 3,
                  "text": "(y1^2 + 2*y2^2 + y3^2) / 2 + (sqrt(y1^2 + y2^2 "
                          "+ y3^2) + y3/5)^2 / 8 + y1^6 * (y1^2 + y2^2 "
                          "+ y3^2)^-2 / 20"},
         "germ": SURFACE}
# a hyperbolic pair next to the real direction (1, 0)
PENCIL3 = {"A1": np.diag([1.0, -1.0, 1.0]).tolist(),
           "A2": [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]}
# name -> (argv without the config flag, config, exit code, the CSV's row
# count or the values the JSON report must hold)
CORPUS = {
    # 300 directions cross batch-block boundaries (jets.BATCH_BLOCK)
    "ricci-grid-codim2-blocks": (["ricci-grid", "--grid", "300"],
                                 {"norm": RANDERS4, "germ": SURFACE2}, 0, 300),
    "ricci-grid-expression-codim2-blocks": (
        ["ricci-grid", "--grid", "300"],
        {"norm": EXPRESSION4, "germ": SURFACE2}, 0, 300),
    "check-norm-example4-off-axis-cone": (
        ["check-norm", "--grid", "200", "--min-axis-fraction", "0.5"],
        EXAMPLE4, 0, {"valid": True}),
    "check-norm-mixed": (["check-norm"], MIXED["norm"], 0, {"valid": True}),
    "curvature-mixed": (["curvature", "--direction", "1,0.5"], MIXED, 0, {}),
    "ricci-grid-mixed": (["ricci-grid", "--grid", "64"], MIXED, 0, 64),
    # no sampled member is definite: all 10^4 normals count
    "invariants-codim3-whole-table": (["invariants", "--seed", "5"], CODIM3,
                                      0, {"type": [1, 1],
                                          "typeExact": False}),
    # a member of the first normals is definite off the kernel
    "invariants-kernel4-witness": (["invariants", "--seed", "5"],
                                   _kernel4_germ(), 0,
                                   {"type": [0, 0], "typeExact": False,
                                    "mu": 1}),
    # definite members only where |xi3| / 200 > |(xi1, xi2)|: sampled
    # normals miss them, the closed form does not
    "invariants-thin-cone": (["invariants"], {
        "n": 2, "p": 3,
        "d2": [[[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [1.0, 0.0]],
               (0.005 * np.eye(2)).tolist()],
        "d3": np.zeros((3, 2, 2, 2)).tolist()},
        0, {"type": 0, "typeExact": True}),
    "pencil-type-3x3": (["pencil", "type"], PENCIL3, 0, {"type": 1}),
    "pencil-classify-3x3": (["pencil", "classify"], PENCIL3, 0, {
        "type": 1, "genericity": {"method": "spectral"},
        "canonical": {"l": 1, "n": [1], "s": 1}}),
    "pencil-common-zero-type3": (["pencil", "common-zero"],
                                 _type3_zero_config(), 0, {"found": True}),
}


def _part(report, want):
    """The entries of ``report`` that ``want`` names, nested dicts alike."""
    if isinstance(want, dict):
        return {k: _part(report[k], v) for k, v in want.items()}
    return report


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_exits_and_prints_strictly(tmp_path, capsys, name):
    argv, config, expected_code, expected = CORPUS[name]
    flag = "--file" if argv[0] == "pencil" else "--config"
    cfg = write(tmp_path, "c.json", config)
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no RuntimeWarning escapes
        code, out, err = run(capsys, [*argv, flag, cfg])
    assert (code, err) == (expected_code, "")
    if argv[0] == "ricci-grid":
        assert strict_csv_rows(out) == expected
    else:
        assert _part(strict_json(out), expected) == expected


@pytest.mark.parametrize("argv", [["ricci-grid", "--grid", "4"],
                                  ["audit", "hyper", "--grid", "8"]])
def test_grid_commands_name_a_non_finite_first_direction(tmp_path, capsys,
                                                         argv):
    # R^i_k overflows wherever u1 is not tiny, so at direction 0 (e1)
    cfg = write(tmp_path, "c.json", {
        "norm": {"kind": "euclidean", "dim": 3},
        "germ": {"n": 2, "p": 1, "d2": [[[1e160, 0.0], [0.0, 1.0]]],
                 "d3": np.zeros((1, 2, 2, 2)).tolist()}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no RuntimeWarning escapes
        code, out, err = run(capsys, [*argv, "--config", cfg])
    assert (code, out) == (1, "")
    assert err == "error: Rik is not finite at direction 0\n"


def test_json_output_is_strict():
    with pytest.raises(ValueError):
        cli._emit_json({"Ric": float("nan")})


def test_a_non_finite_report_field_exits_one(tmp_path, capsys, monkeypatch):
    # main encodes the report inside its error mapping: nothing is printed
    monkeypatch.setattr(cli, "_cmd_pencil_type",
                        lambda args: ({"type": float("inf")}, True))
    cfg = write(tmp_path, "p.json", {"A1": np.eye(2).tolist(),
                                     "A2": np.eye(2).tolist()})
    out_file = tmp_path / "out.json"
    code, out, err = run(capsys, ["pencil", "type", "--file", cfg,
                                  "--out", str(out_file)])
    assert (code, out) == (1, "") and not out_file.exists()
    assert err == ("error: Out of range float values are not JSON "
                   "compliant: inf\n")


def test_invariants_seed_reaches_the_sampler(tmp_path, capsys):
    d2 = [[[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 0.5]],
          [[0.0, 1.0, 0.0], [1.0, 0.0, 0.5], [0.0, 0.5, 0.0]],
          [[2.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, -1.0]]]
    germ = {"n": 3, "p": 3, "d2": d2, "d3": np.zeros((3, 3, 3, 3)).tolist()}
    cfg = write(tmp_path, "g.json", germ)
    code, out, _ = run(capsys, ["invariants", "--config", cfg,
                                "--seed", "5"])
    assert code == 0
    rep = json.loads(out)
    expected = point_invariants(cli.germ_from_config(germ, ""),
                                seed=5).to_dict()
    assert rep["seed"] == 5
    assert {k: rep[k] for k in expected} == expected


def test_audit_ruled_seed_reaches_the_sampler(tmp_path, capsys,
                                              monkeypatch):
    # p = 3 germ ruled along e1: kappa(e1) = 0 and the cubic vanishes
    d2 = np.zeros((3, 3, 3))
    d2[:, 1:, 1:] = [[[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [1.0, 0.0]],
                     [[2.0, 0.5], [0.5, 1.0]]]
    germ = {"n": 3, "p": 3, "d2": d2.tolist(),
            "d3": np.zeros((3, 3, 3, 3)).tolist()}
    cfg = write(tmp_path, "c.json",
                {"norm": {"kind": "euclidean", "dim": 6}, "germ": germ})
    seeds = []
    real = inv.point_type

    def spy(germ, seed=0):
        seeds.append(seed)
        return real(germ, seed)

    monkeypatch.setattr(inv, "point_type", spy)
    code, out, _ = run(capsys, ["audit", "ruled", "--config", cfg,
                                "--direction", "1,0,0", "--seed", "5"])
    assert code == 0
    rep = json.loads(out)
    assert seeds == [5] and rep["seed"] == 5
    germ = cli.germ_from_config(germ, "")
    assert rep["type"] == inv._type_json(real(germ, seed=5))


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, minksub.cli; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"

    # n = 3 direction grids need no scipy either
    cfg = write(tmp_path, "c.json",
                {"norm": {"kind": "euclidean", "dim": 4},
                 "germ": {"n": 3, "p": 1, "d2": np.eye(3)[None].tolist(),
                          "d3": np.zeros((1, 3, 3, 3)).tolist()}})
    script = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None  # every scipy import now fails
        from minksub.cli import main
        cfg = sys.argv[1]
        for argv in (["ricci-grid", "--config", cfg, "--grid", "64"],
                     ["audit", "hyper", "--config", cfg, "--grid", "64"]):
            if main(argv) != 0:
                sys.exit(f"{argv[0]} failed")
        """)
    proc = subprocess.run([sys.executable, "-c", script, cfg], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("\n") > 64
    assert '"verdict": "CONSISTENT"' in proc.stdout


def test_type_and_example_commands_leave_numpy_ma_unloaded(tmp_path):
    # np.unique's first call in a process imports numpy.ma: the sort and
    # neighbour mask that replace it keep a cold call from paying for that
    pen = build_canonical(CanonicalData(l=1, n=(2,), s=1))
    cfg = write(tmp_path, "p.json",
                {"A1": pen.A1.tolist(), "A2": pen.A2.tolist()})
    script = textwrap.dedent("""
        import sys
        from minksub.cli import main
        cfg = sys.argv[1]
        for argv in (["pencil", "type", "--file", cfg],
                     ["pencil", "classify", "--file", cfg],
                     ["verify-example", "--auto"]):
            if main(argv) != 0:
                sys.exit(f"{argv[0]} failed")
        print("numpy.ma" in sys.modules)
        """)
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", script, cfg],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
