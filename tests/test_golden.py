"""Golden CLI corpus: stdout of fixed commands must not change by a byte.

Each case runs ``minksub`` in-process, on a config written from the table
below where it has one, and compares stdout with
``tests/golden/<case>.out`` and the exit code with the table; stdout must
also parse as strict JSON (no NaN or Infinity) or, for sweeps, strict CSV
(``strict_json``, ``strict_csv_rows``, which ``test_cli.py`` shares).
Every ``.out`` file has a case.  After a deliberate output change, regenerate
with

    PYTHONPATH=src python tests/test_golden.py

and list every changed file, with its reason, in the change log.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from minksub import cli
from minksub.pencil import CanonicalData, build_canonical

GOLDEN = Path(__file__).resolve().parent / "golden"

EXAMPLE4 = {"kind": "example4", "A": 10.0, "B": 10.0,
            "eps1": 0.1, "eps2": 0.1}
RANDERS3 = {"kind": "randers",
            "a": [[1.0, 0.1, 0.0], [0.1, 2.0, 0.0], [0.0, 0.0, 1.5]],
            "b": [0.2, 0.0, -0.1]}
RANDERS4 = {"kind": "randers",
            "a": [[1.0, 0.1, 0.0, 0.0], [0.1, 2.0, 0.0, 0.2],
                  [0.0, 0.0, 1.5, 0.0], [0.0, 0.2, 0.0, 1.0]],
            "b": [0.1, -0.2, 0.0, 0.15]}
RANDERS5 = {"kind": "randers",
            "a": [[1.0, 0.1, 0.0, 0.0, 0.1], [0.1, 2.0, 0.0, 0.2, 0.0],
                  [0.0, 0.0, 1.5, 0.0, 0.0], [0.0, 0.2, 0.0, 1.0, -0.1],
                  [0.1, 0.0, 0.0, -0.1, 1.2]],
            "b": [0.1, -0.2, 0.0, 0.15, 0.1]}
EXPRESSION = {"kind": "expression", "dim": 3,
              "text": "(y1^2 + 2*y2^2 + y3^2) / 2 + y1 * y2 / 4"}
# dim 4 with a quartic/rational term in the tangent variables only
EXPRESSION4 = {"kind": "expression", "dim": 4,
               "text": "(y1^2 + 2*y2^2 + y3^2 + y4^2) / 2 + y2 * y3 / 4"
                       " + y1^4 / (y1^2 + y2^2) / 10"}


def _germ(n, p, d2, d3=None):
    if d3 is None:
        d3 = np.zeros((p, n, n, n)).tolist()
    return {"n": n, "p": p, "d2": d2, "d3": d3}


SURFACE = _germ(2, 1, [[[2.0, 0.5], [0.5, -1.0]]],
                (0.1 * np.ones((1, 2, 2, 2))).tolist())
F12 = float(np.sqrt(1.001))
EXAMPLE_D3 = np.zeros((1, 2, 2, 2))
for _idx in ((0, 0, 1), (0, 1, 0), (1, 0, 0)):
    EXAMPLE_D3[0][_idx] = 100.0
EXAMPLE_D3[0, 1, 1, 1] = -100.0
EXAMPLE_SURFACE = _germ(2, 1, [[[1.0, F12], [F12, 1.0]]],
                        EXAMPLE_D3.tolist())
EXAMPLE_PARAMS = {"A": 10.0, "B": 10.0, "eps1": 0.1, "eps2": 0.1,
                  "eps3": 0.001, "C": 100.0}
SURFACE2 = _germ(2, 2, [[[2.0, 0.5], [0.5, -1.0]], [[0.0, 1.0], [1.0, 0.5]]],
                 (np.array([0.1, -0.05])[:, None, None, None]
                  * np.ones((2, 2, 2, 2))).tolist())
HYPER3 = _germ(3, 1, [[[1.0, 0.2, 0.0], [0.2, 2.0, 0.1], [0.0, 0.1, 0.5]]],
               (0.05 * np.ones((1, 3, 3, 3))).tolist())
CODIM2 = _germ(3, 2, [[[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, -1.0]],
                      [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]])
CODIM3 = _germ(3, 3, [[[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 0.5]],
                      [[0.0, 1.0, 0.0], [1.0, 0.0, 0.5], [0.0, 0.5, 0.0]],
                      [[2.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, -1.0]]])
CANONICAL = build_canonical(CanonicalData(l=2, n=(1, 2, 1), s=1))
# psi1 = x1^3 - x1 x2 x3 vanishes at four of the eight points where the
# quadrics meet the sphere (|x_i| = 1/sqrt(3) and x2 = x3)
CUBIC = np.zeros((3, 3, 3))
CUBIC[0, 0, 0] = 1.0
CUBIC[0, 1, 2] = -1.0

# case -> (argv without the config flag, config or None, exit code)
CASES = {
    "check_norm_euclidean": (["check-norm", "--grid", "200"],
                             {"kind": "euclidean", "dim": 3}, 0),
    "check_norm_randers": (["check-norm", "--grid", "200", "--seed", "3"],
                           RANDERS3, 0),
    "check_norm_example4": (["check-norm", "--grid", "200"], EXAMPLE4, 1),
    "check_norm_example4_cone": (["check-norm", "--grid", "200",
                                  "--min-axis-fraction", "0.1"],
                                 EXAMPLE4, 1),
    "check_norm_expression": (["check-norm", "--grid", "200"],
                              EXPRESSION, 0),
    "curvature_euclidean": (["curvature", "--direction", "1,0.5"],
                            {"norm": {"kind": "euclidean", "dim": 3},
                             "germ": SURFACE}, 0),
    "curvature_randers": (["curvature", "--direction", "0.3,1"],
                          {"norm": RANDERS3, "germ": SURFACE}, 0),
    "curvature_example4": (["curvature", "--direction", "1,0.2"],
                           {"norm": EXAMPLE4, "germ": EXAMPLE_SURFACE}, 0),
    # the one-row block at p = 2 and on an expression norm
    "curvature_codim2_n2": (["curvature", "--direction", "0.3,1"],
                            {"norm": RANDERS4, "germ": SURFACE2}, 0),
    "curvature_codim2_n3": (["curvature", "--direction", "1,0.5,-0.3"],
                            {"norm": RANDERS5, "germ": CODIM2}, 0),
    "curvature_expression": (["curvature", "--direction", "1,0.5"],
                             {"norm": EXPRESSION, "germ": SURFACE}, 0),
    "invariants_p1": (["invariants"], HYPER3, 0),
    "invariants_p2": (["invariants"], CODIM2, 0),
    "invariants_p2_sampled": (["invariants"],
                              _germ(2, 2, [[[1.0, 0.0], [0.0, 0.0]],
                                           [[0.0, 1.0], [1.0, 0.0]]]), 0),
    "invariants_p3": (["invariants"], CODIM3, 0),
    "pencil_type_spectral": (["pencil", "type"],
                             {"A1": [[2.0, 0.0], [0.0, -3.0]],
                              "A2": [[1.0, 0.5], [0.5, 1.0]]}, 0),
    "pencil_type_sampled": (["pencil", "type"],
                            {"A1": [[1.0, 0.0], [0.0, 0.0]],
                             "A2": [[0.0, 1.0], [1.0, 0.0]]}, 0),
    "pencil_classify": (["pencil", "classify"],
                        {"A1": CANONICAL.A1.tolist(),
                         "A2": CANONICAL.A2.tolist()}, 0),
    # a 2x2 Jordan block: sampled genericity, no spectral split
    "pencil_classify_jordan": (["pencil", "classify"],
                               {"A1": [[0.0, 0.0], [0.0, 1.0]],
                                "A2": [[0.0, 1.0], [1.0, 0.0]]}, 0),
    "pencil_common_zero": (["pencil", "common-zero"],
                           {"A1": [[1.0, 0, 0], [0, -1.0, 0], [0, 0, 0.0]],
                            "A2": [[0.0, 0, 0], [0, 1.0, 0], [0, 0, -1.0]],
                            "psi1": CUBIC.tolist()}, 0),
    "audit_hyper": (["audit", "hyper", "--grid", "64"],
                    {"norm": RANDERS4, "germ": HYPER3}, 0),
    "audit_codim2": (["audit", "codim2", "--grid", "64"],
                     {"norm": RANDERS5, "germ": CODIM2}, 0),
    # e1 is a ruling direction: kappa(e1) = 0 and the cubic vanishes
    "audit_ruled": (["audit", "ruled", "--direction", "1,0"],
                    {"norm": RANDERS3,
                     "germ": _germ(2, 1, [[[0.0, 1.0], [1.0, 0.5]]])}, 0),
    "verify_example": (["verify-example", "--grid", "360"],
                       EXAMPLE_PARAMS, 0),
    # step (b) fails: the closed-form minimum is negative
    "verify_example_failure": (["verify-example", "--grid", "360"],
                               {**EXAMPLE_PARAMS, "eps3": 0.1}, 1),
    # the seventh combination is the first to verify
    "find_params": (["find-params", "--budget", "7"], None, 0),
    "ricci_grid": (["ricci-grid", "--grid", "32"],
                   {"norm": RANDERS4, "germ": HYPER3}, 0),
    "ricci_grid_codim2": (["ricci-grid", "--grid", "24"],
                          {"norm": RANDERS4, "germ": SURFACE2}, 0),
    # 300 directions cross batch-block boundaries (jets.BATCH_BLOCK)
    "ricci_grid_blocks": (["ricci-grid", "--grid", "300"],
                          {"norm": RANDERS3, "germ": SURFACE}, 0),
    # the batch path of the families whose jets involve few variables per
    # product: example4 across block boundaries, an expression norm at p = 2
    "ricci_grid_example4": (["ricci-grid", "--grid", "300"],
                            {"norm": EXAMPLE4, "germ": EXAMPLE_SURFACE}, 0),
    "ricci_grid_expression_codim2": (["ricci-grid", "--grid", "40"],
                                     {"norm": EXPRESSION4, "germ": SURFACE2},
                                     0),
}


def strict_json(text: str):
    """The report, parsed with NaN and Infinity refused."""
    def refuse(constant):
        raise ValueError(f"non-finite JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


def strict_csv_rows(text: str) -> int:
    """The number of rows after the header; each must have the header's
    width and only finite numbers."""
    header, *rows = text.splitlines()
    width = len(header.split(","))
    for row in rows:
        cells = [float(c) for c in row.split(",")]
        assert len(cells) == width and all(map(math.isfinite, cells)), row
    return len(rows)


def run_case(name, directory: Path):
    argv, config, code = CASES[name]
    if config is None:
        return code, argv
    path = directory / f"{name}.json"
    path.write_text(json.dumps(config))
    flag = {"pencil": "--file",
            "verify-example": "--params"}.get(argv[0], "--config")
    return code, [*argv, flag, str(path)]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path, capsys):
    expected_code, argv = run_case(name, tmp_path)
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == expected_code
    assert out == (GOLDEN / f"{name}.out").read_text()
    if argv[0] == "ricci-grid":
        strict_csv_rows(out)
    else:
        strict_json(out)


def test_every_golden_file_has_a_case():
    assert sorted(path.stem for path in GOLDEN.glob("*.out")) == sorted(CASES)


def regenerate() -> None:
    import contextlib
    import io
    import tempfile
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            expected_code, argv = run_case(name, Path(tmp))
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            if code != expected_code:
                sys.exit(f"{name}: exit {code}, table says {expected_code}")
            (GOLDEN / f"{name}.out").write_text(buf.getvalue())
            print(f"wrote {name}.out")


if __name__ == "__main__":
    regenerate()
