"""Golden CLI corpus: stdout of fixed commands must not change by a byte.

Each case runs ``minksub`` in-process on a config written from the table
below and compares stdout with ``tests/golden/<case>.out`` and the exit
code with the table.  After a deliberate output change, regenerate with

    PYTHONPATH=src python tests/test_golden.py

and list every changed file, with its reason, in the change log.
"""

import json
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
EXPRESSION = {"kind": "expression", "dim": 3,
              "text": "(y1^2 + 2*y2^2 + y3^2) / 2 + y1 * y2 / 4"}


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

# case -> (argv without the config flag, config, exit code)
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
    "pencil_common_zero": (["pencil", "common-zero"],
                           {"A1": [[1.0, 0, 0], [0, -1.0, 0], [0, 0, 0.0]],
                            "A2": [[0.0, 0, 0], [0, 1.0, 0], [0, 0, -1.0]],
                            "psi1": CUBIC.tolist()}, 0),
    "audit_hyper": (["audit", "hyper", "--grid", "64"],
                    {"norm": RANDERS4, "germ": HYPER3}, 0),
    "ricci_grid": (["ricci-grid", "--grid", "32"],
                   {"norm": RANDERS4, "germ": HYPER3}, 0),
}


def run_case(name, directory: Path):
    argv, config, code = CASES[name]
    path = directory / f"{name}.json"
    path.write_text(json.dumps(config))
    flag = "--file" if argv[0] == "pencil" else "--config"
    return code, [*argv, flag, str(path)]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path, capsys):
    expected_code, argv = run_case(name, tmp_path)
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == expected_code
    assert out == (GOLDEN / f"{name}.out").read_text()


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
