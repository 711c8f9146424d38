"""A surface germ with positive flag curvature and negative Gauss determinant.

The norm is the built-in three-dimensional family

    H = A r^2 + eps1 z r sin(3 theta) + z^2 (B + eps2 cos(6 theta))

in cylindrical coordinates on (y1, y2); the surface germ has second jet
f11 = f22 = 1, f12 = sqrt(1 + eps3) (so f11 f22 - f12^2 = -eps3 < 0) and
third jet chosen so that f_ijk u^i u^j u^k = C u2 (3 u1^2 - u2^2).

For that configuration the Ricci curvature at the base point has a closed
form in three groups; the polynomials P, Q11, Q12, Q22 below are
transcribed verbatim and their correctness rests solely on agreement with
the general curvature pipeline.  The third group's printed source
contains a stray token in its final factor; it is implemented as the
second-fundamental-form contraction f11 u1^2 + 2 f12 u1 u2 + f22 u2^2,
and every report carries a note saying so.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product
from math import sqrt

import numpy as np

# ricci_expanded stays importable here for tracing wrappers (perfbench)
from .curvature import ricci_expanded, ricci_expanded_batch  # noqa: F401
from .germ import Germ
from .minkowski import NormModel, validate_norm

TRANSCRIPTION_NOTE = ("closed-form third group reads its final factor as the "
                      "second fundamental form f11 u1^2 + 2 f12 u1 u2 + "
                      "f22 u2^2 (printed source has a stray token there)")
REL_TOL = 1e-6
REFINE_HALF_WIDTH = 0.01
REFINE_POINTS = 50
GRID = 720              # uniform circle angles before refinement
MIN_GRID = 360


class NoParamsFound(RuntimeError):
    """Parameter search exhausted its budget without a SUCCESS verdict."""


@dataclass(frozen=True)
class ExampleParams:
    A: float
    B: float
    eps1: float
    eps2: float
    eps3: float
    C: float

    def __post_init__(self):    # the norm needs A, B > 0; f12 = sqrt(1 + eps3)
        for k, ok, rule in (("A", self.A > 0.0, "> 0"),
                            ("B", self.B > 0.0, "> 0"),
                            ("eps3", self.eps3 >= -1.0, ">= -1")):
            if not ok:
                raise ValueError(f"{k}: must be {rule}, got {vars(self)[k]}")

    def to_dict(self) -> dict:
        return {"A": self.A, "B": self.B, "eps1": self.eps1,
                "eps2": self.eps2, "eps3": self.eps3, "C": self.C}


def build_example(params: ExampleParams):
    """Norm model and surface germ with the stated jets."""
    norm = NormModel.example4(params.A, params.B, params.eps1, params.eps2)
    f12 = sqrt(1.0 + params.eps3)
    d2 = np.array([[[1.0, f12], [f12, 1.0]]])
    d3 = np.zeros((1, 2, 2, 2))
    for idx in ((0, 0, 1), (0, 1, 0), (1, 0, 0)):
        d3[0][idx] = params.C
    d3[0, 1, 1, 1] = -params.C
    return norm, Germ.make(2, 1, d2, d3)


def _ric_closed_arrays(params: ExampleParams, u1, u2):
    """Vectorized closed form; returns (ric, term1, term2, term3)."""
    A, B, e1, e2, e3, C = (params.A, params.B, params.eps1, params.eps2,
                           params.eps3, params.C)
    f11 = f22 = 1.0
    f12 = sqrt(1.0 + e3)
    u1 = np.asarray(u1, dtype=np.float64)
    u2 = np.asarray(u2, dtype=np.float64)
    p2, q2 = u1 * u1, u2 * u2
    r2 = p2 + q2
    r4 = r2 * r2
    r8 = r4 * r4
    cubic_factor = u2 * (3.0 * p2 - q2)
    fuuu = C * cubic_factor
    kappa = f11 * p2 + 2.0 * f12 * u1 * u2 + f22 * q2
    det = f11 * f22 - f12 ** 2

    term1 = 2.0 * e1 * cubic_factor / (A * r4) * fuuu

    P = ((4 * A * B + 4 * A * e2 - 9 * e1 ** 2) * p2 ** 3
         + 3.0 * (4 * A * B - 20 * A * e2 + 15 * e1 ** 2) * p2 ** 2 * q2
         + 3.0 * (4 * A * B + 20 * A * e2 - 25 * e1 ** 2) * p2 * q2 ** 2
         + (4 * A * B - 4 * A * e2 - e1 ** 2) * q2 ** 3)
    term2 = P / (4.0 * A ** 2 * r4) * det

    Q11 = 6.0 * p2 * ((3 * A * e2 - 3 * e1 ** 2) * p2 ** 3
                      + (33 * e1 ** 2 - 51 * A * e2) * p2 ** 2 * q2
                      + (65 * A * e2 - 65 * e1 ** 2) * p2 * q2 ** 2
                      + (11 * e1 ** 2 - 9 * A * e2) * q2 ** 3)
    Q22 = 3.0 * q2 * ((18 * A * e2 - 27 * e1 ** 2) * p2 ** 3
                      + (115 * e1 ** 2 - 130 * A * e2) * p2 ** 2 * q2
                      + (102 * A * e2 - 81 * e1 ** 2) * p2 * q2 ** 2
                      + (e1 ** 2 - 6 * A * e2) * q2 ** 3)
    Q12 = 3.0 * u1 * u2 * ((24 * A * e2 - 33 * e1 ** 2) * p2 ** 3
                           + (181 * e1 ** 2 - 232 * A * e2) * p2 ** 2 * q2
                           + (232 * A * e2 - 211 * e1 ** 2) * p2 * q2 ** 2
                           + (23 * e1 ** 2 - 24 * A * e2) * q2 ** 3)
    term3 = (Q11 * f11 + Q12 * f12 + Q22 * f22) / (A ** 2 * r8) * kappa

    return term1 + term2 + term3, term1, term2, term3


def ric_closed_form(params: ExampleParams, u) -> tuple:
    """Closed-form Ricci curvature at direction u: (Ric, term1, term2, term3)."""
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (2,) or not np.any(u):
        raise ValueError("direction must be a nonzero 2-vector")
    ric, t1, t2, t3 = _ric_closed_arrays(params, u[0], u[1])
    return float(ric), float(t1), float(t2), float(t3)


@dataclass(frozen=True)
class ExampleReport:
    params: ExampleParams
    gauss_det: float
    gauss_det_float_residual: float
    min_ric: float | None
    argmin_angle: float | None
    max_rel_discrepancy: float | None
    argmax_angle: float | None
    norm_valid: bool | None
    verdict: str
    notes: tuple
    angles: np.ndarray | None = None
    ric_closed: np.ndarray | None = None
    ric_pipeline: np.ndarray | None = None

    def to_dict(self) -> dict:
        return {"params": self.params.to_dict(),
                "gaussDet": self.gauss_det,
                "gaussDetFloatResidual": self.gauss_det_float_residual,
                "minRic": self.min_ric,
                "argminAngle": self.argmin_angle,
                "maxRelDiscrepancy": self.max_rel_discrepancy,
                "argmaxAngle": self.argmax_angle,
                "normValid": self.norm_valid,
                "verdict": self.verdict,
                "notes": list(self.notes)}

    def csv_text(self) -> str:
        if self.angles is None or self.ric_pipeline is None:
            return ""
        lines = ["angle,ricClosed,ricPipeline"]
        for th, rc, rp in zip(self.angles, self.ric_closed,
                              self.ric_pipeline):
            lines.append(f"{float(th)!r},{float(rc)!r},{float(rp)!r}")
        return "\n".join(lines) + "\n"


def _grid_angles(grid: int) -> np.ndarray:
    """Uniform circle grid refined around the six rays where the cubic
    group vanishes (sin(3 theta) = 0)."""
    base = np.arange(grid) * (2.0 * np.pi / grid)
    windows = [np.linspace(k * np.pi / 3.0 - REFINE_HALF_WIDTH,
                           k * np.pi / 3.0 + REFINE_HALF_WIDTH,
                           REFINE_POINTS) for k in range(6)]
    return np.unique(np.concatenate([base] + windows) % (2.0 * np.pi))


def verify_example(params: ExampleParams, grid: int = GRID,
                   seed: int = 0) -> ExampleReport:
    """Check the four claims about the example configuration.

    (a) the Gauss determinant is -eps3 (exact algebra: f12 is defined by
        f12^2 = 1 + eps3, so f11 f22 - f12^2 = -eps3 on the stated jets);
    (b) the closed-form Ricci curvature is positive on the refined grid;
    (c) the closed form agrees with the curvature pipeline at every grid
        angle to relative 1e-6;
    (d) the norm passes validation away from its singular axis, on
        directions sampled from ``seed``.
    Later steps are skipped once an earlier one fails; skipped fields stay
    None and the notes say which condition failed.
    """
    if grid < MIN_GRID:
        raise ValueError(f"grid must be at least {MIN_GRID}")
    notes = [TRANSCRIPTION_NOTE]
    norm, germ = build_example(params)

    gauss_det = -params.eps3
    d2 = germ.d2[0]
    float_det = d2[0, 0] * d2[1, 1] - d2[0, 1] * d2[1, 0]
    det_residual = abs(float_det - gauss_det)
    ok_a = gauss_det < 0.0
    if not ok_a:
        notes.append(f"Gauss determinant {gauss_det!r} is not negative")

    angles = _grid_angles(grid)
    u1, u2 = np.cos(angles), np.sin(angles)
    closed, _, _, _ = _ric_closed_arrays(params, u1, u2)
    k_min = int(np.argmin(closed))
    min_ric = float(closed[k_min])
    argmin_angle = float(angles[k_min])
    ok_b = ok_a and min_ric > 0.0
    if ok_a and not ok_b:
        notes.append(f"closed-form Ricci minimum {min_ric!r} at angle "
                     f"{argmin_angle!r} is not positive")

    norm_valid = None
    if ok_b:
        report = validate_norm(norm, seed=seed, min_axis_fraction=0.5)
        norm_valid = report.valid
        if not norm_valid:
            notes.append("norm validation failed off-axis: "
                         + "; ".join(report.notes))
    ok_d = bool(norm_valid)

    max_rel = None
    argmax_angle = None
    pipeline = None
    if ok_b and ok_d:
        pipeline = ricci_expanded_batch(norm, germ,
                                        np.stack([u1, u2], axis=1),
                                        ric_only=True).Ric
        rel = np.abs(closed - pipeline) / (1.0 +
                                           np.maximum(np.abs(closed),
                                                      np.abs(pipeline)))
        k_max = int(np.argmax(rel))
        max_rel = float(rel[k_max])
        argmax_angle = float(angles[k_max])
        if max_rel > REL_TOL:
            notes.append(f"closed form and pipeline disagree: relative "
                         f"discrepancy {max_rel!r} at angle {argmax_angle!r}")

    success = (ok_a and ok_b and ok_d
               and max_rel is not None and max_rel <= REL_TOL)
    return ExampleReport(params=params, gauss_det=gauss_det,
                         gauss_det_float_residual=det_residual,
                         min_ric=min_ric if ok_a else None,
                         argmin_angle=argmin_angle if ok_a else None,
                         max_rel_discrepancy=max_rel,
                         argmax_angle=argmax_angle,
                         norm_valid=norm_valid,
                         verdict="SUCCESS" if success else "FAILURE",
                         notes=tuple(notes),
                         angles=angles,
                         ric_closed=closed,
                         ric_pipeline=pipeline)


SEARCH_GRID = {
    "A": (10.0, 100.0, 1000.0),
    "B": (10.0, 100.0, 1000.0),
    "eps1": (0.1, 0.01, 0.001),
    "eps2": (0.1, 0.01, 0.001),
    "eps3": (0.1, 0.01, 0.001),
    "C": (100.0, 1000.0, 10000.0),
}
SEARCH_BUDGET = 729  # the whole grid


def find_example_params(search_budget: int = SEARCH_BUDGET,
                        grid: int = GRID, seed: int = 0) -> ExampleParams:
    """First parameter combination on the logarithmic grid that verifies.

    Iterates the grid in fixed lexicographic order (A, B, eps1, eps2,
    eps3, C), so the result is a pure function of the budget, grid and
    seed.
    """
    if search_budget < 1:
        raise ValueError("search budget must be positive")
    combos = list(islice(product(*SEARCH_GRID.values()), search_budget))
    for A, B, e1, e2, e3, C in combos:
        params = ExampleParams(A=A, B=B, eps1=e1, eps2=e2, eps3=e3, C=C)
        if verify_example(params, grid=grid, seed=seed).verdict == "SUCCESS":
            return params
    raise NoParamsFound(f"no parameters verified within {len(combos)} "
                        "combinations")
