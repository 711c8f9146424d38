"""Minkowski norm models on R^dim.

Everything downstream consumes a norm through one entry point, ``jet``:
the Taylor jet of H = F^2/2 about a base direction, to the order the
caller reads (1 for the value H, 2 for Hessians, 4 for the expanded Ricci
formula), served by one function per model (see :class:`NormModel`).
Four constructors provide the families:

* ``euclidean``:   H(y) = |y|^2 / 2.
* ``randers``:     F(y) = sqrt(y.a.y) + b.y with a symmetric positive
                   definite and the covector b shorter than 1 in the
                   a-inverse norm, H = F^2/2.
* ``example4``:    the bundled four-parameter family on R^3,

                       H = A (y1^2 + y2^2)
                         + e1 y3 (3 y2 y1^2 - y2^3) / (y1^2 + y2^2)
                         + y3^2 (B + e2 (y1^6 - 15 y1^4 y2^2
                                  + 15 y1^2 y2^4 - y2^6) / (y1^2 + y2^2)^3),

                   smooth and positively homogeneous of degree 2 away from
                   the y3-axis, where the rational terms have no limit.
* ``expression``:  any tree accepted by :mod:`minksub.norm_expr`.

Each family is a module-level function of its parameters and of the
jet's base, order and normal cap.  Its polynomial pieces take one Taylor
shift about the base (:class:`minksub.jets.Polynomials`):

* euclidean:  H itself;
* randers:    (a(y,y) + b(y)^2)/2, a(y,y) and b(y);
* example4:   P0 = A r2 + B y3^2, P1 = e1 y3 (3 y1^2 y2 - y2^3), y3^2,
              r2 = y1^2 + y2^2, c = y1^2 - y2^2 and d = 2 y1 y2, with
              H = P0 + P1 w + e2 y3^2 c (c^2 - 3 d^2) w^3 for w = 1/r2,
              since c (c^2 - 3 d^2) = Re (y1 + i y2)^6;
* expression: its folded subtrees.

Only sqrt, division, powers and products above them take ring ops; of the
families, only expression builds coordinate jets.  The order-1 jet is the
order-4 jet's prefix, so jet(y, 1).value == jet(y).value.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .germ import sym_matrix
from .jets import BATCH_BLOCK, MAX_ORDER, Jet4, Polynomials, check_dim, form
from .norm_expr import evaluate, fold, parse_norm

AXIS_EXCLUSION = 1e-12  # excluded when off-axis |y|^2 < AXIS_EXCLUSION*|y|^2

EULER_TOL = 1e-9
VALIDATION_SAMPLES = 2000
MAX_DRAWS_PER_SAMPLE = 1000  # rejection-sampler draws allowed per direction


class SingularDirection(ValueError):
    """The norm is not smooth (or not defined) along the requested direction."""


class ConeTooNarrow(ValueError):
    """The cone of ``min_axis_fraction`` is too narrow to sample."""


def _polynomial_h(pieces, base, order, normal):
    return pieces.jet(base, order, normal)[0]


def _randers_h(pieces, base, order, normal):
    # H = (a(y,y) + b(y)^2)/2 + sqrt(a(y,y)) b(y), its three polynomials
    # jetted by one Taylor shift
    q, a, b = pieces.jet(base, order, normal)
    return q + a.sqrt() * b


def _example4_h(eps2, pieces, base, order, normal):
    # H = P0 + P1 w + y3^2 eps2 c (c^2 - 3 d^2) w^3 with w = 1/r2: c + i d =
    # (y1 + i y2)^2, so c (c^2 - 3 d^2) = Re (y1 + i y2)^6
    p0, p1, s3, r2, c, d = pieces.jet(base, order, normal)
    w = r2.reciprocal()
    return p0 + p1 * w + s3 * (c * (c * c - d * d * 3.0) * w ** 3) * eps2


def _expression_h(tree, folded, base, order, normal):
    # looks ``evaluate`` up per call, so a wrapped evaluate is honoured
    nodes, pieces = folded
    ys = Jet4.variables(pieces.dim, base, order, normal)
    return evaluate(tree, ys, (nodes, pieces.jet(base, order, normal)))


@dataclass(frozen=True)
class NormModel:
    """A Minkowski norm: ``h(base, order, normal)`` is the jet of H = F^2/2
    that :meth:`jet` returns (a family function bound to its parameters
    with :func:`functools.partial`, so models pickle).
    ``config`` rebuilds the model; ``excluded_axis``, set by the example
    family only, indexes the coordinate axis along which H is singular.
    """

    kind: str
    dim: int
    h: Callable = field(repr=False, compare=False)
    config: dict = field(repr=False, hash=False)
    excluded_axis: int | None = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def euclidean(dim: int) -> "NormModel":
        if dim < 1:
            raise ValueError("dimension must be positive")
        check_dim(dim)      # before np.eye(dim) asks for dim^2 floats
        pieces = Polynomials(dim, form(0.5 * np.eye(dim), np.zeros(dim)))
        return NormModel("euclidean", dim, partial(_polynomial_h, pieces),
                         {"kind": "euclidean", "dim": dim})

    @staticmethod
    def randers(a, b) -> "NormModel":
        a = sym_matrix(a, "a")
        b = np.asarray(b, dtype=np.float64)
        dim = a.shape[0]
        if dim < 1 or b.shape != (dim,):
            raise ValueError("a must be (dim, dim) and b (dim,), dim >= 1")
        if not np.isfinite(b).all():
            raise ValueError("b has non-finite entries")
        evals = np.linalg.eigvalsh(a)
        if evals[0] <= 0.0:
            raise ValueError("a must be positive definite")
        bnorm = float(np.sqrt(b @ np.linalg.solve(a, b)))
        if bnorm >= 1.0:
            raise ValueError(f"drift covector too long: |b|_a = {bnorm:.6g} >= 1")
        zero = np.zeros(dim)
        pieces = Polynomials(dim, [form(0.5 * (a + np.outer(b, b)), zero),
                                   form(a, zero), form(0.0 * a, b)])
        return NormModel("randers", dim, partial(_randers_h, pieces),
                         {"kind": "randers", "a": a.tolist(),
                          "b": b.tolist()})

    @staticmethod
    def example4(A: float, B: float, eps1: float, eps2: float) -> "NormModel":
        A, B, eps1, eps2 = float(A), float(B), float(eps1), float(eps2)
        if not np.isfinite([A, B, eps1, eps2]).all():
            raise ValueError("A, B, eps1 and eps2 must be finite")
        if A <= 0.0 or B <= 0.0:
            raise ValueError("A and B must be positive")
        y1, y2, y3 = Jet4.variables(3, np.zeros(3))  # jets about 0: the
        r2, s3 = y1 * y1 + y2 * y2, y3 * y3          # polynomials themselves
        pieces = Polynomials(3, [
            (r2 * A + s3 * B).coeffs,
            ((y1 * y1 * 3.0 - y2 * y2) * y2 * y3 * eps1).coeffs,
            s3.coeffs, r2.coeffs, (y1 * y1 - y2 * y2).coeffs,
            (y1 * y2 * 2.0).coeffs])
        return NormModel("example4", 3, partial(_example4_h, eps2, pieces),
                         {"kind": "example4", "A": A, "B": B,
                          "eps1": eps1, "eps2": eps2}, excluded_axis=2)

    @staticmethod
    def expression(text: str, dim: int) -> "NormModel":
        check_dim(dim)      # before fold allocates per variable
        tree = parse_norm(text, dim)
        return NormModel("expression", dim,
                         partial(_expression_h, tree, fold(tree, dim)),
                         {"kind": "expression", "dim": dim, "text": text})

    # -- evaluation --------------------------------------------------------

    def jet(self, base, order: int = MAX_ORDER, row: int = 0,
            normal: int = 0) -> Jet4:
        """Jet of H of ``order`` about admissible ``base`` (dim,), or about
        each row of (B, dim), whose errors number row k as ``row`` + k; each
        coefficient is bit for bit the order-4 jet's, but ``normal`` = p
        leaves those of degree > 2 in the last p variables uncomputed, 0.0."""
        base = np.asarray(base, dtype=np.float64)
        self.check_admissible(base, row if base.ndim == 2 else None)
        return self.h(base, order, normal)

    # -- admissibility -----------------------------------------------------

    def _off_axis_sq(self, y):
        """Sum of the squared entries off the excluded axis, per row."""
        return np.delete(y * y, self.excluded_axis, -1).sum(-1)

    def check_admissible(self, y, row: int | None = None) -> None:
        """Raise SingularDirection where H is not smooth: at y (dim,) or,
        given ``row``, at the first bad row k of y (B, dim) as row + k."""
        y = np.asarray(y, dtype=np.float64)
        Y = y if y.ndim == 2 and row is not None else y[None]
        if Y.ndim != 2 or Y.shape[1] != self.dim:
            raise ValueError(f"direction must have shape ({self.dim},)")
        sq = (Y[:, None] @ Y[:, :, None])[:, 0, 0]   # per row BLAS's y @ y
        bad = sq == 0.0
        if self.excluded_axis is not None:
            bad |= self._off_axis_sq(Y) < AXIS_EXCLUSION * sq
        if bad.any():
            k = int(np.argmax(bad))
            where = "" if row is None else f" (batch row {row + k})"
            if sq[k] == 0.0:
                raise SingularDirection("zero direction" + where)
            raise SingularDirection(
                f"direction lies on the excluded y{self.excluded_axis + 1}"
                "-axis of the norm" + where)

    def to_config(self) -> dict:
        return copy.deepcopy(self.config)


# -- validation --------------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    samples: int
    seed: int
    max_euler_degree_residual: float
    max_euler_gradient_residual: float
    min_hessian_eigenvalue: float
    argmin_direction: np.ndarray
    min_axis_fraction: float
    notes: tuple

    def to_dict(self) -> dict:
        return {
            "valid": bool(self.valid),
            "samples": self.samples,
            "seed": self.seed,
            "maxEulerDegreeResidual": self.max_euler_degree_residual,
            "maxEulerGradientResidual": self.max_euler_gradient_residual,
            "minHessianEigenvalue": self.min_hessian_eigenvalue,
            "argminDirection": [float(v) for v in self.argmin_direction],
            "minAxisFraction": self.min_axis_fraction,
            "eulerTolerance": EULER_TOL,
            "notes": list(self.notes),
        }


def _sample_directions(model: NormModel, samples: int, rng,
                       min_axis_fraction: float) -> np.ndarray:
    """Rejection-sample unit directions, one normal vector per draw, in
    blocks of ``samples`` draws; each row is normalised and tested as a
    one-draw-at-a-time loop would, and rng ends where that loop leaves it."""
    out = np.empty((samples, model.dim))
    floor = max(AXIS_EXCLUSION, min_axis_fraction ** 2)
    count = draws = 0
    while count < samples:
        if draws == MAX_DRAWS_PER_SAMPLE * samples:
            raise ConeTooNarrow(f"min_axis_fraction {min_axis_fraction!r}: "
                                f"{count}/{samples} directions in {draws} draws")
        state = rng.bit_generator.state
        Y = rng.standard_normal((samples, model.dim))
        draws += samples
        norm = np.sqrt((Y[:, None] @ Y[:, :, None])[:, 0, 0])  # linalg.norm
        Y /= np.maximum(norm, 1e-8)[:, None]
        keep = norm >= 1e-8
        if model.excluded_axis is not None:
            keep &= model._off_axis_sq(Y) >= floor
        take = np.flatnonzero(keep)[:samples - count]
        out[count:count + len(take)] = Y[take]
        count += len(take)
        if count == samples:  # redraw only what the loop would draw
            rng.bit_generator.state = state
            rng.standard_normal((take[-1] + 1, model.dim))
    return out


def _near_ray_probes(model: NormModel, count: int, rng) -> np.ndarray:
    """Points approaching both rays of the excluded axis of a norm on R^3,
    log-spaced in angular distance."""
    axis = model.excluded_axis
    if axis is None or count == 0:
        return np.zeros((0, model.dim))
    probes = []  # built about the y3-axis, then moved to the excluded one
    for sign in (1.0, -1.0):
        for phi in np.logspace(-3, -1, count // 2):
            theta = rng.uniform(0.0, 2.0 * np.pi)
            probes.append([np.cos(theta) * np.sin(phi),
                           np.sin(theta) * np.sin(phi), sign * np.cos(phi)])
    order = [i for i in range(3) if i != axis] + [axis]
    return np.asarray(probes)[:, np.argsort(order)]


def validate_norm(model: NormModel, samples: int = VALIDATION_SAMPLES,
                  seed: int = 0,
                  min_axis_fraction: float = 0.0) -> ValidationReport:
    """Sample-based certificate that H behaves like a Minkowski norm.

    Checks the two Euler identities (y.grad H = 2H and Hess(H).y = grad H)
    and strong convexity (positive definite Hessian) on a uniform sphere
    sample of ``samples`` >= 1 directions.  With ``min_axis_fraction`` zero
    and an excluded ray declared, extra probes approach the ray; a singular
    model is then honestly reported invalid.  Passing a positive fraction
    restricts the sample to directions with y1^2+y2^2 >= fraction^2 * |y|^2,
    certifying the norm on that cone complement only; the fraction must lie
    in [0, 1), and a cone too narrow for the draw cap (MAX_DRAWS_PER_SAMPLE)
    raises ConeTooNarrow.
    A non-finite value, gradient or Hessian entry of H raises ValueError
    naming its first direction, before any residual is formed.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if not 0.0 <= min_axis_fraction < 1.0:
        raise ValueError("min_axis_fraction must lie in [0, 1), got "
                         f"{min_axis_fraction}")
    rng = np.random.default_rng(seed)
    dirs = _sample_directions(model, samples, rng, min_axis_fraction)
    notes = []
    if min_axis_fraction == 0.0:
        probes = _near_ray_probes(model, 200, rng)
        if len(probes):
            dirs = np.vstack([dirs, probes])
            notes.append("200 probes approach the excluded ray")
    else:
        notes.append(f"sample restricted to y1^2+y2^2 >= "
                     f"{min_axis_fraction ** 2:g} * |y|^2")

    with np.errstate(all="ignore"):
        tensors = zip(*(model.jet(dirs[s:s + BATCH_BLOCK], 2, s)
                        .partial_tensors(2)
                        for s in range(0, len(dirs), BATCH_BLOCK)))
        values, grads, hessians = (np.concatenate(t) for t in tensors)
    bad = ~np.isfinite(np.column_stack([values, grads, hessians.reshape(
        len(dirs), -1)])).all(1)
    if bad.any():
        raise ValueError(f"H is not finite at direction {np.argmax(bad)}")
    # stacked matmuls make per row the BLAS calls of y @ d1 and d2 @ y
    scale = 1.0 + np.abs(values)
    y_d1 = (dirs[:, None, :] @ grads[:, :, None])[:, 0, 0]
    max_deg = float(np.max(np.abs(y_d1 - 2.0 * values) / scale))
    d2_y = (hessians @ dirs[:, :, None])[:, :, 0]
    max_grad = float(np.max(np.max(np.abs(d2_y - grads), axis=1) / scale))
    eigs = np.linalg.eigvalsh(hessians)[:, 0]
    k = int(np.argmin(eigs))    # the first direction of least eigenvalue
    min_eig = float(eigs[k])
    valid = max_deg <= EULER_TOL and max_grad <= EULER_TOL and min_eig > 0.0
    return ValidationReport(valid=valid, samples=len(dirs), seed=seed,
                            max_euler_degree_residual=max_deg,
                            max_euler_gradient_residual=max_grad,
                            min_hessian_eigenvalue=min_eig,
                            argmin_direction=dirs[k].copy(),
                            min_axis_fraction=min_axis_fraction,
                            notes=tuple(notes))
