"""Submanifold germs in adapted graph coordinates.

A germ of an n-dimensional submanifold through the origin of R^(n+p) is
stored as the 2-jet and 3-jet of its graph representation

    y^alpha = f^alpha(x),   f^alpha(0) = 0,  df^alpha(0) = 0,

i.e. the symmetric arrays d2[alpha, i, j] = f^alpha_ij(0) and
d3[alpha, i, j, k] = f^alpha_ijk(0).  The adapted condition (vanishing
first jet, tangent space = the first n coordinate axes) is what makes the
curvature formulas in :mod:`minksub.curvature` valid literally.

``adapt_germ`` absorbs a nonzero first jet into the ambient basis by the
linear shear y -> y - (df) x, which leaves second and third derivatives
untouched.  ``transform_germ`` pushes a germ through an arbitrary
invertible ambient linear map and re-expresses the image as a graph,
inverting the tangent substitution with order-3 jet tensors; it is the
workhorse behind the affine-invariance checks of the pointwise
invariants.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import factorial

import numpy as np

from .jets import Jet4

SYMMETRY_WARN_TOL = 1e-10
SYM_TOL = 1e-12  # sym_matrix: |M - M^T| <= SYM_TOL (1 + max |M|)
COND_LIMIT = 1e12  # larger condition numbers count as singular


class NonInvertibleFrame(ValueError):
    """Frame basis or coordinate substitution is numerically singular."""


def rank_mask(values: np.ndarray, cut: float,
              scale: float | None = None) -> np.ndarray:
    """The numerical-rank decision: the mask of ``values`` (singular values
    or |eigenvalues|) kept, those above cut * scale, with ``scale`` the
    largest value unless given (Golub & Van Loan, *Matrix Computations*,
    5.4).  The rank is the mask's count."""
    if scale is None:
        scale = values.max(initial=0.0)
    return values > cut * scale


def _check_conditioned(M: np.ndarray, message: str) -> None:
    # a NaN entry would stop the SVD itself from converging
    if not (np.isfinite(M).all() and rank_mask(
            np.linalg.svd(M, compute_uv=False), 1 / COND_LIMIT).all()):
        raise NonInvertibleFrame(message)


def sym_matrix(M, name: str) -> np.ndarray:
    """M as a symmetrized float matrix, or ValueError naming ``name`` when
    M is not square, has a non-finite entry or is not symmetric to SYM_TOL."""
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError(f"{name} has non-finite entries")
    scale = 1.0 + float(np.abs(M).max(initial=0.0))
    if float(np.abs(M - M.T).max(initial=0.0)) > SYM_TOL * scale:
        raise ValueError(f"{name} is not symmetric to {SYM_TOL}")
    return 0.5 * (M + M.T)


def sym2(arr: np.ndarray) -> np.ndarray:
    return 0.5 * (arr + arr.swapaxes(-1, -2))


def sym3(arr: np.ndarray) -> np.ndarray:
    out = np.zeros_like(arr)
    for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        axes = tuple(range(arr.ndim - 3)) + tuple(arr.ndim - 3 + k for k in perm)
        out += arr.transpose(axes)
    return out / 6.0


@dataclass(frozen=True)
class Germ:
    n: int
    p: int
    d2: np.ndarray  # (p, n, n), symmetric in the trailing pair
    d3: np.ndarray  # (p, n, n, n), fully symmetric in the trailing triple

    @staticmethod
    def make(n: int, p: int, d2, d3) -> "Germ":
        """Validate shapes, symmetrize, and warn if the input was asymmetric."""
        if n < 1 or p < 1:
            raise ValueError("need n >= 1 and p >= 1")
        d2 = np.asarray(d2, dtype=np.float64)
        d3 = np.asarray(d3, dtype=np.float64)
        if d2.shape != (p, n, n):
            raise ValueError(f"d2 must have shape ({p}, {n}, {n})")
        if d3.shape != (p, n, n, n):
            raise ValueError(f"d3 must have shape ({p}, {n}, {n}, {n})")
        if not (np.isfinite(d2).all() and np.isfinite(d3).all()):
            raise ValueError("d2 and d3 must be finite")
        s2, s3 = sym2(d2), sym3(d3)
        scale2 = 1.0 + float(np.max(np.abs(d2)))
        scale3 = 1.0 + float(np.max(np.abs(d3)))
        if (np.max(np.abs(d2 - s2)) > SYMMETRY_WARN_TOL * scale2
                or np.max(np.abs(d3 - s3)) > SYMMETRY_WARN_TOL * scale3):
            warnings.warn("germ jets were not symmetric; symmetrized",
                          stacklevel=2)
        s2.setflags(write=False)
        s3.setflags(write=False)
        return Germ(n=n, p=p, d2=s2, d3=s3)

    def kappa(self, u) -> np.ndarray:
        """Second-order normal deviation kappa^alpha(u) = f^alpha_ij u^i u^j."""
        u = np.asarray(u, dtype=np.float64)
        return np.einsum("aij,i,j->a", self.d2, u, u)

    def cubic(self, u) -> np.ndarray:
        """Third-order contraction f^alpha_ijk u^i u^j u^k."""
        u = np.asarray(u, dtype=np.float64)
        return np.einsum("aijk,i,j,k->a", self.d3, u, u, u)

    def to_dict(self) -> dict:
        return {"n": self.n, "p": self.p,
                "d2": self.d2.tolist(), "d3": self.d3.tolist()}


def adapt_germ(raw_d1, raw_d2, raw_d3, basis=None):
    """Absorb a nonzero first jet into the ambient basis; return
    (Germ, basis @ shear).

    ``basis`` (n+p, n+p), the identity by default, holds as columns the
    coordinate directions the raw jets are written in.  The graph
    substitution y -> y - (raw_d1) x is linear in x, so the second and
    third jets pass through unchanged while the tangent columns of the
    basis pick up the graph slopes.  Applying the result to an already
    adapted germ (raw_d1 = 0) is the identity.
    """
    raw_d1 = np.asarray(raw_d1, dtype=np.float64)
    if not np.isfinite(raw_d1).all():
        raise ValueError("raw_d1 must be finite")
    p, n = raw_d1.shape
    N = n + p
    basis = np.eye(N) if basis is None else np.asarray(basis, dtype=np.float64)
    if basis.shape != (N, N):
        raise ValueError(f"basis must have shape ({N}, {N})")
    _check_conditioned(basis, "frame basis is numerically singular")
    germ = Germ.make(n, p, raw_d2, raw_d3)
    shear = np.eye(N)
    shear[n:, :n] = raw_d1
    return germ, basis @ shear


def taylor_jets(coeffs, x: Jet4) -> Jet4:
    """Jets of p(x) = sum_k c_k[..., i1..ik] x_i1 ... x_ik / k! at the jet
    tensor x (m,).

    ``coeffs`` lists c_0, c_1, ... by order, None for an absent order; c_k
    ends in k axes of length m after leading axes shared by all orders.
    Returns a jet tensor shaped like the leading axes.
    """
    acc = 0.0
    # Horner in the trailing axis: ((c_3/3! . x + c_2/2!) . x + c_1) . x + c_0
    for k in reversed(range(len(coeffs))):
        if coeffs[k] is not None:
            acc = acc + coeffs[k] / factorial(k)
        if k:
            acc = acc @ x
    return acc


def transform_germ(germ: Germ, transform) -> tuple:
    """Push the germ through an ambient linear map and re-graph the image.

    Returns raw jets (d1, d2, d3) of the image in graph form over the new
    first n coordinates; feed them to :func:`adapt_germ`.  The total linear
    substitution u = T11 x on the tangent block must be invertible.
    """
    T = np.asarray(transform, dtype=np.float64)
    n, p = germ.n, germ.p
    N = n + p
    if T.shape != (N, N):
        raise ValueError(f"transform must have shape ({N}, {N})")
    _check_conditioned(T, "ambient transform is numerically singular")
    T11, T12 = T[:n, :n], T[:n, n:]
    T21, T22 = T[n:, :n], T[n:, n:]
    # df(0) = 0, so the tangent substitution u = T11 x + T12 f(x) has linear
    # part T11; it must be invertible for the image to stay a graph.
    _check_conditioned(T11, "image is not a graph over the tangent block")
    M = np.linalg.inv(T11)

    def f(xjets):
        return taylor_jets([None, None, germ.d2, germ.d3], xjets)

    ujets = Jet4.stack(Jet4.variables(n, np.zeros(n), 3))
    # invert u = T11 x + T12 f(x) by fixed point iteration; each sweep gains
    # one order, two sweeps are exact through order 3
    xjets = M @ ujets
    for _ in range(2):
        xjets = M @ (ujets - T12 @ f(xjets))
    gjets = T21 @ xjets + T22 @ f(xjets)
    return gjets.partial_tensors(3)[1:]
