"""Curvature pipeline for a germ inside a Minkowski space.

For an adapted germ y = f(x) and a norm H on R^(n+p), the induced metric
on the submanifold has fundamental tensor, spray, and Ricci curvature
expressible entirely through the jets of H at the lifted direction
(u, 0) and the germ arrays f_ij, f_ijk.  Two independent routes are kept:

* The expanded coefficient formula is written once, in ``_ricci_block``,
  as matmuls over a leading direction axis.  :func:`ricci_expanded_batch`
  runs it on blocks of directions, :func:`ricci_expanded` on one row.
  Writing zeta_ab = H_ab - h^s_a H_sb and h^i_a = g^ij H_ja, the Ricci
  scalar splits into four groups,

      Ric(u) = xi_a f^a_jls u^j u^l u^s
             + zeta_ab g^il (f^b_il f^a_jr - f^b_jl f^a_ir) u^j u^r
             - eta_ab kappa^a kappa^b
             - rho^i_ab kappa^b f^a_il u^l,

  with xi, eta, rho built from u-derivatives of h, g^-1 and zeta.  In the
  Schur frame E = (-h; I_p), Hess H E = (0; zeta); with R_k the tangent
  rows of d3_k E (d3, d4: H's third and fourth derivatives at the lift),

      d_k zeta = E^T d3_k E,   d_k h = g^-1 R_k,
      d_k d_l zeta = E^T d4_kl E - R_k^T g^-1 R_l - R_l^T g^-1 R_k,

  so one order-4 jet of H, read in d3[t] and d4[t, t], feeds everything.

* :func:`ricci_oracle` never sees the formula above.  It builds the spray

      G^i(x, u) = 1/2 g^ij(x, u) f^a_kl(x) u^k u^l (H_ja + H_ab f^b_j)

  as a function of position and direction and pushes it through the
  spray-to-Ricci contraction

      R^i_k = 2 dG^i/dx^k - u^j d2G^i/dx^j du^k
            + 2 G^j d2G^i/du^j du^k - dG^i/du^j dG^j/du^k.

  The spray is written once, in ``_spray``, and differentiated by two
  schemes: on jets in the doubled variables (x, u), with f^a_i, f^a_kl and
  u written down as order-2 coefficient arrays, or under central finite
  differences of one stacked :func:`spray_field` evaluation on a stencil
  built once per n.
  Agreement of the two routes is the main correctness gate of the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isfinite

import numpy as np

from .germ import COND_LIMIT, Germ
from .jets import BATCH_BLOCK, Jet4, _tables
from .minkowski import NormModel

FD_STEP = 1e-4  # finite-difference oracle: step in x, and in u times 1 + |u|


class NonPDTensor(ValueError):
    """Fundamental tensor g is not positive definite (or too ill-conditioned)."""


class NonPDZeta(ValueError):
    """The normal-block tensor zeta failed its positive definiteness check."""


def _lift(germ: Germ, u) -> np.ndarray:
    """The ambient point (u, 0) over the tangent direction u, which must
    have shape (n,) and finite entries, else ValueError."""
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (germ.n,):
        raise ValueError(f"direction must have shape ({germ.n},)")
    if not all(map(isfinite, u.tolist())):     # a fifth of np.isfinite's cost
        raise ValueError("direction must be finite")
    return np.concatenate([u, np.zeros(germ.p)])


def _pd_inverse(g: np.ndarray, first: int | None = None) -> np.ndarray:
    """g^-1 of g or of each of a stack; NonPDTensor names the first unusable
    row k as direction first + k, and names none when ``first`` is None."""
    evals, vecs = np.linalg.eigh(g)
    lo, hi = evals[..., 0].ravel(), evals[..., -1].ravel()
    # a zero lo divides hi by 1, not 0: its row is bad anyway
    bad = (lo <= 0.0) | (hi / (lo + (lo == 0.0)) > COND_LIMIT)
    if np.count_nonzero(bad):
        k = int(np.argmax(bad))
        where = "" if first is None else f" at direction {first + k}"
        if lo[k] <= 0.0:
            raise NonPDTensor(f"fundamental tensor has eigenvalue {lo[k]:.6g}"
                              + where)
        raise NonPDTensor("fundamental tensor condition number exceeds "
                          f"{COND_LIMIT:g}" + where)
    return (vecs / evals[..., None, :]) @ vecs.swapaxes(-1, -2)


@dataclass(frozen=True)
class CurvatureReport:
    u: np.ndarray
    S: float
    g: np.ndarray
    h: np.ndarray
    kappa: np.ndarray
    G: np.ndarray
    xi: np.ndarray
    zeta: np.ndarray
    eta: np.ndarray
    rho: np.ndarray
    Rik: np.ndarray
    Ric: float
    ric_parts: tuple  # (cubic, zeta, eta, rho) groups; sums to Ric

    def require_finite(self) -> "CurvatureReport":
        """self, or ValueError naming the first non-finite field and where;
        fields a Ric-only report leaves out (None) are skipped."""
        for name, x in vars(self).items():
            if x is not None and not np.isfinite(x).all():
                raise ValueError(f"{name} is not finite at " + (
                    f"direction {np.argwhere(~np.isfinite(x))[0][0]}"
                    if self.u.ndim == 2 else "this direction"))
        return self


def zeta_check(norm: NormModel, germ: Germ, u) -> tuple:
    """Return (zeta, residual) and enforce positive definiteness.

    zeta is the Schur complement B - A^T g^-1 A of the tangent block g in
    the ambient Hessian [[g, A], [A^T, B]] at the lifted direction.  For
    one codimension it therefore equals det(Hess H) / det(g); the residual
    reports the relative mismatch of that identity.  For p > 1 the
    residual is None.
    """
    n = germ.n
    d2 = norm.jet(_lift(germ, u), 2).hessian()
    g, A = d2[:n, :n], d2[:n, n:]
    zeta = _require_pd_zeta(
        d2[None, n:, n:] - np.einsum("sa,sb->ab", _pd_inverse(g) @ A, A))[0]
    if germ.p > 1:
        return zeta, None
    ratio = np.linalg.det(d2) / np.linalg.det(g)
    return zeta, abs(zeta[0, 0] - ratio) / (1.0 + abs(ratio))


def _require_pd_zeta(zeta: np.ndarray, first: int | None = None):
    """The stack zeta (R, p, p), or NonPDZeta naming row k, the first not
    positive definite, as direction first + k (this direction when ``first``
    is None); leading minors for p <= 2, else eigvalsh; NaN rows pass."""
    a, p = zeta[:, 0, 0], zeta.shape[-1]
    if p == 2:          # the lesser leading minor
        a = np.minimum(a, a * zeta[:, 1, 1] - zeta[:, 1, 0] ** 2)
    elif p > 2:         # the least eigenvalue; non-finite rows count as I
        fin = np.isfinite(zeta).all(axis=(1, 2), keepdims=True)
        a = np.linalg.eigvalsh(np.where(fin, zeta, np.eye(p)))[:, 0]
    if (a <= 0.0).any():
        raise NonPDZeta("zeta is not positive definite at " + (
            "this direction" if first is None
            else f"direction {first + int(np.argmax(a <= 0.0))}"))
    return zeta


def ricci_expanded(norm: NormModel, germ: Germ, u) -> CurvatureReport:
    """Ricci curvature and the full curvature tensor via the expanded formula:
    row 0 of the one-row _ricci_block on the single p-capped jet of H at the
    lift (its arrays are views of block arrays that nothing else holds)."""
    lift = _lift(germ, u)
    u, S, *arrays, ric, parts = [f[0] for f in _ricci_block(
        germ, lift[None, :germ.n],
        norm.jet(lift, normal=germ.p)[None].partial_tensors(4))]
    return CurvatureReport(u, float(S), *arrays, float(ric),
                           tuple(parts.tolist()))


def _ricci_block(germ: Germ, u: np.ndarray, tensors: tuple,
                 first: int | None = None, ric_only: bool = False) -> tuple:
    """CurvatureReport's fields for the rows r of u (R, n), by matmuls over
    r, from H's partial tensors (h0, d1, ..., d4) at the lifts (u, 0), all
    with leading axis r and read only in entries of normal degree <= 2;
    ``first`` numbers rows in the errors of the g and zeta gates.
    ``ric_only`` leaves eta and rho None and skips g^-1 Z and g^-1 . d4,
    which only they read; every other field keeps its bits.
    Per row, L = ((I_n, 0); E^T; (g^-1, 0)) puts every first u-derivative
    in one stack Z_k = L d3_k L[n:]^T (R_k = (d3_k E)[t], d_k zeta, d_k h
    in its first p columns, -d_k g^-1 in its last n).  Products sharing an
    operand are one matmul: g^-1 on all Z_k, Z_k on three columns, and
    d3_k[t, t] on two vectors and g^-1 on the four Ricci groups stacked on
    a new leading axis (one trace gives ric_parts, one sum Rik).  All are
    per row: bits do not depend on the block size, except that one-row
    blocks run the 2-D germ products as gemv."""
    n, p, N, rows = germ.n, germ.p, germ.n + germ.p, len(u)
    h0, _, d2, d3, d4 = tensors
    t, s = slice(None, n), slice(n, None)       # tangent and normal blocks
    g, A = d2[:, t, t], d2[:, t, s]
    gi = _pd_inverse(g, first)
    h = gi @ A
    L = np.zeros((rows, n + N, N))
    L.reshape(rows, -1)[:, :N * N:N + 1] = 1.0  # the diagonal of (I_n; E^T)
    np.negative(h.swapaxes(1, 2), out=L[:, n:N, t])
    L[:, N:, t] = gi
    ET, E = L[:, n:N], L[:, n:N].swapaxes(1, 2)
    Z = L[:, None] @ (d3[:, t] @ L[:, None, n:].swapaxes(2, 3))
    zeta = _require_pd_zeta(d2[:, s, s] - h.swapaxes(1, 2) @ A, first)
    tr = -0.5 * Z[:, :, N:].trace(axis1=1, axis2=2)   # xi; d_k g^kj / 2
    xi, dg = tr[:, :p], tr[:, p:, None, None]
    D4 = d4[:, t, t].reshape(rows, n * n, -1)   # d4_kl as rows
    eta = rho = None
    if not ric_only:
        GZ = (gi @ Z.reshape(rows, n, -1)).reshape(Z.shape)   # g^lk Z_k
        R, DZ, DH = Z[:, :, t, :p], Z[:, :, n:N, :p], Z[:, :, N:, :p]
        W = (gi.reshape(rows, 1, n * n) @ D4).reshape(rows, N, N)
        eta = (0.75 * (DH.swapaxes(2, 3) @ DH.swapaxes(1, 2))
               - R.swapaxes(2, 3) @ GZ[:, :, N:, :p]
               + dg * DZ).sum(1) + 0.5 * (ET @ W @ E)
        rho = (3.0 * xi[:, None, :, None] * h[:, :, None, :]
               + dg * zeta[:, None] + GZ[:, :, n:N, :p])
    uc = u[:, :, None]
    fu = (u @ germ.d2.reshape(p * n, n).T).reshape(rows, p, n)
    fuT = fu.swapaxes(1, 2)
    fz = fuT @ zeta
    cub = (u @ germ.d3.reshape(p * n * n, n).T).reshape(rows, p * n, n) @ uc
    y = np.concatenate((fu, -0.5 * cub.reshape(rows, p, n),
                        1.5 * (fu @ h @ fu)), 1) @ uc
    kap = y[:, :p]
    PQ = Z[..., :p] @ y.reshape(rows, 1, 3, p).swapaxes(2, 3)
    P, Q = PQ[:, :, t, 0], PQ[:, :, n:N, 0]     # R_k kap, d_k zeta kap [k]
    v = E @ kap
    w = np.array((Q, fz, h)) @ (0.5 * kap)      # the last is G
    B = (d3[:, t, t, t] @ (gi @ w[:2])[:, :, None])[..., 0]
    K = fuT @ Q.swapaxes(1, 2)
    X = (kap.swapaxes(1, 2) @ zeta).reshape(rows, p) @ germ.d2.reshape(p, -1)
    T = np.array((                  # cubic, zeta, eta, rho groups; [k, i]
        PQ[:, :, t, 1], X.reshape(rows, n, n) - fz @ fu,
        ((D4.reshape(rows, -1, N) @ v).reshape(rows, n * n, -1)
         @ (-0.5 * v)).reshape(rows, n, n)
        + PQ[:, :, N:, 0] @ (P.swapaxes(1, 2) - 0.75 * P),
        PQ[:, :, t, 2] - 0.5 * (K + K.swapaxes(1, 2))))
    T[2:] += B
    T = T @ gi
    Rik = T.sum(0).swapaxes(1, 2)
    return (u, np.sqrt(2.0 * h0), g, h, kap[..., 0], w[2, ..., 0], xi, zeta,
            eta, rho, Rik, Rik.trace(axis1=1, axis2=2),
            T.trace(axis1=2, axis2=3).T)


def ricci_expanded_batch(norm: NormModel, germ: Germ, U,
                         ric_only: bool = False) -> CurvatureReport:
    """ricci_expanded for each row of U (N, n): one report, passed through
    require_finite, whose fields gain a leading axis (ric_parts (N, 4)).
    Each BATCH_BLOCK rows take one batched jet of H (bit for bit the single
    jets) and one _ricci_block; ``ric_only`` leaves eta and rho None."""
    U = np.asarray(U, dtype=np.float64)
    if U.ndim != 2 or U.shape[1] != germ.n or len(U) == 0:
        raise ValueError(f"directions must have shape (N, {germ.n}), N >= 1")
    bad = ~np.isfinite(U).all(axis=1)
    if bad.any():
        raise ValueError(f"direction {bad.argmax()} must be finite")
    blocks = []
    with np.errstate(all="ignore"):     # require_finite names the field
        for s in range(0, len(U), BATCH_BLOCK):
            u = U[s:s + BATCH_BLOCK]
            jet = norm.jet(np.hstack([u, np.zeros((len(u), germ.p))]), row=s,
                           normal=germ.p)
            blocks.append(_ricci_block(germ, u, jet.partial_tensors(4), s,
                                       ric_only))
    return CurvatureReport(*(None if f[0] is None else np.concatenate(f)
                             for f in zip(*blocks))).require_finite()


# -- oracle route -------------------------------------------------------------


def _spray(H, fi, fkl, u, solve):
    """G^i = 1/2 g^ij f^a_kl u^k u^l (H_ja + H_ab f^b_j).

    H is the ambient Hessian at the graph point over (x, u), fi = f^a_i(x)
    and fkl = f^a_kl(x); ``solve(g, b)`` returns g^-1 b for columns b.  With
    F = (I; fi), M = F^T H gives g = M F and the right-hand side M_n kappa
    (M_n its normal columns): three products.  All are numpy products on
    trailing axes, so the same code runs on floats, on stacks of points
    (leading axes) and on jet tensors.
    """
    n = u.shape[-1]
    M = H[..., :n, :] + fi.swapaxes(-1, -2) @ H[..., n:, :]
    Mn = M[..., n:]
    kap = (fkl @ u[..., None, :, None])[..., 0] @ u[..., None]
    return 0.5 * solve(M[..., :n] + Mn @ fi, Mn @ kap)[..., 0]


def _neumann_solve(g: Jet4, b: Jet4) -> Jet4:
    """g^-1 b for order-2 jet tensors g (n, n) and b (n, k).

    With g0 the value of g and E = g0^-1 (g - g0), g = g0 (I + E) and E has
    no constant term, so (I - E + E^2) g0^-1 inverts g through order 2,
    which is all the Ricci contraction reads.
    """
    g0 = g.value
    gi0 = _pd_inverse(g0)
    E = gi0 @ (g - g0)
    x = gi0 @ b
    return x - E @ (x - E @ x)


@lru_cache(maxsize=None)
def _x_pairs(n: int) -> tuple:
    """(j, k) for j <= k < n, and the coefficient index of x_j x_k in an
    order-2 jet of the doubled variables (x, u)."""
    j, k = np.triu_indices(n)
    return j, k, _tables(2 * n).dense[2][2 * n * j + k]


def _spray_jets(norm: NormModel, germ: Germ, u: np.ndarray) -> Jet4:
    """The order-2 jet tensor (n,) of G^i in the doubled variables
    (x, u - u0); H at the lift is read to order 4.  f^a_i(x) = d2 x +
    d3 x x / 2, f^a_kl(x) = d2 + d3 x and u are written down as coefficient
    arrays, each bit for bit the Horner jet of taylor_jets in coordinate
    jets (both terms of x_j x_k, j < k, in one sum)."""
    n, p, dim = germ.n, germ.p, 2 * germ.n
    _, _, D2, D3, D4 = norm.jet(_lift(germ, u)).partial_tensors(4)
    j, k, jk = _x_pairs(n)
    half, size = 0.5 * germ.d3, _tables(dim).sizes[2]
    fi, fkl, du = (np.zeros(s + (size,)) for s in ((p, n), (p, n, n), (n,)))
    fi[..., 1:n + 1] = germ.d2
    fi[..., jk] = half[..., j, k] + half[..., k, j] * (j < k)
    du[:, n + 1:dim + 1] = np.eye(n)
    fkl[..., 0], fkl[..., 1:n + 1] = germ.d2, germ.d3
    fi, fkl, ujets = Jet4(dim, fi), Jet4(dim, fkl, 1), Jet4(dim, du, 1) + u

    # ambient displacement of the lifted direction: delta = yhat(x,u) - (u0, 0)
    delta = Jet4(dim, np.concatenate([du, (fi @ ujets).coeffs]))
    # second-order Taylor of every H_ab around the lift, composed with delta
    h2coef = (np.einsum("abc,cX->abX", D3, delta.coeffs)
              + 0.5 * np.einsum("abcd,cdX->abX", D4,
                                (delta[:, None] * delta).coeffs))
    h2coef[:, :, 0] += D2
    return _spray(Jet4(dim, h2coef), fi, fkl, ujets, _neumann_solve)


def _assemble_ricci(u, G0, Gx, Gv, Gxv, Gvv) -> np.ndarray:
    """R^i_k from the spray and its partials at (0, u)."""
    return (2.0 * Gx
            - np.einsum("j,ijk->ik", u, Gxv)
            + 2.0 * np.einsum("j,ijk->ik", G0, Gvv)
            - Gv @ Gv)


def _ricci_oracle_jets(norm: NormModel, germ: Germ,
                       u: np.ndarray) -> np.ndarray:
    n = germ.n
    G0, G1, G2 = _spray_jets(norm, germ, u).partial_tensors(2)
    return _assemble_ricci(u, G0, G1[:, :n], G1[:, n:], G2[:, :n, n:],
                           G2[:, n:, n:])


def spray_field(norm: NormModel, germ: Germ, x, u) -> np.ndarray:
    """Float evaluation of G^i(x, u) from second derivatives of H alone, at
    one point (n,) or at each row of (K, n) stacks x and u: one batched jet
    of H per BATCH_BLOCK rows, each row bit for bit its single-point value."""
    x = np.asarray(x, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if x.shape != u.shape or x.ndim not in (1, 2) or x.shape[-1] != germ.n:
        raise ValueError(f"x {x.shape}, u {u.shape}: need (n,) or (K, n) both")
    fi = (np.einsum("aij,...j->...ai", germ.d2, x)
          + 0.5 * np.einsum("aijk,...j,...k->...ai", germ.d3, x, x))
    fkl = germ.d2 + np.einsum("aklm,...m->...akl", germ.d3, x)
    lift = np.concatenate([u, (fi @ u[..., None])[..., 0]], axis=-1)
    blocks = [lift] if lift.ndim == 1 else [
        lift[s:s + BATCH_BLOCK] for s in range(0, len(lift), BATCH_BLOCK)]
    H = np.concatenate([norm.jet(b, 2, k * BATCH_BLOCK).hessian()
                        for k, b in enumerate(blocks)])
    return _spray(H, fi, fkl, u, np.linalg.solve)


@lru_cache(maxsize=None)
def _fd_stencil(n: int) -> tuple:
    """The Richardson stencil of _ricci_oracle_fd in (x, u): its distinct
    offsets in step multiples (rows, 2n), the centre first; per axis the
    rows at +h/2, -h/2, +h, -h (2n, 2, 2); per mixed pair (i, j), Gxv's
    (x_a, u_b) row-major and then Gvv's strict upper triangle, the rows at
    ++, +-, -+, -- (P, 2, 4), half steps then whole; and the pairs' i, j."""
    rows, eye = {(0.0,) * (2 * n): 0}, np.eye(2 * n)

    def at(w):
        return rows.setdefault(tuple(w), len(rows))
    axis = [[[at(s * e), at(-s * e)] for s in (0.5, 1.0)] for e in eye]
    i, j = np.array([(a, n + b) for a in range(n) for b in range(n)]
                    + [(n + a, n + b) for a in range(n)
                       for b in range(a + 1, n)]).T
    mixed = [[[at(s * (a * eye[p] + b * eye[q])) for a, b in
               ((1, 1), (1, -1), (-1, 1), (-1, -1))] for s in (0.5, 1.0)]
             for p, q in zip(i, j)]
    return np.array(list(rows)) + 0.0, np.array(axis), np.array(mixed), i, j


def _ricci_oracle_fd(norm: NormModel, germ: Germ,
                     u: np.ndarray) -> np.ndarray:
    """R^i_k from Richardson-extrapolated central differences of one stacked
    spray_field call on the cached stencil; every difference is elementwise
    arithmetic in the order of the per-point definition, so bit for bit."""
    n = germ.n
    step_u = FD_STEP * (1.0 + float(np.linalg.norm(u)))
    offsets, axis, mixed, i, j = _fd_stencil(n)
    # half and whole steps per axis; h ** 2 by the scalar pow the definition
    # takes, which can differ from numpy's array square in the last bit
    h = np.repeat([[FD_STEP / 2, FD_STEP], [step_u / 2, step_u]], n, 0)
    sq = np.repeat([[(FD_STEP / 2) ** 2, FD_STEP ** 2],
                    [(step_u / 2) ** 2, step_u ** 2]], n, 0)[..., None]
    W = np.concatenate([np.zeros(n), u]) + offsets * h[:, 1]
    G = spray_field(norm, germ, W[:, :n], W[:, n:])
    A, M = G[axis], G[mixed]

    def extrapolate(d):
        return (4.0 * d[:, 0] - d[:, 1]) / 3.0
    d1 = extrapolate((A[..., 0, :] - A[..., 1, :]) / (2 * h)[..., None])
    dd = extrapolate((A[..., 0, :] - 2.0 * G[0] + A[..., 1, :]) / sq)[n:]
    dm = extrapolate((M[..., 0, :] - M[..., 1, :] - M[..., 2, :]
                      + M[..., 3, :]) / (4 * h[i] * h[j])[..., None])
    Gvv, r = np.zeros((n, n, n)), np.arange(n)
    Gvv[:, i[n * n:] - n, j[n * n:] - n] = dm[n * n:].T
    Gvv[:, j[n * n:] - n, i[n * n:] - n] = dm[n * n:].T
    Gvv[:, r, r] = dd.T
    return _assemble_ricci(u, G[0], np.ascontiguousarray(d1[:n].T),
                           np.ascontiguousarray(d1[n:].T),
                           dm[:n * n].T.reshape(n, n, n), Gvv)


def ricci_oracle(norm: NormModel, germ: Germ, u,
                 scheme: str = "jet") -> float:
    """Ricci curvature through the spray route, independent of the expansion.

    ``scheme`` selects jet differentiation of G(x, u) in doubled variables
    ("jet") or Richardson-extrapolated central differences with step
    FD_STEP ("finite_difference").  Under either scheme u must have shape
    (n,) and finite entries, else ValueError.
    """
    u = _lift(germ, u)[:germ.n]        # _lift checks the direction
    if scheme == "jet":
        R = _ricci_oracle_jets(norm, germ, u)
    elif scheme == "finite_difference":
        R = _ricci_oracle_fd(norm, germ, u)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return float(np.trace(R))


# -- report serialization -----------------------------------------------------


_CSV_FIELDS = ("u", "S", "Ric", "kappa", "G", "xi", "g", "h", "zeta", "eta",
               "rho", "Rik")


def reports_to_csv(reports) -> str:
    """A direction sweep (reports, or one report with a direction axis) as
    CSV: _CSV_FIELDS in order, arrays flattened, named g_1_2, rho_2_1_1."""
    if not isinstance(reports, CurvatureReport):
        reports = list(reports)
        if not reports:
            return ""
        reports = CurvatureReport(*map(np.array, zip(
            *(vars(r).values() for r in reports))))
    fields = [np.asarray(getattr(reports, f)) for f in _CSV_FIELDS]
    rows = len(fields[0])
    lines = [",".join("_".join([name, *(str(i + 1) for i in index)])
                      for name, f in zip(_CSV_FIELDS, fields)
                      for index in np.ndindex(f.shape[1:]))]
    table = np.concatenate([f.reshape(rows, -1) for f in fields], axis=1)
    lines += [",".join(map(repr, row)) for row in table.tolist()]
    return "\n".join(lines) + "\n"
