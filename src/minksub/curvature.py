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
  schemes: on jets in the doubled variables (x, u), or under central
  finite differences of one stacked :func:`spray_field` evaluation.
  Agreement of the two routes is the main correctness gate of the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .germ import COND_LIMIT, Germ, taylor_jets
from .jets import BATCH_BLOCK, Jet4
from .minkowski import NormModel

ZETA_DET_RATIO_TOL = 1e-10  # zeta = det(Hess H) / det(g) for p = 1


class NonPDTensor(ValueError):
    """Fundamental tensor g is not positive definite (or too ill-conditioned)."""


class NonPDZeta(ValueError):
    """The normal-block tensor zeta failed its positive definiteness check."""


class StepUnderflow(ValueError):
    """Finite-difference step too small to resolve against roundoff."""


def _lift(germ: Germ, u) -> np.ndarray:
    """The ambient point (u, 0) over the tangent direction u."""
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (germ.n,):
        raise ValueError(f"direction must have shape ({germ.n},)")
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
        """self, or ValueError naming the first non-finite field and where."""
        for name, x in vars(self).items():
            if not np.isfinite(x).all():
                raise ValueError(f"{name} is not finite at " + (
                    f"direction {np.argwhere(~np.isfinite(x))[0][0]}"
                    if self.u.ndim == 2 else "this direction"))
        return self


def fundamental_tensor(norm: NormModel, germ: Germ, u) -> np.ndarray:
    """g_ij(0, u) = H_ij(u, 0): the tangent block of the ambient Hessian."""
    n = germ.n
    d2 = norm.jet(_lift(germ, u), 2).hessian()
    g = d2[:n, :n]
    _pd_inverse(g)  # raises NonPDTensor when unusable
    return g


def spray_at_origin(norm: NormModel, germ: Germ, u) -> np.ndarray:
    """G^i(0, u) = 1/2 h^i_a kappa^a(u)."""
    fundamental_tensor(norm, germ, u)  # raises NonPDTensor when unusable
    return spray_field(norm, germ, np.zeros(germ.n), u)


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
    zeta = d2[n:, n:] - np.einsum("sa,sb->ab", _pd_inverse(g) @ A, A)
    if np.linalg.eigvalsh(zeta)[0] <= 0.0:
        raise NonPDZeta("zeta is not positive definite at this direction")
    residual = None
    if germ.p == 1:
        ratio = np.linalg.det(d2) / np.linalg.det(g)
        residual = abs(zeta[0, 0] - ratio) / (1.0 + abs(ratio))
    return zeta, residual


def ricci_expanded(norm: NormModel, germ: Germ, u) -> CurvatureReport:
    """Ricci curvature and the full curvature tensor via the expanded formula:
    row 0 of the one-row _ricci_block on the unbatched jet of H at the lift
    (its arrays are views of block arrays that nothing else holds)."""
    lift = _lift(germ, u)
    tensors = norm.jet(lift)[None].partial_tensors(4)
    u, S, *arrays, ric, parts = (
        f[0] for f in _ricci_block(germ, lift[None, :germ.n], tensors))
    return CurvatureReport(u, float(S), *arrays, float(ric),
                           tuple(parts.tolist()))


def _ricci_block(germ: Germ, u: np.ndarray, tensors: tuple,
                 first: int | None = None) -> tuple:
    """CurvatureReport's fields for the rows r of u (R, n), by matmuls over
    r, from H's partial tensors (h0, d1, ..., d4) at the lifts (u, 0), all
    with leading axis r.  u-derivative indices k, l follow r, then a
    quantity's own: DGI[r, k, i, j] = d_k g^ij, DH[r, k, i, a] = d_k h^i_a,
    DZ[r, k, a, b] = d_k zeta_ab (H's tensors are symmetric).  Per row,
    E = (-h; I_p) and R_k = (d3_k E)[t] give d_k zeta = E^T d3_k E,
    d_k h = g^-1 R_k and d_k d_l zeta = E^T d4_kl E - R_k^T g^-1 R_l
    - R_l^T g^-1 R_k, read only through one d4[r, t, t] product each for
    g^kl d_k d_l zeta (eta) and kappa^a kappa^b d_k d_l zeta_ab (z_kl); d3
    is read in d3[r, t].  ``first`` numbers rows in _pd_inverse's errors."""
    n, p, rows = germ.n, germ.p, len(u)
    h0, _, d2, d3, d4 = tensors
    t, s = slice(None, n), slice(n, None)       # tangent and normal blocks
    g, A = d2[:, t, t], d2[:, t, s]
    gi = _pd_inverse(g, first)
    g1 = gi[:, None]                            # broadcast over k
    DGI = -(g1 @ d3[:, t, t, t]) @ g1
    h = gi @ A
    E = np.concatenate((-h, np.eye(p)[None].repeat(rows, 0)), 1)
    F = d3[:, t] @ E[:, None]                   # d3_k E
    R, DZ = F[:, :, t], E.swapaxes(1, 2)[:, None] @ F
    DH = g1 @ R
    zeta = d2[:, s, s] - h.swapaxes(1, 2) @ A
    D4 = d4[:, t, t].reshape(rows, n * n, -1)   # d4_kl as rows
    GR = (gi @ DH.reshape(rows, n, n * p)).reshape(rows, n * n, p)  # g^kl DH_l
    S = R.reshape(rows, n * n, p).swapaxes(1, 2) @ GR   # g^kl R_k^T g^-1 R_l
    W = (gi.reshape(rows, 1, n * n) @ D4).reshape(rows, n + p, n + p)

    def act(X, y):   # (X[k] @ y)[i] as the matrix [i, k]
        return (X @ y[:, None, :, None])[..., 0].swapaxes(1, 2)

    xi = -0.5 * DH.trace(axis1=1, axis2=2)
    eta = 0.75 * (DH.reshape(rows, n * n, p).swapaxes(1, 2)
                  @ DH.swapaxes(1, 2).reshape(rows, n * n, p)) + 0.5 * (
        (DGI.trace(axis1=1, axis2=2)[:, None]
         @ DZ.reshape(rows, n, p * p)).reshape(rows, p, p)
        + E.swapaxes(1, 2) @ W @ E - 2.0 * S)
    rho = (3.0 * xi[:, None, :, None] * h[:, :, None, :]
           + 0.5 * DGI.trace(axis1=1, axis2=3)[..., None, None] * zeta[:, None]
           + (gi @ DZ.reshape(rows, n, p * p)).reshape(rows, n, p, p))
    fu = (u @ germ.d2.reshape(p * n, n).T).reshape(rows, p, n)
    fuT = fu.swapaxes(1, 2)
    fz = fuT @ zeta
    kap = (fu @ u[:, :, None])[..., 0]
    cub = (u @ germ.d3.reshape(p * n * n, n).T).reshape(rows, p * n, n)
    cub = ((cub @ u[:, :, None]).reshape(rows, p, n) @ u[:, :, None])[..., 0]
    Q = act(DZ, kap)                            # dzeta[a, b, k] kap[b]
    P = act(R, kap)                             # R_k kap as [i, k]
    DHk = gi @ P                                # act(DH, kap)
    v = E @ kap[:, :, None]
    z_kl = ((D4.reshape(rows, -1, n + p) @ v).reshape(rows, n * n, -1) @ v
            ).reshape(rows, n, n) - 2.0 * (P.swapaxes(1, 2) @ DHk)
    T1 = -0.5 * act(DH, cub)
    T2 = -(0.75 * (DHk @ DHk) + 0.5 * (act(DGI, (kap[:, None] @ Q)[:, 0])
                                       + gi @ z_kl))
    T3 = (1.5 * act(DH, (fu @ h @ kap[:, :, None])[..., 0])
          - 0.5 * (act(DGI, (fz @ kap[:, :, None])[..., 0])
                   + gi @ fuT @ Q))
    T4 = -0.5 * (gi @ Q.swapaxes(1, 2) @ fu)
    X = (kap[:, None] @ zeta).reshape(rows, p) @ germ.d2.reshape(p, n * n)
    T5 = gi @ (X.reshape(rows, n, n) - fz @ fu).swapaxes(1, 2)
    parts = np.array((T1, T5, T2, T3 + T4)).trace(axis1=2, axis2=3).T
    Rik = T1 + T2 + T3 + T4 + T5
    G = 0.5 * (h @ kap[:, :, None])[..., 0]
    return (u, np.sqrt(2.0 * h0), g, h, kap, G, xi, zeta, eta, rho, Rik,
            Rik.trace(axis1=1, axis2=2), parts)


def ricci_expanded_batch(norm: NormModel, germ: Germ, U) -> CurvatureReport:
    """ricci_expanded for each row of U (N, n): one report whose fields gain
    a leading direction axis (ric_parts (N, 4)).  Each block of BATCH_BLOCK
    rows takes one batched jet of H, bit for bit the per-direction jets, and
    one _ricci_block contraction."""
    U = np.asarray(U, dtype=np.float64)
    if U.ndim != 2 or U.shape[1] != germ.n or len(U) == 0:
        raise ValueError(f"directions must have shape (N, {germ.n}), N >= 1")
    blocks = []
    for s in range(0, len(U), BATCH_BLOCK):
        u = U[s:s + BATCH_BLOCK]
        jet = norm.jet(np.hstack([u, np.zeros((len(u), germ.p))]))
        blocks.append(_ricci_block(germ, u, jet.partial_tensors(4), s))
    return CurvatureReport(*(np.concatenate(f) for f in zip(*blocks)))


# -- oracle route -------------------------------------------------------------


def _spray(H, fi, fkl, u, solve):
    """G^i = 1/2 g^ij f^a_kl u^k u^l (H_ja + H_ab f^b_j).

    H is the ambient Hessian at the graph point over (x, u), fi = f^a_i(x)
    and fkl = f^a_kl(x); ``solve(g, b)`` returns g^-1 b for columns b.  All
    operations are numpy products on trailing axes, so the same code runs on
    floats, on stacks of points (leading axes) and on jet tensors.
    """
    n = u.shape[-1]
    A, B = H[..., :n, n:], H[..., n:, n:]
    Af, fB = A @ fi, fi.swapaxes(-1, -2) @ B
    g = H[..., :n, :n] + Af + Af.swapaxes(-1, -2) + fB @ fi  # frame (I, fi)
    kap = (fkl @ u[..., None, :, None])[..., 0] @ u[..., None]
    return 0.5 * solve(g, (A + fB) @ kap)[..., 0]


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


def _spray_jets(norm: NormModel, germ: Germ, u: np.ndarray) -> Jet4:
    """The order-2 jet tensor (n,) of G^i in the doubled variables
    (x, u - u0); H at the lift is read to order 4."""
    n = germ.n
    dim = 2 * n
    _, _, D2, D3, D4 = norm.jet(_lift(germ, u)).partial_tensors(4)
    xu = Jet4.stack(Jet4.variables(dim, np.zeros(dim), 2))
    xjets, du = xu[:n], xu[n:]
    ujets = du + u
    fi = taylor_jets([None, germ.d2, germ.d3], xjets)     # f^a_i(x)
    fkl = taylor_jets([germ.d2, germ.d3], xjets)         # f^a_kl(x)

    # ambient displacement of the lifted direction: delta = yhat(x,u) - (u0, 0)
    delta = Jet4(dim, np.concatenate([du.coeffs, (fi @ ujets).coeffs]))
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
    H = np.concatenate([norm.jet(b, 2).hessian() for b in blocks])
    return _spray(H, fi, fkl, u, np.linalg.solve)


def _ricci_oracle_fd(norm: NormModel, germ: Germ, u: np.ndarray,
                     step_x: float = 1e-4,
                     step_u: float | None = None) -> np.ndarray:
    n = germ.n
    if step_u is None:
        step_u = 1e-4 * (1.0 + float(np.linalg.norm(u)))
    eps = np.finfo(float).eps
    if step_x < 64 * eps or step_u < 64 * eps * (1.0 + float(np.linalg.norm(u))):
        raise StepUnderflow("finite-difference step too small")

    # stencil first: at(w) is the row of point w in G; each partial reads G
    rows = {}

    def at(w):
        return rows.setdefault(w.tobytes(), len(rows))

    def extrapolate(fine, coarse):
        return lambda G: (4.0 * fine(G) - coarse(G)) / 3.0

    w0 = np.concatenate([np.zeros(n), u])
    steps = np.concatenate([np.full(n, step_x), np.full(n, step_u)])
    c = at(w0)

    def partial1(idx, h):
        e = h * np.eye(2 * n)[idx]

        def d(hh):
            p, m = at(w0 + (hh / h) * e), at(w0 - (hh / h) * e)
            return lambda G: (G[p] - G[m]) / (2 * hh)
        return extrapolate(d(h / 2), d(h))

    def partial2(i, j):
        hi, hj = steps[i], steps[j]
        ei, ej = np.eye(2 * n)[[i, j]]
        if i == j:
            def d(h):
                p, m = at(w0 + h * ei), at(w0 - h * ei)
                return lambda G: (G[p] - 2.0 * G[c] + G[m]) / h ** 2
            return extrapolate(d(hi / 2), d(hi))

        def d(scale):
            a, b = scale * hi, scale * hj
            pp, pm = at(w0 + a * ei + b * ej), at(w0 + a * ei - b * ej)
            mp, mm = at(w0 - a * ei + b * ej), at(w0 - a * ei - b * ej)
            return lambda G: (G[pp] - G[pm] - G[mp] + G[mm]) / (4 * a * b)
        return extrapolate(d(0.5), d(1.0))

    d1 = [partial1(k, steps[k]) for k in range(2 * n)]
    dxv = [partial2(j, n + k) for j in range(n) for k in range(n)]
    dvv = [(j, k, partial2(n + j, n + k)) for j in range(n)
           for k in range(j, n)]

    W = np.array([np.frombuffer(w) for w in rows])
    G = spray_field(norm, germ, W[:, :n], W[:, n:])
    Gx = np.stack([f(G) for f in d1[:n]], axis=1)
    Gv = np.stack([f(G) for f in d1[n:]], axis=1)
    Gxv = np.stack([f(G) for f in dxv], axis=1).reshape(n, n, n)
    Gvv = np.zeros((n, n, n))
    for j, k, f in dvv:
        Gvv[:, j, k] = Gvv[:, k, j] = f(G)
    return _assemble_ricci(u, G[c], Gx, Gv, Gxv, Gvv)


def ricci_oracle(norm: NormModel, germ: Germ, u, scheme: str = "jet",
                 **fd_steps) -> float:
    """Ricci curvature through the spray route, independent of the expansion.

    ``scheme`` selects jet differentiation of G(x, u) in doubled variables
    ("jet") or Richardson-extrapolated central differences
    ("finite_difference").
    """
    u = np.asarray(u, dtype=np.float64)
    if scheme == "jet":
        R = _ricci_oracle_jets(norm, germ, u)
    elif scheme == "finite_difference":
        R = _ricci_oracle_fd(norm, germ, u, **fd_steps)
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
