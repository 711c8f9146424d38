"""Curvature pipeline for a germ inside a Minkowski space.

For an adapted germ y = f(x) and a norm H on R^(n+p), the induced metric
on the submanifold has fundamental tensor, spray, and Ricci curvature
expressible entirely through the jets of H at the lifted direction
(u, 0) and the germ arrays f_ij, f_ijk.  Two independent routes are kept:

* :func:`ricci_expanded` evaluates the expanded coefficient formula.
  Writing zeta_ab = H_ab - h^s_a H_sb and h^i_a = g^ij H_ja, the Ricci
  scalar splits into four groups,

      Ric(u) = xi_a f^a_jls u^j u^l u^s
             + zeta_ab g^il (f^b_il f^a_jr - f^b_jl f^a_ir) u^j u^r
             - eta_ab kappa^a kappa^b
             - rho^i_ab kappa^b f^a_il u^l,

  with xi, eta, rho built from u-derivatives of h, g^-1 and zeta.  All of
  those u-derivatives are ambient jet coefficients composed with the
  linear lift u -> (u, 0), so a single order-4 jet of H feeds everything.

* :func:`ricci_oracle` never sees the formula above.  It builds the spray

      G^i(x, u) = 1/2 g^ij(x, u) f^a_kl(x) u^k u^l (H_ja + H_ab f^b_j)

  as a function of position and direction and pushes it through the
  spray-to-Ricci contraction

      R^i_k = 2 dG^i/dx^k - u^j d2G^i/dx^j du^k
            + 2 G^j d2G^i/du^j du^k - dG^i/du^j dG^j/du^k,

  differentiating either with jets in the doubled variables (x, u) or
  with central finite differences.  Agreement of the two routes is the
  main correctness gate of the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from io import StringIO

import numpy as np

from .germ import COND_LIMIT, Germ, taylor_jets
from .jets import Jet4
from .minkowski import NormModel

ZETA_DET_RATIO_TOL = 1e-10  # zeta = det(Hess H) / det(g) for p = 1


class NonPDTensor(ValueError):
    """Fundamental tensor g is not positive definite (or too ill-conditioned)."""


class NonPDZeta(ValueError):
    """The normal-block tensor zeta failed its positive definiteness check."""


class StepUnderflow(ValueError):
    """Finite-difference step too small to resolve against roundoff."""


def _lift(germ: Germ, u: np.ndarray) -> np.ndarray:
    return np.concatenate([u, np.zeros(germ.p)])


def _h_tensors(norm: NormModel, point: np.ndarray):
    return norm.jet(point).partial_tensors(4)


def _pd_inverse(g: np.ndarray) -> np.ndarray:
    evals, vecs = np.linalg.eigh(g)
    if evals[0] <= 0.0:
        raise NonPDTensor(f"fundamental tensor has eigenvalue {evals[0]:.6g}")
    if evals[-1] / evals[0] > COND_LIMIT:
        raise NonPDTensor("fundamental tensor condition number exceeds "
                          f"{COND_LIMIT:g}")
    return (vecs / evals) @ vecs.T


class _Geometry:
    """All u-derivative tensors of the expanded formula at one direction."""

    def __init__(self, norm: NormModel, germ: Germ, u):
        u = np.asarray(u, dtype=np.float64)
        if u.shape != (germ.n,):
            raise ValueError(f"direction must have shape ({germ.n},)")
        n = germ.n
        self.u = u
        self.norm = norm
        self.germ = germ
        h0, _, d2, d3, d4 = _h_tensors(norm, _lift(germ, u))
        self.S = float(np.sqrt(2.0 * h0))
        g = d2[:n, :n]
        gi = _pd_inverse(g)
        dg = d3[:n, :n, :n]
        d2g = d4[:n, :n, :n, :n]
        A = d2[:n, n:]
        dA = d3[:n, n:, :n]
        d2A = d4[:n, n:, :n, :n]
        B = d2[n:, n:]
        dB = d3[n:, n:, :n]
        d2B = d4[n:, n:, :n, :n]

        dgi = -np.einsum("ia,abk,bj->ijk", gi, dg, gi)
        d2gi = (-np.einsum("ia,abkl,bj->ijkl", gi, d2g, gi)
                + np.einsum("ia,abk,bc,cdl,dj->ijkl", gi, dg, gi, dg, gi)
                + np.einsum("ia,abl,bc,cdk,dj->ijkl", gi, dg, gi, dg, gi))
        h = gi @ A
        dh = (np.einsum("ijk,ja->iak", dgi, A)
              + np.einsum("ij,jak->iak", gi, dA))
        d2h = (np.einsum("ijkl,ja->iakl", d2gi, A)
               + np.einsum("ijk,jal->iakl", dgi, dA)
               + np.einsum("ijl,jak->iakl", dgi, dA)
               + np.einsum("ij,jakl->iakl", gi, d2A))
        zeta = B - np.einsum("sa,sb->ab", h, A)
        dzeta = (dB - np.einsum("sak,sb->abk", dh, A)
                 - np.einsum("sa,sbk->abk", h, dA))
        d2zeta = (d2B - np.einsum("sakl,sb->abkl", d2h, A)
                  - np.einsum("sak,sbl->abkl", dh, dA)
                  - np.einsum("sal,sbk->abkl", dh, dA)
                  - np.einsum("sa,sbkl->abkl", h, d2A))

        self.g, self.gi, self.dgi, self.d2gi = g, gi, dgi, d2gi
        self.ambient_hessian = d2
        self.h, self.dh, self.d2h = h, dh, d2h
        self.zeta, self.dzeta, self.d2zeta = zeta, dzeta, d2zeta
        self.xi = -0.5 * np.einsum("iai->a", dh)
        self.eta = (0.75 * np.einsum("iaj,jbi->ab", dh, dh)
                    + 0.5 * (np.einsum("iji,abj->ab", dgi, dzeta)
                             + np.einsum("ij,abij->ab", gi, d2zeta)))
        self.rho = (3.0 * np.einsum("a,ib->iab", self.xi, h)
                    + 0.5 * np.einsum("ijj,ab->iab", dgi, zeta)
                    + np.einsum("ij,abj->iab", gi, dzeta))
        self.kappa = germ.kappa(u)
        self.cubic = germ.cubic(u)
        self.fu = np.einsum("ajl,l->aj", germ.d2, u)


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


def fundamental_tensor(norm: NormModel, germ: Germ, u) -> np.ndarray:
    """g_ij(0, u) = H_ij(u, 0): the tangent block of the ambient Hessian."""
    u = np.asarray(u, dtype=np.float64)
    n = germ.n
    d2 = norm.jet(_lift(germ, u)).partial_tensors(2)[2]
    g = d2[:n, :n]
    _pd_inverse(g)  # raises NonPDTensor when unusable
    return g


def spray_at_origin(norm: NormModel, germ: Germ, u) -> np.ndarray:
    """G^i(0, u) = 1/2 h^i_a kappa^a(u)."""
    geo = _Geometry(norm, germ, u)
    return 0.5 * geo.h @ geo.kappa


def zeta_check(norm: NormModel, germ: Germ, u) -> tuple:
    """Return (zeta, residual) and enforce positive definiteness.

    For one codimension, zeta has the closed form det(Hess H) / det(g)
    with both determinants taken at the lifted direction; the residual
    reports the relative mismatch of that identity.  For p > 1 the
    residual is None.
    """
    geo = _Geometry(norm, germ, u)
    zeta = geo.zeta
    if np.linalg.eigvalsh(zeta)[0] <= 0.0:
        raise NonPDZeta("zeta is not positive definite at this direction")
    residual = None
    if germ.p == 1:
        ratio = (np.linalg.det(geo.ambient_hessian)
                 / np.linalg.det(geo.g))
        residual = abs(zeta[0, 0] - ratio) / (1.0 + abs(ratio))
    return zeta, residual


def ricci_expanded(norm: NormModel, germ: Germ, u) -> CurvatureReport:
    """Ricci curvature and the full curvature tensor via the expanded formula."""
    geo = _Geometry(norm, germ, u)
    n = germ.n
    gi, dgi, d2gi = geo.gi, geo.dgi, geo.d2gi
    h, dh = geo.h, geo.dh
    zeta, dzeta, d2zeta = geo.zeta, geo.dzeta, geo.d2zeta
    kap, cub, fu = geo.kappa, geo.cubic, geo.fu
    d2f = germ.d2
    u = geo.u

    T1 = -0.5 * np.einsum("iak,a->ik", dh, cub)
    T2 = -(0.75 * np.einsum("iaj,jbk,a,b->ik", dh, dh, kap, kap)
           + 0.5 * (np.einsum("ijk,abj,a,b->ik", dgi, dzeta, kap, kap)
                    + np.einsum("ij,abjk,a,b->ik", gi, d2zeta, kap, kap)))
    T3 = (1.5 * np.einsum("iak,jb,b,aj->ik", dh, h, kap, fu)
          - 0.5 * (np.einsum("ijk,ab,b,aj->ik", dgi, zeta, kap, fu)
                   + np.einsum("ij,abk,b,aj->ik", gi, dzeta, kap, fu)))
    T4 = -0.5 * np.einsum("ij,abj,b,ak->ik", gi, dzeta, kap, fu)
    T5 = (np.einsum("il,ab,bkl,a->ik", gi, zeta, d2f, kap)
          - np.einsum("il,ab,bl,ak->ik", gi, zeta, fu, fu))
    Rik = T1 + T2 + T3 + T4 + T5
    ric = float(np.trace(Rik))
    parts = (float(np.trace(T1)), float(np.trace(T5)),
             float(np.trace(T2)), float(np.trace(T3) + np.trace(T4)))
    return CurvatureReport(u=u, S=geo.S, g=geo.g, h=h, kappa=kap,
                           G=0.5 * h @ kap, xi=geo.xi, zeta=zeta,
                           eta=geo.eta, rho=geo.rho, Rik=Rik, Ric=ric,
                           ric_parts=parts)


# -- oracle route -------------------------------------------------------------


def _spray_jets(norm: NormModel, germ: Germ, u: np.ndarray):
    """Order-2-exact jets of G^i in the doubled variables (x, u - u0)."""
    n, p = germ.n, germ.p
    N = n + p
    dim = 2 * n
    _, _, D2, D3, D4 = _h_tensors(norm, _lift(germ, u))

    xjets = [Jet4.variable(dim, i) for i in range(n)]
    ujets = [Jet4.variable(dim, n + i, u[i]) for i in range(n)]
    fi = taylor_jets([None, germ.d2, germ.d3], xjets)     # f^a_i(x)
    fkl = taylor_jets([germ.d2, germ.d3], xjets)         # f^a_kl(x)

    # ambient displacement of the lifted direction: delta = yhat(x,u) - (u0, 0)
    delta = [Jet4.variable(dim, n + i) for i in range(n)]
    for a in range(p):
        acc = Jet4.constant(dim, 0.0)
        for i in range(n):
            acc = acc + ujets[i] * fi[a][i]
        delta.append(acc)

    ncoef = delta[0].coeffs.shape[0]
    dmat = np.stack([d.coeffs for d in delta])
    ddmat = np.zeros((N, N, ncoef))
    for c in range(N):
        for d in range(c, N):
            prod = (delta[c] * delta[d]).coeffs
            ddmat[c, d] = prod
            if d != c:
                ddmat[d, c] = prod
    # second-order Taylor of every H_ab around the lift, composed with delta;
    # exact through jet order 2, which is all the Ricci contraction reads
    h2coef = (np.einsum("abc,cX->abX", D3, dmat)
              + 0.5 * np.einsum("abcd,cdX->abX", D4, ddmat))
    h2coef[:, :, 0] += D2
    H2 = [[Jet4(dim, h2coef[a, b]) for b in range(N)] for a in range(N)]

    # fundamental tensor jets and their order-2 Neumann inverse
    gjet = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            acc = H2[i][j]
            for a in range(p):
                acc = acc + H2[i][n + a] * fi[a][j] + H2[j][n + a] * fi[a][i]
                for b in range(p):
                    acc = acc + H2[n + a][n + b] * (fi[a][i] * fi[b][j])
            gjet[i][j] = acc
            if j != i:
                gjet[j][i] = acc
    g0 = np.array([[gjet[i][j].value for j in range(n)] for i in range(n)])
    gi0 = _pd_inverse(g0)
    E = [[sum((gi0[i, k] * (gjet[k][j] - g0[k, j]) for k in range(n)),
              Jet4.constant(dim, 0.0)) for j in range(n)] for i in range(n)]
    E2 = [[sum((E[i][k] * E[k][j] for k in range(n)), Jet4.constant(dim, 0.0))
           for j in range(n)] for i in range(n)]
    # Neumann series (I - E + E^2) gi0 is inverse to g through jet order 2
    ginv = [[sum(((Jet4.constant(dim, float(i == k)) - E[i][k] + E2[i][k])
                  * gi0[k, j] for k in range(n)), Jet4.constant(dim, 0.0))
             for j in range(n)] for i in range(n)]

    uu = [[ujets[k] * ujets[l] for l in range(n)] for k in range(n)]
    kt = []
    for a in range(p):
        acc = Jet4.constant(dim, 0.0)
        for k in range(n):
            for l in range(n):
                acc = acc + fkl[a][k][l] * uu[k][l]
        kt.append(acc)

    G = []
    for i in range(n):
        acc = Jet4.constant(dim, 0.0)
        for j in range(n):
            s = Jet4.constant(dim, 0.0)
            for a in range(p):
                rhs = H2[j][n + a]
                for b in range(p):
                    rhs = rhs + H2[n + a][n + b] * fi[b][j]
                s = s + kt[a] * rhs
            acc = acc + ginv[i][j] * s
        G.append(acc * 0.5)
    return G


def _assemble_ricci(n, u, G0, Gx, Gv, Gxv, Gvv) -> float:
    R = (2.0 * Gx
         - np.einsum("j,ijk->ik", u, Gxv)
         + 2.0 * np.einsum("j,ijk->ik", G0, Gvv)
         - Gv @ Gv)
    return float(np.trace(R))


def _ricci_oracle_jets(norm: NormModel, germ: Germ, u: np.ndarray) -> float:
    n = germ.n
    G = _spray_jets(norm, germ, u)
    G0 = np.array([g.value for g in G])
    Gx = np.zeros((n, n))
    Gv = np.zeros((n, n))
    Gxv = np.zeros((n, n, n))
    Gvv = np.zeros((n, n, n))
    for i, jet in enumerate(G):
        _, t1, t2 = jet.partial_tensors(2)
        Gx[i] = t1[:n]
        Gv[i] = t1[n:]
        Gxv[i] = t2[:n, n:]
        Gvv[i] = t2[n:, n:]
    return _assemble_ricci(n, u, G0, Gx, Gv, Gxv, Gvv)


def spray_field(norm: NormModel, germ: Germ, x, u) -> np.ndarray:
    """Float evaluation of G^i(x, u) from second derivatives of H alone."""
    x = np.asarray(x, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    n, p = germ.n, germ.p
    fi = (np.einsum("aij,j->ai", germ.d2, x)
          + 0.5 * np.einsum("aijk,j,k->ai", germ.d3, x, x))
    fkl = germ.d2 + np.einsum("aklm,m->akl", germ.d3, x)
    yhat = np.concatenate([u, fi @ u])
    D2 = norm.jet(yhat).partial_tensors(2)[2]
    g = (D2[:n, :n]
         + np.einsum("ia,aj->ij", D2[:n, n:], fi)
         + np.einsum("ja,ai->ij", D2[:n, n:], fi)
         + np.einsum("ab,ai,bj->ij", D2[n:, n:], fi, fi))
    kt = np.einsum("akl,k,l->a", fkl, u, u)
    rhs = D2[:n, n:] + np.einsum("ab,bj->ja", D2[n:, n:], fi)
    return 0.5 * np.linalg.solve(g, rhs @ kt)


def _ricci_oracle_fd(norm: NormModel, germ: Germ, u: np.ndarray,
                     step_x: float = 1e-4, step_u: float | None = None) -> float:
    n = germ.n
    u = np.asarray(u, dtype=np.float64)
    if step_u is None:
        step_u = 1e-4 * (1.0 + float(np.linalg.norm(u)))
    eps = np.finfo(float).eps
    if step_x < 64 * eps or step_u < 64 * eps * (1.0 + float(np.linalg.norm(u))):
        raise StepUnderflow("finite-difference step too small")

    def Gw(w):
        return spray_field(norm, germ, w[:n], w[n:])

    w0 = np.concatenate([np.zeros(n), u])
    steps = np.concatenate([np.full(n, step_x), np.full(n, step_u)])

    def partial1(idx, h):
        e = np.zeros(2 * n)
        e[idx] = h
        d = lambda hh: (Gw(w0 + (hh / h) * e) - Gw(w0 - (hh / h) * e)) / (2 * hh)
        return (4.0 * d(h / 2) - d(h)) / 3.0

    def partial2(i, j, hi, hj):
        ei = np.zeros(2 * n)
        ei[i] = 1.0
        ej = np.zeros(2 * n)
        ej[j] = 1.0

        if i == j:
            def d(h):
                return (Gw(w0 + h * ei) - 2.0 * Gw(w0) + Gw(w0 - h * ei)) / h ** 2
            return (4.0 * d(hi / 2) - d(hi)) / 3.0

        def d(scale):
            a, b = scale * hi, scale * hj
            return (Gw(w0 + a * ei + b * ej) - Gw(w0 + a * ei - b * ej)
                    - Gw(w0 - a * ei + b * ej)
                    + Gw(w0 - a * ei - b * ej)) / (4 * a * b)
        return (4.0 * d(0.5) - d(1.0)) / 3.0

    G0 = Gw(w0)
    Gx = np.stack([partial1(k, steps[k]) for k in range(n)], axis=1)
    Gv = np.stack([partial1(n + k, steps[n + k]) for k in range(n)], axis=1)
    Gxv = np.zeros((n, n, n))
    Gvv = np.zeros((n, n, n))
    for j in range(n):
        for k in range(n):
            Gxv[:, j, k] = partial2(j, n + k, steps[j], steps[n + k])
    for j in range(n):
        for k in range(j, n):
            val = partial2(n + j, n + k, steps[n + j], steps[n + k])
            Gvv[:, j, k] = val
            Gvv[:, k, j] = val
    return _assemble_ricci(n, u, G0, Gx, Gv, Gxv, Gvv)


def ricci_oracle(norm: NormModel, germ: Germ, u, scheme: str = "jet",
                 **fd_steps) -> float:
    """Ricci curvature through the spray route, independent of the expansion.

    ``scheme`` selects jet differentiation of G(x, u) in doubled variables
    ("jet") or Richardson-extrapolated central differences
    ("finite_difference").
    """
    u = np.asarray(u, dtype=np.float64)
    if scheme == "jet":
        return _ricci_oracle_jets(norm, germ, u)
    if scheme == "finite_difference":
        return _ricci_oracle_fd(norm, germ, u, **fd_steps)
    raise ValueError(f"unknown scheme {scheme!r}")


# -- report serialization -----------------------------------------------------


def _csv_columns(n: int, p: int) -> list:
    cols = [f"u_{i + 1}" for i in range(n)] + ["S", "Ric"]
    cols += [f"kappa_{a + 1}" for a in range(p)]
    cols += [f"G_{i + 1}" for i in range(n)]
    cols += [f"xi_{a + 1}" for a in range(p)]
    cols += [f"g_{i + 1}_{j + 1}" for i in range(n) for j in range(n)]
    cols += [f"h_{i + 1}_{a + 1}" for i in range(n) for a in range(p)]
    cols += [f"zeta_{a + 1}_{b + 1}" for a in range(p) for b in range(p)]
    cols += [f"eta_{a + 1}_{b + 1}" for a in range(p) for b in range(p)]
    cols += [f"rho_{i + 1}_{a + 1}_{b + 1}"
             for i in range(n) for a in range(p) for b in range(p)]
    cols += [f"Rik_{i + 1}_{k + 1}" for i in range(n) for k in range(n)]
    return cols


def reports_to_csv(reports) -> str:
    """Serialize a direction sweep; field order is fixed by _csv_columns."""
    reports = list(reports)
    if not reports:
        return ""
    n = reports[0].u.shape[0]
    p = reports[0].kappa.shape[0]
    buf = StringIO()
    buf.write(",".join(_csv_columns(n, p)) + "\n")
    for r in reports:
        vals = ([*r.u, r.S, r.Ric, *r.kappa, *r.G, *r.xi]
                + [*r.g.ravel(), *r.h.ravel(), *r.zeta.ravel(),
                   *r.eta.ravel(), *r.rho.ravel(), *r.Rik.ravel()])
        buf.write(",".join(repr(float(v)) for v in vals) + "\n")
    return buf.getvalue()
